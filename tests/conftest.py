import random

import pytest

from splaylab.families import random_tree
from splaylab.model import Execution, Instance
from splaylab.suites import random_execution as _random_execution


def make_random_instance(rng: random.Random, n: int, m: int) -> Instance:
    return Instance(
        tuple(rng.randint(1, n) for _ in range(m)), random_tree(n, rng)
    )


def make_random_execution(rng: random.Random, inst: Instance) -> Execution:
    return _random_execution(rng, inst)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
