import random

import pytest

from splaylab.families import random_tree
from splaylab.model import Execution, Instance
from splaylab.suites import random_execution as _random_execution
from splaylab.tree import DuplicateKeyError, Node, Tree, path_nodes, rebuild_path


def make_random_instance(rng: random.Random, n: int, m: int) -> Instance:
    return Instance(
        tuple(rng.randint(1, n) for _ in range(m)), random_tree(n, rng)
    )


def make_random_execution(rng: random.Random, inst: Instance) -> Execution:
    return _random_execution(rng, inst)


def path_encoding(t: Tree, key: int) -> str:
    """Binary encoding of the access path: 0 = left, 1 = right, empty = root.
    The reference each ``AccessRecord.encoding`` is checked against."""
    return "".join("0" if key < node.key else "1" for node in path_nodes(t, key)[:-1])


def insert_leaf(t: Tree, key: int) -> Node:
    """Standard leaf insertion; rebuilds the access path.  The reference for
    building trees by insertion and for the deque's push and inject."""
    path = []
    node = t
    while node is not None:
        if key == node.key:
            raise DuplicateKeyError(key)
        path.append(node)
        node = node.left if key < node.key else node.right
    return rebuild_path(path, key, Node(key))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
