"""Deterministic instance generators for the adversarial families used by
the verification suites and probes."""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from .model import Instance
from .tree import InvariantError, Node, bst_from_sequence, left_spine_tree, preorder


class UnknownFamilyError(ValueError):
    pass


class FamilyInstance(NamedTuple):
    name: str
    params: dict
    instance: Instance
    subsequence: Optional[tuple[int, ...]]  # paired Y, when the family has one


def trial_rng(*parts: object) -> random.Random:
    """Generator seeded with the parts joined by colons.  String seeding
    hashes with SHA-512, so results are stable across runs and Python
    versions."""
    return random.Random(":".join(map(str, parts)))


def random_tree(n: int, rng: random.Random) -> Node:
    order = list(range(1, n + 1))
    rng.shuffle(order)
    t = bst_from_sequence(order)
    if t is None:
        raise InvariantError("a random tree needs at least one key")
    return t


def random_instance(rng: random.Random, n: int, m: int) -> Instance:
    """A random tree on keys 1..n, then m uniform requests, drawn in that
    order from ``rng``."""
    t = random_tree(n, rng)
    return Instance(tuple(rng.randint(1, n) for _ in range(m)), t)


def generate(family: str, n: int = 0, k: int = 0, m: int = 0, seed: int = 0) -> FamilyInstance:
    if family == "spine-312":
        if n < 3:
            raise ValueError("spine-312 needs n >= 3")
        t = left_spine_tree(range(1, n + 1))
        return FamilyInstance(family, {"n": n}, Instance((3, 1, 2), t), (1, 2))
    if family == "powers":
        if k < 2:
            raise ValueError("powers needs k >= 2")
        size = 2 ** k - 1
        t = left_spine_tree(range(1, size + 1))
        descending = [2 ** j for j in range(k - 1, -1, -1)]
        ascending = [2 ** j for j in range(1, k)]
        x = tuple(descending + ascending)
        y = tuple(2 ** j for j in range(k))
        return FamilyInstance(family, {"k": k}, Instance(x, t), y)
    if family == "mtr-bad":
        if n < 2:
            raise ValueError("mtr-bad needs n >= 2")
        t = left_spine_tree(range(1, n + 1))
        x = tuple(list(range(n, 0, -1)) + list(range(2, n + 1)))
        y = tuple(range(1, n + 1))
        return FamilyInstance(family, {"n": n}, Instance(x, t), y)
    if family == "sequential":
        if n < 1:
            raise ValueError("sequential needs n >= 1")
        t = left_spine_tree(range(1, n + 1))
        return FamilyInstance(family, {"n": n}, Instance(tuple(range(1, n + 1)), t), None)
    if family == "traversal":
        if n < 1:
            raise ValueError("traversal needs n >= 1")
        rng = trial_rng("traversal", n, seed)
        t1 = random_tree(n, rng)
        t2 = random_tree(n, rng)
        return FamilyInstance(
            family, {"n": n, "seed": seed}, Instance(preorder(t2), t1), None
        )
    if family == "random":
        if n < 1 or m < 0:
            raise ValueError("random needs n >= 1, m >= 0")
        inst = random_instance(trial_rng("random", n, m, seed), n, m)
        return FamilyInstance(family, {"n": n, "m": m, "seed": seed}, inst, None)
    raise UnknownFamilyError(family)


FAMILY_NAMES = ("spine-312", "powers", "mtr-bad", "sequential", "traversal", "random")
