"""Host speed, read from a fixed pure-Python routine.

On a shared host, neighbours slow every instruction of this process by up to
1.8x, in phases that last from seconds to minutes; a 20-second run can sit
wholly inside one.  Medians and minima of the raw times then differ by a
third from run to run.  The routine below does the same kinds of work as
splaylab, allocating small objects and chasing pointers through one large
search tree and through many tiny ones, and is read before each round,
after it and every half second within it, so each stretch of time between
two readings can be reported at the host's uncontended speed:

    seconds * REFERENCE_S / (median routine seconds read at its two ends)

The routine never calls splaylab, and the garbage collector is off while it
runs, so its speed does not depend on the objects splaylab holds at the
time.  A change to splaylab then moves the reported time in the same
proportion as the raw time; perfbench/README.md records the check.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# About the routine's fastest time on the calibration host (2 vCPUs of an
# Intel Xeon at 2.0 GHz, Python 3.11.7): 0.0047 to 0.0050 s.
REFERENCE_S = 0.0050
REPS = 3  # runs per reading

_KEYS = list(range(3000))
random.Random(1907).shuffle(_KEYS)
_SMALL = [(4, 2, 6, 1, 3, 5, 7), (1, 2, 3, 4, 5, 6, 7), (7, 3, 5, 1, 2, 6, 4), (2, 1, 7, 5, 3, 4, 6)]


class _Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key):
        self.key, self.left, self.right = key, None, None


def _insert(root: _Node, key: int) -> None:
    node = root
    while True:
        if key < node.key:
            if node.left is None:
                node.left = _Node(key)
                return
            node = node.left
        else:
            if node.right is None:
                node.right = _Node(key)
                return
            node = node.right


def _depth(root: _Node, key: int) -> int:
    steps, node = 0, root
    while node.key != key:
        node = node.left if key < node.key else node.right
        steps += 1
    return steps


def _routine() -> int:
    # One tree of 3000 keys, as in the stream and trace workloads ...
    root = _Node(_KEYS[0])
    for key in _KEYS[1:]:
        _insert(root, key)
    steps = sum(_depth(root, key) for key in range(0, len(_KEYS), 4))
    # ... and many trees of 7 keys, as in the battery and oracle workloads.
    for order in _SMALL * 125:
        small = _Node(order[0])
        for key in order[1:]:
            _insert(small, key)
        steps += sum(_depth(small, key) for key in order)
    return steps


def sample() -> list[float]:
    """Seconds of ``REPS`` runs of the routine.  The routine's nodes hold no
    cycles, so the collector has nothing to do for them; with it on, a
    collection it set off would scan whatever splaylab holds."""
    out = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPS):
            start = time.perf_counter()
            _routine()
            out.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return out


def scale(samples: list[float]) -> float:
    """Factor that brings a time measured among ``samples`` to reference speed."""
    return REFERENCE_S / statistics.median(samples)
