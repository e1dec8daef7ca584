"""What the benchmark records during a round, besides the calls' results.

Every call the benchmark makes into a splaylab layer goes through
:meth:`Recorder.call`.  Untraced, that is the call itself plus a counter.
Traced, the call also leaves a span named ``layer.function`` with its start
and end times, its parent span (the phase ``phase.round`` or ``phase.setup``)
and the identifier of the run.  Spans stay in memory until the run ends.

A call that raises is counted as failed and returns ``None``; the run goes on,
so one defect shows up in the failure count instead of ending the benchmark.

A :class:`Watch` runs a wall-clock timer while a round runs.  It reads the
host speed every ``READ_EVERY`` seconds, also in the middle of a long call
(see ``hostspeed``).  In a traced round it also samples the Python stack every
``SAMPLE_EVERY`` seconds, which gives each splaylab module's busy and self time
over every call it serves, those made inside splaylab included.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import hostspeed

READ_EVERY = 0.5
# Hooks that run on every Python call (sys.setprofile, sys.settrace, cProfile)
# slowed the rounds 3.5 to 4.6 times, since splaylab makes three to eight
# million calls a second, and shifted the layers' shares with their call rates.
# With sampling every millisecond, and spans, traced rounds ran 1 to 6%
# slower than untraced ones.
SAMPLE_EVERY = 0.001


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: Optional[int]
    name: str  # "layer.function" for a call, "phase.<name>" for a phase
    metric: Optional[str]  # per-layer metric the call's time adds to
    start: float
    end: float

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.traced = False
        self.spans: list[Span] = []
        self.calls = 0
        self.failures: list[str] = []
        self._open: list[int] = []  # ids of the spans now open, innermost last
        self._next_id = 0

    def call(self, name: str, metric: Optional[str], fn: Callable, *args, **kwargs):
        self.calls += 1
        try:
            if not self.traced:
                return fn(*args, **kwargs)
            with self._span(name, metric):
                return fn(*args, **kwargs)
        except Exception as err:  # counted as a failed operation; the run goes on
            self.failures.append(f"{name}: {type(err).__name__}: {str(err)[:120]}")
            return None

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        if not self.traced:
            yield
            return
        with self._span(f"phase.{name}", None):
            yield

    @contextlib.contextmanager
    def _span(self, name: str, metric: Optional[str]) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append(Span(span_id, parent, name, metric, start, end))

    def write(self, path, header: dict) -> None:
        """Write the header and then one JSON line per span."""
        with open(path, "w") as out:
            out.write(json.dumps({"run_id": self.run_id, **header}) + "\n")
            for s in self.spans:
                out.write(
                    json.dumps(
                        {
                            "run_id": self.run_id,
                            "span_id": s.span_id,
                            "parent_id": s.parent_id,
                            "name": s.name,
                            "metric": s.metric,
                            "start": s.start,
                            "end": s.end,
                        }
                    )
                    + "\n"
                )


def metric_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per per-layer metric of the given spans."""
    out: dict[str, float] = {}
    for s in spans:
        if s.metric is not None:
            out[s.metric] = out.get(s.metric, 0.0) + s.seconds
    return out


class Watch:
    """Host-speed readings and, when ``sampling``, stack samples, taken from
    a wall-clock timer (SIGALRM) while the ``with`` block runs.

    ``readings`` holds (end of the stretch before, start of the stretch
    after, routine seconds) per reading, the first taken on entry and the
    last on exit; the readings' own time lies outside every stretch.  A stack
    sample adds one to ``own[m]`` when the innermost frame from splaylab is in
    module ``m``, and one to ``busy[m]`` when any frame is; ``samples``
    counts every sample, those taken outside splaylab included.
    """

    def __init__(self, package_dir, sampling: bool):
        self._prefix = os.path.join(str(package_dir), "")
        self._modules: dict[str, Optional[str]] = {}  # file name -> module
        self.sampling = sampling
        self.readings: list[tuple[float, float, list[float]]] = []
        self.samples = 0
        self.own: Counter = Counter()
        self.busy: Counter = Counter()
        self._next_reading = 0.0
        self._active = False
        self._previous = signal.SIG_DFL

    def __enter__(self) -> "Watch":
        self._read()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        self._arm()
        return self

    def __exit__(self, *exc) -> None:
        # A tick that fired just before the timer is stopped has its handler
        # run later, possibly after this line; it must not arm the timer again,
        # or the next alarm would meet the default handler and end the process.
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._read()

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY if self.sampling else READ_EVERY)

    def _read(self) -> None:
        end = time.perf_counter()
        samples = hostspeed.sample()
        start = time.perf_counter()
        self.readings.append((end, start, samples))
        self._next_reading = start + READ_EVERY

    def _tick(self, signum, frame) -> None:
        if not self._active:
            return
        if self.sampling:
            self._sample(frame)
        if time.perf_counter() >= self._next_reading:
            self._read()
        self._arm()

    def _module(self, filename: str) -> Optional[str]:
        module = None
        if filename.startswith(self._prefix):
            module = os.path.splitext(filename[len(self._prefix):])[0]
        self._modules[filename] = module
        return module

    def _sample(self, frame) -> None:
        self.samples += 1
        own, seen, last = None, set(), None
        while frame is not None:
            filename = frame.f_code.co_filename
            if filename is not last:  # a run of frames from one file is looked up once
                last = filename
                module = (self._modules[filename] if filename in self._modules
                          else self._module(filename))
                if module is not None:
                    own = own or module
                    seen.add(module)
            frame = frame.f_back
        if own is not None:
            self.own[own] += 1
        self.busy.update(seen)
