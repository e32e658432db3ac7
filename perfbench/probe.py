"""Reference loop that scales timings to a nominal machine speed.

On a shared host the speed of a vCPU swings by up to 1.7x for seconds
to minutes at a time, which moves every wall time with it. While a
timed interval runs, a SIGALRM handler in the main thread times a small
fixed loop (string, dict, JSON and zlib work, like the program's own
mix) every INTERVAL_S, measuring the thread's CPU time so that waits
for other threads do not count; EDGE_REPS more loops run just before
and just after the interval. The interval is then scaled to the nominal
speed: seconds * NOMINAL_S * mean(1 / loop time). A slow phase slows
the loop as much as the program, so the scaled time keeps the program's
own cost and drops most of the host's swing. The time spent in the
handler is taken out of the interval. The loop is part of the
benchmark, not of the program, so a change to corpusforge cannot move
it.
"""

from __future__ import annotations

import contextlib
import json
import signal
import zlib
from dataclasses import dataclass, field
from time import perf_counter, thread_time

# loop time on an uncontended vCPU of the machine the benchmark was
# tuned on (Xeon, 2 vCPUs); it only sets the scale
NOMINAL_S = 0.004
INTERVAL_S = 0.25
EDGE_REPS = 20

_WORDS = [f"w{i % 997}x{i % 13}" for i in range(4000)]


def _once() -> float:
    started = thread_time()
    counts: dict[str, int] = {}
    for word in _WORDS:
        key = word.upper().lower()
        counts[key] = counts.get(key, 0) + 1
    zlib.compress(json.dumps(counts, sort_keys=True).encode("utf-8"), 6)
    return thread_time() - started


@dataclass
class Interval:
    seconds: float = 0.0  # wall time, handler time taken out
    scaled: float = 0.0   # seconds at the nominal speed
    samples: list[float] = field(default_factory=list)  # loop times


@contextlib.contextmanager
def timed():
    """Time the body; yields an Interval filled in when the body ends.
    Main thread only (signal handlers run there)."""
    result = Interval()
    samples = [_once() for _ in range(EDGE_REPS)]
    paused = 0.0

    def sample(_signum, _frame):
        nonlocal paused
        started = perf_counter()
        samples.append(_once())
        paused += perf_counter() - started

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    started = perf_counter()
    try:
        yield result
    finally:
        elapsed = perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        samples.extend(_once() for _ in range(EDGE_REPS))
        result.seconds = elapsed - paused
        result.samples = samples
        result.scaled = result.seconds * NOMINAL_S * sum(1 / s for s in samples) / len(samples)
