"""Correction of measured times for the speed of a shared host.

On a shared machine the same pass can take twice as long from one second to
the next: the host slows every instruction, so CPU time inflates as much as
wall time.  The benchmark therefore times a fixed micro-workload, shaped like
auslab's inner loops (Fraction products, dict updates keyed by tuples), every
INTERVAL_S during each pass, from a SIGALRM handler in the same thread.  The
mean of those samples is the machine's speed over the pass, and a time is
reported at the reference speed, at which micro() takes REF_S:

    corrected = (measured - time spent sampling) * REF_S / mean(sample)

Samples are timed in thread CPU time, so that a sample preempted by another
process does not read as a slow host.  On an idle host of the reference
speed, corrected and measured times agree.

The micro-workload lasts about a millisecond: on the reference host its
slowdown tracked that of whole passes about one to one, while a 0.2 ms
version slowed more than the passes and over-corrected them.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# micro() seconds, sampled during a pass, in the fastest state of the host
# it was measured on: a 2-core 2.1 GHz Xeon KVM guest with Python 3.11.7.
REF_S = 850e-6
INTERVAL_S = 0.04
PROBE_INTERVAL_S = 0.01  # a set-up lasts about 0.15 s

_FRACTIONS = [Fraction(i + 1, 2 * i + 3) for i in range(16)]


def micro() -> Fraction:
    counts: dict = {}
    acc = Fraction(0)
    for i in range(200):
        acc = acc + _FRACTIONS[i % 16] * _FRACTIONS[(i * 5) % 16]
        key = (i % 7, i % 5)
        counts[key] = counts.get(key, 0) + i * i
    return acc


def timed_micro() -> float:
    started = time.thread_time()
    micro()
    return time.thread_time() - started


def slowdown(samples: list[float]) -> float:
    """Mean sample over REF_S: how much slower than the reference the host
    ran while the samples were taken."""
    return sum(samples) / len(samples) / REF_S


class Sampler:
    """Context manager that samples micro() every `interval` seconds of wall
    time."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(timed_micro())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        return slowdown(self.samples or [timed_micro()])

    def correct(self, seconds: float) -> float:
        """A time measured across the sampling, at the reference speed, with
        the sampling's own time taken out."""
        return (seconds - sum(self.samples)) / self.slowdown()
