"""The machine's momentary speed, read from a fixed calibration kernel.

On a shared host the same code runs up to twice as slow for stretches of a
few seconds to minutes, because other tenants contend for the core, its
caches and memory. Timing more work or taking the fastest repeat does not
help when a whole run falls in a slow stretch. So every timed part of a pass
is bracketed by two calibration bursts, with more inside it if it is long,
and its time is rescaled to the reference speed:
raw * REFERENCE_S / (mean of the burst times).

The burst parses a fixed block of CoNLL-like text into per-sentence head
arrays and numbers each tree's distinct subtrees: string splitting, integer
conversion, dict and tuple work in the interpreter. Interpreter work is what
the program's hot paths (k-best parsing, plan building, the numpy path's
per-arc loops of small array calls) spend their time on, and a burst of it
slows down with the machine about as much as they do. The burst is written
here and uses nothing from `deprerank`, so a change to the program cannot
change the yardstick it is measured against.
"""

from __future__ import annotations

import contextlib
import gc
import random
import signal
import statistics
import time

clock = time.perf_counter

# One burst at the reference speed, about its fastest time on a 2-vCPU Intel
# Xeon VM. Scaled times are times at this speed.
REFERENCE_S = 0.9e-3
SAMPLE_S = 0.1


def _text(sentences: int, length: int) -> list[str]:
    rng = random.Random(20150521)
    lines = []
    for _ in range(sentences):
        for i in range(1, length + 1):
            lines.append(f"{i}\tw{rng.randrange(300):03d}\t_\tT{rng.randrange(40)}\t_\t_"
                         f"\t{rng.randrange(i)}\tdep\t_\t_")
        lines.append("")
    return lines


_LINES = _text(32, 25)


def burst() -> float:
    """Run the calibration work once; returns its wall time.

    The garbage collector is off meanwhile: a collection of the program's
    heap is no part of the machine's speed. Everything the burst allocates
    is freed when it returns, so it does not move the program's collections.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _work()
    finally:
        if enabled:
            gc.enable()


def _work() -> float:
    start = clock()
    signatures: dict[tuple, int] = {}
    heads: list[int] = []
    for line in _LINES:
        if line:
            cols = line.split("\t")
            heads.append(int(cols[6]))
            continue
        kids: list[list[int]] = [[] for _ in range(len(heads) + 1)]
        for child, head in enumerate(heads, start=1):
            kids[head].append(child)
        sig = [0] * len(kids)
        for node in range(len(heads), -1, -1):  # children come after their head
            key = (node, tuple(sig[c] for c in kids[node]))
            sig[node] = signatures.setdefault(key, len(signatures))
        heads = []
    return clock() - start


class Laps:
    """Times consecutive parts, each rescaled to the reference speed.

    A part's speed is the mean of the bursts at its two ends and of those an
    interval timer runs every SAMPLE_S inside a `sampled()` stretch; the
    time of the timer's bursts is taken out of the part. Long parts (set-up,
    epochs) go in such stretches; short ones (one list's scoring) need not,
    and are kept clear of the timer's interruptions. With `sampling=False`
    (traced passes, where the bursts would land inside spans) the timer is
    never started.
    """

    def __init__(self, sampling: bool):
        self.sampling = sampling
        self._cals = [burst()]
        self._stolen = 0.0
        self._start = clock()

    def _sample(self, signum, frame) -> None:
        start = clock()
        self._cals.append(burst())
        self._stolen += clock() - start

    @contextlib.contextmanager
    def sampled(self):
        if not self.sampling:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def lap(self) -> tuple[float, float]:
        """Ends the current part and starts the next; returns (raw, scaled)."""
        raw = clock() - self._start - self._stolen
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})  # no burst inside a burst
        self._cals.append(burst())
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        scaled = raw * REFERENCE_S / statistics.fmean(self._cals)
        self._cals = self._cals[-1:]
        self._stolen = 0.0
        self._start = clock()
        return raw, scaled
