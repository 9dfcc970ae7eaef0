"""Time the rows of a layer benchmark on perfbench's calibrated clock.

A row is a call that does one step over all of a benchmark's lists. Every
repeat runs every row once, in the order given on even repeats and reversed
on odd ones, so that the host's slow stretches fall on all rows alike. Each
call is timed by `perfbench/speed.py`'s `Laps`: calibration bursts at its
two ends, and every `SAMPLE_S` inside it, rescale its wall time to the
reference speed, so rows read on a slow and on a fast stretch of a shared
host can be compared. `speed` is imported from the checkout, read-only, as
`digest_outputs.py` imports `workloads`.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import speed  # noqa: E402


def print_rows(rows, repeats, per, unit, indent=""):
    """Time the rows, and print each one's median and interquartile range
    per `unit` (each call covers `per` of them), in microseconds."""
    names = list(rows)
    seconds = {name: [] for name in names}
    laps = speed.Laps(sampling=True)
    for r in range(repeats):
        for name in names if r % 2 == 0 else names[::-1]:
            with laps.sampled():
                rows[name]()
            seconds[name].append(laps.lap()[1])
    print(f"{indent}{'':<40}{'median':>10}{'IQR':>9}  (calibrated us/{unit}, "
          f"{repeats} repeats)")
    for name in names:
        q1, median, q3 = np.percentile(seconds[name], [25, 50, 75]) * 1e6 / per
        print(f"{indent}{name:<40}{median:>10.1f}{q3 - q1:>9.1f}")
