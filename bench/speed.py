"""Machine-speed calibration.

The speed of a shared virtual machine changes by up to a factor of two over
seconds to minutes (another tenant on the same physical core), and CPU time
moves with wall time, so neither gives steady figures.  The harness
therefore runs a fixed loop of its own next to every measurement and scales
each measured time by REFERENCE_S / (time of the loop), giving times at a
reference speed: the speed at which the loop takes REFERENCE_S.  The loop
does the kind of work realdp does (Fraction and integer arithmetic, tuples
and dicts) and never calls realdp, so a change to realdp cannot change it.

A fresh process spends much of its time starting the interpreter and
loading modules, which the loop does not track.  So the harness also times a
reference start next to every cold process: a fresh interpreter that imports
the standard-library modules realdp uses.  Interpreter start and module
loading are reported at the speed at which the reference start takes
REFERENCE_START_S, and the rest of the process at the loop's reference
speed (see run.cold_process).

    python3 bench/speed.py   # prints the loop's and the start's time now
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.001
REPEATS = 3
CALIBRATE_EVERY_S = 0.2
REFERENCE_START_S = 0.06
START_ARGV = (sys.executable, "-c", "import argparse, dataclasses, fractions, functools, json")


def _loop():
    acc = Fraction(0)
    counts = {}
    for i in range(1, 320):
        acc += Fraction(i % 97 + 1, i % 89 + 2)
        key = (i % 50, i % 7)
        counts[key] = counts.get(key, 0) + i * i
    return acc, counts


def loop_s():
    """The best of REPEATS timings of the calibration loop, in seconds of
    thread CPU time, so that a process preempting the loop is not counted."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.thread_time()
        _loop()
        best = min(best, time.thread_time() - start)
    return best


def scale(calibration_s):
    """Factor that turns a time measured next to a calibration of
    `calibration_s` into a time at the reference speed."""
    return REFERENCE_S / calibration_s


def start_s(cwd=None, env=None):
    """Wall time of one reference start (START_ARGV), in seconds.  No
    timeout: Popen.wait with one polls in steps of up to 50 ms."""
    start = time.perf_counter()
    subprocess.run(START_ARGV, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


class Clock:
    """The scale of the calibration run most recently, renewed once
    CALIBRATE_EVERY_S have passed since."""

    def __init__(self):
        self.calibrations = []
        self.scale = None
        self.at = -float("inf")

    def refresh(self):
        if time.perf_counter() - self.at >= CALIBRATE_EVERY_S:
            self.calibrations.append(loop_s())
            self.scale = scale(self.calibrations[-1])
            self.at = time.perf_counter()
        return self.scale


if __name__ == "__main__":
    measured = loop_s()
    print(f"calibration loop {1000 * measured:.3f} ms; scale {scale(measured):.3f}")
    started = start_s()
    print(f"reference start {1000 * started:.1f} ms; scale {REFERENCE_START_S / started:.3f}")
