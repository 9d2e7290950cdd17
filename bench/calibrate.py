"""Calibration helper for host-speed scaling (see ``run.HostSpeed``).

    python3 bench/calibrate.py

For each line read on stdin it runs a fixed loop of small numpy calls and
interpreter work once and prints the loop's seconds.  It imports numpy and
nothing from ``densecoding``, and runs in a process of its own, so no
change to the program (its heap, its garbage, its thread pools) can move
the loop.
"""

import sys
import time

import numpy as np

ITERATIONS = 5000


def loop_s() -> float:
    a = np.eye(4) * 0.25
    total = 0.0
    start = time.perf_counter()
    for i in range(ITERATIONS):
        total += float(np.linalg.eigvalsh(a).sum())
        total += sum({j: j * i for j in range(16)}.values())
    return time.perf_counter() - start


for _ in sys.stdin:
    print(repr(loop_s()), flush=True)
