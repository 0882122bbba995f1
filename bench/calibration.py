"""A fixed stdlib-only kernel that measures how fast the machine is right now.

The machines this benchmark runs on change speed by up to a factor of two
over minutes (other tenants share the cores), which moves every wall-clock
time by as much.  The kernel does the same kinds of work as the package (row
reduction mod p on lists, Fraction arithmetic, dicts keyed by exponent
tuples) but never calls it, so its time follows the machine and not the
program.  Times are reported in reference seconds: wall seconds scaled by
``REFERENCE_S / kernel_s()`` measured next to them.  The cyclic garbage
collector is off while the kernel runs, so the program's heap size does not
change the kernel's time.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from time import perf_counter

P = 32003
REFERENCE_S = 0.010  # the kernel's time that defines one reference second


def _kernel():
    rng = random.Random(5)
    n = 40
    rows = [[rng.randrange(P) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = pow(rows[c][c], P - 2, P)
        rows[c] = [x * inv % P for x in rows[c]]
        for r in range(c + 1, n):
            f = rows[r][c]
            if f:
                rows[r] = [(a - f * b) % P for a, b in zip(rows[r], rows[c])]
    total = Fraction(0)
    for k in range(1, 500):
        total += Fraction(k, k * k + 1) * Fraction(3, k + 2)
    table = {}
    for k in range(12000):
        key = (k % 7, k % 11, k % 13)
        table[key] = table.get(key, 0) + k
    return rows[-1][-1], total, len(table)


def kernel_s() -> float:
    """Wall time of one kernel run, with the cyclic collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
