"""Host-speed probe: a fixed stdlib workload timed between requests.

On a shared two-vCPU Xeon host (2.1 GHz) pure-Python code ran up to 40%
faster or slower from one minute to the next, which on its own moves a 25 s
run by more than the benchmark's bounds. The gated times are therefore scaled by
``REFERENCE_S / probe time``, the probe being timed right before and right
after each measured interval: they are seconds of a host on which the probe
takes ``REFERENCE_S``. The probe does what kummerkit's kernels do (Gaussian
elimination over F_p with one small object per field element, so dunder
dispatch, coercion checks and allocation) but runs none of its code, so a
change to the program cannot move it. Unscaled times are printed beside the
scaled ones.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.001
_P = 1009
_ROWS = [[(7 * i + 3 * j * j + 1) % _P for j in range(14)] for i in range(14)]


class _Residue:
    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _coerce(self, other):
        return other if isinstance(other, _Residue) else _Residue(other, self.p)

    def __mul__(self, other):
        other = self._coerce(other)
        return _Residue(self.v * other.v, self.p)

    def __sub__(self, other):
        other = self._coerce(other)
        return _Residue(self.v - other.v, self.p)

    def __bool__(self):
        return self.v != 0

    def inverse(self):
        return _Residue(pow(self.v, -1, self.p), self.p)


def _eliminate():
    rows = [[_Residue(c, _P) for c in row] for row in _ROWS]
    n, r = len(rows), 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [a * inv for a in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1


def probe_s() -> float:
    """Wall time of two fixed eliminations (about a millisecond)."""
    t0 = time.perf_counter()
    _eliminate()
    _eliminate()
    return time.perf_counter() - t0


def timed(fn, *args, before: float | None = None):
    """Call fn(*args) between two probes.

    Returns (value, wall seconds, seconds scaled to the reference host, the
    closing probe); pass the closing probe as ``before`` of the next call
    when the calls run back to back.
    """
    if before is None:
        before = probe_s()
    t0 = time.perf_counter()
    value = fn(*args)
    wall = time.perf_counter() - t0
    after = probe_s()
    return value, wall, wall * REFERENCE_S * 2 / (before + after), after
