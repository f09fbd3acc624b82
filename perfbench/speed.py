"""The machine's current speed, from a fixed reference computation.

On a shared sandbox the same work takes up to twice as long in one minute
as in the next (measured on the reference sandbox: 2 vCPUs, Python 3.11.7),
and a slow stretch can outlast a whole run.  The benchmark therefore times a
fixed, standard-library-only reference computation next to the ops and
scales every time it reports to the speed at which the reference takes
``NOMINAL_S``.  The reference mimics the program's own inner loops
(hashable monomial objects, dict merges, divisibility tests, sorting by key,
exact fractions), so it slows down with the program: over 60 batches of
harness ops, scaling cut the spread of batch times from 22% to 11% (CV).

The reference never changes with the program, so a faster program still
shows as faster.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Seconds one reference unit takes at the reference sandbox's fast speed.
NOMINAL_S = 1.1e-3


class _Mono:
    __slots__ = ("pairs", "_hash")

    def __init__(self, pairs):
        self.pairs = tuple(sorted(pairs))
        self._hash = hash(self.pairs)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self.pairs == other.pairs

    def mul(self, other):
        exps = dict(self.pairs)
        for v, e in other.pairs:
            exps[v] = exps.get(v, 0) + e
        return _Mono(exps.items())

    def divides(self, other):
        exps = dict(other.pairs)
        return all(exps.get(v, 0) >= e for v, e in self.pairs)

    @property
    def degree(self):
        return sum(e for _, e in self.pairs)


_VARS = [_Mono(((v, 1),)) for v in range(4)]
_RULES = [_Mono(((v, 3),)) for v in range(4)] + [_Mono(((0, 1), (1, 2)))]


def reference_unit():
    """About a millisecond of program-like work: normal monomials of a small
    truncated ring, level by level."""
    seen = {}
    level = [_Mono(())]
    found = []
    for _ in range(5):
        nxt = []
        for m in level:
            for x in _VARS:
                c = m.mul(x)
                if c in seen:
                    continue
                normal = not any(r.divides(c) for r in _RULES)
                seen[c] = Fraction(c.degree, 1 + len(c.pairs)) if normal else None
                if normal:
                    nxt.append(c)
        nxt.sort(key=lambda m: (m.degree, m.pairs))
        found.extend(nxt)
        level = nxt
    return sum((seen[m] for m in found), Fraction(0))


def sample(units):
    """Seconds per reference unit, one value per unit; collection paused so
    that the program's heap does not slow the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(units):
            t0 = time.perf_counter()
            reference_unit()
            times.append(time.perf_counter() - t0)
        return times
    finally:
        if enabled:
            gc.enable()


def slowdown(times):
    """How much slower than nominal the machine ran while these reference
    times were taken."""
    return statistics.median(times) / NOMINAL_S
