"""The exponent codes of ring.py against plain exponent tuples, inf for a
free coordinate.

The differential test draws its operands from a seeded generator, so every
run checks the same inputs, whatever the hash seed.  Fields are drawn free,
small, anywhere in range, or next to the largest exponent, so every field
operation meets the all-ones field and the guard bit above a full one.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

import pytest

from torsionlab.errors import ExponentOverflow
from torsionlab.ring import CODE_WIDTH, Monomial, _ExponentCodes, grlex_key

FREE = (1 << CODE_WIDTH) - 1
LARGEST = FREE - 1


def _pack(t):
    """The reference code of the tuple t: X0 in the top field, a guard bit
    over each field, the all-ones field where t is inf."""
    return sum((FREE if e == math.inf else e) << (CODE_WIDTH + 1) * v
               for v, e in enumerate(reversed(t)))


def _monomial(t):
    return Monomial((v, e) for v, e in enumerate(t))


def _field(rng, free):
    pick = rng.random()
    if pick < free:
        return math.inf
    if pick < 0.45:
        return rng.randint(0, 4)
    if pick < 0.75:
        return rng.randint(0, LARGEST)
    return rng.randint(LARGEST - 3, LARGEST)


def _vector(rng, n, free=0.2):
    return tuple(_field(rng, free) for _ in range(n))


def _lowered(rng, t):
    """A tuple below t in every coordinate, most of the time: each finite
    coordinate lowered, or raised by one at odds 1 in 10."""
    out = []
    for e in t:
        if e == math.inf:
            out.append(_field(rng, 0.3))
        elif rng.random() < 0.1 and e < LARGEST:
            out.append(e + 1)
        else:
            out.append(rng.randint(0, e))
    return tuple(out)


def test_codes_match_exponent_tuples():
    rng = random.Random(47)
    seen = dict.fromkeys(
        ("round trip", "below", "not below", "lcm", "copies", "sigma parts",
         "finite mask", "support", "degree", "grlex", "grlex in a degree",
         "near the limit"), 0)
    for _ in range(600):
        n = rng.randint(1, 8)
        codes = _ExponentCodes(n)
        a, b = _vector(rng, n), _vector(rng, n)
        if rng.random() < 0.5:
            b = _lowered(rng, a)
        x, y = _pack(a), _pack(b)
        seen["near the limit"] += any(e != math.inf and e >= LARGEST - 3
                                      for e in a + b)

        # below and the field-wise max, free coordinates included
        fits = all(d <= k for d, k in zip(b, a))
        assert codes.below(y, x) == fits, (a, b)
        seen["below" if fits else "not below"] += 1
        assert codes.lcm(x, y) == codes.lcm(y, x) == _pack(
            tuple(map(max, a, b))), (a, b)
        seen["lcm"] += 1

        # finite coordinates and support, as flag masks and variable sets
        finite = [v for v, e in enumerate(a) if e != math.inf]
        assert codes.variables(codes.finite(x)) == frozenset(finite), a
        seen["finite mask"] += 1
        assert codes.variables(codes.support(x)) == frozenset(
            v for v, e in enumerate(a) if e), a
        seen["support"] += 1

        # the sigma-part (0 off sigma) and the off-sigma part (free on it)
        sigma = [v for v in range(n) if rng.random() < 0.5]
        flags = codes.support(codes.encode(_monomial(
            [1 if v in sigma else 0 for v in range(n)])))
        assert codes.variables(flags) == frozenset(sigma)
        on = codes.spread(flags)
        assert x & on == _pack(tuple(e if v in sigma else 0
                                     for v, e in enumerate(a)))
        assert x | on == _pack(tuple(math.inf if v in sigma else e
                                     for v, e in enumerate(a)))
        seen["sigma parts"] += 1

        # finite codes: the round trip, degree and grlex order
        s, t = _vector(rng, n, free=0), _vector(rng, n, free=0)
        if rng.random() < 0.45:
            t = tuple(rng.sample(s, n))  # the same degree
        m, p = _monomial(s), _monomial(t)
        u, w = codes.encode(m), codes.encode(p)
        assert u == _pack(s) and codes.decode(u) == m, s
        assert codes.fields(u) == s
        seen["round trip"] += 1
        assert codes.degree(u) == m.degree == sum(s)
        seen["degree"] += 1
        assert (codes.grlex(u) < codes.grlex(w)) == (
            grlex_key(m) < grlex_key(p)), (s, t)
        seen["grlex"] += 1
        seen["grlex in a degree"] += m.degree == p.degree

        # copies of a nonzero code that fit in a finite one
        d = tuple(rng.randint(0, 3) if rng.random() < 0.6 else 0
                  for _ in range(n))
        if any(d):
            assert codes.copies(_pack(d), u) == min(
                k // e for e, k in zip(d, s) if e), (d, s)
            seen["copies"] += 1
    assert min(seen.values()) >= 200, seen


def test_grlex_sorts_codes_as_monomials():
    """Every monomial of degree <= 3 in three variables, sorted both ways."""
    codes = _ExponentCodes(3)
    monomials = [_monomial(t) for t in
                 ((i, j, k) for i in range(4) for j in range(4)
                  for k in range(4) if i + j + k <= 3)]
    by_code = sorted(map(codes.encode, monomials), key=codes.grlex)
    assert [codes.decode(x) for x in by_code] == sorted(monomials,
                                                        key=grlex_key)
    # Within a degree, grlex order is descending code order.
    for a, b in combinations(by_code, 2):
        if codes.degree(a) == codes.degree(b):
            assert a > b


@pytest.mark.parametrize("n", [1, 3, 24])
def test_largest_exponent_fits_and_one_more_overflows(n):
    codes = _ExponentCodes(n)
    top = Monomial.variable(n - 1, LARGEST)
    assert codes.decode(codes.encode(top)) == top
    assert codes.finite(codes.encode(top)) == codes.guards
    with pytest.raises(ExponentOverflow, match="exponent %d of X%d"
                       % (LARGEST + 1, n - 1)):
        codes.encode(Monomial.variable(n - 1, LARGEST + 1))
