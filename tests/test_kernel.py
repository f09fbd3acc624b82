"""The monomial kernel of ring.py against exponent-dict arithmetic, and the
counts and invariants of the normal form that its fast paths rest on.

The differential test draws its operands from a seeded generator, so every
run checks the same inputs, whatever the hash seed.
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction
from itertools import islice

import pytest

from torsionlab.families import FAMILIES, instantiate
from torsionlab.ring import Element, Monomial, RewriteRule, RingPresentation

SHAPES = ("one", "before", "after", "interleaved", "overlapping")


def _exponents(rng, variables):
    return {v: rng.randint(1, 4) for v in variables}


def _operands(rng, shape):
    """Two exponent dicts of the named shape of supports."""
    pool = rng.sample(range(14), rng.randint(2, 10))
    if shape == "one":
        a, b = _exponents(rng, pool), {}
        return (a, b) if rng.random() < 0.5 else (b, a)
    if shape in ("before", "after"):
        pool.sort()
        cut = rng.randint(1, len(pool) - 1)
        a, b = _exponents(rng, pool[:cut]), _exponents(rng, pool[cut:])
        return (a, b) if shape == "before" else (b, a)
    if shape == "interleaved":
        pool.sort()
        return _exponents(rng, pool[::2]), _exponents(rng, pool[1::2])
    return (_exponents(rng, rng.sample(pool, rng.randint(1, len(pool)))),
            _exponents(rng, rng.sample(pool, rng.randint(1, len(pool)))))


def _divisor(rng, exps):
    """A nonempty exponent dict dividing exps, which is nonempty."""
    keep = rng.sample(sorted(exps), rng.randint(1, len(exps)))
    return {v: rng.randint(1, exps[v]) for v in keep}


def _add(*maps, sign=(1, 1, 1)):
    out = {}
    for s, exps in zip(sign, maps):
        for v, e in exps.items():
            out[v] = out.get(v, 0) + s * e
    return out


def _assert_kernel_result(got, want):
    """got holds the pair invariant, equals the dict want, and is what the
    checked constructor builds from its own pairs."""
    pairs = got.pairs
    assert all(e > 0 for _, e in pairs)
    assert all(p[0] < q[0] for p, q in zip(pairs, pairs[1:]))
    assert pairs == tuple(sorted((v, e) for v, e in want.items() if e))
    checked = Monomial(pairs)
    assert checked.pairs == pairs
    assert got.degree == checked.degree == sum(want.values())
    assert hash(got) == hash(checked)
    assert got == checked


def _assert_reused(result, *sources):
    """Each pair of result that some source holds unchanged is that very
    tuple."""
    held = {p[0]: p for source in sources for p in source.pairs}
    for p in result.pairs:
        if held.get(p[0]) == p:
            assert held[p[0]] is p, (result, p)


def test_kernel_matches_exponent_dict_arithmetic():
    rng = random.Random(20261)
    seen = dict.fromkeys(SHAPES, 0)
    for k in range(3000):
        shape = SHAPES[k % len(SHAPES)]
        ea, eb = _operands(rng, shape)
        a, b = Monomial(ea.items()), Monomial(eb.items())
        seen[shape] += 1
        product = a.mul(b)
        _assert_kernel_result(product, _add(ea, eb))
        _assert_reused(product, a, b)
        for x, y, ex, ey in ((a, b, ea, eb), (b, a, eb, ea)):
            assert x.divides(y) == all(ey.get(v, 0) >= e
                                       for v, e in ex.items())
            _assert_kernel_result(product.div(y), ex)
            if not x.divides(y):
                with pytest.raises(ValueError, match="non-exact"):
                    y.div(x)
        if product.is_one:
            continue
        # The fused step m / lhs * rhs, lhs dividing m, rhs anywhere.
        em = _add(ea, eb)
        lhs_exps = _divisor(rng, em)
        _, rhs_exps = _operands(rng, rng.choice(SHAPES))
        lhs, rhs = Monomial(lhs_exps.items()), Monomial(rhs_exps.items())
        step = product.div_mul(lhs, rhs)
        _assert_kernel_result(step, _add(em, lhs_exps, rhs_exps,
                                         sign=(1, -1, 1)))
        assert step == product.div(lhs).mul(rhs)
        _assert_reused(step, product, rhs)
        if not lhs.divides(rhs):
            with pytest.raises(ValueError, match="non-exact"):
                rhs.div_mul(lhs, product)
    assert all(count >= 500 for count in seen.values()), seen


def test_idempotent_rules_need_no_divisibility_walk(monkeypatch):
    """In idem50C every rule is X_v^2 -> X_v with v > 0, and a normal
    monomial holds each such X_v at most once, so the rule index rules out
    every rule by its exponent before any divisibility walk."""
    ring, _ = instantiate(FAMILIES["idem50C"], 8)
    pool = ring.normal_monomials_up_to(4)
    calls = []
    real = Monomial.divides

    def counted(self, other):
        calls.append(sys._getframe(1).f_code.co_name)
        return real(self, other)

    monkeypatch.setattr(Monomial, "divides", counted)
    for m in pool:
        assert ring.normal_form_monomial(m).terms == {m: 1}
    assert len(pool) >= 300
    assert calls.count("_first_applicable") == 0
    # The counter sees the walks where an exponent does not rule a rule out.
    ring.normal_form_monomial(Monomial(((0, 2), (3, 2), (5, 1))))
    assert calls.count("_first_applicable") > 0


def _assert_cache_is_normal(ring, start=0):
    """Every normal form cached from position start on has nonzero
    coefficients, held as ints where integral, on monomials no rule lhs
    divides; returns the cache size."""
    cache = ring._nf_cache
    for nf in islice(cache.values(), start, None):
        assert nf.ring is ring
        for m, c in nf.terms.items():
            assert c != 0
            assert type(c) is int or (type(c) is Fraction
                                      and c.denominator != 1), c
            assert not any(rule.lhs.divides(m) for rule in ring.rules), m
    return len(cache)


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_cached_normal_forms_stay_normal_after_every_claim(tag):
    family = FAMILIES[tag]
    for level in range(4, 10):
        ring, ideals = instantiate(family, level)
        checked = _assert_cache_is_normal(ring)
        for claim in family.claims:
            assert claim.run(ring, ideals, level, random.Random(level))
            checked = _assert_cache_is_normal(ring, checked)
        assert checked > 0


def _non_integral_rings():
    """Q[X0, X1]/(X0^2 - 1/2*X0), and Q[X0, X1, X2]/(X0^2 - 1/2*X1,
    X1^2 - 2*X2), where X0^2*X1 normalizes to 1*X2 through 1/2 and 2."""
    x = Monomial.variable
    yield RingPresentation(2, [RewriteRule(x(0, 2), (Fraction(1, 2), x(0)))])
    yield RingPresentation(3, [RewriteRule(x(0, 2), (Fraction(1, 2), x(1))),
                               RewriteRule(x(1, 2), (2, x(2)))])


@pytest.mark.parametrize("ring", list(_non_integral_rings()))
def test_cached_normal_forms_stay_normal_under_non_integral_rules(ring):
    low = [Monomial(zip(range(ring.num_vars), exps))
           for exps in itertools.product(range(5), repeat=ring.num_vars)]
    f = Element.from_terms(ring, [(Monomial.variable(0, 3), 4),
                                  (Monomial.variable(1), Fraction(2, 3))])
    for k, m in enumerate(low):
        g = Element.from_monomial(ring, m, 2 ** (k % 4))
        f = f.mul(g).add(g.scale(Fraction(3, 2)))
    assert any(type(c) is Fraction for nf in ring._nf_cache.values()
               for c in nf.terms.values())
    assert _assert_cache_is_normal(ring) >= 10
