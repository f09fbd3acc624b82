"""The assassin oracles read one enumeration per module and one primality
probe per ring, and answer exactly as the loops they replaced.

The reference below is the loop-based form of assassin_sets,
weak_assassin_sets and minimal_prime_sets: every witness recomputes its
annihilator, and every candidate variable set is compared monomial by
monomial and probed afresh.  The saturation and radical references are
the same definitions on Monomials; with them the packed oracles are checked
where exponents fill a field, and refuse what would pass it.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from torsionlab import oracles
from torsionlab.errors import NonConfluent
from torsionlab.harness import random_instance
from torsionlab.ideals import IdealHandle
from torsionlab.oracles import (
    assassin_sets,
    brute_force_membership,
    colon_monomials,
    minimal_prime_sets,
    radical_monomials,
    saturation_monomials,
    weak_assassin_sets,
)
from torsionlab.ring import Element, Monomial, RewriteRule, RingPresentation


def _reference_is_prime(ring, vars_set, probe_bound):
    vs = set(vars_set)
    monos = ring.normal_monomials_up_to(probe_bound)
    for u in monos:
        if u.support & vs:
            continue
        for w in monos:
            if w.support & vs:
                continue
            prod = ring.normal_form_monomial(u.mul(w))
            if prod.is_zero:
                return False
            if prod.single_term()[0].support & vs:
                return False
    return True


def _reference_minimal_prime_sets(ideal, probe_bound=3):
    ring = ideal.ring
    n = ring.num_vars
    containing = []
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            s = frozenset(combo)
            if any(c <= s for c in containing):
                continue
            if (all(g.support & s for g in ideal.monomial_generators())
                    and _reference_is_prime(ring, s, probe_bound)):
                containing.append(s)
    return sorted(containing, key=lambda s: (len(s), sorted(s)))


def _reference_assassin_sets(relations, witness_bound, verify_bound,
                             probe_bound=3):
    ring = relations.ring
    n = ring.num_vars
    monos = ring.normal_monomials_up_to(verify_bound)
    found = set()
    for m in ring.normal_monomials_up_to(witness_bound):
        if relations.contains_monomial(m):
            continue
        ann = set(colon_monomials(relations, m, verify_bound))
        for size in range(n + 1):
            for combo in combinations(range(n), size):
                s = frozenset(combo)
                matches = all(
                    (f in ann) == bool(f.support & s) for f in monos)
                if matches and _reference_is_prime(ring, s, probe_bound):
                    found.add(s)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def _reference_weak_assassin_sets(relations, witness_bound, verify_bound,
                                  probe_bound=3):
    ring = relations.ring
    n = ring.num_vars
    found = set()
    for m in ring.normal_monomials_up_to(witness_bound):
        if relations.contains_monomial(m):
            continue
        ann = set(colon_monomials(relations, m, verify_bound))
        containing = []
        for size in range(n + 1):
            for combo in combinations(range(n), size):
                s = frozenset(combo)
                if any(c <= s for c in containing):
                    continue
                if (all(bool(f.support & s) for f in ann)
                        and _reference_is_prime(ring, s, probe_bound)):
                    containing.append(s)
        found.update(containing)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def _clear_caches():
    oracles._witness_annihilators.cache_clear()
    oracles._outside.cache_clear()
    oracles._ring_probes.cache_clear()


def _random_ideal(rng, ring, count):
    """An ideal of up to count random normal monomials of degree <= 3."""
    n = ring.num_vars
    gens = []
    for _ in range(count):
        m = Monomial([(v, rng.randint(0, 2)) for v in range(n)])
        if not m.is_one and m.degree <= 3 and ring.is_normal(m):
            gens.append(m)
    return IdealHandle.from_monomials(ring, gens)


def _ring_with_a_dead_variable(rng):
    """A ring of 2 to 4 variables with a rule X_v -> 0, so that the
    variable sets s and s + {v} cut out the same normal monomials."""
    n = rng.randint(2, 4)
    dead = rng.randrange(n)
    rules = [RewriteRule(Monomial.variable(dead))]
    rules += [RewriteRule(Monomial.variable(v, rng.randint(2, 3)))
              for v in range(n) if v != dead and rng.random() < 0.7]
    return RingPresentation(n, rules)


def _ring_with_free_variables(rng):
    """A ring of 2 or 3 variables, at least one of them rule-free."""
    n = rng.randint(2, 3)
    free = rng.randrange(n)
    rules = [RewriteRule(Monomial.variable(v, rng.randint(2, 3)))
             for v in range(n) if v != free and rng.random() < 0.6]
    return RingPresentation(n, rules)


def _assert_matches_reference(ideals, bounds):
    """Every oracle answer on each ideal and (witness, verify) bound equals
    the reference's.  The ideals are visited twice, in alternation, so the
    one-module and one-ring caches both miss and hit."""
    for b in ideals + ideals:
        for witness_bound, verify_bound in bounds:
            for probe_bound in (2, 3):
                args = (b, witness_bound, verify_bound, probe_bound)
                assert assassin_sets(*args) == _reference_assassin_sets(
                    *args), args
                assert weak_assassin_sets(
                    *args) == _reference_weak_assassin_sets(*args), args
            assert minimal_prime_sets(b) == _reference_minimal_prime_sets(b)


def test_assassin_oracles_match_the_loops_on_harness_rings():
    _clear_caches()
    rng = random.Random(35)
    for index in range(25):
        instance = random_instance(index, rng)
        bound = instance.witness_bound
        _assert_matches_reference(
            [instance.relations, instance.extension, instance.acting],
            [(bound, bound + 1), (2, 2), (bound - 1, 4)])


@pytest.mark.parametrize("make_ring", [_ring_with_a_dead_variable,
                                       _ring_with_free_variables])
def test_assassin_oracles_match_the_loops_on_other_rings(make_ring):
    _clear_caches()
    rng = random.Random(3517)
    for _ in range(25):
        ring = make_ring(rng)
        ideals = [_random_ideal(rng, ring, rng.randint(1, 3))
                  for _ in range(2)]
        _assert_matches_reference(ideals, [(2, 2), (2, 3), (3, 4)])


def test_dead_variable_rings_share_one_variable_ideal():
    # X1 -> 0: X1 is not a normal monomial, so (X0) and (X0, X1) cut out
    # the same normal monomials, and both candidate sets are compared.
    ring = RingPresentation(2, [RewriteRule(Monomial.variable(1)),
                                RewriteRule(Monomial.variable(0, 2))])
    sets = dict(oracles._variable_ideal_sets(ring, 3))
    assert sets[frozenset({0})] == sets[frozenset({0, 1})]
    zero = IdealHandle.zero(ring)
    _clear_caches()
    assert assassin_sets(zero, 1, 2) == _reference_assassin_sets(zero, 1, 2)
    assert weak_assassin_sets(zero, 1, 2) == _reference_weak_assassin_sets(
        zero, 1, 2)


def _count_enumeration(monkeypatch):
    """Count the oracle's own degree-by-degree enumerations of the
    monomials outside a module, by module; the ring's normal monomials,
    grown once per ring, are not counted."""
    calls = Counter()
    original = oracles._Outside._grow

    def counted(self):
        if self is not self.codes.normal:
            calls[self] += 1
        return original(self)

    monkeypatch.setattr(oracles._Outside, "_grow", counted)
    return calls


def test_both_assassin_oracles_enumerate_a_module_once(monkeypatch):
    instance = random_instance(0, random.Random(42))
    b, bound = instance.relations, instance.witness_bound
    calls = _count_enumeration(monkeypatch)
    _clear_caches()
    ass = assassin_sets(b, bound, bound + 1)
    alone = sum(calls.values())
    assert alone > 0
    assert weak_assassin_sets(b, bound, bound + 1) is not None
    assert sum(calls.values()) == alone
    # Another module misses the one-entry cache, and coming back to the
    # first one enumerates it again, with the same answer.
    other = IdealHandle.zero(b.ring)
    assert other is not b
    assassin_sets(other, bound, bound + 1)
    before = sum(calls.values())
    assert assassin_sets(b, bound, bound + 1) == ass
    assert sum(calls.values()) - before == alone


def test_each_prime_probe_runs_once_per_ring(monkeypatch):
    probes = Counter()
    original = oracles._variable_ideal_is_prime

    def counted(ring, vars_set, probe_bound):
        probes[vars_set, probe_bound] += 1
        return original(ring, vars_set, probe_bound)

    monkeypatch.setattr(oracles, "_variable_ideal_is_prime", counted)
    _clear_caches()
    rng = random.Random(7)
    instance = random_instance(0, rng)
    bound = instance.witness_bound
    for b in (instance.relations, instance.extension, instance.acting):
        for probe_bound in (2, 3):
            minimal_prime_sets(b, probe_bound)
            assassin_sets(b, bound, bound + 1, probe_bound)
            weak_assassin_sets(b, bound, bound + 1, probe_bound)
    assert probes
    assert max(probes.values()) == 1


# The largest exponent a packed field holds.
TOP = 2 ** oracles.WIDTH - 1


def _reference_saturation(relations, acting, bound, power_cap):
    """saturation_monomials on Monomials and the engine's membership."""
    gens = [g.single_term()[0] for g in acting.generators]
    powers = [[Monomial.one()]]
    for _ in range(power_cap):
        powers.append({p.mul(g) for p in powers[-1] for g in gens})
    return [m for m in relations.ring.normal_monomials_up_to(bound)
            if any(all(relations.contains_monomial(m.mul(p)) for p in power)
                   for power in powers)]


def _reference_radical(ideal, bound, exponent_cap):
    """radical_monomials on Monomials and the engine's membership."""
    return [m for m in ideal.ring.normal_monomials_up_to(bound)
            if any(ideal.contains_monomial(m.pow(k))
                   for k in range(1, exponent_cap + 1))]


@pytest.mark.parametrize("free", (0, 1))
def test_oracles_agree_where_exponents_reach_the_field_top(free):
    """X_free is rule-free and the other variable squares to zero, so the
    monomials outside (X_free^TOP) stay few up to degree TOP, and the
    answers turn on exponents that fill the top field or the bottom one."""
    x = Monomial.variable(free)
    ring = RingPresentation(2, [RewriteRule(Monomial.variable(1 - free, 2))])
    b = IdealHandle.from_monomials(ring, [x.pow(TOP)])
    # m^k reaches X_free^TOP at m = X_free, k = TOP: degree cap * bound.
    radical = radical_monomials(b, 1, exponent_cap=TOP)
    assert radical == _reference_radical(b, 1, TOP)
    assert set(radical) == {x, Monomial.variable(1 - free)}
    assert radical_monomials(b, 1, exponent_cap=TOP - 1) == [
        Monomial.variable(1 - free)]
    # TOP = 1 + 258 * 127: X_free * (X_free^127)^258 is X_free^TOP, at
    # degree bound + power_cap * 127.
    a = IdealHandle.from_monomials(ring, [x.pow(127)])
    for cap in (257, 258):
        assert saturation_monomials(b, a, 1, cap) == _reference_saturation(
            b, a, 1, cap)
    assert saturation_monomials(b, a, 1, 258) == [x]
    assert colon_monomials(b, x.pow(TOP - 1), 1) == [
        m for m in ring.normal_monomials_up_to(1)
        if b.contains_monomial(m.mul(x.pow(TOP - 1)))] == [x]


def test_oracles_refuse_exponents_past_the_guard_bit():
    """An exponent of 2**WIDTH would carry into the guard bit: the oracles
    raise, naming it, for a generator that holds it and for a call whose
    degree lets a product reach it."""
    x = Monomial.variable(0)
    ring = RingPresentation(2, [RewriteRule(Monomial.variable(1, 2))])
    past = IdealHandle.from_monomials(ring, [x.pow(TOP + 1)])
    for oracle in (lambda: colon_monomials(past, x, 1),
                   lambda: saturation_monomials(past, past, 1, 1),
                   lambda: radical_monomials(past, 1),
                   lambda: minimal_prime_sets(past),
                   lambda: assassin_sets(past, 1, 1),
                   lambda: weak_assassin_sets(past, 1, 1)):
        _clear_caches()
        with pytest.raises(ValueError, match="exponent %d " % (TOP + 1)):
            oracle()
    b = IdealHandle.from_monomials(ring, [x.pow(TOP)])
    a = IdealHandle.from_monomials(ring, [x.pow(127)])
    for degree, oracle in (
            (TOP + 1, lambda: colon_monomials(b, x.pow(TOP), 1)),
            (1 + 259 * 127, lambda: saturation_monomials(b, a, 1, 259)),
            (TOP + 1, lambda: radical_monomials(b, 1, exponent_cap=TOP + 1)),
            (TOP + 1, lambda: assassin_sets(b, TOP, 1))):
        with pytest.raises(ValueError, match="degree %d " % degree):
            oracle()


def test_brute_force_membership_eliminates_exactly_on_int_coefficients():
    """The engine keeps integral coefficients as ints, so the elimination
    must divide as Fractions: X0 = 2/5 * (3*X0 + X1) - 1/5 * (X0 + 2*X1)
    exactly, where int / int would leave a float residue."""
    x0, x1 = Monomial.variable(0), Monomial.variable(1)
    ring = RingPresentation(2, [RewriteRule(x0.pow(2)),
                                RewriteRule(x1.pow(2))])

    def line(a, b):
        return Element.from_monomial(ring, x0, a).add(
            Element.from_monomial(ring, x1, b))

    ideal = IdealHandle(ring, [line(3, 1), line(1, 2)])
    f = Element.from_monomial(ring, x0)
    certificate = brute_force_membership(f, ideal, 0)
    total = Element.zero(ring)
    for k, h in certificate:
        total = total.add(ideal.generators[k].mul(h))
    assert total == f
    assert {c for _, h in certificate for c in h.terms.values()} == {
        Fraction(2, 5), Fraction(-1, 5)}


def test_brute_force_membership_refuses_two_normal_forms():
    """The oracle rewrites with ring.rules under every strategy, so a
    product with two normal forms is refused, not reduced one way: in
    X0*X1 -> X2, X1*X2 -> 0, X2^2 -> X0, X0 * X1*X2 reaches X0 and 0."""
    x0, x1, x2 = (Monomial.variable(v) for v in range(3))
    ring = RingPresentation(3, [RewriteRule(x0.mul(x1), (1, x2)),
                                RewriteRule(x1.mul(x2)),
                                RewriteRule(x2.pow(2), (1, x0))])
    ideal = IdealHandle(ring, [Element.from_monomial(ring, x0)])
    f = Element.from_monomial(ring, x2)
    assert brute_force_membership(f, ideal, 1) == (
        (0, Element.from_monomial(ring, x1)),)
    with pytest.raises(NonConfluent, match="two normal forms"):
        brute_force_membership(f, ideal, 2)
