"""The assassin oracles read one enumeration per module and one primality
probe per ring, and answer exactly as the loops they replaced.

The reference below is the loop-based form of assassin_sets,
weak_assassin_sets and minimal_prime_sets: every witness recomputes its
annihilator, and every candidate variable set is compared monomial by
monomial and probed afresh.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest

from torsionlab import oracles
from torsionlab.harness import random_instance
from torsionlab.ideals import IdealHandle
from torsionlab.oracles import (
    assassin_sets,
    colon_monomials,
    minimal_prime_sets,
    weak_assassin_sets,
)
from torsionlab.ring import Monomial, RewriteRule, RingPresentation


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


def _count_membership(monkeypatch):
    calls = Counter()
    original = IdealHandle.contains_monomial

    def counted(self, m):
        calls[self] += 1
        return original(self, m)

    monkeypatch.setattr(IdealHandle, "contains_monomial", counted)
    return calls


def test_both_assassin_oracles_enumerate_a_module_once(monkeypatch):
    instance = random_instance(0, random.Random(42))
    b, bound = instance.relations, instance.witness_bound
    calls = _count_membership(monkeypatch)
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
