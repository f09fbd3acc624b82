"""Prime spectrum, assassins and weak assassins of cyclic modules."""

from __future__ import annotations

import importlib
import random
from functools import reduce

from torsionlab.harness import random_instance
from torsionlab.ideals import IdealHandle, ideal_colon, minimal_primes
from torsionlab.oracles import assassin_sets, weak_assassin_sets
from torsionlab.ring import Element, Monomial, RewriteRule, RingPresentation
from torsionlab.spectrum import (
    assassin_scan,
    assassins_cyclic,
    format_prime,
    prime_ideal,
    prime_variable_set,
    spectrum,
    weak_assassins_cyclic,
)
from torsionlab.torsion import gamma_small_cyclic

# The package re-exports the function spectrum under the module's name.
spectrum_module = importlib.import_module("torsionlab.spectrum")


def _var(i, e=1):
    return Monomial.variable(i, e)


def test_spectrum_of_free_ring_is_all_variable_subsets():
    ring = RingPresentation(2)
    assert [sorted(p) for p in spectrum(ring)] == [[], [0], [1], [0, 1]]


def test_spectrum_of_nilpotent_ring_is_maximal_ideal_only():
    ring = RingPresentation(2, [RewriteRule(_var(0, 2)), RewriteRule(_var(1, 2))])
    assert [sorted(p) for p in spectrum(ring)] == [[0, 1]]


def test_prime_ideal_round_trip():
    ring = RingPresentation(3)
    ideal = prime_ideal(ring, {0, 2})
    assert prime_variable_set(ideal) == frozenset({0, 2})
    assert format_prime(frozenset({0, 2})) == "prime(X0, X2)"


def test_non_prime_ideal_rejected():
    ring = RingPresentation(2)
    assert prime_variable_set(
        IdealHandle.from_monomials(ring, [_var(0).mul(_var(1))])) is None


def test_assassins_of_monomial_quotient():
    ring = RingPresentation(2)
    b = IdealHandle.from_monomials(ring, [_var(0, 2), _var(0).mul(_var(1))])
    report = assassins_cyclic(b)
    assert [format_prime(p) for p in report.primes] == [
        "prime(X0)", "prime(X0, X1)"]
    witnesses = dict(report.witnesses)
    # ann(X1) = (X0), ann(X0) = (X0, X1): colon recomputation certifies both
    for prime, witness in witnesses.items():
        colon = ideal_colon(b, Element.from_monomial(ring, witness))
        assert prime_variable_set(colon) == prime
    # The witnesses divide lcm(X0^2, X0*X1), so even a free ring's scan is
    # exact.
    assert report.complete


def test_zero_ideal_of_artinian_ring_has_the_maximal_ideal():
    # Q[X0, X1]/(X0^3, X1^2): the socle X0^2*X1 is killed by (X0, X1).
    ring = RingPresentation(2, [RewriteRule(_var(0, 3)),
                                RewriteRule(_var(1, 2))])
    zero = IdealHandle.zero(ring)
    ass = assassins_cyclic(zero)
    assert ass.primes == (frozenset({0, 1}),)
    assert ass.witnesses == ((frozenset({0, 1}), _var(0, 2).mul(_var(1))),)
    assert ass.complete
    assert weak_assassins_cyclic(zero).primes == (frozenset({0, 1}),)
    # A bound below the socle degree cuts the witness off, and says so.
    assert assassins_cyclic(zero, 2) == spectrum_module.AssassinReport(
        (), (), False)


def _ring_with_a_free_variable(rng):
    """A monomial-mode ring of 2 or 3 variables, at least one of them
    rule-free, and an ideal of up to three random normal monomials."""
    n = rng.randint(2, 3)
    free = rng.randrange(n)
    ruled = [v for v in range(n) if v != free and rng.random() < 0.8]
    rules = [RewriteRule(_var(v, rng.randint(2, 3))) for v in ruled]
    if len(ruled) == 2 and rng.random() < 0.5:
        rules.append(RewriteRule(_var(ruled[0]).mul(_var(ruled[1]))))
    ring = RingPresentation(n, rules)
    gens = []
    for _ in range(rng.randint(0, 3)):
        m = Monomial([(v, rng.randint(0, 2)) for v in range(n)])
        if not m.is_one and ring.is_normal(m):
            gens.append(m)
    return ring, IdealHandle.from_monomials(ring, gens)


def test_default_scans_are_exact_on_rings_with_free_variables():
    rng = random.Random(2107)
    for _ in range(150):
        ring, b = _ring_with_a_free_variable(rng)
        top = reduce(Monomial.lcm, b.lifted_monomials(), Monomial.one())
        ass, assf = assassin_scan(IdealHandle.unit(ring), b)
        assert ass.complete and assf.complete
        bound = top.degree
        assert list(ass.primes) == assassin_sets(
            b, bound, verify_bound=bound + 1), b
        assert list(assf.primes) == weak_assassin_sets(
            b, bound, verify_bound=bound + 1), b


def _divisors_both_ways(ring, top, fill):
    """normal_divisors(top) on two fresh copies of ring: one walks, the
    other has its level cache filled by ``fill`` first and may not walk."""
    walked = RingPresentation(ring.num_vars, ring.rules)
    filtered = RingPresentation(ring.num_vars, ring.rules)
    fill(filtered)

    def no_walk(*args):
        raise AssertionError("walked although the level cache covers top")

    filtered._next_level = no_walk
    return walked.normal_divisors(top), filtered.normal_divisors(top)


def test_normal_divisors_from_the_level_cache_equal_the_walk():
    rng = random.Random(2107)
    for _ in range(150):
        ring, b = _ring_with_a_free_variable(rng)
        top = reduce(Monomial.lcm, b.lifted_monomials(), Monomial.one())
        walked, filtered = _divisors_both_ways(
            ring, top, lambda r: r.normal_monomials_of_degree(top.degree))
        assert walked == filtered, top
    rng = random.Random(4)
    for index in range(40):
        inst = random_instance(index, rng)
        top = reduce(Monomial.lcm, inst.acting.monomial_generators()
                     + inst.relations.lifted_monomials(), Monomial.one())
        walked, filtered = _divisors_both_ways(
            inst.ring, top, RingPresentation.finite_basis_max_degree)
        assert walked == filtered, top


def test_weak_assassin_of_domain_is_zero_ideal():
    ring = RingPresentation(1)
    report = weak_assassins_cyclic(IdealHandle.zero(ring), witness_bound=3)
    assert [format_prime(p) for p in report.primes] == ["prime()"]


def test_zero_module_has_empty_assassins():
    ring = RingPresentation(2)
    unit = IdealHandle.unit(ring)
    assert assassins_cyclic(unit, witness_bound=3).primes == ()
    assert weak_assassins_cyclic(unit, witness_bound=3).primes == ()


def test_subquotient_scan_restricts_to_numerator():
    ring = RingPresentation(2)
    b = IdealHandle.from_monomials(ring, [_var(0, 2).mul(_var(1))])
    numerator = IdealHandle.from_monomials(ring, [_var(0)])
    report = assassin_scan(numerator, b, witness_bound=4)[0]
    for prime, witness in report.witnesses:
        assert numerator.contains_monomial(witness)
        assert not b.contains_monomial(witness)


def test_assassins_contained_in_weak_assassins():
    rng = random.Random(3)
    for i in range(15):
        instance = random_instance(i, rng)
        ass = assassins_cyclic(instance.relations, instance.witness_bound)
        assf = weak_assassins_cyclic(instance.relations, instance.witness_bound)
        assert ass.prime_set <= assf.prime_set
        assert ass.complete and assf.complete


def test_assassin_oracle_agreement():
    rng = random.Random(13)
    for i in range(8):
        instance = random_instance(i, rng)
        report = assassins_cyclic(instance.relations, instance.witness_bound)
        expected = assassin_sets(
            instance.relations, instance.witness_bound,
            verify_bound=instance.witness_bound + 1)
        assert sorted(report.primes, key=lambda s: (len(s), sorted(s))) == expected


def test_weak_assassin_oracle_agreement():
    rng = random.Random(17)
    for i in range(8):
        instance = random_instance(i, rng)
        report = weak_assassins_cyclic(instance.relations, instance.witness_bound)
        expected = weak_assassin_sets(
            instance.relations, instance.witness_bound,
            verify_bound=instance.witness_bound + 1)
        assert sorted(report.primes, key=lambda s: (len(s), sorted(s))) == expected


def test_assassin_scan_shared_by_equal_handles(monkeypatch):
    calls = []
    real = spectrum_module._colon_basis
    monkeypatch.setattr(spectrum_module, "_colon_basis",
                        lambda *args: calls.append(args) or real(*args))
    rng = random.Random(67)
    for i in range(10):
        instance = random_instance(i, rng)
        ring = instance.ring
        gens = instance.relations.monomial_generators()
        first = IdealHandle.from_monomials(ring, gens)
        second = IdealHandle.from_monomials(ring, gens[::-1])
        start = len(calls)
        one = assassin_scan(IdealHandle.unit(ring), first)
        before = len(calls)
        assert before > start
        two = assassin_scan(IdealHandle.unit(ring), second)
        assert one == two
        assert one[0] == assassins_cyclic(instance.relations)
        assert one[1] == weak_assassins_cyclic(instance.relations)
        assert len(calls) == before


def test_witness_scan_matches_membership_filter():
    """The scan lists the normal divisors of L (the lcm of the numerator's
    generators and the denominator's lifted basis) that lie in the
    numerator and outside the denominator, in grlex order; a bound keeps
    those up to its degree and reports whether it dropped any."""
    rng = random.Random(73)
    flags = set()
    for i in range(30):
        instance = random_instance(i, rng)
        ring = instance.ring
        for numerator, denominator in (
                (IdealHandle.unit(ring), instance.relations),
                (instance.extension, instance.relations),
                (instance.acting, instance.extension)):
            top = reduce(Monomial.lcm, numerator.monomial_generators()
                         + denominator.lifted_monomials(), Monomial.one())
            survivors = [m for m in ring.normal_monomials_up_to(top.degree)
                         if m.divides(top)
                         and numerator.contains_monomial(m)
                         and not denominator.contains_monomial(m)]
            assert spectrum_module._witness_scan(numerator, denominator) == (
                survivors, True)
            for bound in range(instance.witness_bound + 1):
                expect = [m for m in survivors if m.degree <= bound]
                complete = len(expect) == len(survivors)
                assert spectrum_module._witness_scan(
                    numerator, denominator, bound) == (expect, complete)
                flags.add(complete)
    assert flags == {True, False}


def test_assassin_scan_matches_per_witness_recomputation():
    rng = random.Random(71)
    for i in range(40):
        instance = random_instance(i, rng)
        ring = instance.ring
        bound = instance.witness_bound
        unit = IdealHandle.unit(ring)
        small = gamma_small_cyclic(instance.acting, instance.relations)
        for numerator, denominator in ((unit, instance.relations),
                                       (instance.extension, instance.relations),
                                       (unit, instance.extension),
                                       (small.preimage, instance.relations)):
            ass, assf = assassin_scan(numerator, denominator, bound)
            witnesses, complete = spectrum_module._witness_scan(
                numerator, denominator, bound)
            # Witnesses come in grlex order, so the first one per prime is
            # the smallest.
            expect_ass, expect_assf = {}, {}
            for m in witnesses:
                annihilator = ideal_colon(denominator,
                                          Element.from_monomial(ring, m))
                prime = prime_variable_set(annihilator)
                if prime is not None:
                    expect_ass.setdefault(prime, m)
                for prime in minimal_primes(annihilator):
                    expect_assf.setdefault(prime, m)
            assert dict(ass.witnesses) == expect_ass
            assert dict(assf.witnesses) == expect_assf
            assert ass.complete == assf.complete == complete
