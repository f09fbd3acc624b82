"""Prime spectrum, assassins and weak assassins of cyclic modules."""

from __future__ import annotations

import importlib
import random

from torsionlab.harness import random_instance
from torsionlab.ideals import IdealHandle, ideal_colon, minimal_primes
from torsionlab.oracles import assassin_sets, weak_assassin_sets
from torsionlab.ring import Element, Monomial, RewriteRule, RingPresentation
from torsionlab.spectrum import (
    assassin_scan,
    assassins_cyclic,
    default_witness_bound,
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
    report = assassins_cyclic(b, witness_bound=4)
    assert [format_prime(p) for p in report.primes] == [
        "prime(X0)", "prime(X0, X1)"]
    witnesses = dict(report.witnesses)
    # ann(X1) = (X0), ann(X0) = (X0, X1): colon recomputation certifies both
    for prime, witness in witnesses.items():
        colon = ideal_colon(b, Element.from_monomial(ring, witness))
        assert prime_variable_set(colon) == prime
    # free rings never certify scan completeness
    assert not report.complete


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
        two = assassin_scan(IdealHandle.unit(ring), second,
                            default_witness_bound(second))
        assert one == two
        assert one[0] == assassins_cyclic(instance.relations)
        assert one[1] == weak_assassins_cyclic(instance.relations)
        assert len(calls) == before


def test_witness_scan_matches_membership_filter():
    rng = random.Random(73)
    flags = set()
    for i in range(30):
        instance = random_instance(i, rng)
        ring = instance.ring
        for numerator, denominator in (
                (IdealHandle.unit(ring), instance.relations),
                (instance.extension, instance.relations),
                (instance.acting, instance.extension)):
            def survives(m):
                return (numerator.contains_monomial(m)
                        and not denominator.contains_monomial(m))
            gen_deg = max((g.degree for g in numerator.monomial_generators()),
                          default=0)
            for bound in range(instance.witness_bound + 1):
                expect = [m for d in range(bound + 1)
                          for m in ring.normal_monomials_of_degree(d)
                          if survives(m)]
                complete = bound + 1 >= gen_deg and not any(
                    survives(m)
                    for m in ring.normal_monomials_of_degree(bound + 1))
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
            assert ass.witness_bound == assf.witness_bound == bound
