"""Torsion submodules of cyclic modules and the fairness predicate bundle."""

from __future__ import annotations

import random

from torsionlab.harness import random_instance
from torsionlab.ideals import IdealHandle, format_ideal
from torsionlab.ring import Monomial, RewriteRule, RingPresentation
from torsionlab.torsion import (
    VERDICT_NAMES,
    bounded_torsion_exponent,
    fairness_report,
    gamma_large_cyclic,
    gamma_small_cyclic,
    radical_probe,
)


def _var(i, e=1):
    return Monomial.variable(i, e)


def _square_zero(n):
    return RingPresentation(n, [RewriteRule(_var(i, 2)) for i in range(n)])


def test_small_torsion_preimage_is_saturation():
    ring = RingPresentation(2)
    a = IdealHandle.from_monomials(ring, [_var(0)])
    b = IdealHandle.from_monomials(ring, [_var(0, 2).mul(_var(1))])
    result = gamma_small_cyclic(a, b)
    assert format_ideal(result.preimage) == "ideal(X1)"
    assert result.stabilized and result.steps == 2
    assert not result.is_zero_submodule
    assert not result.is_whole_module


def test_unit_acting_ideal_gives_zero_torsion():
    ring = RingPresentation(2)
    b = IdealHandle.from_monomials(ring, [_var(0)])
    result = gamma_small_cyclic(IdealHandle.unit(ring), b)
    assert result.is_zero_submodule
    assert result.preimage.equals(b) is True


def test_acting_inside_relations_gives_whole_module():
    ring = _square_zero(2)
    a = IdealHandle.from_monomials(ring, [_var(0)])
    b = IdealHandle.from_monomials(ring, [_var(0), _var(1)])
    small = gamma_small_cyclic(a, b)
    large = gamma_large_cyclic(a, b)
    assert small.is_whole_module and large.is_whole_module


def test_principal_acting_ideal_merges_functors():
    rng = random.Random(29)
    for i in range(12):
        instance = random_instance(i, rng)
        ring = instance.ring
        gen = rng.choice(range(ring.num_vars))
        principal = IdealHandle.from_monomials(ring, [_var(gen)])
        small = gamma_small_cyclic(principal, instance.relations)
        large = gamma_large_cyclic(principal, instance.relations)
        assert small.preimage.equals(large.preimage) is True


def test_small_torsion_inside_large_torsion():
    rng = random.Random(31)
    for i in range(12):
        instance = random_instance(i, rng)
        small = gamma_small_cyclic(instance.acting, instance.relations)
        large = gamma_large_cyclic(instance.acting, instance.relations)
        for g in small.preimage.monomial_generators():
            assert large.preimage.contains_monomial(g)
        for g in instance.relations.monomial_generators():
            assert small.preimage.contains_monomial(g)


def test_bounded_torsion_exponent_on_nilpotent_ring():
    ring = _square_zero(2)
    a = IdealHandle.from_monomials(ring, [_var(0), _var(1)])
    zero = IdealHandle.zero(ring)
    # X0*X1 survives degree 2, every degree-3 product dies
    assert bounded_torsion_exponent(a, IdealHandle.unit(ring), zero) == 3


def test_fairness_all_verdicts_on_artinian_instance():
    ring = _square_zero(2)
    a = IdealHandle.from_monomials(ring, [_var(0), _var(1)])
    b = IdealHandle.from_monomials(ring, [_var(0).mul(_var(1))])
    report = fairness_report(a, b)
    assert all(report.verdict(name) for name in VERDICT_NAMES)
    assert report.complete
    assert report.functors_agree
    assert report.centred_witness_ok
    assert report.half_centred_witness_ok
    assert report.all_hold


def test_fairness_verdict_names_are_stable():
    assert VERDICT_NAMES == (
        "fair",
        "weakly_fair",
        "weakly_quasifair",
        "large_fair",
        "weakly_large_fair",
        "weakly_large_quasifair",
    )


def test_radical_probe_on_truncated_instances():
    rng = random.Random(53)
    instances = [random_instance(i, rng) for i in range(6)]
    for instance in instances:
        rows = radical_probe(
            instance.acting, [instance.relations, instance.extension])
        for row in rows:
            assert row["stabilized"]
            assert row["large_radical"]
            # truncated rings are artinian, so the small leg holds as well
            assert row["small_radical"]


def test_torsion_vanishing_against_weak_assassins():
    from torsionlab.spectrum import in_variety, weak_assassins_cyclic
    rng = random.Random(59)
    for i in range(12):
        instance = random_instance(i, rng)
        large = gamma_large_cyclic(instance.acting, instance.relations)
        assf = weak_assassins_cyclic(instance.relations)
        meets = [p for p in assf.primes if in_variety(p, instance.acting)]
        if not meets:
            assert large.is_zero_submodule
        if large.is_whole_module:
            assert all(in_variety(p, instance.acting) for p in assf.primes)
