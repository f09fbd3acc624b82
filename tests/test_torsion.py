"""Torsion submodules of cyclic modules and the fairness predicate bundle."""

from __future__ import annotations

import random

import torsionlab.ideals as ideals_module
from torsionlab.harness import random_instance
from torsionlab.ideals import IdealHandle, format_ideal, ideal_saturation
from torsionlab.ring import Element, Monomial, RewriteRule, RingPresentation
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


def _count_walks(monkeypatch):
    """(name, arguments) of each saturation computed, by either route
    (_compute_saturation), and of each kill exponent read from now on, in
    order."""
    calls = []
    for name in ("_compute_saturation", "_power_kill_exponent"):
        real = getattr(ideals_module, name)
        monkeypatch.setattr(
            ideals_module, name,
            lambda *args, _name=name, _real=real:
            calls.append((_name, args)) or _real(*args))
    return calls


def _report_summary(report):
    """What a fairness report says, with its torsion preimages formatted."""
    return (report.comparisons, report.scans, report.centred_witness_ok,
            report.half_centred_witness_ok, report.functors_agree,
            report.complete,
            tuple((format_ideal(t.preimage), t.stabilized, t.steps)
                  for t in (report.small, report.large)))


def test_repeated_saturations_read_the_ring_memo(monkeypatch):
    """A saturation asked again of the same ring is computed once: the
    small torsion after the saturation it is, and a second fairness report,
    walk nothing."""
    calls = _count_walks(monkeypatch)
    rng = random.Random(89)
    for i in range(40):
        instance = random_instance(i, rng)
        a, b = instance.acting, instance.relations
        sat = ideal_saturation(b, a)
        assert ("_compute_saturation", (b, a)) in calls
        del calls[:]
        small = gamma_small_cyclic(a, b)
        assert not calls
        assert (small.preimage, small.stabilized, small.steps) == (
            sat.ideal, sat.stabilized, sat.steps)
        first = fairness_report(a, b)
        del calls[:]
        second = fairness_report(a, b)
        assert not calls
        assert _report_summary(second) == _report_summary(first)


def test_large_torsion_reads_the_principal_saturations(monkeypatch):
    """After b : a^inf, the large torsion computes each b : g^inf once, one
    per generator g of a, and a second large torsion walks nothing."""
    calls = _count_walks(monkeypatch)
    rng = random.Random(42)
    checked = 0
    for i in range(60):
        instance = random_instance(i, rng)
        a, b = instance.acting, instance.relations
        if len(a.generators) < 2:
            continue
        ideal_saturation(b, a)
        gamma_large_cyclic(a, b)
        computed = [args for name, args in calls
                    if name == "_compute_saturation"]
        assert computed == [(b, a)] + [
            (b, IdealHandle(b.ring, [g])) for g in a.generators]
        del calls[:]
        gamma_large_cyclic(a, b)
        assert not calls
        checked += 1
    assert checked >= 20


def test_general_mode_large_torsion_completes_only_its_meet(monkeypatch):
    """In Q[X0..X2]/(X_i^2 - X_i), after the small torsion of R/b at
    a = (X0, X1), the large torsion runs at most one completion: the meet
    of the principal saturations, which the small one did not keep."""
    ring = RingPresentation(3, [RewriteRule(_var(i, 2), (1, _var(i)))
                                for i in range(3)])
    x0, x1, x2 = (Element.from_monomial(ring, _var(i)) for i in range(3))
    a = IdealHandle(ring, [x0, x1])
    b = IdealHandle(ring, [x0.mul(x2).add(x1.mul(x2))])
    small = gamma_small_cyclic(a, b)
    calls = []
    real = ideals_module._complete
    monkeypatch.setattr(ideals_module, "_complete",
                        lambda *args: calls.append(args) or real(*args))
    large = gamma_large_cyclic(a, b)
    assert len(calls) <= 1
    assert large.preimage.equals(small.preimage) is True
    assert (large.stabilized, large.steps) == (True, 1)


def test_zero_and_unit_acting_ideals():
    """b : 0^inf is the unit ideal at step 1 (0^1 kills everything), the
    large torsion at the zero ideal meets no saturation, and b : (1)^inf is
    b at step 0, in both modes."""
    idempotent = [RewriteRule(_var(i, 2), (1, _var(i))) for i in range(2)]
    for rules in ([RewriteRule(_var(0, 3))], idempotent):
        ring = RingPresentation(2, rules)
        b = IdealHandle(ring, [Element.from_monomial(ring, _var(0, 2))])
        zero, unit = IdealHandle.zero(ring), IdealHandle.unit(ring)
        assert b.is_monomial_mode is (rules is not idempotent)
        sat = ideal_saturation(b, zero)
        assert (sat.ideal, sat.stabilized, sat.steps) == (unit, True, 1)
        large = gamma_large_cyclic(zero, b)
        assert (large.preimage, large.stabilized, large.steps) == (
            unit, True, 0)
        sat = ideal_saturation(b, unit)
        assert (sat.ideal, sat.stabilized, sat.steps) == (b, True, 0)
