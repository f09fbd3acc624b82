"""Torsion submodules of cyclic modules and the fairness predicate bundle."""

from __future__ import annotations

import random
from functools import reduce

import torsionlab.ideals as ideals_module
import torsionlab.torsion as torsion_module
from torsionlab.harness import random_instance
from torsionlab.ideals import (
    IdealHandle,
    _corner_saturation,
    format_ideal,
    ideal_saturation,
)
from torsionlab.ring import Element, Monomial, RewriteRule, RingPresentation
from torsionlab.torsion import (
    VERDICT_NAMES,
    bounded_torsion_exponent,
    fairness_report,
    gamma_large_cyclic,
    gamma_small_cyclic,
    radical_probe,
)

from test_ideals import (
    _free_ring_saturation_pairs,
    _general_saturation_pairs,
    _saturation_pairs,
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


def _corner_saturation_kept_by_every_generator(ideal, other):
    """_corner_saturation with one fault: a corner is kept only when every
    generator of J misses its mask, not when some generator does."""
    if not (ideal.is_monomial_mode and other.is_monomial_mode
            and other.generators):
        return None
    codes = ideal.ring._codes
    supports = {codes.support(g) for g in other._vectors()}
    corners = ideal._components()
    kept = sum(all(not mask & s for s in supports) for _, mask in corners)
    if not kept:
        return IdealHandle.unit(ideal.ring, complete=ideal.complete)
    return ideal if kept == len(corners) else None


def test_radical_probe_large_leg_catches_a_corner_fault(monkeypatch):
    """The large leg meets the principal saturations of the small preimage
    P, so it is no copy of the small leg.  Both legs hold on rings with a
    rule-free variable, where P need not be R.  With a corner read that
    keeps too few corners, a b : a^inf of two generators can read R, no
    power of a then kills it, and the preimage falls back to b
    unstabilized: saturating b by a again gives b, so the small leg holds,
    while the meet of the b : g^inf, which no fault reaches, is larger
    than b."""
    rows = [row for b, a in _free_ring_saturation_pairs(300, 67)
            for row in radical_probe(a, [b])]
    assert len(rows) == 298
    assert all(row["small_radical"] and row["large_radical"]
               and row["stabilized"] for row in rows)
    pairs = list(_free_ring_saturation_pairs(300, 67))
    monkeypatch.setattr(ideals_module, "_corner_saturation",
                        _corner_saturation_kept_by_every_generator)
    rows = [row for b, a in pairs for row in radical_probe(a, [b])]
    assert all(row["small_radical"] for row in rows)
    failed = [row for row in rows if not row["large_radical"]]
    assert len(failed) == 17
    assert not any(row["stabilized"] for row in failed)
    # The large functor applied again to its own preimage reads the memo
    # entry the small leg reads, so it cannot see the fault.
    for b, a in pairs:
        large = gamma_large_cyclic(a, b)
        again = gamma_large_cyclic(a, large.preimage)
        assert again.preimage.equals(large.preimage) is True


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


def test_large_torsion_builds_no_principal_part(monkeypatch):
    """After b : a^inf, the large torsion reads its steps off the corners of
    b in monomial mode: it walks nothing and builds no handle.  In general
    mode b : a^inf computes each b : g^inf once, g a generator of a, and the
    large torsion reads them from the memo."""
    calls = _count_walks(monkeypatch)
    rng = random.Random(42)
    for i in range(60):
        instance = random_instance(i, rng)
        a, b = instance.acting, instance.relations
        ideal_saturation(b, a)
        handles = len(b.ring._ideals)
        del calls[:]
        gamma_large_cyclic(a, b)
        assert not calls
        assert len(b.ring._ideals) == handles
    ring = RingPresentation(3, [RewriteRule(_var(i, 2), (1, _var(i)))
                                for i in range(3)])
    x0, x1, x2 = (Element.from_monomial(ring, _var(i)) for i in range(3))
    a = IdealHandle(ring, [x0, x1])
    b = IdealHandle(ring, [x0.mul(x2).add(x1.mul(x2))])
    del calls[:]
    ideal_saturation(b, a)
    gamma_large_cyclic(a, b)
    computed = [args for name, args in calls if name == "_compute_saturation"]
    assert computed == [(b, a)] + [
        (b, IdealHandle(ring, [g])) for g in a.generators]


def test_monomial_partial_saturation_reads_one_kill_exponent(monkeypatch):
    """A monomial-mode b : a^inf that the corners of b do not settle meets
    the closed forms of the b : g^inf, g a generator of a: it computes one
    saturation and reads one kill exponent, and leaves no principal part in
    the memo.  Its ideal is the meet of the principal saturations."""
    calls = _count_walks(monkeypatch)
    seen = 0
    for b, a in _free_ring_saturation_pairs(1000, 67):
        if len(a.generators) < 2 or _corner_saturation(b, a) is not None:
            continue
        del calls[:]
        sat = ideal_saturation(b, a)
        assert [(name, args[:2]) for name, args in calls] == [
            ("_compute_saturation", (b, a)),
            ("_power_kill_exponent", (a, sat.ideal))]
        assert list(b._saturations) == [a]
        parts = [ideal_saturation(b, IdealHandle(b.ring, [g])).ideal
                 for g in a.generators]
        assert reduce(ideals_module.ideal_intersection, parts) is sat.ideal
        seen += 1
    assert seen >= 40


def test_fairness_report_scans_three_modules(monkeypatch):
    """A fresh fairness report scans R/b, the small torsion and R/small
    preimage, which the large torsion shares, and no other module.  Each
    large verdict is its small twin's comparison under the large name."""
    scans = []
    real = torsion_module.assassin_scan
    monkeypatch.setattr(torsion_module, "assassin_scan",
                        lambda *args: scans.append(args) or real(*args))
    rng = random.Random(71)
    for i in range(20):
        instance = random_instance(i, rng)
        a, b = instance.acting, instance.relations
        del scans[:]
        report = fairness_report(a, b)
        unit, preimage = IdealHandle.unit(b.ring), report.small.preimage
        assert scans == [(unit, b), (preimage, b), (unit, preimage)]
        assert len(report.scans) == 3
        assert report.large.preimage is preimage
        small, large = report.comparisons[:3], report.comparisons[3:]
        assert tuple(c.name for c in large) == VERDICT_NAMES[3:]
        for twin, comparison in zip(small, large):
            assert (comparison.left, comparison.right, comparison.holds) == (
                twin.left, twin.right, twin.holds)


def test_general_mode_large_torsion_runs_no_completion(monkeypatch):
    """In Q[X0..X2]/(X_i^2 - X_i), after the small torsion of R/b at
    a = (X0, X1), the large torsion runs no completion: its preimage is the
    small one, and its principal saturations are in the memo."""
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
    assert not calls
    assert large.preimage.equals(small.preimage) is True
    assert (large.stabilized, large.steps) == (True, 1)


def test_large_torsion_is_the_small_preimage(monkeypatch):
    """a is finitely generated, so the large preimage is b : a^inf, the
    very handle of the small torsion.  Only the steps are the large
    torsion's own, the most any principal saturation b : g^inf takes, and
    its flag is that of the meet of those parts: each part stabilized and
    the meet complete.  Asked after the small torsion it meets nothing.  In
    monomial mode the meet is the same interned handle, so only a
    general-mode preimage prints other generators than the meet did.  Over
    100 monomial-mode pairs have a part that is neither R nor b, so the
    steps the large torsion reads off the corners of b meet parts computed
    in closed form."""
    meets = []
    real = ideals_module.ideal_intersection
    monkeypatch.setattr(ideals_module, "ideal_intersection",
                        lambda *args: meets.append(args) or real(*args))
    pairs = list(_saturation_pairs(300, 61))
    pairs.extend(_free_ring_saturation_pairs(1000, 67))
    for seed in (5, 103):
        pairs.extend(_general_saturation_pairs(random.Random(seed)))
    moved = partial = 0
    for b, a in pairs:
        small = gamma_small_cyclic(a, b)
        del meets[:]
        large = gamma_large_cyclic(a, b)
        assert not meets
        assert large.preimage is small.preimage
        parts = [ideal_saturation(b, IdealHandle(b.ring, [g]))
                 for g in a.generators]
        assert large.steps == max((part.steps for part in parts), default=0)
        partial += b.is_monomial_mode and any(
            _corner_saturation(b, IdealHandle(b.ring, [g])) is None
            for g in a.generators)
        meet = reduce(real, [part.ideal for part in parts]
                      or [IdealHandle.unit(b.ring)])
        assert large.stabilized == (
            all(part.stabilized for part in parts) and meet.complete)
        if meet is not large.preimage:
            assert not b.is_monomial_mode
            assert meet.equals(large.preimage) is True
            moved += 1
    assert sum(not b.is_monomial_mode for b, _ in pairs) == 600
    assert len(pairs) - 600 >= 3000 and moved >= 50 and partial >= 100


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
