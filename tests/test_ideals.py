"""Ideal engine: membership, colon, saturation, radical, minimal primes."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from torsionlab.errors import RingMismatch
from torsionlab.harness import random_instance
from torsionlab.ideals import (
    IdealHandle,
    MembershipAnswer,
    _power_kill_exponent,
    brute_force_membership,
    format_ideal,
    ideal_colon,
    ideal_colon_ideal,
    ideal_intersection,
    ideal_membership,
    ideal_power,
    ideal_product,
    ideal_radical,
    ideal_saturation,
    ideal_sum,
    minimal_primes,
    minimal_transversals,
    power_order,
)
from torsionlab.oracles import (
    colon_monomials,
    minimal_prime_sets,
    radical_monomials,
    saturation_monomials,
)
from torsionlab.ring import (
    Element,
    Monomial,
    RewriteRule,
    RingPresentation,
    check_local_confluence,
)
from torsionlab.torsion import gamma_large_cyclic


def _var(i, e=1):
    return Monomial.variable(i, e)


def _free(n):
    return RingPresentation(n)


def test_generator_reduction_drops_multiples():
    ring = _free(2)
    ideal = IdealHandle.from_monomials(ring, [_var(0), _var(0).mul(_var(1))])
    assert format_ideal(ideal) == "ideal(X0)"


def test_colon_by_variable():
    ring = _free(2)
    b = IdealHandle.from_monomials(ring, [_var(0, 2).mul(_var(1))])
    q = ideal_colon(b, Element.from_monomial(ring, _var(0)))
    assert format_ideal(q) == "ideal(X0*X1)"


def test_saturation_stabilizes_with_step_count():
    ring = _free(2)
    b = IdealHandle.from_monomials(ring, [_var(0, 2).mul(_var(1))])
    a = IdealHandle.from_monomials(ring, [_var(0)])
    result = ideal_saturation(b, a)
    assert format_ideal(result.ideal) == "ideal(X1)"
    assert result.stabilized
    assert result.steps == 2


def test_radical_of_power_product():
    ring = _free(3)
    ideal = IdealHandle.from_monomials(ring, [_var(0, 2).mul(_var(1, 3))])
    assert format_ideal(ideal_radical(ideal)) == "ideal(X0*X1)"


def test_minimal_primes_of_two_generator_ideal():
    ring = _free(3)
    ideal = IdealHandle.from_monomials(
        ring, [_var(0).mul(_var(1)), _var(0).mul(_var(2))])
    assert [sorted(p) for p in minimal_primes(ideal)] == [[0], [1, 2]]


def test_minimal_transversals_example():
    hits = minimal_transversals([frozenset({0, 1}), frozenset({0, 2})])
    assert sorted(sorted(t) for t in hits) == [[0], [1, 2]]


def _remultiply(answer, ideal):
    acc = Element.zero(ideal.ring)
    for k, h in answer.certificate:
        acc = acc.add(ideal.generators[k].mul(h))
    return acc


def test_membership_yes_certificate_reassembles():
    ring = _free(2)
    b = IdealHandle.from_monomials(ring, [_var(0, 2), _var(0).mul(_var(1))])
    f = Element.from_terms(ring, [(_var(0, 3), 1), (_var(0).mul(_var(1, 2)), 2)])
    answer = ideal_membership(f, b)
    assert answer.is_yes
    assert _remultiply(answer, b) == f


def test_membership_no_for_missing_monomial():
    ring = _free(2)
    b = IdealHandle.from_monomials(ring, [_var(0, 2)])
    f = Element.from_monomial(ring, _var(1))
    assert not ideal_membership(f, b).is_yes


def test_ring_mismatch_rejected():
    r1, r2 = _free(2), _free(2)
    a = IdealHandle.from_monomials(r1, [_var(0)])
    with pytest.raises(RingMismatch):
        ideal_sum(a, IdealHandle.from_monomials(r2, [_var(1)]))


def test_unit_and_zero_flags():
    ring = _free(2)
    assert IdealHandle.unit(ring).is_unit
    assert IdealHandle.zero(ring).is_zero
    assert not IdealHandle.from_monomials(ring, [_var(0)]).is_unit


def _random_ideal(ring, rng, max_gens=3, max_degree=3):
    monos = ring.normal_monomials_up_to(max_degree)
    gens = [m for m in rng.sample(monos, min(len(monos), rng.randint(1, max_gens)))
            if not m.is_one]
    return IdealHandle.from_monomials(ring, gens) if gens else IdealHandle.zero(ring)


def test_sum_product_intersection_inclusions():
    rng = random.Random(11)
    for i in range(25):
        instance = random_instance(i, rng)
        ring = instance.ring
        a, b = _random_ideal(ring, rng), _random_ideal(ring, rng)
        total = ideal_sum(a, b)
        prod = ideal_product(a, b)
        meet = ideal_intersection(a, b)
        for g in a.generators + b.generators:
            assert ideal_membership(g, total).is_yes
        for g in prod.generators:
            assert ideal_membership(g, meet).is_yes
        for g in meet.generators:
            assert ideal_membership(g, a).is_yes
            assert ideal_membership(g, b).is_yes


def test_power_matches_iterated_colon():
    rng = random.Random(23)
    for i in range(12):
        instance = random_instance(i, rng)
        b, a = instance.relations, instance.acting
        n = rng.randint(1, 3)
        direct = ideal_colon_ideal(b, ideal_power(a, n))
        chained = b
        for _ in range(n):
            chained = ideal_colon_ideal(chained, a)
        assert direct.equals(chained) is True


def test_brute_force_membership_agrees():
    rng = random.Random(5)
    checked = 0
    for i in range(20):
        instance = random_instance(i, rng)
        ring = instance.ring
        ideal = _random_ideal(ring, rng)
        for m in ring.normal_monomials_up_to(3):
            f = Element.from_monomial(ring, m)
            fast = ideal_membership(f, ideal).is_yes
            # the oracle answers yes-with-certificate or unknown, never no
            slow = brute_force_membership(f, ideal, degree_bound=4)
            assert fast == slow.is_yes, format_ideal(ideal)
            checked += 1
    assert checked >= 100


def _as_monomial_set(elements):
    return {e.single_term()[0] for e in elements}


def test_colon_oracle_agreement():
    rng = random.Random(37)
    for i in range(10):
        instance = random_instance(i, rng)
        ring = instance.ring
        b = instance.relations
        factor = rng.choice(ring.normal_monomials_up_to(2))
        expected = set(colon_monomials(b, factor, 3))
        colon = ideal_colon(b, Element.from_monomial(ring, factor))
        got = {m for m in ring.normal_monomials_up_to(3)
               if colon.contains_monomial(m)}
        assert got == expected


def test_saturation_oracle_agreement():
    rng = random.Random(41)
    for i in range(10):
        instance = random_instance(i, rng)
        ring = instance.ring
        result = ideal_saturation(instance.relations, instance.acting)
        assert result.stabilized
        expected = set(saturation_monomials(
            instance.relations, instance.acting, 3, power_cap=8))
        got = {m for m in ring.normal_monomials_up_to(3)
               if result.ideal.contains_monomial(m)}
        assert got == expected


def test_radical_oracle_agreement():
    rng = random.Random(43)
    for i in range(10):
        instance = random_instance(i, rng)
        ring = instance.ring
        ideal = _random_ideal(ring, rng)
        rad = ideal_radical(ideal)
        expected = set(radical_monomials(ideal, 3))
        got = {m for m in ring.normal_monomials_up_to(3)
               if rad.contains_monomial(m)}
        assert got == expected


def test_minimal_primes_oracle_agreement():
    rng = random.Random(47)
    for i in range(10):
        instance = random_instance(i, rng)
        primes = minimal_primes(instance.relations)
        assert sorted(primes, key=lambda s: (len(s), sorted(s))) == \
            minimal_prime_sets(instance.relations)


def test_monomial_bases_are_cached_tuples():
    rng = random.Random(59)
    for i in range(10):
        instance = random_instance(i, rng)
        lhs = [rule.lhs for rule in instance.ring.rules]
        for ideal in (instance.acting, instance.relations,
                      instance.extension, instance.between):
            gens = ideal.monomial_generators()
            assert isinstance(gens, tuple)
            assert gens == ideal.monomial_generators()
            assert gens == tuple(g.single_term()[0] for g in ideal.generators)
            lifted = ideal.lifted_monomials()
            assert isinstance(lifted, tuple)
            assert lifted == ideal.lifted_monomials()
            # Reduced basis of generators plus rule lhs, checked directly.
            pool = set(gens) | set(lhs)
            assert set(lifted) <= pool
            assert all(any(k.divides(m) for k in lifted) for m in pool)
            assert not any(k.divides(m) for k in lifted for m in lifted
                           if k != m)


def test_colon_by_monomial_uses_the_basis_helper():
    from torsionlab.ideals import _colon_basis
    rng = random.Random(73)
    checked = 0
    for i in range(15):
        instance = random_instance(i, rng)
        ring = instance.ring
        for ideal in (instance.relations, instance.extension):
            for m in ring.normal_monomials_up_to(instance.witness_bound):
                basis = _colon_basis(ideal.lifted_monomials(), m)
                colon = ideal_colon(ideal, Element.from_monomial(ring, m))
                assert colon.lifted_monomials() == basis
                assert colon.monomial_generators() == tuple(
                    q for q in basis if ring.is_normal(q))
                assert colon.complete == ideal.complete
                checked += 1
    assert checked >= 500


def test_general_mode_colon_by_ideal_is_one_bounded_search(monkeypatch):
    import torsionlab.ideals as ideals_module
    from torsionlab.families import get_family, instantiate
    from torsionlab.ring import format_element
    ring, ideals = instantiate(get_family("idem50C"), 4)
    colon_calls = []
    real = ideals_module.ideal_colon
    monkeypatch.setattr(ideals_module, "ideal_colon",
                        lambda *args: colon_calls.append(args) or real(*args))
    result = ideal_colon_ideal(ideals["b"], ideals["a"])
    assert colon_calls == []
    assert not result.is_monomial_mode and not result.complete
    # The generators of the per-generator intersection of bounded colons.
    assert [format_element(g) for g in result.generators] == [
        "X0*X1", "X0*X1*X2", "X0*X1*X3", "X0*X1*X4", "X0^2*X1", "X0^2*X2"]


def _colon_chain(ideal, other, cap):
    """The ascending chain I, (I:J), ((I:J):J), ... run explicitly, as
    (ideal, stabilized, steps)."""
    current = ideal
    for step in range(cap):
        nxt = ideal_colon_ideal(current, other)
        if nxt.equals(current) is True:
            return current, True, step
        current = nxt
    return current, False, cap


def _saturation_pairs(count, seed):
    rng = random.Random(seed)
    for i in range(count):
        instance = random_instance(i, rng)
        ring = instance.ring
        b, c = instance.relations, instance.extension
        for other in (instance.acting, instance.between,
                      IdealHandle.unit(ring)):
            yield b, other
            yield c, other
        for m in instance.acting.monomial_generators():
            yield b, IdealHandle.from_monomials(ring, [m])


@pytest.mark.parametrize("cap", (1, 2, 3, 64))
def test_monomial_saturation_matches_colon_chain(cap, monkeypatch):
    import torsionlab.ideals as ideals_module
    chain_calls = []
    real = ideals_module.ideal_colon_ideal
    monkeypatch.setattr(ideals_module, "ideal_colon_ideal",
                        lambda *args: chain_calls.append(args) or real(*args))
    outcomes = set()
    for ideal, other in _saturation_pairs(40, 61):
        before = len(chain_calls)
        got = ideal_saturation(ideal, other, cap)
        ran_chain = len(chain_calls) > before
        expected, stabilized, steps = _colon_chain(ideal, other, cap)
        assert got.ideal.equals(expected) is True
        assert (got.stabilized, got.steps) == (stabilized, steps)
        assert got.ideal.complete == expected.complete
        # The chain runs only when it cannot stop below the cap.
        assert ran_chain == (not stabilized)
        outcomes.add(stabilized)
    assert outcomes == ({True} if cap == 64 else {True, False})


def test_general_mode_saturation_runs_the_chain(monkeypatch):
    import torsionlab.ideals as ideals_module
    ring = RingPresentation(2, [RewriteRule(_var(0, 2), (1, _var(0))),
                                RewriteRule(_var(1, 2), (1, _var(1)))])
    b = IdealHandle.from_monomials(ring, [_var(0).mul(_var(1))])
    a = IdealHandle.from_monomials(ring, [_var(0)])
    assert not b.is_monomial_mode
    chain_calls = []
    real = ideals_module.ideal_colon_ideal
    monkeypatch.setattr(ideals_module, "ideal_colon_ideal",
                        lambda *args: chain_calls.append(args) or real(*args))
    for cap in (1, 64):
        result = ideal_saturation(b, a, cap)
        expected, stabilized, steps = _colon_chain(b, a, cap)
        assert result.ideal.generators == expected.generators
        assert (result.stabilized, result.steps) == (stabilized, steps)
    assert chain_calls
    assert format_ideal(result.ideal) == "ideal(X0*X1, X1)"


def _product_chain_kill_exponent(acting, module, target, cap):
    """Reference: acting^n * module built as an ideal, one product per
    step, until its generators lie in target."""
    current = module
    for n in range(cap + 1):
        if all(target.contains_monomial(g)
               for g in current.monomial_generators()):
            return n
        current = ideal_product(acting, current)
    return None


def _kill_exponent_triples(count, seed):
    rng = random.Random(seed)
    for i in range(count):
        instance = random_instance(i, rng)
        ring = instance.ring
        a, b = instance.acting, instance.relations
        yield a, ideal_saturation(b, a).ideal, b
        yield a, gamma_large_cyclic(a, b).preimage, b
        yield a, instance.extension, b
        yield a, IdealHandle.unit(ring), b
        for gen in a.monomial_generators():
            principal = IdealHandle.from_monomials(ring, [gen])
            yield principal, ideal_saturation(b, principal).ideal, b


def test_power_kill_exponent_matches_product_chain():
    results = set()
    for acting, module, target in _kill_exponent_triples(300, 67):
        top = _product_chain_kill_exponent(acting, module, target, 8)
        for cap in range(9):
            # The chain stops at the same n under every cap it fits.
            expected = top if top is not None and top <= cap else None
            assert _power_kill_exponent(acting, module, target, cap) == expected
            results.add(expected)
    assert None in results and {1, 2, 3, 4} <= results


def test_power_kill_exponent_edge_cases():
    ring = RingPresentation(2, [RewriteRule(_var(0, 2)),
                                RewriteRule(_var(1, 2))])
    zero, unit = IdealHandle.zero(ring), IdealHandle.unit(ring)
    a = IdealHandle.from_monomials(ring, [_var(0), _var(1)])
    x0 = IdealHandle.from_monomials(ring, [_var(0)])
    # Zero acting ideal: a^1 * M = 0 already.
    assert _power_kill_exponent(zero, unit, zero, 5) == 1
    assert _power_kill_exponent(zero, unit, zero, 0) is None
    # Unit acting ideal: every power is M itself.
    assert _power_kill_exponent(unit, x0, zero, 8) is None
    assert _power_kill_exponent(unit, x0, x0, 8) == 0
    # Zero module, and a module inside the target.
    assert _power_kill_exponent(a, zero, zero, 0) == 0
    assert _power_kill_exponent(a, x0, a, 0) == 0
    # X0*X1 survives a^2, every product of three generators dies.
    assert _power_kill_exponent(a, unit, zero, 3) == 3
    assert _power_kill_exponent(a, unit, zero, 2) is None
    assert _power_kill_exponent(a, x0, zero, 2) == 2
    assert _power_kill_exponent(a, x0, zero, 1) is None


def test_power_order_matches_power_membership():
    rng = random.Random(71)
    checked = 0
    for i in range(30):
        instance = random_instance(i, rng)
        ring = instance.ring
        for acting in (instance.acting, instance.between,
                       IdealHandle.zero(ring), IdealHandle.unit(ring)):
            powers = [ideal_power(acting, n) for n in range(6)]
            for m in ring.normal_monomials_up_to(4):
                order = power_order(acting, m)
                f = Element.from_monomial(ring, m)
                for n, power in enumerate(powers):
                    assert (order >= n) == ideal_membership(f, power).is_yes
                    checked += 1
    assert checked >= 5000


def _exhaustive_span(ideal, bound):
    """Reference for termwise membership, exhaustive for one bound: every
    generator in order times every normal multiplier up to the bound in
    grlex order, normalized; the first (k, m) reaching a monomial wins."""
    ring = ideal.ring
    span = {}
    for k, g in enumerate(ideal.generators):
        gm = g.single_term()[0]
        for m in ring.normal_monomials_up_to(bound):
            nf = ring.normal_form_monomial(gm.mul(m))
            if not nf.is_zero:
                span.setdefault(nf.single_term()[0], (k, m))
    return span


def _random_monomial(rng, num_vars, degree):
    m = Monomial.one()
    for _ in range(degree):
        m = m.mul(_var(rng.randrange(num_vars)))
    return m


def _random_coefficient(rng):
    return rng.choice([1, 1, 1, 2, -1, 3, Fraction(1, 2), Fraction(-2, 3)])


def _random_ring(rng):
    """A ring over 1..4 variables whose rules are power rules X_v^a ->
    c*X_w^b or -> 0 and random monomial rules L -> c*M with deg M < deg L,
    or -> 0; c is 1 in three draws of eight.  Not always confluent."""
    n = rng.randint(1, 4)
    rules = {}
    for v in range(n):
        if rng.random() < 0.6:
            a = rng.randint(2, 4)
            rules[_var(v, a)] = (
                None if rng.random() < 0.3 else
                (_random_coefficient(rng),
                 _var(rng.randrange(n), rng.randint(1, a - 1))))
    for _ in range(rng.randint(0, 3)):
        lhs = _random_monomial(rng, n, rng.randint(2, 4))
        if lhs not in rules:
            rules[lhs] = (None if rng.random() < 0.3 else
                          (_random_coefficient(rng), _random_monomial(
                              rng, n, rng.randrange(lhs.degree))))
    return RingPresentation(n, [RewriteRule(lhs, rhs)
                                for lhs, rhs in rules.items()])


def test_termwise_membership_is_exact_on_confluent_rings():
    rng = random.Random(83)
    rings = queries = no = derived = past_generators = 0
    while rings < 150:
        ring = _random_ring(rng)
        if check_local_confluence(ring):
            continue
        ideal = IdealHandle(ring, [
            Element.from_monomial(ring, _random_monomial(
                rng, ring.num_vars, rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))])
        if ideal.is_zero:
            continue
        rings += 1
        derived += bool(ideal._derived_vanishing())
        gens = [g.single_term()[0] for g in ideal.generators]
        span = _exhaustive_span(ideal, 7)
        terms = ring.normal_monomials_up_to(4)
        elements = [Element.from_monomial(ring, t) for t in terms]
        for _ in range(3):
            f = Element.zero(ring)
            for t in rng.sample(terms, min(3, len(terms))):
                f = f.add(Element.from_monomial(
                    ring, t, _random_coefficient(rng)))
            elements.append(f)
        for f in elements:
            got = ideal_membership(f, ideal)
            reached = all(t in span for t in f.terms)
            queries += 1
            if got.verdict == "yes":
                assert _remultiply(got, ideal) == f, (ring.rules, ideal, f)
                past_generators += not any(g.divides(t) for t in f.terms
                                           for g in gens)
                continue
            assert got.verdict == "no" and not reached, (ring.rules, ideal, f)
            assert not brute_force_membership(f, ideal, 4).is_yes, (
                ring.rules, ideal, f)
            no += 1
    assert queries >= 3000 and 1000 <= no <= queries - 1000
    # Some ideals need derived vanishing monomials, and some yes answers
    # rest on them alone, so the completion and its certificates both run.
    assert derived >= 30 and past_generators >= 200


def test_derived_vanishing_monomials_reach_past_the_generators():
    # X1^2 -> X2 and X2^2 -> X3 put X2, then X3, into <X1>.
    ring = RingPresentation(4, [RewriteRule(_var(i, 2), (1, _var(i + 1)))
                                for i in range(3)])
    b = IdealHandle.from_monomials(ring, [_var(1)])
    assert not b.is_monomial_mode
    assert [z for z, _ in b._derived_vanishing()] == [_var(2), _var(3)]
    got = ideal_membership(Element.from_monomial(ring, _var(3)), b)
    assert got.verdict == "yes" and got.search_bound is None
    assert got.certificate == (
        (0, Element.from_monomial(ring, _var(1).mul(_var(2)))),)
    x0 = Element.from_monomial(ring, _var(0))
    assert ideal_membership(x0, b).verdict == "no"
    # A coefficient rule: X0^3 = 2*X1, so X1 = 1/2*X0 * X0^2.
    ring = RingPresentation(2, [RewriteRule(_var(0, 3), (2, _var(1)))])
    c = IdealHandle.from_monomials(ring, [_var(0, 2)])
    got = ideal_membership(Element.from_monomial(ring, _var(1)), c)
    assert got.certificate == (
        (0, Element.from_monomial(ring, _var(0), Fraction(1, 2))),)


def test_idem50C_membership_is_a_hard_no():
    from torsionlab.families import get_family, instantiate
    ring, ideals = instantiate(get_family("idem50C"), 4)
    got = ideal_membership(Element.from_monomial(ring, _var(0, 3)),
                           ideals["b"])
    assert got == MembershipAnswer("no")


def test_non_confluent_ring_keeps_the_certificate_search():
    # X0^2 -> X1 and X0*X1 -> 0 do not join at X0^2*X1.
    ring = RingPresentation(2, [RewriteRule(_var(0, 2), (1, _var(1))),
                                RewriteRule(_var(0).mul(_var(1)))])
    assert check_local_confluence(ring)
    ideal = IdealHandle.from_monomials(ring, [_var(1)])
    assert ideal._derived_vanishing() is None
    got = ideal_membership(Element.from_monomial(ring, _var(0)), ideal, 3)
    assert got == MembershipAnswer("unknown", search_bound=3)
    got = ideal_membership(Element.from_monomial(ring, _var(1)), ideal)
    assert got.verdict == "yes" and got.search_bound == 3
