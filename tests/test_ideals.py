"""Ideal engine: membership, colon, saturation, radical, minimal primes."""

from __future__ import annotations

import math
import operator
import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest

from torsionlab import brute_force_membership
from torsionlab.errors import (
    NonConfluent,
    NotMonomialMode,
    RingMismatch,
    VariableOutOfRange,
)
from torsionlab.harness import check_instance, random_instance
from torsionlab.ideals import (
    IdealHandle,
    MembershipAnswer,
    _most_factors,
    _power_kill_exponent,
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
    power_order,
)
from torsionlab.oracles import (
    colon_monomials,
    cube_points,
    cube_value,
    cube_zero_set,
    minimal_prime_sets,
    radical_monomials,
    saturation_monomials,
)
from torsionlab.ring import (
    CODE_WIDTH,
    Element,
    Monomial,
    RewriteRule,
    RingPresentation,
    _ExponentCodes,
    _meet_generators,
    _staircase_corners,
    check_local_confluence,
)
from torsionlab.torsion import gamma_large_cyclic, gamma_small_cyclic

# The all-ones field of an exponent code: a free coordinate.
FREE = (1 << CODE_WIDTH) - 1


def _var(i, e=1):
    return Monomial.variable(i, e)


def _code(t):
    """The exponent code of the tuple t: X0 in the top field, a guard bit
    over each field, and the all-ones field where t is inf."""
    return sum((FREE if e == math.inf else e) << (CODE_WIDTH + 1) * v
               for v, e in enumerate(reversed(t)))


def _vector(n, x):
    """The exponent tuple of the code x over n variables, inf where a
    field is all ones; the inverse of _code."""
    fields = (x >> (CODE_WIDTH + 1) * (n - 1 - v) & FREE for v in range(n))
    return tuple(math.inf if e == FREE else e for e in fields)


def _free(n):
    return RingPresentation(n)


def test_generator_reduction_drops_multiples():
    ring = _free(2)
    ideal = IdealHandle.from_monomials(ring, [_var(0), _var(0).mul(_var(1))])
    assert format_ideal(ideal) == "ideal(X0)"


def test_monic_generators_are_the_cached_normal_forms(monkeypatch):
    """Every monic generator of every handle that 40 harness instances and
    general-mode queries in an idempotent ring build is the Element held by
    the ring's normal-form cache, not a copy of it."""
    from torsionlab.families import get_family, instantiate
    handles = []
    real = IdealHandle.__new__

    def record(cls, *args, **kwargs):
        handle = real(cls, *args, **kwargs)
        handles.append(handle)
        return handle

    monkeypatch.setattr(IdealHandle, "__new__", record)
    rng = random.Random(61)
    for index in range(40):
        check_instance(random_instance(index, rng))
    ring, ideals = instantiate(get_family("idem50C"), 3)
    ideal_colon_ideal(ideals["b"], ideals["a"])
    gamma_large_cyclic(ideals["a"], ideals["b"])
    monic = [(h, g) for h in handles for g in h.generators
             if g.is_single_term and g.single_term()[1] == 1]
    assert sum(h.ring is ring and not h.is_monomial_mode
               for h, _ in monic) >= 10
    assert len({h.ring for h, _ in monic}) == 41
    for h, g in monic:
        assert g is h.ring.normal_form_monomial(g.single_term()[0]), g


def test_from_monomials_builds_no_fraction(monkeypatch):
    ring = RingPresentation(3, [RewriteRule(_var(v, 3)) for v in range(3)])
    monos = ring.normal_monomials_of_degree(2)
    made = []
    real = Fraction.__new__

    def count(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", count)
    assert Fraction(1, 2) and made == [(1, 2)]
    made.clear()
    ideal = IdealHandle.from_monomials(ring, monos)
    assert made == []
    assert ideal.monomial_generators() == monos
    assert len(ring._nf_cache) == len(monos)


def test_from_monomials_looks_each_generator_up_once(monkeypatch):
    """k monomials that reduce to r generators cost k + r normal-form
    lookups: one per monomial, one per reduced generator."""
    ring = _free(2)
    monos = [_var(0), _var(0).mul(_var(1)), _var(1, 2), _var(0, 2)]
    calls = []
    real = ring.normal_form_monomial

    def count(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(ring, "normal_form_monomial", count)
    ideal = IdealHandle.from_monomials(ring, monos)
    assert ideal.monomial_generators() == (_var(0), _var(1, 2))
    assert len(calls) == len(monos) + 2


def _member_by_normal_form(ideal, m):
    """Membership as it was defined before the handle kept it: the normal
    form is zero, or a generator divides it."""
    nf = ideal.ring.normal_form_monomial(m)
    return nf.is_zero or any(g.divides(nf.single_term()[0])
                             for g in ideal.monomial_generators())


def _membership_queries(ring, rng, degree):
    """The unit monomial, the normal monomials up to degree, and products
    of two of them, which include the non-normal ones."""
    normal = [m for d in range(degree + 1)
              for m in ring.normal_monomials_of_degree(d)]
    products = [rng.choice(normal).mul(rng.choice(normal)) for _ in range(40)]
    products += [rule.lhs.mul(rng.choice(normal)) for rule in ring.rules]
    return [Monomial.one()] + normal + products


def _free_variable_ring(rng):
    """A rule-free ring, or one whose power rules leave a variable free."""
    n = rng.randint(1, 3)
    free = rng.randrange(n)
    rules = [RewriteRule(_var(v, rng.randint(2, 3))) for v in range(n)
             if v != free and rng.random() < 0.5]
    return RingPresentation(n, rules)


def _assert_membership_as_before(ideal, queries):
    outside = _var(ideal.ring.num_vars)
    for m in queries:
        expected = _member_by_normal_form(ideal, m)
        assert ideal.contains_monomial(m) is expected
        assert ideal.contains_monomial(m) is expected
    for _ in range(2):
        with pytest.raises(VariableOutOfRange):
            ideal.contains_monomial(outside)


def test_membership_matches_the_normal_form_definition():
    rng = random.Random(3001)
    for index in range(100):
        inst = random_instance(index, rng)
        queries = _membership_queries(
            inst.ring, rng, inst.ring.finite_basis_max_degree() + 1)
        for ideal in (inst.acting, inst.relations, inst.extension,
                      inst.between):
            _assert_membership_as_before(ideal, queries)
    for _ in range(60):
        ring = _free_variable_ring(rng)
        queries = _membership_queries(ring, rng, 3)
        gens = [rng.choice(queries) for _ in range(rng.randint(0, 3))]
        _assert_membership_as_before(
            IdealHandle.from_monomials(ring, gens), queries)
    general = IdealHandle(ring, [Element.from_monomial(ring, _var(0)).add(
        Element.constant(ring, 1))])
    assert not general.is_monomial_mode
    for _ in range(2):
        with pytest.raises(NotMonomialMode):
            general.contains_monomial(_var(0))


def test_membership_is_one_divisibility_test_per_monomial(monkeypatch):
    ring = RingPresentation(3, [RewriteRule(_var(0, 2)),
                                RewriteRule(_var(1).mul(_var(2)))])
    gens = [_var(1, 2), _var(0).mul(_var(2))]
    ideal = IdealHandle.from_monomials(ring, gens)
    calls = []
    real = ring.is_normal

    def count(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(ring, "is_normal", count)
    queries = [_var(0, 3), _var(1).mul(_var(2, 4)), _var(1, 3),
               _var(2, 5), Monomial.one(), _var(0).mul(_var(1))]
    cached = len(ring._nf_cache)
    assert [ideal.contains_monomial(m) for m in queries] == [
        True, True, True, False, False, False]
    assert len(calls) == len(queries)
    assert len(ring._nf_cache) == cached
    assert [ideal.contains_monomial(m) for m in queries] == [
        True, True, True, False, False, False]
    assert len(calls) == len(queries)
    # Equal generators intern to one handle, so they share one memo.
    same = IdealHandle.from_monomials(ring, gens[::-1])
    assert same.contains_monomial(_var(1, 3))
    assert len(calls) == len(queries)


def test_equal_reduced_generators_give_one_handle():
    ring = _free(3)
    x01 = _var(0).mul(_var(1))
    assert (IdealHandle.from_monomials(ring, [x01, x01.mul(_var(2))])
            is IdealHandle.from_monomials(ring, [x01]))


def test_flag_budget_and_ring_each_give_their_own_handle(monkeypatch):
    import torsionlab.ideals as ideals_module
    rules = [RewriteRule(_var(0, 2))]
    ring = RingPresentation(2, rules)
    monos = [_var(0).mul(_var(1))]
    handle = IdealHandle.from_monomials(ring, monos)
    assert IdealHandle.from_monomials(ring, monos, complete=False) is not handle
    assert IdealHandle.from_monomials(
        RingPresentation(2, rules), monos) is not handle
    monkeypatch.setattr(ideals_module, "WORK_BUDGET", 0)
    assert IdealHandle.from_monomials(ring, monos) is not handle
    monkeypatch.undo()
    assert IdealHandle.from_monomials(ring, monos) is handle


def test_unit_is_the_interned_handle_of_one(monkeypatch):
    """IdealHandle.unit is the handle that (1) interns, for each complete
    flag, in a monomial-mode and a general-mode ring, and under a lower
    WORK_BUDGET another handle, as every other handle is."""
    import torsionlab.ideals as ideals_module
    monomial = RingPresentation(2, [RewriteRule(_var(0, 2))])
    general = RingPresentation(2, [RewriteRule(_var(0, 2), (1, _var(0)))])
    for ring in (monomial, general):
        units = {}
        for complete in (True, False):
            unit = units[complete] = IdealHandle.unit(ring, complete=complete)
            assert unit is IdealHandle(
                ring, [Element.constant(ring, 1)], complete=complete)
            assert unit.complete is complete and unit.is_unit
            assert IdealHandle.unit(ring, complete=complete) is unit
        assert units[True].mode == (
            "monomial" if ring is monomial else "general")
        monkeypatch.setattr(ideals_module, "WORK_BUDGET", 0)
        for complete in (True, False):
            unit = IdealHandle.unit(ring, complete=complete)
            assert unit is not units[complete]
            assert unit is IdealHandle(
                ring, [Element.constant(ring, 1)], complete=complete)
        monkeypatch.undo()
        assert IdealHandle.unit(ring) is units[True]


def test_generator_with_zero_normal_form_is_dropped():
    """A raw single-term Element outside normal form whose normal form is
    zero leaves the ideal it generates the zero ideal, in both modes."""
    nilpotent = RingPresentation(1, [RewriteRule(_var(0, 2))])
    ideal = IdealHandle(nilpotent, [Element(nilpotent, {_var(0, 2): 1})])
    assert ideal is IdealHandle.zero(nilpotent)
    assert ideal.monomial_generators() == ()
    general = RingPresentation(2, [RewriteRule(_var(0, 2), (1, _var(0))),
                                   RewriteRule(_var(0).mul(_var(1)))])
    product = Element(general, {_var(0, 2).mul(_var(1)): 1})
    assert IdealHandle(general, [product]) is IdealHandle.zero(general)


def test_general_mode_handle_completes_once(monkeypatch):
    """The ideal (X0 + X1) of a cube ring, rebuilt from its generators, is
    the handle that already holds its Groebner basis."""
    import torsionlab.ideals as ideals_module
    ring = RingPresentation(2, [RewriteRule(_var(i, 2), (1, _var(i)))
                                for i in range(2)])
    x0, x1 = (Element.from_monomial(ring, _var(i)) for i in range(2))
    calls = []
    real = ideals_module._complete
    monkeypatch.setattr(ideals_module, "_complete",
                        lambda *args: calls.append(args) or real(*args))
    for _ in range(2):
        ideal = IdealHandle(ring, [x0.add(x1)])
        assert not ideal.is_monomial_mode
        assert ideal_membership(x0.mul(x1), ideal).is_yes
    assert len(calls) == 1


def test_zero_coefficient_skips_the_range_check():
    ring = _free(2)
    assert Element.from_monomial(ring, _var(99), 0).is_zero
    with pytest.raises(VariableOutOfRange):
        Element.from_monomial(ring, _var(99))


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


def _edge_ideal(n, edges):
    """The ideal of the products of the vertices of each edge, in the
    rule-free ring on n variables: its minimal primes are the minimal
    transversals of the edges."""
    return IdealHandle.from_monomials(
        _free(n), [Monomial((v, 1) for v in edge) for edge in edges])


def test_minimal_transversals_example():
    hits = minimal_primes(_edge_ideal(3, [{0, 1}, {0, 2}]))
    assert sorted(sorted(t) for t in hits) == [[0], [1, 2]]


def _brute_force_transversals(n, edges):
    """Minimal hitting sets by enumerating every subset of range(n)."""
    subsets = [frozenset(v for v in range(n) if mask >> v & 1)
               for mask in range(1 << n)]
    hitting = [s for s in subsets if all(s & e for e in edges)]
    return sorted((s for s in hitting if not any(o < s for o in hitting)),
                  key=lambda s: (len(s), sorted(s)))


def test_minimal_transversals_match_brute_force():
    rng = random.Random(83)
    shapes = {"no edges": 0, "repeated edge": 0, "edge contains another": 0,
              "has a singleton edge": 0, "every edge meets a singleton": 0}
    for _ in range(2400):
        n = rng.randint(1, 6)
        edges = []
        for _ in range(rng.randint(0, 10)):
            draw = rng.random()
            if edges and draw < 0.15:
                edges.append(rng.choice(edges))
            elif edges and draw < 0.3:
                edges.append(rng.choice(edges) | {rng.randrange(n)})
            else:
                edges.append(frozenset(rng.sample(range(n),
                                                  rng.randint(1, n))))
        shapes["no edges"] += not edges
        shapes["repeated edge"] += len(set(edges)) < len(edges)
        shapes["edge contains another"] += any(
            e < f for e in edges for f in edges)
        forced = frozenset().union(*(e for e in edges if len(e) == 1))
        shapes["has a singleton edge"] += bool(forced)
        shapes["every edge meets a singleton"] += bool(forced) and all(
            e & forced for e in edges)
        rng.shuffle(edges)
        assert (minimal_primes(_edge_ideal(n, edges))
                == _brute_force_transversals(n, edges)), edges
    assert min(shapes.values()) >= 50, shapes


def _random_monomial_ideal(rng):
    """(ring, ideal): a ring on 1..5 variables, each with a rule X_v^a -> 0
    (a in 1..4) at odds 3 in 5 and free otherwise, and up to 2 mixed rule
    lhs; an ideal of up to 5 monomials other than 1 (exponents up to 3)."""
    n = rng.randint(1, 5)
    box = [rng.randint(1, 4) if rng.random() < 0.6 else None
           for _ in range(n)]

    def draws(count):
        out = (Monomial((v, rng.randint(0, (box[v] or 4) - 1))
                        for v in range(n) if rng.random() < 0.6)
               for _ in range(count))
        return [m for m in out if not m.is_one]

    rules = {_var(v, a) for v, a in enumerate(box) if a is not None}
    rules.update(m for m in draws(rng.randint(0, 2)) if len(m.pairs) > 1)
    ring = RingPresentation(n, [RewriteRule(m) for m in rules])
    return ring, IdealHandle.from_monomials(ring, draws(rng.randint(0, 5)))


def _brute_force_corners(n, basis):
    """The staircase corners, by enumerating exponent vectors up to one
    past each variable's largest basis exponent: past it, membership no
    longer depends on that exponent, so a maximal vector that reaches the
    top there has a free coordinate (inf)."""
    top = [max((g.exponent(v) for g in basis), default=0) + 1
           for v in range(n)]

    def standard(e):
        return not any(all(e[v] >= k for v, k in g.pairs) for g in basis)

    inside = [e for e in product(*(range(t + 1) for t in top))
              if standard(e)]
    return sorted(tuple(math.inf if x == t else x for x, t in zip(e, top))
                  for e in inside
                  if not any(e[v] < top[v]
                             and standard(e[:v] + (e[v] + 1,) + e[v + 1:])
                             for v in range(n)))


def test_staircase_corners_match_brute_force():
    """From the polynomial ring's corner, and from the ring's corners split
    by the ideal's generators, as a handle builds them; and back again: the
    minimal generators of the meet of the corners' components are the
    lifted basis (Alexander duality, _meet_generators)."""
    rng = random.Random(101)
    shapes = {"one corner": 0, "several corners": 0, "a variable is zero": 0,
              "mixed generator": 0}
    free = 0
    for _ in range(700):
        ring, ideal = _random_monomial_ideal(rng)
        n = ring.num_vars
        basis = ideal.lifted_monomials()
        vectors = [tuple(map(g.exponent, range(n))) for g in basis]
        expected = _brute_force_corners(n, basis)
        codes = ring._codes
        assert sorted(_vector(n, c) for c in _staircase_corners(
            codes, map(_code, vectors), [_code((math.inf,) * n)])) \
            == expected, basis
        split = _staircase_corners(codes, ideal._vectors(), ring._components())
        assert sorted(_vector(n, c) for c in split) == expected, basis
        assert sorted(_vector(n, c) for c, _ in ideal._components()) \
            == expected
        assert sorted(_vector(n, u) for u in _meet_generators(
            codes, list(map(_code, expected)))) == sorted(vectors), basis
        free += any(math.inf in c for c in expected)
        shapes["one corner"] += len(expected) == 1
        shapes["several corners"] += len(expected) > 1
        shapes["a variable is zero"] += any(g.degree == 1 for g in basis)
        shapes["mixed generator"] += any(len(g.pairs) > 1 for g in basis)
    assert free >= 300, free
    assert min(shapes.values()) >= 50, shapes


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
            # the oracle gives a certificate or None, never a hard no
            slow = brute_force_membership(f, ideal, degree_bound=4)
            assert fast == (slow is not None), format_ideal(ideal)
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


def test_general_mode_colon_by_ideal_is_exact(monkeypatch):
    import torsionlab.ideals as ideals_module
    from torsionlab.families import get_family, instantiate
    from torsionlab.ring import format_element
    ring, ideals = instantiate(get_family("idem50C"), 4)
    a, b = ideals["a"], ideals["b"]
    colon_calls = []
    real = ideals_module.ideal_colon
    monkeypatch.setattr(ideals_module, "ideal_colon",
                        lambda *args: colon_calls.append(args) or real(*args))
    result = ideal_colon_ideal(b, a)
    # One exact colon per generator of a, intersected.
    assert [g for _, g in colon_calls] == list(a.generators)
    assert not result.is_monomial_mode and result.complete
    assert [format_element(g) for g in result.generators][:5] == [
        "X0*X1", "X0^2*X2", "X0^4", "X0^3*X3", "-1*X0^3 + X0^3*X4"]
    # (1 - X1)...(1 - X4) is killed by every X_i, so it lies in (b : a).
    one = Element.constant(ring, 1)
    complement = one
    for h in a.generators:
        complement = complement.mul(one.sub(h))
    assert ideal_membership(complement, result).is_yes
    for g in result.generators:
        for h in a.generators:
            assert ideal_membership(g.mul(h), b).is_yes
    assert not ideal_membership(Element.from_monomial(
        ring, _var(0, 3).mul(_var(4))), result).is_yes
    # The intersection taken in the other order is the same ideal.
    parts = [real(b, h) for h in reversed(a.generators)]
    other = parts[0]
    for part in parts[1:]:
        other = ideal_intersection(other, part)
    assert other.equals(result) is True


def _count_calls(monkeypatch, module, names):
    """A Counter of the calls to each of these module functions."""
    calls = Counter()
    for name in names:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _name=name, _real=real:
                            calls.update([_name]) or _real(*args))
    return calls


def test_free_variable_colon_and_saturation_eliminate_nothing(monkeypatch):
    """On idem50C, colon and saturation by the free variable X0 read b's
    Groebner basis: no completion and no elimination runs once it is
    built, and the result is the handle elimination interns."""
    import torsionlab.ideals as ideals_module
    from torsionlab.families import get_family, instantiate
    from torsionlab.ideals import _colon_entries, _image, _saturation_entries
    calls = _count_calls(monkeypatch, ideals_module,
                         ("_complete", "_eliminate"))
    for level in range(4, 11):
        ring, ideals = instantiate(get_family("idem50C"), level)
        b = ideals["b"]
        basis = b._groebner()
        x0 = Element.from_monomial(ring, _var(0))
        calls.clear()
        colon = ideal_colon(b, x0)
        saturation = ideal_saturation(b, IdealHandle(ring, [x0]))
        assert not calls, (level, calls)
        assert saturation.stabilized
        assert colon is _image(ring, _colon_entries(ring, basis, x0), True)
        assert saturation.ideal is _image(
            ring, _saturation_entries(ring, basis, x0), True)


def test_script_colon_by_the_free_variable_eliminates_nothing(monkeypatch):
    """scripts/idem50C.tl's query colon(b; X[0]) runs after its membership
    queries built b's Groebner basis, and completes and eliminates
    nothing."""
    import torsionlab.ideals as ideals_module
    from pathlib import Path

    from torsionlab import cli
    from torsionlab.dsl import parse
    script = Path(__file__).resolve().parent.parent / "scripts" / "idem50C.tl"
    calls = _count_calls(monkeypatch, ideals_module,
                         ("_complete", "_eliminate"))
    during = {}
    real = cli._execute_statement

    def execute(session, stmt):
        calls.clear()
        payload = real(session, stmt)
        during[stmt.render().strip()] = Counter(calls)
        return payload

    monkeypatch.setattr(cli, "_execute_statement", execute)
    _, code = cli.execute(parse(script.read_text()))
    assert code == 0
    assert during["query membership(X[0]^3*X[3]; b)"] == Counter(
        _complete=1)
    assert during["query colon(b; X[0])"] == Counter()


def test_colon_by_a_term_in_a_binomial_tail_eliminates(monkeypatch):
    """In Q[X0, X1]/(X0^2 - X1), that is Q[X0], the colon of b = (X0^5)
    by X1^2 = X0^4 is (X0).  X1 occurs only in the tail of the rule
    binomial, so the colon takes the elimination route."""
    import torsionlab.ideals as ideals_module
    ring = RingPresentation(2, [RewriteRule(_var(0, 2), (1, _var(1)))])
    b = IdealHandle.from_monomials(ring, [_var(0).mul(_var(1, 2))])
    assert format_ideal(b) == "ideal(X0*X1^2)" and not b.is_monomial_mode
    b._groebner()
    calls = _count_calls(monkeypatch, ideals_module,
                         ("_complete", "_eliminate"))
    colon = ideal_colon(b, Element.from_monomial(ring, _var(1, 2)))
    assert calls == Counter(_complete=1, _eliminate=1)
    # The image of the lifted colon's reduced basis, (X0, X1).
    assert format_ideal(colon) == "ideal(X0, X1)"
    assert colon.equals(IdealHandle.from_monomials(ring, [_var(0)])) is True


def _term_colon_cases(rng, count):
    """(ideal, basis, f) with f = c*m a nonzero term: general-mode ideals
    of one to three generators over random confluent rings with one or two
    extra rule-free variables, each with its complete Groebner basis."""
    cases = 0
    while cases < count:
        rules = _random_ring(rng)
        if check_local_confluence(rules):
            continue
        ring = RingPresentation(rules.num_vars + rng.randint(1, 2),
                                list(rules.rules))
        terms = ring.normal_monomials_up_to(2)
        gens = []
        for _ in range(rng.randint(1, 3)):
            f = Element.zero(ring)
            for t in rng.sample(terms, min(len(terms), rng.randint(1, 3))):
                f = f.add(Element.from_monomial(
                    ring, t, _random_coefficient(rng)))
            gens.append(f)
        ideal = IdealHandle(ring, gens)
        f = Element.from_monomial(ring, _random_monomial(
            rng, ring.num_vars, rng.randint(1, 2)), _random_coefficient(rng))
        if ideal.is_monomial_mode or f.is_zero:
            continue
        cases += 1
        yield ideal, ideal._groebner(), f


def test_term_colon_and_saturation_match_the_elimination_route():
    """A colon or saturation by a term is the very handle the elimination
    route interns, whether it takes the closed form or falls back; the
    closed form and the fallback for a term that meets only a binomial's
    tail each occur often."""
    import torsionlab.ideals as ideals_module
    from torsionlab.ideals import (
        _colon_entries,
        _image,
        _monomial_split,
        _saturation_entries,
    )
    closed = tail_only = 0
    for ideal, basis, f in _term_colon_cases(random.Random(7), 520):
        ring, m = ideal.ring, f.single_term()[0]
        colon = ideal_colon(ideal, f)
        saturation = ideals_module._saturate_by(ideal, f)
        assert colon is _image(ring, _colon_entries(ring, basis, f), True)
        assert saturation is _image(
            ring, _saturation_entries(ring, basis, f), True)
        if _monomial_split(basis, m) is not None:
            closed += 1
        elif all(m.support.isdisjoint(lead.support)
                 for lead, poly, _ in basis if len(poly) > 1):
            tail_only += 1
    assert closed >= 200 and tail_only >= 20, (closed, tail_only)


def _colon_chain(ideal, other, cap):
    """The ascending chain I, (I:J), ((I:J):J), ... run explicitly, as
    (ideal, stabilized, steps).  A colon past the work budget (flagged
    incomplete) stops it unstabilized."""
    current = ideal
    for step in range(cap):
        nxt = ideal_colon_ideal(current, other)
        if current.complete and not nxt.complete:
            return current, False, step
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


def _general_saturation_pairs(rng):
    """Saturation pairs (b, a) in general mode: 200 on cube rings, and 100
    on random confluent rings with polynomial generators."""
    for _ in range(200):
        ring = _cube_ring(rng)
        yield _cube_ideal(ring, rng), _cube_ideal(ring, rng)
    pairs = 0
    while pairs < 100:
        ring = _random_ring(rng)
        if check_local_confluence(ring):
            continue
        terms = ring.normal_monomials_up_to(2)

        def ideal():
            gens = []
            for _ in range(rng.randint(1, 2)):
                f = Element.zero(ring)
                for t in rng.sample(terms, min(len(terms), rng.randint(1, 3))):
                    f = f.add(Element.from_monomial(
                        ring, t, _random_coefficient(rng)))
                gens.append(f)
            return IdealHandle(ring, gens)

        b, a = ideal(), ideal()
        if not b.is_monomial_mode:
            pairs += 1
            yield b, a


def _ring_with_free_variables(rng):
    """A ring of 2 or 3 variables, at least one of them rule-free, so an
    ideal's corners can have infinite coordinates."""
    n = rng.randint(2, 3)
    free = rng.randrange(n)
    rules = [RewriteRule(_var(v, rng.randint(2, 3))) for v in range(n)
             if v != free and rng.random() < 0.6]
    return RingPresentation(n, rules)


def _free_ring_saturation_pairs(count, seed):
    """Monomial-mode pairs (b, a), a nonzero, on rings with a rule-free
    variable: b of 1 to 3 generators of degree 1 to 3, a of 1 or 2 of
    degree 1 or 2."""
    rng = random.Random(seed)
    for _ in range(count):
        ring = _ring_with_free_variables(rng)

        def ideal(size, low, high):
            return IdealHandle.from_monomials(ring, [
                _random_monomial(rng, ring.num_vars, rng.randint(low, high))
                for _ in range(rng.randint(1, size))])

        b, a = ideal(3, 1, 3), ideal(2, 1, 2)
        if not a.is_zero:
            yield b, a


def test_saturation_matches_the_colon_chain(monkeypatch):
    """The closed form prints the ideal the colon chain stops at, with its
    step count, in both modes, and never runs the chain."""
    import torsionlab.ideals as ideals_module
    chain_calls = []
    real = ideals_module.ideal_colon_ideal
    monkeypatch.setattr(ideals_module, "ideal_colon_ideal",
                        lambda *args: chain_calls.append(args) or real(*args))
    modes, steps_seen, chain_cut = set(), set(), 0
    pairs = list(_saturation_pairs(40, 61))
    pairs.extend(_free_ring_saturation_pairs(100, 67))
    pairs.extend(_general_saturation_pairs(random.Random(103)))
    assert sum(not b.is_monomial_mode for b, _ in pairs) >= 300
    for ideal, other in pairs:
        got = ideal_saturation(ideal, other)
        expected, stabilized, steps = _colon_chain(ideal, other, 64)
        if not stabilized:
            # A colon of the chain ran out of work budget; the closed form
            # certifies a later step, and the chain's last ideal lies in it.
            chain_cut += 1
            assert got.stabilized and got.steps > steps
            assert all(ideal_membership(g, got.ideal).is_yes
                       for g in expected.generators)
            continue
        assert format_ideal(got.ideal) == format_ideal(expected)
        assert (got.stabilized, got.steps) == (stabilized, steps)
        assert got.ideal.complete == expected.complete
        modes.add(ideal.mode)
        steps_seen.add(steps)
    assert not chain_calls
    assert len(modes) == 2 and {0, 1, 2, 3} <= steps_seen
    assert chain_cut == 1


def _principal_route(ideal, other):
    """(I : J^inf) and its steps in monomial mode by the principal route
    alone: the meet of the closed forms (I : g^inf) over the generators g
    of J, and the least n with J^n * (I : J^inf) inside I; I at step 0."""
    import torsionlab.ideals as ideals_module
    sat = reduce(ideal_intersection, [ideals_module._saturate_by(ideal, g)
                                      for g in other.generators])
    steps = _power_kill_exponent(other, sat, ideal)
    return (ideal if steps == 0 else sat), steps


def test_corner_saturation_matches_the_principal_route():
    """Read off the corners of I, (I : J^inf) is R, I, or neither, which
    the principal route computes.  In each case the saturation equals that
    route and the oracle, on artinian harness rings and on rings with a
    rule-free variable, and each outcome occurs at least 20 times."""
    import torsionlab.ideals as ideals_module
    outcomes = Counter()
    for kind, pairs in (("artinian", _saturation_pairs(40, 61)),
                        ("free", _free_ring_saturation_pairs(300, 67))):
        for ideal, other in pairs:
            corner = ideals_module._corner_saturation(ideal, other)
            got = ideal_saturation(ideal, other)
            expected, steps = _principal_route(ideal, other)
            assert (got.ideal, got.stabilized, got.steps) == (
                expected, True, steps)
            if corner is not None:
                assert got.ideal is (ideal if steps == 0 else corner)
            ring = ideal.ring
            oracle = saturation_monomials(ideal, other, 3, power_cap=steps)
            assert [m for m in ring.normal_monomials_up_to(3)
                    if got.ideal.contains_monomial(m)] == oracle
            outcomes[kind, "partial" if corner is None
                     else "R" if corner.is_unit else "I"] += 1
    assert min(outcomes[kind, outcome] for kind, outcome in (
        ("artinian", "R"), ("artinian", "I"), ("free", "R"), ("free", "I"),
        ("free", "partial"))) >= 20, outcomes


def test_colon_by_an_ideal_skips_generators_inside(monkeypatch):
    """(I : J) in monomial mode equals the meet of the (I : g) over the
    generators g of J when none, some or all of them lie in I, and takes
    the colon by only those outside I."""
    import torsionlab.ideals as ideals_module
    colons = []
    monkeypatch.setattr(ideals_module, "ideal_colon",
                        lambda *args: colons.append(args)
                        or ideal_colon(*args))
    rng = random.Random(73)
    cases = Counter()
    instances = random.Random(79)
    for i in range(150):
        if i % 2:
            ring = _ring_with_free_variables(rng)
            b = IdealHandle.from_monomials(ring, [
                _random_monomial(rng, ring.num_vars, rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))])
        else:
            instance = random_instance(i, instances)
            ring, b = instance.ring, instance.relations
        inside = [m.mul(_random_monomial(rng, ring.num_vars,
                                         rng.randint(0, 1)))
                  for m in b.monomial_generators()]
        picks = [rng.choice(inside) if inside and rng.random() < 0.5
                 else _random_monomial(rng, ring.num_vars, rng.randint(1, 2))
                 for _ in range(rng.randint(1, 3))]
        other = IdealHandle.from_monomials(ring, picks)
        if other.is_zero:
            continue
        outside = [g for g, m in zip(other.generators,
                                     other.monomial_generators())
                   if not b.contains_monomial(m)]
        del colons[:]
        got = ideal_colon_ideal(b, other)
        assert [args[1] for args in colons] == outside
        expected = reduce(ideal_intersection,
                          [ideal_colon(b, g) for g in other.generators])
        assert got is expected
        cases["none" if len(outside) == len(other.generators)
              else "some" if outside else "all"] += 1
    assert min(cases[case] for case in ("none", "some", "all")) >= 20, cases


@pytest.mark.parametrize("cap", (1, 2, 3, 64))
def test_monomial_saturation_matches_colon_chain(cap, monkeypatch):
    """In monomial mode the closed form agrees with the colon chain cut at
    `cap` steps: the same ideal and step count where the chain stops below
    the cap, and an ideal containing the chain's last one, certified at a
    step at or past the cap, where it does not."""
    import torsionlab.ideals as ideals_module
    chain_calls = []
    real = ideals_module.ideal_colon_ideal
    monkeypatch.setattr(ideals_module, "ideal_colon_ideal",
                        lambda *args: chain_calls.append(args) or real(*args))
    outcomes = set()
    for ideal, other in _saturation_pairs(40, 61):
        assert ideal.is_monomial_mode
        got = ideal_saturation(ideal, other)
        expected, stabilized, steps = _colon_chain(ideal, other, cap)
        assert got.stabilized and got.ideal.complete
        if stabilized:
            assert got.ideal.equals(expected) is True
            assert got.steps == steps
            assert got.ideal.complete == expected.complete
        else:
            assert steps == cap and got.steps >= cap
            assert all(got.ideal.contains_monomial(g)
                       for g in expected.monomial_generators())
        outcomes.add(stabilized)
    assert not chain_calls
    assert outcomes == ({True} if cap == 64 else {True, False})


def test_general_mode_saturation_runs_the_chain(monkeypatch):
    """The colon chain, run step by step in general mode, stops at the
    ideal and step the closed form certifies; the engine never runs it."""
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
    result = ideal_saturation(b, a)
    assert not chain_calls
    outcomes = []
    for cap in (1, 64):
        expected, stabilized, steps = _colon_chain(b, a, cap)
        assert result.ideal.generators == expected.generators
        outcomes.append((stabilized, steps))
    # R is the ring of functions on {0,1}^2.  b vanishes off (1, 1), X0
    # off X0 = 1, so the saturation vanishes exactly at (1, 0): it is
    # (X0 - 1, X1), reached by the first colon and certified by the second.
    assert outcomes == [(False, 1), (True, 1)]
    assert (result.stabilized, result.steps) == (True, 1)
    x0, x1 = (Element.from_monomial(ring, _var(i)) for i in range(2))
    exact = IdealHandle(ring, [x0.sub(Element.constant(ring, 1)), x1])
    assert result.ideal.equals(exact) is True
    assert result.ideal.complete
    assert format_ideal(result.ideal) == "ideal(-1 + X0, X1)"


def test_saturation_needs_no_iteration_cap():
    """<X0^70> : <X0>^inf is the unit ideal, reached at step 70."""
    ring = _free(2)
    b = IdealHandle.from_monomials(ring, [_var(0, 70)])
    a = IdealHandle.from_monomials(ring, [_var(0)])
    result = ideal_saturation(b, a)
    assert format_ideal(result.ideal) == "ideal(1)"
    assert (result.stabilized, result.steps) == (True, 70)
    for gamma in (gamma_small_cyclic, gamma_large_cyclic):
        torsion = gamma(a, b)
        assert torsion.is_whole_module
        assert (torsion.stabilized, torsion.steps) == (True, 70)


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


def _assert_matches_product_chain(acting, module, target):
    """The exact kill exponent against the product chain stopped at 8: the
    same n where the chain stops, and None or past 8 where it does not.
    Returns the exponent."""
    expected = _product_chain_kill_exponent(acting, module, target, 8)
    got = _power_kill_exponent(acting, module, target)
    if expected is None:
        assert got is None or got > 8, got
    else:
        assert got == expected
    return got


def test_power_kill_exponent_matches_product_chain():
    results = {_assert_matches_product_chain(*triple)
               for triple in _kill_exponent_triples(300, 67)}
    assert {0, 1, 2, 3, 4, 5, 6} <= results


def _monomial_in(rng, n, top):
    return Monomial((v, rng.randint(1, top))
                    for v in rng.sample(range(n), rng.randint(1, n)))


def _shares_fitting_variables(acting, module, target):
    """Do two generators of acting that fit below c - m, for a corner c of
    target and a module generator m below it, share a coordinate that is
    finite in c?  Then the kill exponent needs the shared recursion."""
    width = range(target.ring.num_vars)
    gens = [tuple(map(g.exponent, width))
            for g in acting.monomial_generators()]
    for c, _ in target._components():
        c = _vector(len(width), c)
        for m in module.monomial_generators():
            m = tuple(map(m.exponent, width))
            if not all(map(operator.le, m, c)):
                continue
            room = tuple(map(operator.sub, c, m))
            fit = [g for g in gens if all(map(operator.le, g, room))]
            if any(g[v] and h[v] and math.isfinite(c[v])
                   for i, g in enumerate(fit) for h in fit[i + 1:]
                   for v in width):
                return True
    return False


def test_power_kill_exponent_fuzz_with_free_and_shared_variables():
    """Seeded rings over 1..5 variables, each bounded by a power rule or
    left free, and acting ideals of up to 4 generators over random
    supports, against the product chain.  Both the shared-generator
    recursion and the case with no killing power occur."""
    rng = random.Random(83)
    shared = unkilled = 0
    for _ in range(1500):
        n = rng.randint(1, 5)
        ring = RingPresentation(n, [RewriteRule(_var(v, rng.randint(3, 5)))
                                    for v in range(n) if rng.random() < 0.7])
        acting, module, target = (
            IdealHandle.from_monomials(ring, [
                _monomial_in(rng, n, top) for _ in range(rng.randint(*count))])
            for count, top in (((2, 4), 2), ((0, 2), 2), ((0, 3), 3)))
        if rng.random() < 0.6:
            module = IdealHandle.unit(ring)
        got = _assert_matches_product_chain(acting, module, target)
        shared += got is not None and _shares_fitting_variables(
            acting, module, target)
        unkilled += got is None
    assert shared >= 150 and unkilled >= 150, (shared, unkilled)


def test_power_kill_exponent_edge_cases():
    ring = RingPresentation(2, [RewriteRule(_var(0, 2)),
                                RewriteRule(_var(1, 2))])
    zero, unit = IdealHandle.zero(ring), IdealHandle.unit(ring)
    a = IdealHandle.from_monomials(ring, [_var(0), _var(1)])
    x0 = IdealHandle.from_monomials(ring, [_var(0)])
    # Zero acting ideal: a^1 * M = 0 already.
    assert _power_kill_exponent(zero, unit, zero) == 1
    # Unit acting ideal: every power is M itself.
    assert _power_kill_exponent(unit, x0, zero) is None
    assert _power_kill_exponent(unit, x0, x0) == 0
    # Zero module, and a module inside the target.
    assert _power_kill_exponent(a, zero, zero) == 0
    assert _power_kill_exponent(a, x0, a) == 0
    # X0*X1 survives a^2, every product of three generators dies.
    assert _power_kill_exponent(a, unit, zero) == 3
    assert _power_kill_exponent(a, x0, zero) == 2
    # A free variable: no power of (X0) reaches zero, X0^5 takes five.
    free = _free(2)
    x0 = IdealHandle.from_monomials(free, [_var(0)])
    unit = IdealHandle.unit(free)
    assert _power_kill_exponent(x0, unit, IdealHandle.zero(free)) is None
    assert _power_kill_exponent(
        x0, unit, IdealHandle.from_monomials(free, [_var(0, 5)])) == 5


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
                    # None: the unit ideal, whose every power holds m.
                    assert (order is None or order >= n) \
                        == ideal_membership(f, power).is_yes
                    checked += 1
    assert checked >= 5000


def test_power_order_of_a_deep_exponent():
    # A recursion over the exponent would go 3000 deep, past the
    # interpreter's recursion limit.
    ring = RingPresentation(1, [RewriteRule(_var(0, 5000))])
    acting = IdealHandle.from_monomials(ring, [_var(0)])
    assert power_order(acting, _var(0, 3000)) == 3000
    # A group of two generators that share X0: each count is read by one
    # division, with no tuple built per unit of it.
    ring = RingPresentation(2, [RewriteRule(_var(0, 5000))])
    acting = IdealHandle.from_monomials(ring, [_var(0, 2),
                                               _var(0).mul(_var(1))])
    assert len(acting.generators) == 2
    assert power_order(acting, _var(0, 3000).mul(_var(1))) == 1500
    assert _most_factors(ring._codes, [_code((1, 0)), _code((1, 1))],
                         _code((3000, 1))) == 3000


def _most_factors_by_enumeration(gens, room):
    """Reference for _most_factors: every vector of generator counts whose
    exponent sum stays below room, walked one generator at a time; inf
    when a generator that fits has no finite coordinate of room in its
    support."""
    fit = [g for g in gens if all(e <= r for e, r in zip(g, room))]
    if any(all(r == math.inf for e, r in zip(g, room) if e) for g in fit):
        return math.inf

    def best(i, left):
        if i == len(fit):
            return 0
        out, count = 0, 0
        while all(r >= 0 for r in left):
            out = max(out, count + best(i + 1, left))
            left = tuple(r - e for r, e in zip(left, fit[i]))
            count += 1
        return out

    return best(0, room)


def test_most_factors_matches_enumeration():
    """Seeded draws of 1-5 variables, up to 6 generators and 15% inf
    coordinates of room.  A third of them put each generator in one of 2-3
    disjoint blocks of variables, so that several groups of generators
    sharing finite coordinates occur in one call."""
    rng = random.Random(36)
    seen = {"inf": 0, "split": 0, "two shared blocks": 0}
    for draw in range(3000):
        split = draw % 3 == 0
        n = rng.randint(2 if split else 1, 5)
        room = tuple(math.inf if rng.random() < 0.15 else rng.randint(0, 4)
                     for _ in range(n))
        blocks = [range(n)]
        if split:
            cuts = sorted(rng.sample(range(1, n),
                                     min(n - 1, rng.randint(1, 2))))
            blocks = [range(a, b) for a, b in zip([0] + cuts, cuts + [n])]
        gens = []
        for _ in range(rng.randint(3 if split else 0, 6)):
            block = rng.choice(blocks)
            g = [rng.choice((0, 1, 1, 2)) if v in block else 0
                 for v in range(n)]
            if not any(g) and rng.random() < 0.8:
                g[rng.choice(block)] = 1
            gens.append(tuple(g))
        expected = _most_factors_by_enumeration(gens, room)
        got = _most_factors(_ExponentCodes(n), list(map(_code, gens)),
                            _code(room))
        assert (math.inf if got is None else got) == expected, (gens, room)
        fit = [g for g in gens if all(e <= r for e, r in zip(g, room))]
        shared = [b for b in blocks if any(
            g[v] and h[v] and room[v] != math.inf
            for i, g in enumerate(fit) for h in fit[i + 1:] for v in b)]
        seen["inf"] += expected == math.inf
        seen["split"] += split
        seen["two shared blocks"] += len(shared) >= 2
    assert seen["inf"] >= 100, seen
    assert seen["split"] == 1000, seen
    assert seen["two shared blocks"] >= 100, seen


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
        gens = [g.single_term()[0] for g in ideal.generators]
        lhs = {rule.lhs for rule in ring.rules}
        derived += any(lead not in gens and lead not in lhs
                       for lead, _, _ in ideal._groebner())
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
            assert brute_force_membership(f, ideal, 4) is None, (
                ring.rules, ideal, f)
            no += 1
    assert queries >= 3000 and 1000 <= no <= queries - 1000
    # Some completions add leads beyond the generators and rules, and some
    # yes answers rest on them alone, so the completion and its
    # certificates both run.
    assert derived >= 30 and past_generators >= 200


def test_groebner_basis_reaches_past_the_generators():
    # X1^2 -> X2 and X2^2 -> X3 put X2, then X3, into <X1>; X0^2 -> X1
    # puts X0^2 in too.
    ring = RingPresentation(4, [RewriteRule(_var(i, 2), (1, _var(i + 1)))
                                for i in range(3)])
    b = IdealHandle.from_monomials(ring, [_var(1)])
    assert not b.is_monomial_mode
    basis = b._groebner()
    assert [lead for lead, _, _ in basis] == [
        _var(1), _var(2), _var(3), _var(0, 2)]
    # Each basis element is a monomial, with a cofactor over b's generator
    # in R that re-multiplies to it.
    for lead, poly, cofactors in basis:
        assert poly == {lead: 1}
        ((k, h),) = cofactors.items()
        assert b.generators[k].mul(h) == Element.from_monomial(ring, lead)
    got = ideal_membership(Element.from_monomial(ring, _var(3)), b)
    assert got.verdict == "yes"
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


def test_non_confluent_ring_raises_in_general_mode():
    # X0^2 -> X1 and X0*X1 -> 0 do not join at X0^2*X1.
    ring = RingPresentation(2, [RewriteRule(_var(0, 2), (1, _var(1))),
                                RewriteRule(_var(0).mul(_var(1)))])
    assert check_local_confluence(ring)
    ideal = IdealHandle.from_monomials(ring, [_var(1)])
    assert not ideal.is_monomial_mode
    x0 = Element.from_monomial(ring, _var(0))
    for operation in (lambda: ideal_membership(x0, ideal),
                      lambda: ideal_colon(ideal, x0),
                      lambda: ideal.equals(IdealHandle.zero(ring))):
        with pytest.raises(NonConfluent, match="do not join at X0\\^2\\*X1"):
            operation()


def _cube_ring(rng):
    """Q[X_0..X_{n-1}] / (X_i^2 - X_i), n in 2..6, plus one squarefree rule
    S -> 0 in half the draws."""
    n = rng.randint(2, 6)
    rules = [RewriteRule(_var(i, 2), (1, _var(i))) for i in range(n)]
    if rng.random() < 0.5:
        support = rng.sample(range(n), rng.randint(2, n))
        rules.append(RewriteRule(Monomial((v, 1) for v in support)))
    return RingPresentation(n, rules)


def _cube_element(ring, rng, terms):
    f = Element.zero(ring)
    for _ in range(terms):
        support = rng.sample(range(ring.num_vars),
                             rng.randint(0, min(3, ring.num_vars)))
        f = f.add(Element.from_monomial(
            ring, Monomial((v, 1) for v in support), rng.choice([1, -1, 2])))
    return f


def _cube_ideal(ring, rng):
    """One to three generators, each a single term or a polynomial of two
    or three terms, drawn evenly."""
    return IdealHandle(ring, [
        _cube_element(ring, rng, rng.choice([1, 2, 3]))
        for _ in range(rng.randint(1, 3))])


def test_general_mode_matches_the_boolean_cube_oracle():
    """Every general-mode answer in a ring of functions on cube points is
    complete and equals the zero-set oracle: f is in I when it vanishes on
    V(I), V(I : J) = V(I) minus V(J), and the saturation and both torsion
    preimages of R/b under a vanish exactly on V(b) minus V(a)."""
    rng = random.Random(89)
    seen = {"polynomial": 0, "single": 0, "yes": 0, "no": 0, "equal": 0,
            "zero_rule": 0, "proper": 0}
    for _ in range(500):
        ring = _cube_ring(rng)
        seen["zero_rule"] += ring.all_rhs_zero is False and any(
            rule.rhs is None for rule in ring.rules)
        points = cube_points(ring)
        a, b = _cube_ideal(ring, rng), _cube_ideal(ring, rng)
        for g in a.generators + b.generators:
            seen["single" if g.is_single_term else "polynomial"] += 1
        va = cube_zero_set(a.generators, points)
        vb = cube_zero_set(b.generators, points)

        def zeros(result):
            assert result.complete
            return cube_zero_set(result.generators, points)

        for _ in range(3):
            f = _cube_element(ring, rng, rng.randint(1, 3))
            got = ideal_membership(f, b)
            inside = all(cube_value(f, p) == 0 for p in vb)
            assert got.verdict == ("yes" if inside else "no")
            seen[got.verdict] += 1
            if inside:
                assert _remultiply(got, b) == f
            assert zeros(ideal_colon(b, f)) == vb - cube_zero_set([f], points)
            wider = ideal_sum(b, IdealHandle(ring, [f]))
            assert wider.equals(b) is inside
        assert zeros(ideal_colon_ideal(b, a)) == vb - va
        assert zeros(ideal_intersection(a, b)) == va | vb
        assert a.equals(b) is (va == vb)
        seen["equal"] += va == vb
        sat = ideal_saturation(b, a)
        assert sat.stabilized and zeros(sat.ideal) == vb - va
        for gamma in (gamma_small_cyclic, gamma_large_cyclic):
            torsion = gamma(a, b)
            assert torsion.stabilized
            assert zeros(torsion.preimage) == vb - va
            assert torsion.is_zero_submodule is (vb - va == vb)
            assert torsion.is_whole_module is (not vb - va)
        seen["proper"] += bool(va & vb)
    assert min(seen.values()) >= 50, seen


def test_work_budget_ends_in_the_incomplete_flags(monkeypatch):
    """A completion that runs out of budget answers through the existing
    flags; nothing claims to be certified."""
    import torsionlab.ideals as ideals_module
    ring = RingPresentation(2, [RewriteRule(_var(i, 2), (1, _var(i)))
                                for i in range(2)])
    x0, x1 = (Element.from_monomial(ring, _var(i)) for i in range(2))

    def probe():
        a, b = IdealHandle(ring, [x0]), IdealHandle(ring, [x1])
        return (ideal_membership(x1, b).verdict, ideal_colon(b, x0),
                ideal_saturation(b, a), gamma_small_cyclic(a, b),
                gamma_large_cyclic(a, b), b.equals(IdealHandle(ring, [x1])),
                ideal_intersection(a, b))

    membership, colon, sat, small, large, same, meet = probe()
    assert (membership, colon.complete, sat.stabilized, same) == (
        "yes", True, True, True)
    assert small.stabilized and large.stabilized
    assert meet.complete and format_ideal(meet) == "ideal(X0*X1)"
    monkeypatch.setattr(ideals_module, "WORK_BUDGET", 0)
    membership, colon, sat, small, large, same, meet = probe()
    assert membership == "unknown" and same is None
    # The colon falls back to b itself, which lies inside (b : X0), and the
    # intersection to the product a*b, which lies inside a cap b.
    assert not colon.complete and format_ideal(colon) == "ideal(X1)"
    assert not meet.complete and format_ideal(meet) == "ideal(X0*X1)"
    assert not sat.stabilized and sat.steps == 0
    assert not small.stabilized and not large.stabilized


def _saturation_summary(result):
    return (format_ideal(result.ideal), result.ideal.complete,
            result.stabilized, result.steps)


def test_saturation_memo_keeps_the_complete_flag():
    """Handles with equal generators but different complete flags get
    results with their own flags, whichever is saturated first, in both
    modes, at step 0 and past it."""
    nilpotent = [RewriteRule(_var(1, 3))]
    idempotent = [RewriteRule(_var(i, 2), (1, _var(i))) for i in range(2)]
    cases = (  # rules, generators of the saturated ideal, expected steps
        (nilpotent, lambda x0, x1: [x0.mul(x1)], 1),
        (nilpotent, lambda x0, x1: [x1], 0),
        (nilpotent, lambda x0, x1: [x0.add(x1)], 3),
        (nilpotent, lambda x0, x1: [x1.add(x0.mul(x1))], 0),
        (idempotent, lambda x0, x1: [x0.mul(x1)], 1),
        (idempotent, lambda x0, x1: [x0.add(x1)], 1),
    )
    for rules, relations, steps in cases:
        for flags in ((False, True), (True, False)):
            ring = RingPresentation(2, rules)
            x0, x1 = (Element.from_monomial(ring, _var(i)) for i in range(2))
            acting = IdealHandle(ring, [x0])
            results = [ideal_saturation(
                IdealHandle(ring, relations(x0, x1), complete=complete),
                acting) for complete in flags]
            assert [r.ideal.complete for r in results] == list(flags)
            first, second = ((format_ideal(r.ideal), r.stabilized, r.steps)
                             for r in results)
            assert first == second and first[2] == steps


def test_saturation_memo_matches_fresh_rings():
    """Saturations of one ideal at several acting ideals, asked in one
    order on the instance's ring and in the reverse order on a fresh copy
    of it, agree."""
    rng = random.Random(109)
    for i in range(40):
        instance = random_instance(i, rng)
        a, b = instance.acting, instance.relations
        acting = [a, instance.between, ideal_sum(a, instance.between)] + [
            IdealHandle(a.ring, [g]) for g in a.generators]
        gens = [h.monomial_generators() for h in [b] + acting]
        fresh = RingPresentation(a.ring.num_vars, a.ring.rules)

        def ask(ring, order):
            ideal = IdealHandle.from_monomials(ring, gens[0])
            return {k: _saturation_summary(ideal_saturation(
                ideal, IdealHandle.from_monomials(ring, gens[k])))
                for k in order}

        forward = ask(a.ring, range(1, len(gens)))
        assert forward == ask(fresh, range(len(gens) - 1, 0, -1))


def test_general_mode_is_exact_on_random_rings_with_polynomials():
    """Random confluent rings (any rule shape) and ideals with polynomial
    generators: a yes re-multiplies, a no has no certificate of degree 3,
    and a colon's generators times f lie in I while a normal monomial lies
    in the colon exactly when its product with f lies in I."""
    rng = random.Random(97)
    rings = yes = no = complete = inside = 0
    while rings < 150:
        ring = _random_ring(rng)
        if check_local_confluence(ring):
            continue
        rings += 1
        terms = ring.normal_monomials_up_to(2)

        def poly():
            f = Element.zero(ring)
            for t in rng.sample(terms, min(len(terms), rng.randint(1, 3))):
                f = f.add(Element.from_monomial(
                    ring, t, _random_coefficient(rng)))
            return f

        ideal = IdealHandle(ring, [poly() for _ in range(rng.randint(1, 2))])
        for _ in range(3):
            f = poly()
            got = ideal_membership(f, ideal)
            if got.is_yes:
                assert _remultiply(got, ideal) == f
                yes += 1
            else:
                assert got.verdict == "no"
                assert brute_force_membership(f, ideal, 3) is None
                no += 1
        g = poly()
        colon = ideal_colon(ideal, g)
        if not colon.complete:
            continue
        complete += 1
        for h in colon.generators:
            assert ideal_membership(h.mul(g), ideal).is_yes
        for m in ring.normal_monomials_up_to(2):
            e = Element.from_monomial(ring, m)
            member = ideal_membership(e, colon).is_yes
            assert member == ideal_membership(e.mul(g), ideal).is_yes
            inside += member
    assert complete >= 140 and min(yes, no) >= 100 and inside >= 300
