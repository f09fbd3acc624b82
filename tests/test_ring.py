"""Rewriting arithmetic: normal forms, element algebra, confluence."""

from __future__ import annotations

import importlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab.errors import (
    InvalidPresentation,
    TorsionlabError,
    VariableOutOfRange,
)
from torsionlab.families import FAMILIES, instantiate
from torsionlab.harness import random_instance
from torsionlab.oracles import exhaustive_normal_forms
from torsionlab.ring import (
    Element,
    Monomial,
    RewriteRule,
    RingPresentation,
    check_local_confluence,
    format_element,
    format_monomial,
    grlex_key,
)


def _var(i, e=1):
    return Monomial.variable(i, e)


def _square_zero(n):
    return RingPresentation(n, [RewriteRule(_var(i, 2)) for i in range(n)])


def test_square_rule_kills_square():
    ring = RingPresentation(2, [RewriteRule(_var(0, 2))])
    assert ring.normal_form_monomial(_var(0, 2)).is_zero
    assert not ring.normal_form_monomial(_var(0).mul(_var(1))).is_zero


def test_chained_rewrite_reaches_fixed_point():
    ring = RingPresentation(2, [RewriteRule(_var(0, 2), (1, _var(1)))])
    assert format_element(ring.normal_form_monomial(_var(0, 3))) == "X0*X1"


def test_binomial_square_in_square_zero_ring():
    ring = _square_zero(2)
    e = Element.from_terms(ring, [(_var(0), 1), (_var(1), 1)])
    assert format_element(e.mul(e)) == "2*X0*X1"


def test_rule_validation():
    # Typed for the CLI, and still a ValueError for existing callers.
    assert issubclass(InvalidPresentation, TorsionlabError)
    assert issubclass(InvalidPresentation, ValueError)
    with pytest.raises(InvalidPresentation):
        RewriteRule(Monomial.one())
    with pytest.raises(InvalidPresentation):
        RewriteRule(_var(0, 2), (1, _var(1, 2)))
    with pytest.raises(InvalidPresentation):
        RewriteRule(_var(0, 2), (0, _var(1)))
    with pytest.raises(InvalidPresentation):
        RingPresentation(0)
    with pytest.raises(InvalidPresentation):
        RingPresentation(1, [RewriteRule(_var(0, 2)),
                             RewriteRule(_var(0, 2), (1, _var(0)))])


def test_monomial_rejects_repeated_variable():
    with pytest.raises(ValueError, match="repeated variable index 0"):
        Monomial([(0, 1), (0, 2)])
    with pytest.raises(ValueError, match="bad monomial pair"):
        Monomial([(-1, 1)])
    with pytest.raises(ValueError, match="bad monomial pair"):
        Monomial([(0, -2)])
    assert Monomial([(1, 2), (0, 1), (2, 0)]).pairs == ((0, 1), (1, 2))
    assert _var(0).mul(_var(0, 2)) == _var(0, 3)


def test_rule_variable_range_checked():
    from torsionlab.errors import VariableOutOfRange
    with pytest.raises(VariableOutOfRange):
        RingPresentation(1, [RewriteRule(_var(1, 2))])


def test_grlex_orders_by_degree_first():
    monos = [_var(1), _var(0, 3), Monomial.one(), _var(0).mul(_var(1))]
    ordered = sorted(monos, key=grlex_key)
    assert [m.degree for m in ordered] == [0, 1, 2, 3]


def test_normal_monomials_count_in_square_zero_ring():
    ring = _square_zero(3)
    # squarefree monomials on three variables: C(3,0)+C(3,1)+C(3,2)+C(3,3)
    assert len(ring.normal_monomials_up_to(3)) == 8
    assert len(ring.normal_monomials_up_to(1)) == 4


def test_confluence_of_disjoint_power_rules():
    ring = RingPresentation(3, [RewriteRule(_var(i, i + 2)) for i in range(3)])
    assert check_local_confluence(ring) == ()


def test_non_confluent_overlap_is_detected():
    # X0^2 -> X0 and X0^3 -> X1 disagree on X0^3.
    ring = RingPresentation(2, [RewriteRule(_var(0, 2), (1, _var(0))),
                                RewriteRule(_var(0, 3), (1, _var(1)))])
    (failure,) = check_local_confluence(ring)
    assert (failure.lhs1, failure.lhs2, failure.overlap) == (
        _var(0, 2), _var(0, 3), _var(0, 3))
    assert (format_element(failure.left), format_element(failure.right)) == (
        "X0", "X1")


def test_exhaustive_forms_agree_with_normal_form():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(1, 3)
        rules = []
        used = set()
        for i in range(n):
            e = rng.randint(2, 3)
            lhs = _var(i, e)
            if lhs in used:
                continue
            used.add(lhs)
            if rng.random() < 0.5:
                rules.append(RewriteRule(lhs))
            else:
                rules.append(RewriteRule(lhs, (1, _var(rng.randrange(n)))))
        ring = RingPresentation(n, rules)
        if check_local_confluence(ring):
            continue
        for m in ring.normal_monomials_up_to(2):
            probe = m.mul(_var(rng.randrange(n), rng.randint(1, 3)))
            forms = exhaustive_normal_forms(ring, probe)
            nf = ring.normal_form_monomial(probe)
            assert forms == frozenset({nf.canonical_key()})


def _random_rule_set(rng):
    n = rng.randint(1, 3)
    rules = {}
    for _ in range(rng.randint(2, 4)):
        lhs = Monomial((v, rng.randint(1, 2)) for v in range(n)
                       if rng.random() < 0.6)
        if lhs.is_one or lhs in rules:
            continue
        if rng.random() < 0.3:
            rules[lhs] = RewriteRule(lhs)
        else:
            rhs = Monomial((v, 1) for v in range(n) if rng.random() < 0.4)
            while rhs.degree >= lhs.degree:
                rhs = Monomial(rhs.pairs[1:])
            rules[lhs] = RewriteRule(lhs, (rng.choice((1, 2, -1)), rhs))
    return RingPresentation(n, rules.values())


def _monomials_of_degree(n, d):
    """Every monomial of degree d in n variables, in grlex order."""
    for combo in itertools.combinations_with_replacement(range(n), d):
        yield Monomial(Counter(combo).items())


def _monomials_up_to(n, degree):
    for d in range(degree + 1):
        yield from _monomials_of_degree(n, d)


def test_confluence_check_agrees_with_exhaustive_oracle():
    # Any non-joinable critical pair shows two normal forms at its overlap,
    # so checking every monomial up to the largest overlap degree decides
    # confluence.
    rng = random.Random(5)
    verdicts = Counter()
    for _ in range(2000):
        ring = _random_rule_set(rng)
        lhs = [rule.lhs for rule in ring.rules]
        top = max((a.lcm(b).degree for a, b
                   in itertools.combinations_with_replacement(lhs, 2)),
                  default=0)
        unique = all(
            len(exhaustive_normal_forms(ring, m)) == 1
            for m in _monomials_up_to(ring.num_vars, top))
        confluent = check_local_confluence(ring) == ()
        assert confluent == unique, ring.rules
        verdicts[confluent] += 1
    assert verdicts[False] >= 500
    assert verdicts[True] >= 500


def test_all_rhs_zero_preserves_or_kills_monomials():
    ring = _square_zero(3)
    for m in ring.normal_monomials_up_to(2):
        probe = m.mul(_var(0))
        nf = ring.normal_form_monomial(probe)
        assert nf.is_zero or nf.single_term()[0] == probe


_small_elements = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1),
              st.integers(min_value=0, max_value=2),
              st.integers(min_value=-3, max_value=3)),
    max_size=4)


def _build_element(ring, terms):
    e = Element.zero(ring)
    for v, exp, coeff in terms:
        e = e.add(Element.from_monomial(ring, _var(v, exp) if exp else Monomial.one(),
                                        coeff))
    return e


@settings(max_examples=60, deadline=None)
@given(_small_elements, _small_elements, _small_elements)
def test_element_ring_axioms(sa, sb, sc):
    ring = RingPresentation(2, [RewriteRule(_var(0, 3)),
                                RewriteRule(_var(1, 2), (1, _var(0)))])
    a, b, c = (_build_element(ring, s) for s in (sa, sb, sc))
    assert a.mul(b) == b.mul(a)
    assert a.mul(b.mul(c)) == a.mul(b).mul(c)
    assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
    assert a.sub(a).is_zero


def test_format_round_trip_examples():
    ring = _square_zero(2)
    e = Element.from_terms(ring, [(_var(0).mul(_var(1)), 2), (Monomial.one(), -1)])
    assert format_element(e) == "-1 + 2*X0*X1"
    assert format_monomial(Monomial.one()) == "1"
    assert format_monomial(_var(1, 3)) == "X1^3"


def _compositions(d, caps):
    """Every exponent vector of sum d with each exponent at most its cap."""
    if len(caps) == 1:
        if d <= caps[0]:
            yield (d,)
        return
    room = sum(caps[1:])
    for e in range(max(0, d - room), min(d, caps[0]) + 1):
        for tail in _compositions(d - e, caps[1:]):
            yield (e,) + tail


def _direct_normal_pairs(ring, d):
    """The pairs of every monomial of degree d that no rule lhs divides, in
    grlex order.

    A variable whose power X_v^k is a rule lhs has exponent below k in such
    a monomial, so only exponent vectors under those caps are built, and
    the other rule lhs are tested on the vectors.  The pairs are sorted by
    grlex_key less its degree, which is d for all of them.
    """
    caps = [d] * ring.num_vars
    mixed = []
    for rule in ring.rules:
        (v, k), *rest = rule.lhs.pairs
        if rest:
            mixed.append(rule.lhs.pairs)
        else:
            caps[v] = min(caps[v], k - 1)
    pairs = [tuple((v, e) for v, e in enumerate(exps) if e)
             for exps in _compositions(d, caps)
             if not any(all(exps[v] >= e for v, e in lhs) for lhs in mixed)]
    return sorted(pairs, key=lambda p: [(v, -e) for v, e in p])


def _level_templates():
    """(ring, largest normal degree or None): 12 harness rings, whose rules
    all rewrite to 0, and the seven families at levels 0..8, where
    idem50A/B/C rewrite to a nonzero rhs."""
    rng = random.Random(53)
    for i in range(12):
        ring = random_instance(i, rng).ring
        yield ring, ring.finite_basis_max_degree()
    for family in FAMILIES.values():
        for level in range(9):
            ring, _ = instantiate(family, level)
            yield ring, ring.finite_basis_max_degree()


def test_finite_basis_is_decided_by_pure_powers(monkeypatch):
    """Finite exactly when every variable has a pure power among the rule
    lhs.  The top degree is read off the staircase corners of the rule
    lhs: no level is enumerated."""
    ring_module = importlib.import_module("torsionlab.ring")
    calls = []
    monkeypatch.setattr(ring_module, "_next_level",
                        lambda *args: calls.append(args))
    assert RingPresentation(1, [RewriteRule(_var(0, 70))]
                            ).finite_basis_max_degree() == 69
    assert RingPresentation(14, [RewriteRule(_var(v, 3)) for v in range(14)]
                            ).finite_basis_max_degree() == 28
    ring = RingPresentation(4, [RewriteRule(_var(0, 2))])
    assert ring.finite_basis_max_degree() is None
    assert len(ring._levels) == 1
    assert calls == []


@pytest.mark.parametrize("descending", [False, True])
def test_level_cache_matches_direct_enumeration(descending):
    for template, last in _level_templates():
        # Non-artinian rings are compared up to degree 5.
        top = 5 if last is None else last + 1
        # A fresh ring with the same rules starts with a cold level cache.
        ring = RingPresentation(template.num_vars, template.rules)
        degrees = range(top, -1, -1) if descending else range(top + 1)
        for d in degrees:
            assert [m.pairs for m in ring.normal_monomials_of_degree(d)] \
                == _direct_normal_pairs(ring, d)
        if last is not None:
            assert ring.normal_monomials_of_degree(last) != ()
            assert ring.normal_monomials_of_degree(top) == ()
        assert ring.normal_monomials_of_degree(-1) == ()
        assert ring.normal_monomials_up_to(top) == [
            m for d in range(top + 1) for m in ring.normal_monomials_of_degree(d)]


def _dict_divides(a, b):
    """The dict-based divisibility test that divides() replaced."""
    it = dict(b.pairs)
    return all(it.get(v, 0) >= e for v, e in a.pairs)


_exponent_maps = st.dictionaries(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=3), max_size=5)


@settings(max_examples=300, deadline=None)
@given(_exponent_maps, _exponent_maps, _exponent_maps)
def test_divides_matches_dict_definition(ea, eb, ec):
    a, b, c = (Monomial(e.items()) for e in (ea, eb, ec))
    assert a.divides(b) == _dict_divides(a, b)
    assert b.divides(a) == _dict_divides(b, a)
    assert a.divides(a.mul(c))
    assert Monomial.one().divides(a)


_canonical_maps = st.dictionaries(
    st.integers(min_value=0, max_value=11),
    st.integers(min_value=1, max_value=6), max_size=12)


def _from_dict(exps):
    """The checked constructor on dict arithmetic done here."""
    return Monomial(exps.items())


def _assert_same_monomial(got, want):
    assert got.pairs == want.pairs
    assert hash(got) == hash(want)
    assert got == want
    assert got.degree == want.degree
    assert got.support == want.support


@settings(max_examples=300, deadline=None)
@given(_canonical_maps, _canonical_maps)
def test_merge_walk_ops_match_dict_arithmetic(ea, eb):
    a, b = _from_dict(ea), _from_dict(eb)
    both = set(ea) & set(eb)
    product = {v: ea.get(v, 0) + eb.get(v, 0) for v in set(ea) | set(eb)}
    gcd = {v: min(ea[v], eb[v]) for v in both}
    lcm = {v: max(ea.get(v, 0), eb.get(v, 0)) for v in set(ea) | set(eb)}
    _assert_same_monomial(a.mul(b), _from_dict(product))
    _assert_same_monomial(a.gcd(b), _from_dict(gcd))
    _assert_same_monomial(a.lcm(b), _from_dict(lcm))
    _assert_same_monomial(
        a.div(a.gcd(b)), _from_dict({v: e - gcd.get(v, 0)
                                     for v, e in ea.items()}))
    _assert_same_monomial(a.mul(b).div(b), a)
    _assert_same_monomial(a.pow(3), _from_dict({v: 3 * e
                                                for v, e in ea.items()}))
    _assert_same_monomial(a.pow(0), Monomial.one())
    _assert_same_monomial(a.squarefree(), _from_dict(dict.fromkeys(ea, 1)))
    if not b.divides(a):
        with pytest.raises(ValueError, match="non-exact"):
            a.div(b)


def _assert_index_matches_linear_scan(ring):
    top = max((rule.lhs.degree for rule in ring.rules), default=0) + 1
    for m in _monomials_up_to(ring.num_vars, top):
        expected = next((r for r in ring.rules if r.lhs.divides(m)), None)
        assert ring._first_applicable(m) is expected, (ring.rules, m)


def test_rule_index_matches_linear_scan_on_families():
    for family in FAMILIES.values():
        for level in range(9):
            ring, _ = instantiate(family, level)
            _assert_index_matches_linear_scan(ring)


def test_rule_index_matches_linear_scan_on_random_rings():
    rng = random.Random(61)
    for i in range(50):
        _assert_index_matches_linear_scan(random_instance(i, rng).ring)
    rng = random.Random(5)
    for _ in range(2000):
        _assert_index_matches_linear_scan(_random_rule_set(rng))


def test_warm_normal_form_cache_still_checks_range():
    ring = RingPresentation(2, [RewriteRule(_var(0, 2), (1, _var(1))),
                                RewriteRule(_var(1, 2))])
    for m in _monomials_up_to(2, 4):
        ring.normal_form_monomial(m)
    assert len(ring._nf_cache) >= 15
    for m in (_var(2), _var(0).mul(_var(5)), _var(1, 3).mul(_var(2))):
        with pytest.raises(VariableOutOfRange):
            ring.normal_form_monomial(m)
    assert all(m.max_var() < ring.num_vars for m in ring._nf_cache)


def test_is_normal_checks_range():
    ring = RingPresentation(2, [RewriteRule(_var(0, 2))])
    for m in (_var(5), _var(0).mul(_var(2)), _var(0, 2).mul(_var(3))):
        with pytest.raises(VariableOutOfRange):
            ring.is_normal(m)
    assert ring.is_normal(_var(1, 7)) and not ring.is_normal(_var(0, 3))
