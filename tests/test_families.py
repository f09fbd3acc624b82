"""Registry families: instantiation, confluence gating, windowed claims."""

from __future__ import annotations

import pytest

from torsionlab import families
from torsionlab.errors import InvalidSchedule, TorsionlabError, UnknownTag
from torsionlab.families import (
    ClaimResult,
    DEFAULT_LEVELS,
    ExampleReport,
    MAX_LEVEL,
    _claim_rng,
    family_tags,
    get_family,
    instantiate,
    replicate_example,
)
from torsionlab.ideals import format_ideal
from torsionlab.ring import (
    Element,
    Monomial,
    check_local_confluence,
    format_monomial,
)


def test_registry_lists_seven_tags_sorted():
    tags = family_tags()
    assert tags == sorted(tags)
    assert tags == ["idem50A", "idem50B", "idem50C",
                    "nil40A", "nil40B", "nil40C", "nil40D"]


def test_unknown_tag_reports_known_ones():
    with pytest.raises(UnknownTag) as exc:
        get_family("nosuch")
    assert "nil40A" in str(exc.value)


def test_instantiate_rejects_out_of_range_levels():
    family = get_family("idem50A")
    with pytest.raises(ValueError):
        instantiate(family, -1)
    with pytest.raises(ValueError):
        instantiate(family, MAX_LEVEL + 1)


def test_instantiate_certifies_confluence():
    # families acting on the ring itself expose only the acting ideal
    expect_quotient = {"idem50C", "nil40A", "nil40D"}
    for tag in family_tags():
        ring, ideals = instantiate(get_family(tag), 4)
        assert check_local_confluence(ring) == ()
        assert "a" in ideals
        assert ("b" in ideals) == (tag in expect_quotient)


def test_every_family_is_confluent_at_every_level():
    for tag in family_tags():
        for level in range(MAX_LEVEL + 1):
            ring, _ = instantiate(get_family(tag), level)
            assert check_local_confluence(ring) == (), (tag, level)


def test_nil40A_level_four_shape():
    ring, ideals = instantiate(get_family("nil40A"), 4)
    assert ring.num_vars == 5
    gens = sorted(format_monomial(m) for m in ideals["b"].monomial_generators())
    assert gens == ["X0", "X1*X2", "X1*X3", "X1*X4", "X2*X3*X4"]


def test_idem50C_level_two_shape():
    ring, ideals = instantiate(get_family("idem50C"), 2)
    assert ring.num_vars == 3
    assert format_ideal(ideals["b"]) == "ideal(X0*X1, X0^2*X2)"
    assert format_ideal(ideals["a"]) == "ideal(X1, X2)"


def test_nil40B_keeps_the_vanishing_first_variable():
    ring, _ = instantiate(get_family("nil40B"), 3)
    # X_0^1 -> 0 is part of the presentation, so X0 itself is zero
    assert ring.normal_form_monomial(Monomial.variable(0)).is_zero


def test_replicate_validates_schedule():
    with pytest.raises(ValueError):
        replicate_example("nil40A", levels=(4, 5), window=1)
    with pytest.raises(ValueError):
        replicate_example("nil40A", levels=(5, 4, 6))
    with pytest.raises(UnknownTag):
        replicate_example("bogus")


def test_schedule_errors_are_typed():
    family = get_family("nil40A")
    attempts = (
        lambda: instantiate(family, MAX_LEVEL + 1),
        lambda: replicate_example("nil40A", levels=(4, 5), window=1),
        lambda: replicate_example("nil40A", levels=(5, 4, 6)),
        lambda: replicate_example("nil40A", levels=(4, MAX_LEVEL + 1)),
        lambda: replicate_example("nil40A", levels=()),
        lambda: replicate_example("nil40A", levels=(4, 5), window=3),
    )
    for attempt in attempts:
        with pytest.raises(InvalidSchedule) as exc:
            attempt()
        assert isinstance(exc.value, TorsionlabError)
        assert isinstance(exc.value, ValueError)


def test_replicate_small_window_passes_and_is_deterministic():
    from torsionlab.reports import example_tree, render
    first = replicate_example("nil40B", levels=(4, 5, 6), window=2, seed=7)
    second = replicate_example("nil40B", levels=(4, 5, 6), window=2, seed=7)
    assert first.all_pass
    assert first.confluence_ok
    # rendered trees omit wall-clock time and must agree byte for byte
    assert render(example_tree(first), "json") == render(example_tree(second), "json")
    for claim in first.claims:
        assert claim.passed and claim.stable
        assert [level for level, _ in claim.values] == [4, 5, 6]


def test_all_pass_requires_every_claim_and_confluence():
    good = ClaimResult("c", "d", values=((4, True),), passed=True, stable=True)
    bad = ClaimResult("c", "d", values=((4, False),), passed=False, stable=True)
    base = dict(tag="t", levels=(4,), window=2, seed=1, confluence_ok=True,
                elapsed_seconds=0.0)
    assert ExampleReport(claims=(good,), **base).all_pass
    assert not ExampleReport(claims=(good, bad), **base).all_pass
    assert not ExampleReport(claims=(good,), **{**base, "confluence_ok": False}).all_pass


def test_default_schedule_shape():
    assert DEFAULT_LEVELS == tuple(range(4, 11))


def test_shipped_script_matches_registry_instance():
    from pathlib import Path

    from torsionlab.dsl import expand_ideal, expand_ring, parse

    source = (Path(__file__).resolve().parents[1] / "scripts"
              / "nil40A.tl").read_text(encoding="utf-8")
    script = parse(source)
    ring_stmt, a_stmt, b_stmt = script.statements[:3]
    ring = expand_ring(ring_stmt)
    fam_ring, fam_ideals = instantiate(get_family("nil40A"), 4)
    assert sorted(map(repr, ring.rules)) == sorted(map(repr, fam_ring.rules))
    for stmt, key in ((a_stmt, "a"), (b_stmt, "b")):
        handle = expand_ideal(stmt, ring)
        assert sorted(format_monomial(m) for m in handle.monomial_generators()) \
            == sorted(format_monomial(m)
                      for m in fam_ideals[key].monomial_generators())


def test_generator_torsion_claims_are_tight():
    # The exact kill exponent of (X_i) meets or undercuts each claim's
    # power, and one cap lower gives None: every claim is able to fail.
    from torsionlab.ideals import IdealHandle, _power_kill_exponent
    for level in range(4, 9):
        expected = {
            "nil40B": {i: i for i in range(1, level + 1)},
            "nil40C": {i: min(i + 1, level // 2 + 1)
                       for i in range(level + 1)},
            "nil40D": {i: i for i in range(1, level + 1)},
        }
        for tag, exponents in expected.items():
            ring, ideals = instantiate(get_family(tag), level)
            target = ideals.get("b", IdealHandle.zero(ring))
            for i, n in exponents.items():
                module = IdealHandle.from_monomials(ring, [Monomial.variable(i)])
                assert _power_kill_exponent(
                    ideals["a"], module, target, level + 2) == n
                assert _power_kill_exponent(
                    ideals["a"], module, target, n - 1) is None


def _idem50C_claim(name):
    (claim,) = [c for c in get_family("idem50C").claims if c.name == name]
    return claim


def _shifted_member(m):
    """The idem50C membership rule with its exponent bound one too low."""
    e, s = families._idem50C_split(m)
    return bool(s) and e >= min(s) - 1


def test_idem50C_claims_fail_under_a_shifted_membership_rule(monkeypatch):
    # X_0^p * X_{p+1} and X_1 now count as members: both claims that read
    # the exact rule must notice.
    monkeypatch.setattr(families, "_idem50C_member", _shifted_member)
    family = get_family("idem50C")
    for name in ("colon-by-acting-trivial", "membership-cross-check"):
        claim = _idem50C_claim(name)
        values = []
        for level in range(4, 10):
            ring, ideals = instantiate(family, level)
            rng = _claim_rng(42, "idem50C", name, level)
            values.append(claim.run(ring, ideals, level, rng))
        assert not all(values), name


def _reference_colon_by_acting_trivial(ring, ideals, level, rng):
    """The colon claim on Element products, rebuilding the monomial list
    per probe variable: the reference for the cached evaluator."""
    member = families._idem50C_member

    def element_member(f):
        return all(member(m) for m in f.monomials())

    top = ring.num_vars - 1
    for p in range(0, top):
        fresh = Element.from_monomial(ring, Monomial.variable(p + 1))
        for m in ring.normal_monomials_up_to(3):
            if m.exponent(0) > p or member(m):
                continue
            if element_member(Element.from_monomial(ring, m).mul(fresh)):
                return False
    for _ in range(5):
        pool = [m for m in ring.normal_monomials_up_to(3)
                if m.max_var() < top and m.exponent(0) < top]
        picks = rng.sample(pool, min(3, len(pool)))
        f = Element.zero(ring)
        for m in picks:
            f = f.add(Element.from_monomial(ring, m, rng.choice([1, -1, 2])))
        if f.is_zero or element_member(f):
            continue
        q = 1 + max(max(m.max_var() for m in f.monomials()), 0,
                    max(m.exponent(0) for m in f.monomials()))
        if q > top:
            continue
        shifted = f.mul(Element.from_monomial(ring, Monomial.variable(q)))
        if element_member(shifted):
            return False
    return True


@pytest.mark.parametrize("rule", ["exact", "shifted"])
def test_idem50C_colon_claim_matches_the_element_reference(rule, monkeypatch):
    # Under the shifted rule the claim fails, so the two evaluators are
    # compared on False values too.
    if rule == "shifted":
        monkeypatch.setattr(families, "_idem50C_member", _shifted_member)
    name = "colon-by-acting-trivial"
    claim = _idem50C_claim(name)
    family = get_family("idem50C")
    for level in range(0, 13):
        ring, ideals = instantiate(family, level)
        for seed in (42, 7):
            ours = _claim_rng(seed, "idem50C", name, level)
            theirs = _claim_rng(seed, "idem50C", name, level)
            assert claim.run(ring, ideals, level, ours) == \
                _reference_colon_by_acting_trivial(ring, ideals, level, theirs)
            # the same random elements were drawn
            assert ours.getstate() == theirs.getstate(), (level, seed)
