"""Script language: tokenizer, parser, canonical rendering, expansion."""

from __future__ import annotations

import random

import pytest

from torsionlab.dsl import expand_element, expand_ideal, expand_ring, parse
from torsionlab.errors import ParseError, PatternError
from torsionlab.harness import random_instance
from torsionlab.ideals import format_ideal
from torsionlab.ring import format_element

GOLDEN = """\
# two-variable demo
ring R = vars X[0..4] rules { X[i]^2 -> 0 for i in 0..3; X[4]^3 -> 2*X[0] }
ideal a = < X[i] for i in 0..4 >
ideal b = < X[0], X[1]*X[j] for j in 2..4, X[2]*X[3]*X[4] >
ideal c = < X[i]*X[j] for i in 0..4, j in 0..4 if i < j >
ideal d = < 1/2*X[0]^2 + -3*X[1] >
query gamma(a; b)
query membership(X[0]*X[1]; b)
query assf(b)
check fairness(a; b)
family nil40A levels 4..8 window 3
run example nil40A
"""


def test_golden_script_round_trips_to_fixpoint():
    script = parse(GOLDEN)
    text = script.render()
    again = parse(text)
    assert again == script
    assert again.render() == text


def test_statement_kinds_and_counts():
    script = parse(GOLDEN)
    kinds = [type(s).__name__ for s in script.statements]
    assert kinds == [
        "RingStatement", "IdealStatement", "IdealStatement", "IdealStatement",
        "IdealStatement", "QueryStatement", "QueryStatement", "QueryStatement",
        "CheckStatement", "FamilyStatement", "RunExampleStatement"]


def test_comprehension_comma_lookahead():
    script = parse("ring R = vars X[0..4]\n"
                   "ideal b = < X[0], X[1]*X[j] for j in 2..4, X[2] >\n")
    ring = expand_ring(script.statements[0])
    b = expand_ideal(script.statements[1], ring)
    # X1*X2 is a multiple of the standalone generator X2 and reduces away
    assert format_ideal(b) == "ideal(X0, X2, X1*X3, X1*X4)"


def test_shared_range_multi_name_binding():
    many = ", ".join("v%d" % k for k in range(1500))
    for comprehension, count in (
            # nine products, reduced to the six distinct monomials
            ("X[i]*X[j] for i, j in 0..2", 6),
            # one environment over many loop variables, without recursion
            ("X[0] for %s in 0..0" % many, 1)):
        script = parse("ring R = vars X[0..2]\nideal b = < %s >\n"
                       % comprehension)
        ring = expand_ring(script.statements[0])
        b = expand_ideal(script.statements[1], ring)
        assert len(b.generators) == count


def test_guard_comparisons_inside_ideal_brackets():
    script = parse("ring R = vars X[0..3]\n"
                   "ideal b = < X[i]*X[j] for i in 0..3, j in 0..3 if i < j and j <= 2 >\n")
    ring = expand_ring(script.statements[0])
    b = expand_ideal(script.statements[1], ring)
    assert format_ideal(b) == "ideal(X0*X1, X0*X2, X1*X2)"


def test_affine_exponent_and_fraction_coefficients():
    script = parse("ring R = vars X[0..3] rules { X[i]^(i + 2) -> 0 for i in 0..3 }\n"
                   "ideal d = < 1/2*X[0]^2 + -3*X[1] >\n")
    ring = expand_ring(script.statements[0])
    assert len(ring.rules) == 4
    assert ring.rules[0].lhs.degree == 2
    d = expand_ideal(script.statements[1], ring)
    # single generator, normalized to a monic leading coefficient
    assert len(d.generators) == 1


def test_zero_coefficient_rhs_means_zero():
    script = parse("ring R = vars X[0..1] rules { X[0]^2 -> 0*X[1] }\n")
    ring = expand_ring(script.statements[0])
    assert ring.rules[0].rhs is None


def test_duplicate_expanded_rules_collapse():
    script = parse("ring R = vars X[0..1] rules { X[0]^2 -> 0; X[i]^2 -> 0 for i in 0..1 }\n")
    ring = expand_ring(script.statements[0])
    assert len(ring.rules) == 2


def test_cancelling_terms_drop_generator():
    script = parse("ring R = vars X[0..1]\nideal z = < X[0] + -1*X[0] >\n")
    ring = expand_ring(script.statements[0])
    z = expand_ideal(script.statements[1], ring)
    assert z.is_zero


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("ring R = vars X[1..3]\n")
    assert exc.value.line == 1 and exc.value.column == 17

    with pytest.raises(ParseError) as exc:
        parse("ring R = vars X[0..2] rules { X[0] }\n")
    assert "->" in exc.value.expected

    with pytest.raises(ParseError):
        parse("bogus statement\n")

    with pytest.raises(ParseError):
        parse("ring R = vars X[0..2]\nideal a = < X[0]\n")


def test_query_kind_is_validated():
    with pytest.raises(ParseError):
        parse("ring R = vars X[0..1]\nquery torsion(a; b)\n")


@pytest.mark.parametrize("query, column, message", [
    ("membership(b; b)", 18, "unexpected b"),
    ("radical(X[0])", 15, "unexpected X"),
    ("colon(X[0]; b)", 13, "unexpected X"),
    # No query takes a degree: a trailing one is an ordinary parse error.
    ("gamma(a; b) degree 3", 19, "unexpected degree"),
    ("minprimes(b) degree 2", 20, "unexpected degree"),
    ("colon(b; a) degree 3", 19, "unexpected degree"),
    ("colon(b; X[0]) degree 3", 22, "unexpected degree"),
    ("membership(X[0]; b) degree 2", 27, "unexpected degree"),
    ("ass(b) degree 4", 14, "unexpected degree"),
])
def test_query_signature_is_enforced(query, column, message):
    with pytest.raises(ParseError) as exc:
        parse("ring R = vars X[0..1]\nquery %s\n" % query)
    assert (exc.value.line, exc.value.column) == (2, column)
    assert exc.value.message == message


def test_query_signature_accepts_both_colon_forms():
    script = parse("query colon(b; a)\nquery colon(b; X[0])\n"
                   "query membership(X[0] - 1; b)\nquery ass(b)\n")
    assert [s.render() for s in script.statements] == [
        "query colon(b; a)", "query colon(b; X[0])",
        "query membership(X[0] - 1; b)", "query ass(b)"]


def test_zero_denominator_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse("ring R = vars X[0..1]\nideal a = < X[1] + 1/0*X[0] >\n")
    assert (exc.value.line, exc.value.column, exc.value.message) == \
        (2, 22, "zero denominator")
    with pytest.raises(ParseError) as exc:
        parse("ring R = vars X[0..1] rules { X[0]^2 -> 1/0*X[1] }\n")
    assert (exc.value.line, exc.value.column) == (1, 43)


@pytest.mark.parametrize("rhs", ["0", "0*X[1]", "0/1*X[1]", "X[1]*0"])
def test_zero_coefficient_rhs_is_the_zero_rhs(rhs):
    script = parse("ring R = vars X[0..1] rules { X[1]^2 -> %s }\n" % rhs)
    (rule,) = script.statements[0].rules
    assert rule.rhs is None
    assert script.render() == "ring R = vars X[0..1] rules { X[1]^2 -> 0 }\n"
    (rule,) = expand_ring(script.statements[0]).rules
    assert rule.rhs is None


def test_x_is_not_an_ideal_name():
    with pytest.raises(ParseError) as exc:
        parse("ring R = vars X[0..1]\nideal X = < X[0] >\n")
    assert (exc.value.line, exc.value.column, exc.value.message) == \
        (2, 7, "X names the variables, not an ideal")
    # Names that merely start with X stay ideal names.
    script = parse("ideal Xa = < X[0] >\nquery gamma(Xa; Xa)\n")
    assert script.statements[1].arguments[0].name == "Xa"


def test_empty_comprehension_range_yields_nothing():
    script = parse("ring R = vars X[0..1] rules { X[i]^2 -> 0 for i in 1..0 }\n"
                   "ideal a = < X[i] for i in 3..1 >\n")
    ring = expand_ring(script.statements[0])
    assert ring.rules == ()
    assert expand_ideal(script.statements[1], ring).is_zero


@pytest.mark.parametrize("element", [
    "X[0] - 1", "-1/2*X[0] + X[1] - 2*X[1]^2"])
def test_negative_coefficients_print_as_subtraction(element):
    text = "ideal e = < %s >\n" % element
    script = parse(text)
    assert script.render() == text
    assert parse(script.render()) == script


def test_pattern_errors_on_expansion():
    script = parse("ring R = vars X[0..2]\nideal a = < X[5] >\n")
    ring = expand_ring(script.statements[0])
    with pytest.raises(PatternError):
        expand_ideal(script.statements[1], ring)

    script = parse("ring R = vars X[0..2] rules { X[0]^2 -> X[j] }\n")
    with pytest.raises(PatternError):
        expand_ring(script.statements[0])

    script = parse("ring R = vars X[0..2]\n"
                   "ideal a = < X[i] for i in 0..2, i in 0..2 >\n")
    ring = expand_ring(script.statements[0])
    with pytest.raises(PatternError):
        expand_ideal(script.statements[1], ring)


def test_element_template_expansion_respects_signs():
    script = parse("ring R = vars X[0..1]\nideal e = < 2*X[0] + -1*X[1] + 1 >\n")
    ring = expand_ring(script.statements[0])
    gen = expand_ideal(script.statements[1], ring).generators[0]
    assert format_element(gen) == "1 + 2*X0 + -1*X1"


def test_harness_scripts_parse_and_round_trip():
    rng = random.Random(71)

    def generator_terms(ideal):
        return [g.terms for g in ideal.generators]

    for i in range(200):
        instance = random_instance(i, rng)
        script = parse(instance.script)
        text = script.render()
        assert text == instance.script
        assert parse(text) == script
        ring_stmt, *ideal_stmts, check = script.statements
        ring = expand_ring(ring_stmt)
        assert ring.num_vars == instance.ring.num_vars
        assert [(r.lhs, r.rhs) for r in ring.rules] == \
            [(r.lhs, r.rhs) for r in instance.ring.rules]
        own = {"a": instance.acting, "b": instance.relations,
               "c": instance.extension, "a2": instance.between}
        assert [s.name for s in ideal_stmts] == list(own)
        for stmt in ideal_stmts:
            assert generator_terms(expand_ideal(stmt, ring)) == \
                generator_terms(own[stmt.name])
        assert (check.acting, check.relations) == ("a", "b")


def test_empty_and_zero_ideal_forms():
    script = parse("ring R = vars X[0..1]\nideal z = < 0 >\n")
    ring = expand_ring(script.statements[0])
    assert expand_ideal(script.statements[1], ring).is_zero
    assert script.statements[1].render() == "ideal z = < 0 >"
