"""Command line frontend: subcommands, formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from torsionlab import cli
from torsionlab.dsl import parse
from torsionlab.families import ClaimResult, ExampleReport

DEMO = """\
ring R = vars X[0..1] rules { X[0]^2 -> 0; X[1]^3 -> 0 }
ideal a = < X[0] >
ideal b = < X[0]*X[1] >
query gamma(a; b)
check fairness(a; b)
"""


def _write(tmp_path, text, name="script.tl"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_script_text_format(tmp_path, capsys):
    path = _write(tmp_path, DEMO)
    code, out, err = _run(capsys, "run", path)
    assert code == 0
    assert err == ""
    assert "status: ok" in out
    assert "preimage: ideal(1)" in out
    assert "all_hold: true" in out


def test_run_script_json_format_is_deterministic(tmp_path, capsys):
    path = _write(tmp_path, DEMO)
    code1, out1, _ = _run(capsys, "--format", "json", "run", path)
    code2, out2, _ = _run(capsys, "--format", "json", "run", path)
    assert code1 == code2 == 0
    assert out1 == out2
    tree = json.loads(out1)
    assert tree["status"] == "ok"
    assert len(tree["statements"]) == 5


def test_missing_file_is_usage_error(capsys):
    code, _, err = _run(capsys, "run", "/nonexistent/input.tl")
    assert code == 2
    assert "error" in err


def test_non_utf8_script_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.tl"
    path.write_bytes(b"\xff")
    code, out, err = _run(capsys, "run", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_parse_error_reports_position(tmp_path, capsys):
    path = _write(tmp_path, "ring R = vars X[1..3]\n")
    code, _, err = _run(capsys, "run", path)
    assert code == 2
    assert "parse error at line 1 column 17" in err


def test_semantic_error_stops_execution(tmp_path, capsys):
    path = _write(tmp_path, "ring R = vars X[0..1]\nquery gamma(a; b)\n")
    code, out, _ = _run(capsys, "run", path)
    assert code == 2
    assert "status: error" in out
    assert "error_at: 2" in out
    assert "undefined ideal" in out


MALFORMED_HEAD = """\
ring R = vars X[0..1] rules { X[0]^2 -> 0; X[1]^2 -> 0 }
ideal a = < X[0] >
ideal b = < X[1] >
"""


@pytest.mark.parametrize("tail, where, message", [
    ("query membership(b; b)", "line 4 column 18", "unexpected b"),
    ("query colon(b; c)", "error_at: 4", "undefined ideal 'c'"),
    ("query radical(X[0])", "line 4 column 15", "unexpected X"),
    ("query gamma(a; b) degree 3", "line 4 column 19", "unexpected degree"),
    ("ideal d = < 1/0*X[0] >", "line 4 column 15", "zero denominator"),
    ("ring S = vars X[0..1] rules { X[0]^2 -> 1/0*X[1] }",
     "line 4 column 43", "zero denominator"),
])
def test_malformed_scripts_exit_two_with_a_location(tmp_path, capsys, tail,
                                                     where, message):
    path = _write(tmp_path, MALFORMED_HEAD + tail + "\n")
    code, out, err = _run(capsys, "run", path)
    assert code == 2
    assert where in out + err
    assert message in out + err
    assert "Traceback" not in err


def test_empty_comprehension_range_is_the_zero_ideal(tmp_path, capsys):
    path = _write(tmp_path, MALFORMED_HEAD +
                  "ideal e = < X[i] for i in 3..1 >\nquery radical(e)\n")
    code, out, _ = _run(capsys, "run", path)
    assert code == 0
    assert "value: ideal(0)" in out


def test_ideal_before_ring_is_an_error(tmp_path, capsys):
    path = _write(tmp_path, "ideal a = < X[0] >\n")
    code, out, _ = _run(capsys, "run", path)
    assert code == 2
    assert "before any ring" in out


def test_invalid_ring_presentation_is_a_script_error(tmp_path, capsys):
    path = _write(tmp_path, "ring R = vars X[0..1] rules "
                            "{ X[0]^2 -> 0; X[0]^2 -> X[1] }\n")
    code, out, err = _run(capsys, "run", path)
    assert code == 2
    assert err == ""
    assert "status: error" in out
    assert "error_at: 1" in out
    assert "duplicate rule lhs X0^2" in out


def test_non_confluent_ring_is_a_script_error(tmp_path, capsys):
    # X0^2*X1 rewrites to 0 by the first rule and to X1 by the second.
    path = _write(tmp_path, "ring R = vars X[0..1] rules "
                            "{ X[0]*X[1] -> X[1]; X[0]^2 -> 0 }\n"
                            "ideal a = < X[0] >\n"
                            "ideal b = < X[1]^2 >\n"
                            "query gamma(a; b)\n")
    code, out, err = _run(capsys, "--format", "json", "run", path)
    assert code == 2
    assert err == ""
    tree = json.loads(out)
    assert tree["status"] == "error"
    assert tree["error_at"] == 1
    (statement,) = tree["statements"]
    assert statement["error"] == (
        "rules on X0^2 and X0*X1 do not join at X0^2*X1: 0 vs X1")


def test_examples_list(capsys):
    code, out, _ = _run(capsys, "examples", "--list")
    assert code == 0
    for tag in ("idem50A", "idem50B", "idem50C",
                "nil40A", "nil40B", "nil40C", "nil40D"):
        assert tag in out


def test_examples_unknown_tag(capsys):
    code, _, err = _run(capsys, "examples", "--run", "bogus")
    assert code == 2
    assert "unknown example tag" in err


def test_examples_run_small_window(capsys):
    code, out, _ = _run(capsys, "examples", "--run", "idem50A",
                        "--levels", "4..6", "--window", "2")
    assert code == 0
    assert "tag: idem50A" in out
    assert "FAIL" not in out


def test_examples_bad_level_range(capsys):
    # argparse rejects the range itself and exits with the usage code
    with pytest.raises(SystemExit) as exc:
        cli.main(["examples", "--run", "idem50A", "--levels", "6..4"])
    assert exc.value.code == 2
    assert "empty range" in capsys.readouterr().err


def test_harness_is_deterministic(capsys):
    code1, out1, _ = _run(capsys, "harness", "--instances", "6", "--seed", "3")
    code2, out2, _ = _run(capsys, "harness", "--instances", "6", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "ok: true" in out1
    assert "violations: []" in out1


def test_global_and_subcommand_seed_agree(capsys):
    _, global_out, _ = _run(capsys, "--seed", "5", "harness", "--instances", "4")
    _, sub_out, _ = _run(capsys, "harness", "--instances", "4", "--seed", "5")
    assert global_out == sub_out
    assert "seed: 5" in global_out


def test_seed_env_fallback(monkeypatch, capsys):
    monkeypatch.setenv("TORSIONLAB_SEED", "5")
    _, env_out, _ = _run(capsys, "harness", "--instances", "4")
    monkeypatch.delenv("TORSIONLAB_SEED")
    _, flag_out, _ = _run(capsys, "--seed", "5", "harness", "--instances", "4")
    assert env_out == flag_out


def test_non_integer_seed_env_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("TORSIONLAB_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        cli.main(["harness", "--instances", "4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "TORSIONLAB_SEED" in captured.err and "'abc'" in captured.err
    # An explicit seed does not read the variable.
    code, out, _ = _run(capsys, "--seed", "5", "harness", "--instances", "4")
    assert code == 0 and "seed: 5" in out


SATURATION_PAST_64 = """\
ring R = vars X[0..1]
ideal a = < X[0] >
ideal b = < X[0]^70 >
query saturation(b; a)
"""


def test_colon_by_an_ideal_runs_from_a_script(tmp_path, capsys):
    # In Q[X0, X1]/(X0^2 - X0, X1^2 - X1), (X0*X1 : X0) vanishes where
    # X0*X1 does and X0 does not: at the point X0 = 1, X1 = 0.
    path = _write(tmp_path, "ring B = vars X[0..1] rules "
                            "{ X[i]^2 -> X[i] for i in 0..1 }\n"
                            "ideal a = < X[0] >\n"
                            "ideal b = < X[0]*X[1] >\n"
                            "query colon(b; a)\n")
    code, out, err = _run(capsys, "--format", "json", "run", path)
    assert code == 0 and err == ""
    result = json.loads(out)["statements"][-1]["result"]
    assert result == {"ideal": "ideal(-1 + X0, X1)", "complete": True}


def test_saturation_has_no_iteration_cap(tmp_path, capsys):
    path = _write(tmp_path, SATURATION_PAST_64)
    code, out, err = _run(capsys, "--format", "json", "run", path)
    assert code == 0 and err == ""
    result = json.loads(out)["statements"][-1]["result"]
    assert result == {"ideal": "ideal(1)", "stabilized": True, "steps": 70}


def test_saturation_walk_out_of_budget_is_unstabilized(tmp_path, capsys,
                                                       monkeypatch):
    """Only the general-mode product walk spends the work budget: with
    X1^2 -> X1 the two principal parts fit in 200 term operations, and the
    walk for b : a^inf, 39 levels deep, does not.  The monomial kill
    exponent is read off the corners and spends none."""
    import torsionlab.ideals as ideals_module
    monkeypatch.setattr(ideals_module, "WORK_BUDGET", 200)
    path = _write(tmp_path, "ring R = vars X[0..2] rules { X[1]^2 -> X[1] }\n"
                            "ideal a = < X[0], X[2] >\n"
                            "ideal b = < X[0]^20, X[2]^20 >\n"
                            "query saturation(b; a)\n")
    code, out, err = _run(capsys, "--format", "json", "run", path)
    assert code == 0 and "Traceback" not in out + err
    result = json.loads(out)["statements"][-1]["result"]
    assert result == {"ideal": "ideal(X0^20, X2^20)", "stabilized": False,
                      "steps": 0}
    monkeypatch.setattr(ideals_module, "WORK_BUDGET", 0)
    path = _write(tmp_path, SATURATION_PAST_64)
    code, out, err = _run(capsys, "--format", "json", "run", path)
    assert code == 0
    result = json.loads(out)["statements"][-1]["result"]
    assert result == {"ideal": "ideal(1)", "stabilized": True, "steps": 70}


def test_saturation_of_a_deep_exponent():
    # 1999 steps of the chain, each one exponent unit: a recursive walk
    # over the exponent would pass the interpreter's recursion limit.
    tree, code = cli.execute(parse(
        "ring R = vars X[0..0] rules { X[0]^2000 -> 0 }\n"
        "ideal a = < X[0] >\n"
        "ideal z = < X[0]^1999 >\n"
        "query saturation(z; a)\n"))
    assert code == 0
    assert tree["statements"][-1]["result"] == {
        "ideal": "ideal(1)", "stabilized": True, "steps": 1999}


def test_general_mode_large_torsion_prints_the_small_preimage():
    # b : a^inf is b itself at step 0, and the large torsion returns that
    # very handle, so it prints b's generators, with its own steps.
    tree, code = cli.execute(parse(
        "ring R = vars X[0..2] rules { X[0]^2 -> X[0]; X[1]^2 -> X[1];"
        " X[2]^2 -> X[2]; X[0]*X[1]*X[2] -> 0 }\n"
        "ideal a = < -1 - 2*X[1]*X[2], X[2] + 2*X[1]*X[2] >\n"
        "ideal b = < X[2], -1*X[0] + X[1]*X[2] >\n"
        "query gammabar(a; b)\n"
        "query gamma(a; b)\n"
        "query saturation(b; a)\n"))
    assert code == 0, tree
    large, small, sat = (s["result"] for s in tree["statements"][3:])
    assert large == {
        "kind": "large", "preimage": "ideal(X2, -1*X0 + X1*X2)",
        "stabilized": True, "steps": 1, "zero_submodule": True,
        "whole_module": False}
    assert small["preimage"] == sat["ideal"] == large["preimage"]
    assert (small["steps"], sat["steps"]) == (0, 0)


def test_nil40D_assassins_at_level_10_from_a_script():
    # L has 11! normal divisors; the witnesses are read off b's 10
    # staircase corners.
    tree, code = cli.execute(parse(
        "ring R = vars X[0..10] rules { X[i]^(i + 1) -> 0 for i in 0..10 }\n"
        "ideal a = < X[i] for i in 0..10 >\n"
        "ideal b = < X[i]*X[j] for i in 0..10, j in 0..10 if i < j >\n"
        "query ass(b)\n"
        "query assf(b)\n"
        "check fairness(a; b)\n"))
    assert code == 0, tree
    maximal = "prime(%s)" % ", ".join("X%d" % v for v in range(11))
    ass, assf = (s["result"] for s in tree["statements"][3:5])
    assert ass["witnesses"] == [{"prime": maximal, "witness": "X1"}]
    assert assf["witnesses"] == [{"prime": maximal, "witness": "1"}]


def test_wide_artinian_assassins_need_no_walk(monkeypatch):
    """In Q[X0..X13]/(X_i^3) the ass witness is a staircase corner: no
    level enumeration runs."""
    ring_module = importlib.import_module("torsionlab.ring")
    calls = []
    monkeypatch.setattr(ring_module, "_next_level",
                        lambda *args: calls.append(args))
    ring = "ring R = vars X[0..13] rules { X[i]^3 -> 0 for i in 0..13 }\n"
    maximal = "prime(%s)" % ", ".join("X%d" % v for v in range(14))
    rest = "*".join("X%d^2" % v for v in range(2, 14))
    for b, witness in (("< X[0]^2*X[1]^2 >", "X0^2*X1*" + rest),
                       ("< 0 >", "X0^2*X1^2*" + rest)):
        tree, code = cli.execute(parse(
            ring + "ideal b = %s\nquery ass(b)\n" % b))
        assert code == 0, tree
        assert tree["statements"][-1]["result"]["witnesses"] == [
            {"prime": maximal, "witness": witness}]
    assert calls == []


def test_artinian_quotient_of_a_free_ring_needs_no_walk(monkeypatch):
    """R/b is artinian though no rule bounds a variable: both reports come
    off b's one corner, X0*X1^2, with no level walked."""
    ring_module = importlib.import_module("torsionlab.ring")
    calls = []
    monkeypatch.setattr(ring_module, "_next_level",
                        lambda *args: calls.append(args))
    tree, code = cli.execute(parse(
        "ring R = vars X[0..1]\nideal b = < X[0]^2, X[1]^3 >\n"
        "query ass(b)\nquery assf(b)\n"))
    assert code == 0, tree
    assert [s["result"]["witnesses"] for s in tree["statements"][-2:]] == [
        [{"prime": "prime(X0, X1)", "witness": "X0*X1^2"}],
        [{"prime": "prime(X0, X1)", "witness": "1"}]]
    assert calls == []


def test_disjoint_pairs_cost_one_comparison_per_corner(monkeypatch):
    """b = (X0*X1, X2*X3, ..., X22*X23) in Q[X0..X23]/(X_i^2) has 2^12
    corners.  Building them compares each generator with the corners it
    splits, and no candidate with another, and the scan compares each
    corner once: a count, not a wall-clock bound, that a pairwise
    candidate check would raise to about 4^12."""
    comparisons = _count_cost(monkeypatch, 3 * 4096)
    pairs = ", ".join("X[%d]*X[%d]" % (v, v + 1) for v in range(0, 24, 2))
    tree, code = cli.execute(parse(
        "ring R = vars X[0..23] rules { X[i]^2 -> 0 for i in 0..23 }\n"
        "ideal b = < %s >\nquery ass(b)\n" % pairs))
    assert code == 0, tree
    maximal = "prime(%s)" % ", ".join("X%d" % v for v in range(24))
    witness = "*".join("X%d" % v for v in range(0, 24, 2))
    assert tree["statements"][-1]["result"]["witnesses"] == [
        {"prime": maximal, "witness": witness}]
    assert comparisons


def _count_cost(monkeypatch, bound):
    """The list that grows by one per call of ring._below, in every module
    that holds it, and per monomial membership asked of a handle
    (IdealHandle.contains_monomial), which a product walk would ask once
    per product.  The count fails the test as soon as it passes ``bound``,
    and so does any level walked (ring._next_level) or any general-mode
    division (ideals._divide), so a rung that regresses fails fast."""
    ring_module = importlib.import_module("torsionlab.ring")
    ideals_module = importlib.import_module("torsionlab.ideals")
    real = ring_module._below
    member = ideals_module.IdealHandle.contains_monomial
    comparisons = []

    def count():
        comparisons.append(1)
        assert len(comparisons) <= bound, "more than %d comparisons" % bound

    def below(d, k):
        count()
        return real(d, k)

    def contains(handle, m):
        count()
        return member(handle, m)

    def walk(*args):
        raise AssertionError("a level was walked")

    def divide(*args, **kwargs):
        raise AssertionError("a polynomial was divided")

    for name, module in list(sys.modules.items()):
        if (name.startswith("torsionlab")
                and getattr(module, "_below", None) is real):
            monkeypatch.setattr(module, "_below", below)
    monkeypatch.setattr(ring_module, "_next_level", walk)
    monkeypatch.setattr(ideals_module, "_divide", divide)
    monkeypatch.setattr(ideals_module.IdealHandle, "contains_monomial",
                        contains)
    return comparisons


def _scan_results(source):
    tree, code = cli.execute(parse(source))
    assert code == 0, tree
    return [s["result"]["witnesses"] for s in tree["statements"][-2:]]


@pytest.mark.parametrize("k", [13, 20])
def test_cost_ladder_one_free_variable(monkeypatch, k):
    """Rung (a): X_i^3 -> 0 on X0..X(k-1), X(k) free, b = (X0^2*X1^2).
    R/b is not artinian, and the scan reads b's two corners: a count of
    comparisons linear in variables * (generators + corners), generators
    counting the rule lhs, no level walked, and no wall-clock bound."""
    variables, generators, corners = k + 1, k + 1, 2
    comparisons = _count_cost(
        monkeypatch, 2 * variables * (generators + corners))
    ass, assf = _scan_results(
        "ring R = vars X[0..%d] rules { X[i]^3 -> 0 for i in 0..%d }\n"
        "ideal b = < X[0]^2*X[1]^2 >\nquery ass(b)\nquery assf(b)\n"
        % (k, k - 1))
    prime = "prime(%s)" % ", ".join("X%d" % v for v in range(k))
    witness = "X0^2*X1*" + "*".join("X%d^2" % v for v in range(2, k))
    assert ass == [{"prime": prime, "witness": witness}]
    assert assf == [{"prime": prime, "witness": "1"}]
    assert comparisons


@pytest.mark.parametrize("e", [1000, 3000])
def test_cost_ladder_two_variables_high_exponent(monkeypatch, e):
    """Rung (b): the rule-free Q[X0, X1], b = (X0^e*X1^e), whose two
    components are (X0^e) and (X1^e): the count does not grow with e."""
    variables, generators, corners = 2, 1, 2
    comparisons = _count_cost(
        monkeypatch, 2 * variables * (generators + corners))
    ass, assf = _scan_results(
        "ring R = vars X[0..1]\nideal b = < X[0]^%d*X[1]^%d >\n"
        "query ass(b)\nquery assf(b)\n" % (e, e))
    assert ass == [
        {"prime": "prime(X0)", "witness": "X0^%d*X1^%d" % (e - 1, e)},
        {"prime": "prime(X1)", "witness": "X0^%d*X1^%d" % (e, e - 1)}]
    assert assf == [{"prime": "prime(X0)", "witness": "1"},
                    {"prime": "prime(X1)", "witness": "1"}]
    assert comparisons


@pytest.mark.parametrize("k", [12, 14, 20])
def test_cost_ladder_saturation_by_every_variable(monkeypatch, k):
    """Rung (d): Q[X0..X(k-1)]/(X_i^3), a every variable, b = (X0^2*X1^2).
    The kill exponent is read off b's two corners, of degree 2k - 1: both
    functors reach the unit ideal at step 2k, with no product walked."""
    variables, generators, corners = k, k + 1, 2
    comparisons = _count_cost(
        monkeypatch, 2 * variables * (generators + corners))
    tree, code = cli.execute(parse(
        "ring R = vars X[0..%d] rules { X[i]^3 -> 0 for i in 0..%d }\n"
        "ideal a = < X[i] for i in 0..%d >\nideal b = < X[0]^2*X[1]^2 >\n"
        "query saturation(b; a)\nquery gamma(a; b)\n" % ((k - 1,) * 3)))
    assert code == 0, tree
    saturation, gamma = (s["result"] for s in tree["statements"][-2:])
    assert saturation == {"ideal": "ideal(1)", "stabilized": True,
                          "steps": 2 * k}
    assert (gamma["preimage"], gamma["stabilized"], gamma["steps"]) == (
        "ideal(1)", True, 2 * k)
    assert comparisons


@pytest.mark.parametrize("level", range(10, 16))
def test_cost_ladder_nil40D(monkeypatch, level):
    """Rung (e): nil40D, X_i^(i+1) -> 0 and b every mixed product.  ass(b)
    and the two kill claims read b's corners, one per variable past X0."""
    from torsionlab.families import get_family, instantiate
    variables = level + 1
    generators, corners = variables * (variables + 1) // 2, variables
    comparisons = _count_cost(
        monkeypatch, 2 * variables * (generators + corners))
    tree, code = cli.execute(parse(
        "ring R = vars X[0..%d] rules { X[i]^(i + 1) -> 0 for i in 0..%d }\n"
        "ideal b = < X[i]*X[j] for i in 0..%d, j in 0..%d if i < j >\n"
        "query ass(b)\n" % ((level,) * 4)))
    assert code == 0, tree
    maximal = "prime(%s)" % ", ".join("X%d" % v for v in range(variables))
    assert tree["statements"][-1]["result"]["witnesses"] == [
        {"prime": maximal, "witness": "X1"}]
    family = get_family("nil40D")
    ring, ideals = instantiate(family, level)
    kills = [c for c in family.claims if c.name in (
        "generators-are-quotient-torsion",
        "unit-stays-outside-quotient-torsion")]
    assert len(kills) == 2
    assert all(c.evaluate(ring, ideals, level, None) for c in kills)
    assert comparisons


@pytest.mark.parametrize("k", [12, 16, 20])
def test_cost_ladder_all_pair_products(monkeypatch, k):
    """Rung (f): Q[X0..X(k-1)]/(X_i^3), a every X_i*X_j, b = 0.  Every
    generator of a shares its variables with others, so the kill exponent
    goes through _most_factors' recursion, one comparison per state:
    bounded by the best count so far, it stays linear, where trying every
    count took 179,696 comparisons at k = 9."""
    variables, generators, corners = k, k * (k - 1) // 2 + k, 1
    comparisons = _count_cost(
        monkeypatch, 2 * variables * (generators + corners))
    tree, code = cli.execute(parse(
        "ring R = vars X[0..%d] rules { X[i]^3 -> 0 for i in 0..%d }\n"
        "ideal a = < X[i]*X[j] for i in 0..%d, j in 0..%d if i < j >\n"
        "ideal b = < 0 >\nquery saturation(b; a)\nquery gamma(a; b)\n"
        "query gammabar(a; b)\n" % ((k - 1,) * 4)))
    assert code == 0, tree
    saturation, gamma, gammabar = (
        s["result"] for s in tree["statements"][-3:])
    assert saturation == {"ideal": "ideal(1)", "stabilized": True,
                          "steps": k + 1}
    assert [(r["preimage"], r["stabilized"], r["steps"])
            for r in (gamma, gammabar)] == [
        ("ideal(1)", True, k + 1), ("ideal(1)", True, 3)]
    assert comparisons


@pytest.mark.parametrize("k", [3, 6])
def test_cost_ladder_disjoint_cliques(monkeypatch, k):
    """Rung (g): k disjoint 7-variable cliques of pair products in
    Q[X0..X(7k-1)]/(X_i^2), b = 0.  The cliques share no variable, so
    _most_factors runs one recursion per clique, each bounded by its own
    room, and the count stays linear in k, where one recursion over every
    clique took 3,033,580 comparisons at k = 3."""
    variables = 7 * k
    generators, corners = 21 * k + variables, 1
    comparisons = _count_cost(
        monkeypatch, 2 * variables * (generators + corners))
    pairs = ", ".join("X[%d]*X[%d]" % (i, j) for c in range(0, variables, 7)
                      for i in range(c, c + 7) for j in range(i + 1, c + 7))
    tree, code = cli.execute(parse(
        "ring R = vars X[0..%d] rules { X[i]^2 -> 0 for i in 0..%d }\n"
        "ideal a = < %s >\nideal b = < 0 >\nquery saturation(b; a)\n"
        "query gamma(a; b)\nquery gammabar(a; b)\n"
        % (variables - 1, variables - 1, pairs)))
    assert code == 0, tree
    saturation, gamma, gammabar = (
        s["result"] for s in tree["statements"][-3:])
    assert saturation == {"ideal": "ideal(1)", "stabilized": True,
                          "steps": 3 * k + 1}
    assert [(r["preimage"], r["stabilized"], r["steps"])
            for r in (gamma, gammabar)] == [
        ("ideal(1)", True, 3 * k + 1), ("ideal(1)", True, 2)]
    assert comparisons


@pytest.mark.parametrize("k", [8, 12])
def test_cost_ladder_partial_corner_saturation(monkeypatch, k):
    """Rung (i): the rule-free Q[X0..X(2k-1)], b = (X0*X1, X2*X3, ...),
    a = (X0).  Half of b's 2^k corners miss X0, so b : a^inf is neither R
    nor b and takes the principal route: the count stays linear in
    variables * (generators + corners), where meeting the kept components
    through their dual took more than 8,448 comparisons at k = 8."""
    variables, generators, corners = 2 * k, k, 2 ** k
    comparisons = _count_cost(
        monkeypatch, 2 * variables * (generators + corners))
    pairs = ", ".join("X[%d]*X[%d]" % (v, v + 1) for v in range(0, 2 * k, 2))
    tree, code = cli.execute(parse(
        "ring R = vars X[0..%d]\nideal a = < X[0] >\nideal b = < %s >\n"
        "query saturation(b; a)\nquery gamma(a; b)\nquery gammabar(a; b)\n"
        % (variables - 1, pairs)))
    assert code == 0, tree
    saturated = "ideal(X1, %s)" % ", ".join(
        "X%d*X%d" % (v, v + 1) for v in range(2, 2 * k, 2))
    saturation, gamma, gammabar = (
        s["result"] for s in tree["statements"][-3:])
    assert saturation == {"ideal": saturated, "stabilized": True, "steps": 1}
    assert [(r["preimage"], r["stabilized"], r["steps"])
            for r in (gamma, gammabar)] == [(saturated, True, 1)] * 2
    assert comparisons


@pytest.mark.parametrize("n", [44, 45])
def test_kill_exponent_of_a_thousand_shared_generators(n):
    """Q[X0..X(n-1)]/(X_i^3), a every X_i*X_j, b = 0: one group of
    n(n-1)/2 generators that share variables.  Its count is walked on an
    explicit stack, so 990 generators at n = 45 end in steps n + 1 (an
    n-cycle of pair factors, plus one), not past the recursion limit."""
    tree, code = cli.execute(parse(
        "ring R = vars X[0..%d] rules { X[i]^3 -> 0 for i in 0..%d }\n"
        "ideal a = < X[i]*X[j] for i in 0..%d, j in 0..%d if i < j >\n"
        "ideal b = < 0 >\nquery saturation(b; a)\n" % ((n - 1,) * 4)))
    assert code == 0, tree
    assert tree["statements"][-1]["result"] == {
        "ideal": "ideal(1)", "stabilized": True, "steps": n + 1}


def test_failed_example_claim_exits_one(tmp_path, capsys, monkeypatch):
    failing = ExampleReport(
        tag="nil40A", levels=(4,), window=2, seed=42,
        claims=(ClaimResult("c", "d", values=((4, False),),
                            passed=False, stable=True),),
        confluence_ok=True)
    monkeypatch.setattr(cli, "replicate_example", lambda *a, **k: failing)
    path = _write(tmp_path, "run example nil40A\n")
    code, out, _ = _run(capsys, "run", path)
    assert code == 1
    assert "status: fail" in out
    code, out, _ = _run(capsys, "examples", "--run", "nil40A")
    assert code == 1


def test_stability_window_flag_validated_at_execution(tmp_path, capsys):
    code, out, err = _run(capsys, "examples", "--run", "idem50A",
                          "--window", "1")
    assert code == 2
    assert out == "" and err.startswith("error: ")
    path = _write(tmp_path,
                  "family idem50A levels 4..6 window 1\nrun example idem50A\n")
    code, out, _ = _run(capsys, "run", path)
    assert code == 2
    assert "status: error" in out
    assert "window must be at least 2" in out


def test_window_longer_than_the_schedule_is_a_usage_error(tmp_path, capsys):
    code, out, err = _run(capsys, "examples", "--run", "nil40A",
                          "--levels", "4..5", "--window", "3")
    assert code == 2
    assert out == ""
    assert err == "error: window 3 is longer than the 2 scheduled levels\n"
    path = _write(tmp_path,
                  "family nil40A levels 4..5 window 3\nrun example nil40A\n")
    code, out, _ = _run(capsys, "run", path)
    assert code == 2
    assert "window 3 is longer than the 2 scheduled levels" in out


def test_run_family_schedule_from_script(tmp_path, capsys):
    path = _write(tmp_path,
                  "family idem50A levels 4..6 window 2\nrun example idem50A\n")
    code, out, _ = _run(capsys, "run", path)
    assert code == 0
    assert "confluence_ok: true" in out
    assert "window: 2" in out


def test_run_bad_family_schedule_is_script_error(tmp_path, capsys):
    path = _write(tmp_path,
                  "family nil40A levels 4..20 window 3\nrun example nil40A\n")
    code, out, _ = _run(capsys, "--format", "json", "run", path)
    assert code == 2
    tree = json.loads(out)
    assert tree["status"] == "error"
    assert tree["error_at"] == 1
    assert tree["statements"][0]["error"] == "level 16 outside 0..15"


def _run_module(*argv):
    """``python -m ARGV`` in a fresh interpreter at the checkout root, with
    ``src`` on the path."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return subprocess.run(
        [sys.executable, "-m", *argv],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)


def test_module_entry_point_runs_without_warnings():
    done = _run_module("torsionlab.cli", "run", "scripts/fairness_demo.tl")
    assert done.returncode == 0
    assert done.stderr == ""
    assert "status: ok" in done.stdout


def test_package_runs_as_a_module():
    done = _run_module("torsionlab", "examples", "--list")
    assert done.returncode == 0
    assert done.stderr == ""
    assert "tag: nil40A" in done.stdout


def test_package_resolves_cli_names_lazily():
    import torsionlab
    assert torsionlab.main is cli.main
    assert torsionlab.execute is cli.execute
    assert {"main", "execute"} <= set(torsionlab.__all__)
    with pytest.raises(AttributeError):
        torsionlab.no_such_name


def test_cached_normal_forms_keep_fraction_coefficients(capsys, monkeypatch):
    from fractions import Fraction

    from torsionlab.ring import RingPresentation
    rings = []
    real = RingPresentation.__init__

    def record(self, *args, **kwargs):
        real(self, *args, **kwargs)
        rings.append(self)

    monkeypatch.setattr(RingPresentation, "__init__", record)
    root = Path(__file__).resolve().parent.parent
    for name in ("idem50C", "fairness_demo"):
        assert cli.main(["run", str(root / "scripts" / (name + ".tl"))]) == 0
    capsys.readouterr()
    assert rings
    cached = [c for ring in rings for nf in ring._nf_cache.values()
              for c in nf.terms.values()]
    assert len(cached) >= 1000
    assert all(type(c) is Fraction for c in cached)


def _readme_script_blocks():
    """The fenced blocks of README.md with no language tag, the scripts."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks, tag, lines = [], None, []
    for line in readme.read_text(encoding="utf-8").splitlines(keepends=True):
        if not line.startswith("```"):
            lines.append(line)
        elif tag is None:
            tag, lines = line[3:].strip(), []
        else:
            if not tag:
                blocks.append("".join(lines))
            tag = None
    return blocks


def test_readme_script_blocks_run_clean(tmp_path, capsys):
    blocks = _readme_script_blocks()
    assert len(blocks) >= 2
    for i, block in enumerate(blocks):
        script = _write(tmp_path, block, "readme%d.tl" % i)
        assert cli.main(["run", script]) == 0, block
        assert capsys.readouterr().out.endswith("status: ok\n")


def _long_options(parser):
    return {o for action in parser._actions for o in action.option_strings
            if o.startswith("--") and o != "--help"}


def test_readme_lists_the_global_flags():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    start = text.index("Global flags go before the subcommand")
    sentence = text[start:text.index("\n\n", start)]
    listed = set(re.findall(r"`(--[a-z-]+)", sentence))
    assert listed == _long_options(cli.build_parser())


def test_readme_command_lines_use_existing_flags():
    """Each flag on a README ``torsionlab ...`` line is a global option
    before the subcommand and an option of that subcommand after it."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    lines = [line.split("#")[0].split()
             for line in readme.read_text(encoding="utf-8").splitlines()
             if line.startswith("torsionlab ")]
    assert len(lines) >= 4
    for words in lines:
        at = next(i for i, w in enumerate(words) if w in sub.choices)
        assert {w for w in words[:at] if w.startswith("--")} <= \
            _long_options(parser), words
        assert {w for w in words[at:] if w.startswith("--")} <= \
            _long_options(sub.choices[words[at]]), words
