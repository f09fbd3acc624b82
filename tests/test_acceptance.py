"""Acceptance gate: one test per primary deliverable criterion.

Each criterion prints a single verdict line (visible with -v -s or in the
captured output), and fails loudly if its budget or its invariant breaks.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from torsionlab import cli
from torsionlab.dsl import parse
from torsionlab.families import (
    DEFAULT_LEVELS,
    DEFAULT_SEED,
    DEFAULT_WINDOW,
    family_tags,
    get_family,
    instantiate,
    replicate_example,
)
from torsionlab.harness import proposition_harness, random_instance
from torsionlab.ideals import (
    MONOMIAL_MODE,
    ideal_colon,
    ideal_radical,
    ideal_saturation,
    minimal_primes,
)
from torsionlab.oracles import (
    assassin_sets,
    colon_monomials,
    minimal_prime_sets,
    radical_monomials,
    saturation_monomials,
    weak_assassin_sets,
)
from torsionlab.ring import Element, check_local_confluence
from torsionlab.spectrum import assassins_cyclic, weak_assassins_cyclic
from torsionlab.torsion import (
    VERDICT_NAMES,
    fairness_report,
    gamma_small_cyclic,
    radical_probe,
)

HARNESS_INSTANCES = 500
HARNESS_BUDGET_SECONDS = 60.0
REPLICATION_TAGS = ("idem50A", "idem50C", "nil40A", "nil40B", "nil40C", "nil40D")
REPLICATION_BUDGET_SECONDS = 120.0
ORACLE_INSTANCES = 100
SCRIPTS_DIR = Path(__file__).resolve().parents[1] / "scripts"


def _verdict(label, ok):
    print("%s: %s" % (label, "PASS" if ok else "FAIL"))
    assert ok, label


def test_criterion_1_harness_runs_clean_within_budget():
    started = time.perf_counter()
    report = proposition_harness(instances=HARNESS_INSTANCES, seed=DEFAULT_SEED)
    elapsed = time.perf_counter() - started
    ok = (report.ok
          and report.instances == HARNESS_INSTANCES
          and report.checks_run > HARNESS_INSTANCES * 20
          and elapsed <= HARNESS_BUDGET_SECONDS)
    _verdict(
        "criterion 1: %d-instance proposition harness, %d checks, "
        "%d violations, %.1fs" % (report.instances, report.checks_run,
                                  len(report.violations), elapsed), ok)


def test_criterion_2_fairness_reports_all_true_on_random_instances():
    rng = random.Random(DEFAULT_SEED)
    failures = 0
    for i in range(HARNESS_INSTANCES):
        instance = random_instance(i, rng)
        report = fairness_report(instance.acting, instance.relations,
                                 instance.witness_bound)
        good = (report.complete
                and all(report.verdict(name) for name in VERDICT_NAMES)
                and report.centred_witness_ok
                and report.half_centred_witness_ok
                and report.functors_agree)
        failures += 0 if good else 1
    _verdict(
        "criterion 2: fairness verdict bundle true on %d/%d truncated "
        "instances" % (HARNESS_INSTANCES - failures, HARNESS_INSTANCES),
        failures == 0)


def test_criterion_3_oracle_equivalence_on_monomial_instances():
    rng = random.Random(DEFAULT_SEED + 1)
    compared = 0
    for i in range(ORACLE_INSTANCES):
        instance = random_instance(i, rng)
        ring, b, a = instance.ring, instance.relations, instance.acting
        assert b.mode == MONOMIAL_MODE and a.mode == MONOMIAL_MODE
        assert all(g.degree <= 6 for g in b.generators + a.generators)

        factor = rng.choice(ring.normal_monomials_up_to(2))
        colon = ideal_colon(b, Element.from_monomial(ring, factor))
        assert {m for m in ring.normal_monomials_up_to(3)
                if colon.contains_monomial(m)} == \
            set(colon_monomials(b, factor, 3))

        sat = ideal_saturation(b, a)
        assert sat.stabilized
        assert {m for m in ring.normal_monomials_up_to(3)
                if sat.ideal.contains_monomial(m)} == \
            set(saturation_monomials(b, a, 3, power_cap=8))

        rad = ideal_radical(b)
        assert {m for m in ring.normal_monomials_up_to(3)
                if rad.contains_monomial(m)} == set(radical_monomials(b, 3))

        assert sorted(minimal_primes(b), key=lambda s: (len(s), sorted(s))) \
            == minimal_prime_sets(b)

        bound = instance.witness_bound
        assert sorted(assassins_cyclic(b, bound).primes,
                      key=lambda s: (len(s), sorted(s))) == \
            assassin_sets(b, bound, verify_bound=bound + 1)
        assert sorted(weak_assassins_cyclic(b, bound).primes,
                      key=lambda s: (len(s), sorted(s))) == \
            weak_assassin_sets(b, bound, verify_bound=bound + 1)
        compared += 1
    _verdict(
        "criterion 3: engine agrees with brute-force oracles on %d "
        "monomial instances" % compared, compared >= ORACLE_INSTANCES)


def test_criterion_4_replication_suite_stable_within_budget():
    started = time.perf_counter()
    failing = []
    for tag in REPLICATION_TAGS:
        report = replicate_example(tag, levels=DEFAULT_LEVELS,
                                   window=DEFAULT_WINDOW, seed=DEFAULT_SEED)
        if not report.all_pass:
            failing.append(tag)
        for claim in report.claims:
            if not (claim.passed and claim.stable):
                failing.append("%s/%s" % (tag, claim.name))
    elapsed = time.perf_counter() - started
    ok = not failing and elapsed <= REPLICATION_BUDGET_SECONDS
    _verdict(
        "criterion 4: windowed replication of %s at levels %d..%d, "
        "%.1fs%s" % (", ".join(REPLICATION_TAGS), DEFAULT_LEVELS[0],
                     DEFAULT_LEVELS[-1], elapsed,
                     ("" if not failing else "; failing: " + ", ".join(failing))),
        ok)


def test_criterion_5_confluence_certified_for_every_family_level():
    checked = 0
    for tag in family_tags():
        for level in DEFAULT_LEVELS:
            ring, _ = instantiate(get_family(tag), level)
            assert check_local_confluence(ring) == ()
            checked += 1
    _verdict(
        "criterion 5: every critical pair joins on %d family "
        "instantiations" % checked, checked == len(family_tags()) * len(DEFAULT_LEVELS))


def test_criterion_6_torsion_functors_are_radicals_here():
    rng = random.Random(DEFAULT_SEED + 2)
    rows_checked = 0
    for i in range(60):
        instance = random_instance(i, rng)
        rows = radical_probe(instance.acting,
                             [instance.relations, instance.extension])
        for row in rows:
            assert row["stabilized"]
            assert row["large_radical"]
            # truncated quotients are artinian, so the small leg must hold too
            assert row["small_radical"]
            rows_checked += 1
    _verdict(
        "criterion 6: torsion-of-quotient-by-torsion vanishes on %d "
        "modules (both functors)" % rows_checked, rows_checked == 120)


def test_criterion_7_determinism_and_print_parse_fixpoint(capsys):
    def run(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    invocations = (
        ["--format", "json", "run", str(SCRIPTS_DIR / "fairness_demo.tl")],
        ["run", str(SCRIPTS_DIR / "nil40A.tl")],
        ["harness", "--instances", "10", "--seed", "6"],
        ["--format", "json", "examples", "--run", "nil40C",
         "--levels", "4..6", "--window", "2"],
    )
    deterministic = True
    for argv in invocations:
        code1, out1 = run(list(argv))
        code2, out2 = run(list(argv))
        deterministic &= (code1 == code2 == 0 and out1 == out2 and out1 != "")
    json.loads(run(["--format", "json", "run",
                    str(SCRIPTS_DIR / "idem50C.tl")])[1])

    fixpoint = True
    sources = [p.read_text(encoding="utf-8")
               for p in sorted(SCRIPTS_DIR.glob("*.tl"))]
    rng = random.Random(DEFAULT_SEED + 3)
    sources += [random_instance(i, rng).script for i in range(25)]
    assert len(sources) >= 29
    for source in sources:
        script = parse(source)
        text = script.render()
        fixpoint &= parse(text) == script and parse(text).render() == text

    _verdict(
        "criterion 7: byte-identical reruns over %d invocations and "
        "print-parse fixpoint over %d scripts" % (len(invocations), len(sources)),
        deterministic and fixpoint)
