"""Seeded proposition harness: instance generation and report shape."""

from __future__ import annotations

import random

import torsionlab.ideals as ideals_module
from torsionlab.harness import (
    HarnessInstance,
    check_instance,
    instance_script,
    proposition_harness,
    random_instance,
)
from torsionlab.ideals import IdealHandle, ideal_membership, ideal_radical
from torsionlab.reports import harness_tree, render
from torsionlab.ring import RingPresentation


def test_instance_construction_invariants():
    rng = random.Random(101)
    for i in range(10):
        instance = random_instance(i, rng)
        assert instance.ring.all_rhs_zero
        # extension contains relations, between sits over acting inside its radical
        for g in instance.relations.generators:
            assert ideal_membership(g, instance.extension).is_yes
        for g in instance.acting.generators:
            assert ideal_membership(g, instance.between).is_yes
        radical = ideal_radical(instance.acting)
        for g in instance.between.generators:
            assert ideal_membership(g, radical).is_yes
        assert instance.witness_bound > 0
        assert instance.script.endswith("\n")


def test_check_instance_runs_clean():
    rng = random.Random(103)
    instance = random_instance(0, rng)
    checks, violations, witness_flags = check_instance(instance)
    assert checks > 20
    assert violations == []
    assert witness_flags


def test_small_harness_report():
    report = proposition_harness(instances=12, seed=9)
    assert report.ok
    assert report.instances == 12
    assert report.seed == 9
    assert report.checks_run > 12 * 20
    assert report.violations == ()


def test_harness_tree_is_deterministic_and_elapsed_free():
    first = render(harness_tree(proposition_harness(instances=8, seed=4)), "json")
    second = render(harness_tree(proposition_harness(instances=8, seed=4)), "json")
    assert first == second
    assert "elapsed" not in first


def _fresh_copy(instance):
    """The instance rebuilt in a new copy of its ring, whose caches are
    empty."""
    ring = RingPresentation(instance.ring.num_vars, instance.ring.rules)

    def move(ideal):
        return IdealHandle.from_monomials(ring, ideal.monomial_generators())

    return HarnessInstance(
        instance.index, ring, move(instance.acting),
        move(instance.relations), move(instance.extension),
        move(instance.between), instance.witness_bound)


def test_warm_caches_leave_check_instance_unchanged(monkeypatch):
    """A second check_instance on one instance saturates nothing anew and
    answers as one run on a fresh copy of the ring."""
    saturations = []
    real = ideals_module._saturate_by
    monkeypatch.setattr(ideals_module, "_saturate_by",
                        lambda *args: saturations.append(args) or real(*args))
    rng = random.Random(107)
    for i in range(40):
        instance = random_instance(i, rng)
        check_instance(instance)
        before = len(saturations)
        warm = check_instance(instance)
        assert len(saturations) == before
        assert warm == check_instance(_fresh_copy(instance))
