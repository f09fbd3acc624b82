"""Report trees and the two renderers."""

from __future__ import annotations

import json

import random

from torsionlab.harness import HarnessReport, HarnessViolation, random_instance
from torsionlab.ideals import IdealHandle
from torsionlab.reports import (
    harness_tree,
    membership_tree,
    render,
    saturation_tree,
    torsion_tree,
)
from torsionlab.ring import Element, Monomial, RingPresentation
from torsionlab.ideals import ideal_membership, ideal_saturation
from torsionlab.torsion import gamma_small_cyclic


def _var(i, e=1):
    return Monomial.variable(i, e)


def test_text_renderer_scalars_and_nesting():
    tree = {"flag": True, "none": None, "items": [1, {"k": "v"}], "empty": {}}
    text = render(tree, "text")
    assert "flag: true" in text
    assert "none: none" in text
    assert "empty: {}" in text
    # keys are emitted sorted regardless of insertion order
    assert text.index("empty") < text.index("flag") < text.index("items")


def test_json_renderer_sorts_keys_and_ends_with_newline():
    tree = {"b": 1, "a": [2, 3]}
    out = render(tree, "json")
    assert out.endswith("\n")
    assert json.loads(out) == tree
    assert out.index('"a"') < out.index('"b"')


def test_torsion_and_saturation_trees():
    ring = RingPresentation(2)
    a = IdealHandle.from_monomials(ring, [_var(0)])
    b = IdealHandle.from_monomials(ring, [_var(0, 2).mul(_var(1))])
    tree = torsion_tree(gamma_small_cyclic(a, b))
    assert tree["kind"] == "small"
    assert tree["preimage"] == "ideal(X1)"
    assert tree["stabilized"] is True
    sat = saturation_tree(ideal_saturation(b, a))
    assert sat == {"ideal": "ideal(X1)", "stabilized": True, "steps": 2}


def test_membership_tree_includes_certificate():
    ring = RingPresentation(2)
    b = IdealHandle.from_monomials(ring, [_var(0)])
    answer = ideal_membership(Element.from_monomial(ring, _var(0).mul(_var(1))), b)
    tree = membership_tree(answer)
    assert tree["verdict"] == "yes"
    assert tree["certificate"] == [{"generator": 0, "multiplier": "X1"}]
    no = membership_tree(ideal_membership(Element.from_monomial(ring, _var(1)), b))
    assert no["verdict"] == "no"


def test_multi_line_script_sits_under_its_key_in_text():
    script = random_instance(0, random.Random(42)).script
    assert script.count("\n") == 6
    report = HarnessReport(42, 1, 1, (HarnessViolation(
        0, "fair", "left != right", script),))
    lines = render(harness_tree(report), "text").splitlines()
    (at,) = [i for i, line in enumerate(lines)
             if line.lstrip().startswith("script:")]
    key_depth = len(lines[at]) - len(lines[at].lstrip())
    block = lines[at + 1:at + 7]
    assert all(len(line) - len(line.lstrip()) > key_depth for line in block)
    indent = " " * (key_depth + 2)
    assert all(line.startswith(indent) for line in block)
    assert "".join(line[len(indent):] + "\n" for line in block) == script
