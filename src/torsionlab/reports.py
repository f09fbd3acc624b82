"""Deterministic report rendering.

Reports are plain trees of dicts, lists, and scalars.  Two output modes:
a sorted-key indented text form, and JSON (also sorted).  Both are
byte-deterministic for a fixed tree; nothing time- or id-dependent may be
placed in a tree.
"""

from __future__ import annotations

import json

from .ideals import format_ideal
from .ring import format_element, format_monomial
from .spectrum import format_prime


def render(tree, fmt="text"):
    if fmt == "json":
        return json.dumps(tree, sort_keys=True, indent=2) + "\n"
    if fmt == "text":
        return "".join(line + "\n" for line in _text_lines(tree, 0))
    raise ValueError("unknown format %r" % fmt)


def _scalar(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    return str(value)


def _scalar_lines(head, value, pad):
    """head followed by the scalar; a multi-line scalar follows as a "|"
    block, each of its lines one level deeper than pad."""
    text = _scalar(value)
    if "\n" not in text:
        yield head + text
        return
    yield head + "|"
    for line in text.splitlines():
        yield pad + "  " + line


def _empty(container):
    """The text form of an empty dict or list."""
    return "{}" if isinstance(container, dict) else "[]"


def _text_lines(tree, depth):
    pad = "  " * depth
    if isinstance(tree, dict):
        for key in sorted(tree):
            value = tree[key]
            if isinstance(value, (dict, list)) and value:
                yield "%s%s:" % (pad, key)
                yield from _text_lines(value, depth + 1)
            elif isinstance(value, (dict, list)):
                yield "%s%s: %s" % (pad, key, _empty(value))
            else:
                yield from _scalar_lines("%s%s: " % (pad, key), value, pad)
    elif isinstance(tree, list):
        for item in tree:
            if isinstance(item, (dict, list)) and item:
                yield "%s-" % pad
                yield from _text_lines(item, depth + 1)
            elif isinstance(item, (dict, list)):
                yield "%s- %s" % (pad, _empty(item))
            else:
                yield from _scalar_lines("%s- " % pad, item, pad)
    else:
        yield from _scalar_lines(pad, tree, pad)


def prime_list(primes):
    return [format_prime(p) for p in primes]


def torsion_tree(result):
    return {
        "kind": result.kind,
        "preimage": format_ideal(result.preimage),
        "stabilized": result.stabilized,
        "steps": result.steps,
        "zero_submodule": result.is_zero_submodule,
        "whole_module": result.is_whole_module,
    }


def saturation_tree(result):
    return {
        "ideal": format_ideal(result.ideal),
        "stabilized": result.stabilized,
        "steps": result.steps,
    }


def membership_tree(answer):
    tree = {"verdict": answer.verdict}
    if answer.certificate:
        tree["certificate"] = [
            {"generator": k, "multiplier": format_element(h)}
            for k, h in answer.certificate]
    return tree


def assassin_tree(report):
    return {
        "primes": prime_list(report.primes),
        "witnesses": [
            {"prime": format_prime(p), "witness": format_monomial(m)}
            for p, m in report.witnesses],
    }


def fairness_tree(report):
    return {
        "acting": format_ideal(report.acting),
        "relations": format_ideal(report.relations),
        "small": torsion_tree(report.small),
        "large": torsion_tree(report.large),
        "comparisons": {
            c.name: {
                "left": prime_list(c.left),
                "right": prime_list(c.right),
                "holds": c.holds,
            }
            for c in report.comparisons},
        "centred_witness_ok": report.centred_witness_ok,
        "half_centred_witness_ok": report.half_centred_witness_ok,
        "functors_agree": report.functors_agree,
        "complete": report.complete,
        "all_hold": report.all_hold,
    }


def harness_tree(report):
    # Wall-clock time is deliberately left out: reports must be
    # byte-identical across runs with the same seed.
    return {
        "seed": report.seed,
        "instances": report.instances,
        "checks_run": report.checks_run,
        "ok": report.ok,
        "violations": [
            {
                "instance": v.instance_index,
                "proposition": v.proposition,
                "detail": v.detail,
                "script": v.script,
            }
            for v in report.violations],
    }


def example_tree(report):
    return {
        "tag": report.tag,
        "levels": list(report.levels),
        "window": report.window,
        "seed": report.seed,
        "confluence_ok": report.confluence_ok,
        "all_pass": report.all_pass,
        "claims": [
            {
                "name": c.name,
                "description": c.description,
                "passed": c.passed,
                "stable": c.stable,
                "values": [[level, value] for level, value in c.values],
                "status": "PASS" if (c.passed and c.stable) else "FAIL",
            }
            for c in report.claims],
    }
