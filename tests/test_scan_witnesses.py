"""The primes and witnesses of assassin scans, locked against a committed
fixture.

The harness goldens print prime sets only, so this fixture is what pins the
grlex-first witness of each prime.  tests/golden/scan_witnesses.json holds
one row per scan: every distinct (numerator, denominator) pair that
check_instance asks assassin_scan for on the first DRAWS draws of seed 42,
in the order first asked, then R / b for each nil family at LEVELS (b is
the zero ideal where the family names none).  Each row is

    [source, index, numerator, denominator, ass, ass^f]

with each report a list of [prime, witness].  Regenerate it on purpose with

    PYTHONPATH=src python tests/test_scan_witnesses.py > tests/golden/scan_witnesses.json
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from pathlib import Path
from unittest import mock

from torsionlab import harness, torsion
from torsionlab.families import (
    _build_nil40A,
    _build_nil40B,
    _build_nil40C,
    _build_nil40D,
)
from torsionlab.ideals import IdealHandle, format_ideal
from torsionlab.ring import RingPresentation, format_monomial

# The package re-exports the function spectrum under the module's name.
spectrum = importlib.import_module("torsionlab.spectrum")

FIXTURE = Path(__file__).resolve().parent / "golden" / "scan_witnesses.json"
DRAWS = 40
LEVELS = range(4, 9)
NIL_FAMILIES = (("nil40A", _build_nil40A), ("nil40B", _build_nil40B),
                ("nil40C", _build_nil40C), ("nil40D", _build_nil40D))


def _report_rows(report):
    return [[spectrum.format_prime(p), format_monomial(m)]
            for p, m in report.witnesses]


def _row(source, index, numerator, denominator, reports):
    return [source, index, format_ideal(numerator), format_ideal(denominator),
            _report_rows(reports[0]), _report_rows(reports[1])]


def harness_pairs(draws, seed):
    """Per draw, the (instance, [(numerator, denominator), ...]) that
    check_instance scans, distinct pairs in the order first asked."""
    asked = []
    real = spectrum.assassin_scan

    def record(numerator, denominator):
        asked.append((numerator, denominator))
        return real(numerator, denominator)

    rng = random.Random(seed)
    out = []
    with mock.patch.object(harness, "assassin_scan", record), \
            mock.patch.object(torsion, "assassin_scan", record):
        for index in range(draws):
            instance = harness.random_instance(index, rng)
            asked.clear()
            harness.check_instance(instance)
            out.append((instance, list(dict.fromkeys(asked))))
    return out


def witness_table():
    rows = []
    for instance, pairs in harness_pairs(DRAWS, 42):
        rows.extend(_row("draw", instance.index, num, den,
                         spectrum.assassin_scan(num, den))
                    for num, den in pairs)
    for tag, build in NIL_FAMILIES:
        for level in LEVELS:
            ring, ideals = build(level)
            b = ideals.get("b", IdealHandle.zero(ring))
            unit = IdealHandle.unit(ring)
            rows.append(_row(tag, level, unit, b,
                             spectrum.assassin_scan(unit, b)))
    return rows


def render():
    return ("[\n" + ",\n".join(json.dumps(row) for row in witness_table())
            + "\n]\n")


def test_scan_witnesses_match_the_fixture():
    assert render().encode("utf-8") == FIXTURE.read_bytes()


def test_harness_scans_match_the_walk(monkeypatch):
    """Every scan check_instance asks for, on 100 draws each of seeds 42
    and 7, gives the report pair that the witness walk gives on a copy of
    the ring that takes the walk."""
    scans = 0
    for seed in (42, 7):
        for instance, pairs in harness_pairs(100, seed):
            ring = instance.ring
            walk = RingPresentation(ring.num_vars, ring.rules)
            # The corner path needs a pure power of every variable.
            monkeypatch.setattr(walk, "_pure_powers",
                                ring._pure_powers[:-1] + (None,))
            for num, den in pairs:
                copies = (IdealHandle.from_monomials(
                    walk, h.monomial_generators()) for h in (num, den))
                assert (spectrum.assassin_scan(num, den)
                        == spectrum.assassin_scan(*copies)), (num, den)
                scans += 1
    assert scans >= 600, scans


if __name__ == "__main__":
    sys.stdout.write(render())
