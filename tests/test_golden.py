"""Report stdout locked byte for byte against committed goldens.

tests/golden/ holds the stdout of
    torsionlab --seed 42 --format FMT run scripts/NAME.tl
for every shipped script, of
    torsionlab --format FMT harness --instances 40
and of
    torsionlab --format FMT examples --run TAG
for every example family, for FMT in text and json, each saved as
NAME.FMT.out (harness40.FMT.out for the harness, examples_TAG.FMT.out for
a family).  A change that alters a report must regenerate them on purpose,
with the commands above.
"""

from __future__ import annotations

from pathlib import Path

from torsionlab import cli
from torsionlab.families import family_tags

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
SCRIPTS = sorted((TESTS.parent / "scripts").glob("*.tl"))
FORMATS = ("text", "json")


def test_reports_match_goldens(capsys):
    runs = [("%s.%s.out" % (script.stem, fmt),
             ["--seed", "42", "--format", fmt, "run", str(script)])
            for script in SCRIPTS for fmt in FORMATS]
    runs += [("harness40.%s.out" % fmt,
              ["--format", fmt, "harness", "--instances", "40"])
             for fmt in FORMATS]
    runs += [("examples_%s.%s.out" % (tag, fmt),
              ["--format", fmt, "examples", "--run", tag])
             for tag in family_tags() for fmt in FORMATS]
    assert len(SCRIPTS) == 4 and len(family_tags()) == 7
    assert sorted(name for name, _ in runs) == sorted(
        p.name for p in GOLDEN.glob("*.out"))
    mismatched = []
    for name, argv in runs:
        code = cli.main(argv)
        out = capsys.readouterr().out
        if code != 0 or out.encode("utf-8") != (GOLDEN / name).read_bytes():
            mismatched.append(name)
    assert mismatched == []
