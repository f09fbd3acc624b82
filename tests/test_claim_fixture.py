"""Every family claim's value, and the state its rng is left in, locked
against a committed fixture.

tests/golden/family_claims.json records, for each family, claim, seed in
SEEDS and level in LEVELS, the claim's value and the next random() of the
claim's rng after the claim ran, so a rewrite of an evaluator that changes
either an answer or the random draws behind it is caught.  Regenerate it on
purpose with

    PYTHONPATH=src python tests/test_claim_fixture.py > tests/golden/family_claims.json
"""

from __future__ import annotations

import json
from pathlib import Path

from torsionlab.families import _claim_rng, family_tags, get_family, instantiate

FIXTURE = Path(__file__).resolve().parent / "golden" / "family_claims.json"
SEEDS = (42, 7)
LEVELS = range(0, 13)


def claim_table():
    """[tag, claim, seed, level, value, next random()] per evaluation."""
    rows = []
    for tag in family_tags():
        family = get_family(tag)
        for level in LEVELS:
            ring, ideals = instantiate(family, level)
            for claim in family.claims:
                for seed in SEEDS:
                    rng = _claim_rng(seed, tag, claim.name, level)
                    value = claim.run(ring, ideals, level, rng)
                    rows.append([tag, claim.name, seed, level, value,
                                 rng.random()])
    return rows


def test_claims_match_the_fixture():
    expected = json.loads(FIXTURE.read_text())
    assert len(expected) == 494
    assert claim_table() == expected


if __name__ == "__main__":
    print("[\n" + ",\n".join(json.dumps(row) for row in claim_table())
          + "\n]")
