"""Small and large torsion of cyclic modules, and fairness reports.

For the cyclic module R/b and an ideal a:

* small torsion: elements killed by a power of the whole ideal.  Its
  preimage in R is the saturation of b at a.
* large torsion: elements x with a inside the radical of (b : x).  As a
  is finitely generated (g_i^(n_i) x = 0 for its k generators gives
  a^(n_1 + ... + n_k - k + 1) x = 0), its preimage is the very handle the
  small functor returns.  Only its steps are its own: the most any
  principal saturation (b : g^inf), g a generator of a, takes, read off
  the corners of b in monomial mode and off those parts in general mode.

The interned handle of b keeps every saturation asked of it, so neither
functor repeats one that the other, fairness or the harness asked for
before.  In monomial mode a saturation that is R or b is read off the
corners of b, and otherwise ideal_saturation meets the closed forms of the
principal ones; in general mode it meets the memo's principal saturations.

Fairness predicates compare assassins of the torsion submodule and of the
quotient by it against intersections and differences with the variety of a.
The shared preimage makes one module of each small and large pair, so a
fairness report scans three modules, and each large verdict is its small
twin's comparison under the large name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .ideals import (
    IdealHandle,
    _power_kill_exponent,
    _principal_saturations,
    _principal_steps,
    ideal_saturation,
)
from .spectrum import assassin_scan, difference_variety, intersect_variety

SMALL = "small"
LARGE = "large"


@dataclass(frozen=True)
class TorsionResult:
    """Preimage in R of the torsion submodule of R/relations."""
    kind: str  # SMALL or LARGE
    ideal: IdealHandle  # the acting ideal a
    relations: IdealHandle  # b
    preimage: IdealHandle  # contains b; torsion submodule is preimage/b
    stabilized: bool
    steps: int

    @property
    def is_zero_submodule(self):
        return self.preimage.equals(self.relations) is True

    @property
    def is_whole_module(self):
        return self.preimage.is_unit


def gamma_small_cyclic(acting, relations):
    """Preimage of the small torsion submodule of R/relations."""
    sat = ideal_saturation(relations, acting)
    return TorsionResult(SMALL, acting, relations, sat.ideal,
                         sat.stabilized, sat.steps)


def gamma_large_cyclic(acting, relations):
    """Preimage of the large torsion submodule of R/relations: the small
    preimage, with the most steps any principal saturation takes: read off
    the corners of relations in monomial mode, off the parts in general."""
    sat = ideal_saturation(relations, acting)
    # A preimage past the work budget is flagged incomplete.
    stabilized = sat.stabilized and sat.ideal.complete
    if relations.is_monomial_mode and acting.is_monomial_mode:
        steps = _principal_steps(relations, acting)
    else:
        parts = _principal_saturations(relations, acting)
        stabilized = stabilized and all(part.stabilized for part in parts)
        steps = max((part.steps for part in parts), default=0)
    return TorsionResult(LARGE, acting, relations, sat.ideal, stabilized,
                         steps)


def bounded_torsion_exponent(acting, preimage, relations):
    """Smallest n with acting^n * preimage inside relations, or None when
    no power of acting gets there or, in general mode only, past the work
    budget.

    When this exists the torsion submodule preimage/relations is killed by a
    single power of the acting ideal.
    """
    return _power_kill_exponent(acting, preimage, relations)


VERDICT_NAMES = (
    "fair",
    "weakly_fair",
    "weakly_quasifair",
    "large_fair",
    "weakly_large_fair",
    "weakly_large_quasifair",
)


@dataclass(frozen=True)
class FairnessComparison:
    name: str
    left: tuple  # primes computed from the torsion side, sorted
    right: tuple  # primes from the base module restricted by the variety
    holds: bool


@dataclass(frozen=True)
class FairnessReport:
    acting: IdealHandle
    relations: IdealHandle
    small: TorsionResult
    large: TorsionResult
    comparisons: tuple  # of FairnessComparison, in VERDICT_NAMES order
    centred_witness_ok: bool
    half_centred_witness_ok: bool
    complete: bool  # both saturations stabilized
    # (ass, ass^f) report pairs of R/relations, the small torsion and
    # R/small preimage, which the large torsion shares; not rendered.
    scans: tuple

    @property
    def functors_agree(self):
        """The paper's theorem that the two functors agree at a finitely
        generated ideal, as every acting ideal here is.  It states the
        theorem and is not a check: both share one preimage handle."""
        return True

    def verdict(self, name):
        for comparison in self.comparisons:
            if comparison.name == name:
                return comparison.holds
        raise KeyError(name)

    @property
    def all_hold(self):
        return all(c.holds for c in self.comparisons)


def _compare(name, left_report, right_primes):
    """Compare the left scan's primes with primes read off the base scan,
    both already sorted by prime_key."""
    left = tuple(left_report.primes)
    right = tuple(right_primes)
    return FairnessComparison(
        name, left, right, frozenset(left) == frozenset(right))


def centredness_flags(acting, small, base_assf):
    """(centred, half-centred) witness flags of R/relations at the acting
    ideal, from its small torsion and its weak assassin.

    Centred: the small torsion is nonzero whenever some weak associated
    prime contains the acting ideal.  Half-centred: it is the whole module
    whenever every weak associated prime contains the acting ideal.
    """
    meet = frozenset(intersect_variety(base_assf.primes, acting))
    centred = (not small.is_zero_submodule) or not meet
    half_centred = (not base_assf.prime_set <= meet) or small.is_whole_module
    return centred, half_centred


def fairness_report(acting, relations):
    """All six fairness verdicts for the module R/relations at the acting
    ideal, plus centredness witnesses.

    Three assassin scans, each exact: R/relations, the small torsion and
    R/small preimage.  The large preimage is the small one, so the large
    torsion and its quotient are those modules.  The complete flag reports
    whether both saturations stabilized; verdicts from an unstabilized
    torsion are advisory.
    """
    small = gamma_small_cyclic(acting, relations)
    large = gamma_large_cyclic(acting, relations)
    unit = IdealHandle.unit(relations.ring)
    scans = (assassin_scan(unit, relations),
             assassin_scan(small.preimage, relations),
             assassin_scan(unit, small.preimage))
    (base_ass, base_assf), (_, sub_assf), (quot_ass, quot_assf) = scans
    ass_minus = difference_variety(base_ass.primes, acting)
    assf_minus = difference_variety(base_assf.primes, acting)
    assf_meet = intersect_variety(base_assf.primes, acting)

    small_comparisons = (
        _compare("fair", quot_ass, ass_minus),
        _compare("weakly_fair", quot_assf, assf_minus),
        _compare("weakly_quasifair", sub_assf, assf_meet),
    )
    comparisons = small_comparisons + tuple(
        replace(comparison, name=name)
        for comparison, name in zip(small_comparisons, VERDICT_NAMES[3:]))

    centred_ok, half_centred_ok = centredness_flags(acting, small, base_assf)

    return FairnessReport(
        acting, relations, small, large, comparisons,
        centred_ok, half_centred_ok,
        small.stabilized and large.stabilized, scans)


def radical_probe(acting, corpus):
    """Is each torsion functor a radical on these modules?

    For every relations ideal b: applying the functor to the quotient by
    its own torsion must give zero.  The large leg must hold on every
    instance; the small leg can fail outside noetherian or idempotent
    settings, so it is reported per instance rather than asserted.
    """
    rows = []
    for relations in corpus:
        small = gamma_small_cyclic(acting, relations)
        large = gamma_large_cyclic(acting, relations)
        small_again = gamma_small_cyclic(acting, small.preimage)
        large_again = gamma_large_cyclic(acting, large.preimage)
        rows.append({
            "small_radical": small_again.preimage.equals(small.preimage) is True,
            "large_radical": large_again.preimage.equals(large.preimage) is True,
            "stabilized": (small.stabilized and large.stabilized
                           and small_again.stabilized and large_again.stabilized),
        })
    return rows
