"""Seeded random-instance harness asserting the proposition suite.

Every generated ring is an artinian monomial truncation (each variable is
nilpotent by a rule), so every saturation stabilizes and the noetherian
forms of the propositions apply.
A violation therefore indicates an implementation bug, and each one carries
a script reproducing its instance.

The acting ideal is finitely generated, so the large torsion's preimage is
the small one's handle and the fairness report scans three modules.  No
check compares a large fact with its small twin; the checks that carry a
large name compare it with the base scans.
"""

from __future__ import annotations

import random

from .dsl import CheckStatement, Script, ideal_statement, ring_statement
from .ideals import IdealHandle, ideal_colon_ideal, ideal_sum
from .ring import Monomial, RewriteRule, RingPresentation, _Record
from .spectrum import assassin_scan, difference_variety, intersect_variety
from .torsion import centredness_flags, fairness_report, gamma_small_cyclic

DEFAULT_INSTANCES = 500
DEFAULT_SEED = 42


class HarnessInstance(_Record):
    __slots__ = ("index", "ring", "acting", "relations", "extension",
                 "between", "witness_bound")

    def __init__(self, index, ring, acting, relations, extension, between,
                 witness_bound):
        self.index = index
        self.ring = ring
        self.acting = acting
        self.relations = relations
        self.extension = extension  # contains relations
        self.between = between  # between acting and its radical
        # One past the largest normal degree.  The engine no longer reads it;
        # it stays because perfbench's workloads do, until ROADMAP item 1.
        self.witness_bound = witness_bound

    @property
    def script(self):
        """A script that rebuilds this instance and checks its fairness."""
        return instance_script(self)


class HarnessViolation(_Record):
    __slots__ = ("instance_index", "proposition", "detail", "script")

    def __init__(self, instance_index, proposition, detail, script):
        self.instance_index = instance_index
        self.proposition = proposition
        self.detail = detail
        self.script = script


class HarnessReport(_Record):
    __slots__ = ("seed", "instances", "checks_run", "violations")

    def __init__(self, seed, instances, checks_run, violations):
        self.seed = seed
        self.instances = instances
        self.checks_run = checks_run
        self.violations = violations

    @property
    def ok(self):
        return not self.violations


def instance_script(instance):
    return Script((
        ring_statement(instance.ring, "R"),
        ideal_statement(instance.acting, "a"),
        ideal_statement(instance.relations, "b"),
        ideal_statement(instance.extension, "c"),
        ideal_statement(instance.between, "a2"),
        CheckStatement("a", "b"),
    )).render()


def _random_monomial(rng, exponents, max_degree, min_degree):
    """Monomial with each exponent below the variable's truncation
    exponent, so it survives the power rules."""
    n = len(exponents)
    for _ in range(64):
        degree = rng.randint(min_degree, max_degree)
        acc = {}
        total = 0
        while total < degree:
            options = [v for v in range(n) if acc.get(v, 0) < exponents[v] - 1]
            if not options:
                break
            v = rng.choice(options)
            acc[v] = acc.get(v, 0) + 1
            total += 1
        if total >= min_degree:
            return Monomial(acc.items())
    return Monomial.variable(rng.randrange(n))


def random_instance(index, rng):
    n = rng.randint(2, 4)
    exponents = [rng.randint(2, 4) for _ in range(n)]
    rules = [RewriteRule(Monomial.variable(v, exponents[v]))
             for v in range(n)]
    seen = {rule.lhs for rule in rules}
    for _ in range(rng.randint(0, 2)):
        m = _random_monomial(rng, exponents, max_degree=4, min_degree=2)
        if m.degree >= 2 and m not in seen:
            rules.append(RewriteRule(m))
            seen.add(m)
    ring = RingPresentation(n, rules)

    def ideal_of(count, max_degree):
        return IdealHandle.from_monomials(ring, [
            _random_monomial(rng, exponents, max_degree, 1)
            for _ in range(count)])

    acting = ideal_of(rng.randint(1, 3), 3)
    if acting.is_zero:
        acting = IdealHandle.from_monomials(
            ring, [Monomial.variable(rng.randrange(n))])
    relations = ideal_of(rng.randint(1, 3), 4)
    extension = ideal_sum(relations, ideal_of(rng.randint(1, 2), 4))
    extras = [g.squarefree() for g in acting.monomial_generators()
              if rng.random() < 0.5]
    between = ideal_sum(
        acting, IdealHandle.from_monomials(ring, extras))
    # perfbench reads witness_bound, which the ring reads off its corners.
    witness_bound = ring.finite_basis_max_degree() + 1
    return HarnessInstance(
        index, ring, acting, relations, extension, between, witness_bound)


class _Checker:
    def __init__(self, instance):
        self.instance = instance
        self.violations = []
        self.count = 0

    def check(self, proposition, condition, detail=""):
        self.count += 1
        if not condition:
            self.violations.append(HarnessViolation(
                self.instance.index, proposition, detail,
                self.instance.script))


def check_instance(instance):
    """Run every per-instance proposition; returns (checks, violations,
    witness flags for the corpus-level closure assertion)."""
    a = instance.acting
    b = instance.relations
    c = instance.extension
    a2 = instance.between
    ck = _Checker(instance)

    report = fairness_report(a, b)
    small, large = report.small, report.large
    g = small.preimage
    ((base_ass, base_assf), (sub_ass, sub_assf),
     (quo_ass, quo_assf)) = report.scans

    ck.check("subfunctor-chain",
             all(g.contains_monomial(m) for m in b.monomial_generators()))

    meet_ass = frozenset(intersect_variety(base_ass.primes, a))
    meet_assf = frozenset(intersect_variety(base_assf.primes, a))
    diff_ass = frozenset(difference_variety(base_ass.primes, a))
    diff_assf = frozenset(difference_variety(base_assf.primes, a))

    ck.check("small-sub-ass-eq", sub_ass.prime_set == meet_ass)
    ck.check("small-sub-assf-sub", sub_assf.prime_set <= meet_assf)
    ck.check("small-quot-ass-sup", quo_ass.prime_set >= diff_ass)
    ck.check("small-quot-assf-sup", quo_assf.prime_set >= diff_assf)

    small_zero = small.is_zero_submodule
    large_zero = large.is_zero_submodule
    ck.check("vanishing-chain",
             (bool(meet_assf) or large_zero)
             and ((not small_zero) or not meet_ass))
    ck.check("whole-module-chain",
             (base_assf.prime_set <= meet_assf) == large.is_whole_module)
    ck.check("large-vanishing-iff", large_zero == (not meet_assf))

    ck.check("quot-large-avoids-variety",
             not intersect_variety(quo_ass.primes, a))

    ck.check("fairness-complete", report.complete)
    wf = report.verdict("weakly_fair")
    wq = report.verdict("weakly_quasifair")
    ck.check("weak-fair-implies-quasifair", (not wf) or wq)

    ck.check("noetherian-all-fair",
             report.all_hold and report.centred_witness_ok
             and report.half_centred_witness_ok,
             "verdicts %s" % (tuple(cmp.holds for cmp in report.comparisons),))

    small2 = gamma_small_cyclic(a2, b)
    sub2_assf = assassin_scan(small2.preimage, b)[1]
    wq2 = sub2_assf.prime_set == frozenset(
        intersect_variety(base_assf.primes, a2))
    ck.check("between-quasifair-implication", (not wq2) or wq)

    ck.check("zero-module-iff-empty-weak",
             b.is_unit == (not base_assf.prime_set))

    c_sub_ass, c_sub_assf = assassin_scan(c, b)
    c_quo_ass, c_quo_assf = assassin_scan(IdealHandle.unit(instance.ring), c)
    ck.check("exact-sequence-ass",
             c_sub_ass.prime_set <= base_ass.prime_set
             and base_ass.prime_set
             <= c_sub_ass.prime_set | c_quo_ass.prime_set)
    ck.check("exact-sequence-weak",
             c_sub_assf.prime_set <= base_assf.prime_set
             and base_assf.prime_set
             <= c_sub_assf.prime_set | c_quo_assf.prime_set)

    ann_sub = ideal_colon_ideal(b, c)
    ck.check("quotient-avoidance-ass",
             frozenset(difference_variety(c_quo_ass.primes, ann_sub))
             <= base_ass.prime_set)
    ck.check("quotient-avoidance-weak",
             frozenset(difference_variety(c_quo_assf.primes, ann_sub))
             <= base_assf.prime_set)

    # The saturation that gave g already found the least n with a^n * g
    # inside b (small.steps), so only whether it stabilized matters here.
    # The large preimage is g itself, so the same n kills it.
    if small.stabilized:
        if not intersect_variety(quo_ass.primes, a):
            ck.check("bounded-small-fair", report.verdict("fair"))
        if not intersect_variety(quo_assf.primes, a):
            ck.check("bounded-small-weak-fair",
                     report.verdict("fair") and wf)
        ck.check("bounded-large-fair", report.verdict("large_fair"))

    ck.check("small-torsion-radical",
             gamma_small_cyclic(a, g).preimage.equals(g) is True)

    a_sum = ideal_sum(a, a2)
    witness_flags = {
        "acting": report.centred_witness_ok and report.half_centred_witness_ok,
        "between": all(centredness_flags(a2, small2, base_assf)),
        "sum": all(centredness_flags(
            a_sum, gamma_small_cyclic(a_sum, b), base_assf)),
    }
    return ck.count, ck.violations, witness_flags


def proposition_harness(instances=DEFAULT_INSTANCES, seed=DEFAULT_SEED):
    rng = random.Random(seed)
    checks = 0
    violations = []
    flags = []
    for index in range(instances):
        instance = random_instance(index, rng)
        count, bad, witness_flags = check_instance(instance)
        checks += count
        violations.extend(bad)
        flags.append(witness_flags)
    if flags:
        checks += 1
        if (all(f["acting"] for f in flags)
                and all(f["between"] for f in flags)
                and not all(f["sum"] for f in flags)):
            violations.append(HarnessViolation(
                -1, "sum-centredness-closure",
                "acting and between witnesses all ok but a sum witness failed",
                ""))
    return HarnessReport(seed, instances, checks, tuple(violations))
