"""Schematic infinite-variable families, truncation, and windowed claims.

Each family describes a ring presentation and named ideals parametrized by
a level N (variables X_0..X_N).  Limit statements about the infinite ring
are replaced by guarded finite claims evaluated per level; a claim bundle
passes when every claim holds at every scheduled level and its value is
stable across the trailing window.

Probe device used throughout: non-vanishing of a^n * f in the limit ring is
certified at a finite level by multiplying f with powers of variables not
occurring in f, which keeps the product in normal form.

A monomial probe m * x is read from the ring's cached normal form of the
monomial product, not built as an Element product.  Each evaluator computes
its level-invariant facts once per call (the monomial list, which of them
lie outside an ideal, the random-element pool) and reuses them across its
probe variables.

No claim builds a power of the acting ideal.  "m lies in a^n" is
power_order(a, m) >= n, the most generators of a whose product divides m;
"a^n * X_i lies in b" (or is zero) is a walk over the products of a's
generators that keep X_i outside b, through ideals._power_kill_exponent.
The nil40A relations are built directly as their reduced basis.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass
from itertools import combinations

from .errors import InvalidSchedule, NonConfluent, UnknownTag
from .ideals import (
    IdealHandle,
    _power_kill_exponent,
    ideal_colon,
    ideal_membership,
    power_order,
)
from .ring import (
    Element,
    Monomial,
    RewriteRule,
    RingPresentation,
    check_local_confluence,
)

MAX_LEVEL = 15  # at most 16 variables
DEFAULT_LEVELS = tuple(range(4, 11))
DEFAULT_WINDOW = 3
DEFAULT_SEED = 42


@dataclass(frozen=True)
class WindowedClaim:
    name: str
    description: str
    evaluate: object  # callable(ring, ideals, level, rng) -> bool

    def run(self, ring, ideals, level, rng):
        return bool(self.evaluate(ring, ideals, level, rng))


@dataclass(frozen=True)
class FamilySpec:
    tag: str
    description: str
    build: object  # callable(N) -> (RingPresentation, dict of IdealHandle)
    claims: tuple  # of WindowedClaim


@dataclass(frozen=True)
class ClaimResult:
    name: str
    description: str
    values: tuple  # of (level, bool)
    passed: bool  # every level true
    stable: bool  # last window values identical


@dataclass(frozen=True)
class ExampleReport:
    tag: str
    levels: tuple
    window: int
    seed: int
    claims: tuple  # of ClaimResult
    confluence_ok: bool
    elapsed_seconds: float

    @property
    def all_pass(self):
        return self.confluence_ok and all(
            c.passed and c.stable for c in self.claims)


def _check_level(level):
    if level < 0 or level > MAX_LEVEL:
        raise InvalidSchedule("level %d outside 0..%d" % (level, MAX_LEVEL))


def check_schedule(levels, window):
    """Reject a replication schedule before any level is instantiated:
    instantiation is costly.  The window must fit inside the schedule."""
    if window < 2:
        raise InvalidSchedule("window must be at least 2")
    if not levels:
        raise InvalidSchedule("empty level schedule")
    if window > len(levels):
        raise InvalidSchedule("window %d is longer than the %d scheduled "
                              "levels" % (window, len(levels)))
    if list(levels) != sorted(set(levels)):
        raise InvalidSchedule("levels must be strictly increasing")
    for level in levels:
        _check_level(level)


def instantiate(family, level):
    """Build the family at this level and certify confluence."""
    _check_level(level)
    ring, ideals = family.build(level)
    failures = check_local_confluence(ring)
    if failures:
        raise NonConfluent(
            "family %s at level %d has %d non-joinable critical pairs"
            % (family.tag, level, len(failures)))
    return ring, ideals


def _variables_ideal(ring, start=0):
    return IdealHandle.from_monomials(ring, [
        Monomial.variable(v) for v in range(start, ring.num_vars)])


def _monomial_elem(ring, m):
    return Element.from_monomial(ring, m)


def _product_of_vars(indices):
    acc = Monomial.one()
    for v in indices:
        acc = acc.mul(Monomial.variable(v))
    return acc


def _kills_variable(acting, power, v, target):
    """acting^power * X_v lies inside target (monomial mode)."""
    module = IdealHandle.from_monomials(target.ring, [Monomial.variable(v)])
    return _power_kill_exponent(acting, module, target, power) is not None


# ---------------------------------------------------------------- nil40A

def _build_nil40A(level):
    n = level + 1
    ring = RingPresentation(n, [
        RewriteRule(Monomial.variable(v, 2)) for v in range(n)])
    acting = _variables_ideal(ring)
    # X_i times i other variables is a multiple of X_k * X_S, k the least
    # index of the product and S a k-subset of the indices above k; those
    # products are the reduced basis.
    relations = IdealHandle.from_monomials(ring, [
        _product_of_vars((k,) + above)
        for k in range(n) for above in combinations(range(k + 1, n), k)])
    return ring, {"a": acting, "b": relations}


def _nil40A_probe_whole_ring(ring, ideals, level, rng):
    # a^n * 1 stays nonzero while fresh variables remain: the squarefree
    # product X_1..X_n lies in a^n and is a nonzero normal form.
    for n in range(1, level):
        probe = _product_of_vars(range(1, n + 1))
        if ring.normal_form_monomial(probe).is_zero:
            return False
        if power_order(ideals["a"], probe) < n:
            return False
    return True


def _nil40A_generators_torsion(ring, ideals, level, rng):
    return all(_kills_variable(ideals["a"], i, i, ideals["b"])
               for i in range(0, max(level - 1, 0)))


def _nil40A_unit_not_torsion(ring, ideals, level, rng):
    # X_n..X_{2n-1} lies in a^n but escapes b, so a^n * 1 is not inside b.
    ok = True
    for n in range(1, level + 1):
        if 2 * n - 1 > level:
            break
        probe = _product_of_vars(range(n, 2 * n))
        ok = ok and not ring.normal_form_monomial(probe).is_zero
        ok = ok and power_order(ideals["a"], probe) >= n
        ok = ok and not ideals["b"].contains_monomial(probe)
    return ok


def _nil40A_top_power_nonzero(ring, ideals, level, rng):
    probe = _product_of_vars(range(0, level + 1))
    return (not ring.normal_form_monomial(probe).is_zero
            and power_order(ideals["a"], probe) >= level + 1)


# ---------------------------------------------------------------- nil40B

def _build_nil40B(level):
    n = level + 1
    rules = [RewriteRule(Monomial.variable(v, v + 1)) for v in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rules.append(RewriteRule(
                Monomial.variable(i).mul(Monomial.variable(j))))
    ring = RingPresentation(n, rules)
    return ring, {"a": _variables_ideal(ring)}


def _nil40B_generators_torsion(ring, ideals, level, rng):
    # a^i kills X_i: mixed products vanish by the pair rules and the pure
    # power by the X_i^{i+1} rule.
    zero = IdealHandle.zero(ring)
    return all(_kills_variable(ideals["a"], i, i, zero)
               for i in range(1, level + 1))


def _nil40B_unit_not_torsion(ring, ideals, level, rng):
    for n in range(1, level + 1):
        probe = Monomial.variable(n, n)
        if ring.normal_form_monomial(probe).is_zero:
            return False
        if power_order(ideals["a"], probe) < n:
            return False
    return True


# ---------------------------------------------------------------- nil40C

def _build_nil40C(level):
    n = level + 1
    rules = [RewriteRule(Monomial.variable(v, 2)) for v in range(n)]
    for i in range(n):
        for j in range(n):
            if 2 * i < j:
                rules.append(RewriteRule(
                    Monomial.variable(i).mul(Monomial.variable(j))))
    ring = RingPresentation(n, rules)
    return ring, {"a": _variables_ideal(ring)}


def _nil40C_generators_torsion(ring, ideals, level, rng):
    zero = IdealHandle.zero(ring)
    return all(_kills_variable(ideals["a"], i + 1, i, zero)
               for i in range(0, level + 1))


def _nil40C_unit_not_torsion(ring, ideals, level, rng):
    for n in range(1, level + 1):
        if 2 * n - 1 > level:
            break
        probe = _product_of_vars(range(n, 2 * n))
        if ring.normal_form_monomial(probe).is_zero:
            return False
        if power_order(ideals["a"], probe) < n:
            return False
    return True


# ---------------------------------------------------------------- nil40D

def _build_nil40D(level):
    n = level + 1
    rules = [RewriteRule(Monomial.variable(v, v + 1)) for v in range(n)]
    ring = RingPresentation(n, rules)
    acting = _variables_ideal(ring)
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            gens.append(Monomial.variable(i).mul(Monomial.variable(j)))
    relations = IdealHandle.from_monomials(ring, gens)
    return ring, {"a": acting, "b": relations}


def _nil40D_fresh_power_probe(ring, ideals, level, rng):
    # For nonzero f on variables below N, X_N^n * f stays nonzero for
    # n <= N.  Tested on the extremal normal monomial and random elements.
    top = level
    heavy = Monomial(tuple((v, v) for v in range(1, top)))
    samples = [Element.from_monomial(ring, heavy), Element.constant(ring, 1)]
    pool = [m for m in ring.normal_monomials_up_to(3)
            if m.max_var() < top]
    for _ in range(3):
        picks = rng.sample(pool, min(3, len(pool)))
        f = Element.zero(ring)
        for m in picks:
            f = f.add(Element.from_monomial(ring, m, rng.choice([1, -1, 2])))
        if not f.is_zero:
            samples.append(f)
    for n in range(1, top + 1):
        power = Element.from_monomial(ring, Monomial.variable(top, n))
        for f in samples:
            if f.mul(power).is_zero:
                return False
    return True


def _nil40D_generators_torsion(ring, ideals, level, rng):
    return all(_kills_variable(ideals["a"], i, i, ideals["b"])
               for i in range(1, level + 1))


def _nil40D_unit_not_torsion(ring, ideals, level, rng):
    if level < 2:
        return True
    for n in range(2, level + 1):
        # X_n^n is a product of n acting generators, hence lies in a^n.
        probe = Monomial.variable(n, n)
        if ring.normal_form_monomial(probe).is_zero:
            return False
        if ideals["b"].contains_monomial(probe):
            return False
    # Directly: 1 is not in (b : a^2), that is, a^2 is not inside b.
    unit = IdealHandle.unit(ring)
    return _power_kill_exponent(ideals["a"], unit, ideals["b"], 2) is None


# ---------------------------------------------------------------- idem50A

def _build_idem50A(level):
    n = level + 1
    ring = RingPresentation(n, [
        RewriteRule(Monomial.variable(v, 2), (1, Monomial.variable(v)))
        for v in range(n)])
    return ring, {"a": _variables_ideal(ring)}


def _idem50A_generators_idempotent(ring, ideals, level, rng):
    for v in range(ring.num_vars):
        x = Monomial.variable(v)
        if ring.normal_form_monomial(x.mul(x)) != ring.normal_form_monomial(x):
            return False
    return True


def _idem50A_low_degree_idempotent(ring, ideals, level, rng):
    for m in ring.normal_monomials_up_to(3):
        if ring.normal_form_monomial(m.mul(m)) != ring.normal_form_monomial(m):
            return False
    return True


# ---------------------------------------------------------------- idem50B

def _build_idem50B(level):
    n = level + 1
    rules = [RewriteRule(Monomial.variable(v, 2),
                         (1, Monomial.variable(v + 1)))
             for v in range(n - 1)]
    ring = RingPresentation(n, rules)
    return ring, {"a": _variables_ideal(ring)}


def _idem50B_power_collapse(ring, ideals, level, rng):
    for k in range(0, min(level, 3) + 1):
        got = ring.normal_form_monomial(Monomial.variable(0, 2 ** k))
        want = Element.from_monomial(ring, Monomial.variable(k))
        if got != want:
            return False
    return True


# ---------------------------------------------------------------- idem50C

def _build_idem50C(level):
    n = level + 1
    rules = [RewriteRule(Monomial.variable(v, 2), (1, Monomial.variable(v)))
             for v in range(1, n)]
    ring = RingPresentation(n, rules)
    acting = _variables_ideal(ring, start=1)
    relations = IdealHandle(ring, [
        Element.from_monomial(
            ring, Monomial.variable(0, i).mul(Monomial.variable(i)))
        for i in range(1, n)])
    return ring, {"a": acting, "b": relations}


_FREE = frozenset((0,))


def _idem50C_split(m):
    """(free-variable exponent, idempotent support) of a normal monomial."""
    e = m.exponent(0)
    return e, (m.support - _FREE if e else m.support)


def _idem50C_member(m):
    """Exact membership of a normal monomial in the relations ideal:
    X_0^e * X_S lies in it iff S is nonempty and e >= min(S)."""
    e, s = _idem50C_split(m)
    return bool(s) and e >= min(s)


def _idem50C_element_member(f):
    """The relations ideal is spanned by monomials, so an element belongs
    exactly when all its monomials do."""
    return all(_idem50C_member(m) for m in f.terms)


def _idem50C_membership_cross_check(ring, ideals, level, rng):
    b = ideals["b"]
    for m in ring.normal_monomials_up_to(4):
        probe = _monomial_elem(ring, m)
        engine = ideal_membership(probe, b)
        if _idem50C_member(m) != engine.is_yes:
            return False
        if engine.is_yes:
            total = Element.zero(ring)
            for k, h in engine.certificate:
                total = total.add(b.generators[k].mul(h))
            if total != probe:
                return False
    return True


def _idem50C_colon_by_acting_trivial(ring, ideals, level, rng):
    # Windowed form of "(b : a) = 0": any f outside b with bounded
    # free-variable degree p multiplies out of b by the fresh X_{p+1},
    # so no bounded f annihilates a into b.
    top = ring.num_vars - 1
    low = ring.normal_monomials_up_to(3)
    outside = [(m.exponent(0), m) for m in low if not _idem50C_member(m)]
    for p in range(0, top):
        fresh = Monomial.variable(p + 1)
        for e, m in outside:
            if e <= p and _idem50C_element_member(
                    ring.normal_form_monomial(m.mul(fresh))):
                return False
    # Random general elements with a fresh multiplier beyond their span.
    pool = [m for m in low if m.max_var() < top and m.exponent(0) < top]
    for _ in range(5):
        picks = rng.sample(pool, min(3, len(pool)))
        f = Element.zero(ring)
        for m in picks:
            f = f.add(Element.from_monomial(ring, m, rng.choice([1, -1, 2])))
        if f.is_zero or _idem50C_element_member(f):
            continue
        q = 1 + max(max(m.max_var() for m in f.terms), 0,
                    max(m.exponent(0) for m in f.terms))
        if q > top:
            continue
        shifted = f.mul(Element.from_monomial(ring, Monomial.variable(q)))
        if _idem50C_element_member(shifted):
            return False
    return True


def _idem50C_colon_by_free_var_in_acting(ring, ideals, level, rng):
    # Every bounded-degree element of (b : X_0) lies in a: monomials there
    # never have empty idempotent support.  Checked twice: by the exact
    # membership rule, and on the generators of the engine's exact colon.
    b = ideals["b"]
    x0 = Monomial.variable(0)
    for m in ring.normal_monomials_up_to(4):
        if _idem50C_member(m.mul(x0)):
            _, s = _idem50C_split(m)
            if not s:
                return False
    col = ideal_colon(b, Element.from_monomial(ring, x0))
    if not col.complete:
        return False
    for g in col.generators:
        for m in g.monomials():
            _, s = _idem50C_split(m)
            if not s:
                return False
    return True


def _idem50C_complement_kills(ring, ideals, level, rng):
    one = Element.constant(ring, 1)
    for v in range(1, ring.num_vars):
        x = Element.from_monomial(ring, Monomial.variable(v))
        if not x.mul(one.sub(x)).is_zero:
            return False
    return True


def _idem50C_deep_generator_member(ring, ideals, level, rng):
    if level < 3:
        return True
    probe = Monomial.variable(0, 3).mul(Monomial.variable(3))
    answer = ideal_membership(_monomial_elem(ring, probe), ideals["b"])
    if not answer.is_yes:
        return False
    total = Element.zero(ring)
    for k, h in answer.certificate:
        total = total.add(ideals["b"].generators[k].mul(h))
    return total == _monomial_elem(ring, probe)


def _claim(name, description, evaluate):
    return WindowedClaim(name, description, evaluate)


FAMILIES = {
    "nil40A": FamilySpec(
        "nil40A",
        "square-zero variables; relations collect each variable times the "
        "matching power of the variable ideal",
        _build_nil40A,
        (
            _claim("whole-ring-torsion-vanishes",
                   "squarefree probes keep a^n away from zero below the "
                   "truncation boundary",
                   _nil40A_probe_whole_ring),
            _claim("generators-are-quotient-torsion",
                   "a^i * X_i falls into the relations ideal",
                   _nil40A_generators_torsion),
            _claim("unit-stays-outside-quotient-torsion",
                   "the shifted squarefree probe lies in a^n but not in "
                   "the relations ideal",
                   _nil40A_unit_not_torsion),
            _claim("top-power-nonzero",
                   "the full variable product certifies a^(N+1) != 0",
                   _nil40A_top_power_nonzero),
        )),
    "nil40B": FamilySpec(
        "nil40B",
        "pairwise products vanish and each variable is nilpotent of index "
        "one more than its position",
        _build_nil40B,
        (
            _claim("generators-are-torsion",
                   "a^i kills X_i",
                   _nil40B_generators_torsion),
            _claim("unit-stays-outside-torsion",
                   "X_n^n lies in a^n and is nonzero",
                   _nil40B_unit_not_torsion),
        )),
    "nil40C": FamilySpec(
        "nil40C",
        "square-zero variables with far-apart products vanishing",
        _build_nil40C,
        (
            _claim("generators-are-torsion",
                   "a^(i+1) kills X_i",
                   _nil40C_generators_torsion),
            _claim("unit-stays-outside-torsion",
                   "the window product X_n..X_{2n-1} lies in a^n and is "
                   "nonzero",
                   _nil40C_unit_not_torsion),
        )),
    "nil40D": FamilySpec(
        "nil40D",
        "each variable nilpotent of index one more than its position; "
        "relations are the mixed products",
        _build_nil40D,
        (
            _claim("fresh-power-probe",
                   "multiplying by powers of the top variable keeps "
                   "bounded elements nonzero",
                   _nil40D_fresh_power_probe),
            _claim("generators-are-quotient-torsion",
                   "a^i * X_i falls into the relations ideal",
                   _nil40D_generators_torsion),
            _claim("unit-stays-outside-quotient-torsion",
                   "X_n^n lies in a^n but not in the relations ideal, and "
                   "1 is not in (b : a^2)",
                   _nil40D_unit_not_torsion),
        )),
    "idem50A": FamilySpec(
        "idem50A",
        "all variables idempotent",
        _build_idem50A,
        (
            _claim("generators-idempotent",
                   "every variable squares to itself",
                   _idem50A_generators_idempotent),
            _claim("low-degree-idempotent",
                   "every normal monomial up to degree 3 is idempotent",
                   _idem50A_low_degree_idempotent),
        )),
    "idem50B": FamilySpec(
        "idem50B",
        "each square rewrites to the next variable",
        _build_idem50B,
        (
            _claim("power-collapse",
                   "X_0^(2^k) normalizes to X_k",
                   _idem50B_power_collapse),
        )),
    "idem50C": FamilySpec(
        "idem50C",
        "one free variable, the rest idempotent; relations pair rising "
        "powers of the free variable with each idempotent",
        _build_idem50C,
        (
            _claim("membership-cross-check",
                   "the exact membership rule for the relations ideal "
                   "matches the engine's membership decision",
                   _idem50C_membership_cross_check),
            _claim("colon-by-acting-trivial",
                   "no bounded element sends the whole acting ideal into "
                   "the relations ideal (fresh-variable probe)",
                   _idem50C_colon_by_acting_trivial),
            _claim("colon-by-free-var-inside-acting",
                   "(b : X_0) stays inside the acting ideal",
                   _idem50C_colon_by_free_var_in_acting),
            _claim("complement-kills",
                   "X_i * (1 - X_i) = 0 for idempotent variables",
                   _idem50C_complement_kills),
            _claim("deep-generator-member",
                   "X_0^3*X_3 belongs to the relations ideal with a "
                   "verifiable certificate",
                   _idem50C_deep_generator_member),
        )),
}


def family_tags():
    return sorted(FAMILIES)


def get_family(tag):
    family = FAMILIES.get(tag)
    if family is None:
        raise UnknownTag("unknown example tag %r; known: %s"
                         % (tag, ", ".join(family_tags())))
    return family


def _claim_rng(seed, tag, name, level):
    token = "%s:%s:%d" % (tag, name, level)
    return random.Random(seed * 1000003 + zlib.crc32(token.encode()))


def replicate_example(tag, levels=DEFAULT_LEVELS, window=DEFAULT_WINDOW,
                      seed=DEFAULT_SEED):
    """Evaluate the family's claim bundle over the level schedule."""
    family = get_family(tag)
    levels = tuple(levels)
    check_schedule(levels, window)
    start = time.perf_counter()
    instantiated = []
    confluence_ok = True
    for level in levels:
        try:
            ring, ideals = instantiate(family, level)
        except NonConfluent:
            confluence_ok = False
            ring, ideals = family.build(level)
        instantiated.append((level, ring, ideals))
    claims = []
    for claim in family.claims:
        values = []
        for level, ring, ideals in instantiated:
            rng = _claim_rng(seed, tag, claim.name, level)
            values.append((level, claim.run(ring, ideals, level, rng)))
        passed = all(v for _, v in values)
        tail = [v for _, v in values[-window:]]
        stable = len(set(tail)) <= 1
        claims.append(ClaimResult(
            claim.name, claim.description, tuple(values), passed, stable))
    elapsed = time.perf_counter() - start
    return ExampleReport(tag, levels, window, seed, tuple(claims),
                         confluence_ok, elapsed)

