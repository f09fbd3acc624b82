"""Schematic infinite-variable families, truncation, and windowed claims.

Each family describes a ring presentation and named ideals parametrized by
a level N (variables X_0..X_N).  Limit statements about the infinite ring
are replaced by guarded finite claims evaluated per level; a claim bundle
passes when every claim holds at every scheduled level and its value is
stable across the trailing window.

The claims are built from a few probe shapes, none of which builds a power
of the acting ideal a:
- kill probe (_kills): a^p * X_i lies in the target, b or zero, for each
  (i, p): the least n with a^n * X_i inside the target, read off the
  target's staircase corners by ideals._power_kill_exponent, is at most p.
- escape probe (_escapes): a monomial m with a nonzero normal form and
  power_order(a, m) >= n, the most generators of a whose product divides
  m, certifies a^n != 0; m outside b certifies that a^n is not inside b.
  Both probes count generators of a with ideals._most_factors.
  nil40A and nil40C share the window probes X_n..X_{2n-1}.
- fresh-variable probe: non-vanishing of a^n * f in the limit ring is
  certified at a finite level by multiplying f, a normal monomial or a
  seeded _random_element, with powers of variables not occurring in f.
A monomial probe m * x is read from the ring's cached normal form of the
monomial product, not built as an Element product.  The four nil rings
come from one builder (_nil_ring); the nil40A relations are built directly
as their reduced basis.
"""

from __future__ import annotations

import random
import zlib
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
    _Record,
    check_local_confluence,
)

MAX_LEVEL = 15  # at most 16 variables
DEFAULT_LEVELS = tuple(range(4, 11))
DEFAULT_WINDOW = 3
DEFAULT_SEED = 42


class WindowedClaim(_Record):
    __slots__ = ("name", "description", "evaluate")

    def __init__(self, name, description, evaluate):
        self.name = name
        self.description = description
        self.evaluate = evaluate  # callable(ring, ideals, level, rng) -> bool

    def run(self, ring, ideals, level, rng):
        return bool(self.evaluate(ring, ideals, level, rng))


class FamilySpec(_Record):
    __slots__ = ("tag", "description", "build", "claims")

    def __init__(self, tag, description, build, claims):
        self.tag = tag
        self.description = description
        # callable(N) -> (RingPresentation, dict of IdealHandle)
        self.build = build
        self.claims = claims  # of WindowedClaim


class ClaimResult(_Record):
    __slots__ = ("name", "description", "values", "passed", "stable")

    def __init__(self, name, description, values, passed, stable):
        self.name = name
        self.description = description
        self.values = values  # of (level, bool)
        self.passed = passed  # every level true
        self.stable = stable  # last window values identical


class ExampleReport(_Record):
    __slots__ = ("tag", "levels", "window", "seed", "claims", "confluence_ok")

    def __init__(self, tag, levels, window, seed, claims, confluence_ok):
        self.tag = tag
        self.levels = levels
        self.window = window
        self.seed = seed
        self.claims = claims  # of ClaimResult
        self.confluence_ok = confluence_ok

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


def _product_of_vars(indices):
    acc = Monomial.one()
    for v in indices:
        acc = acc.mul(Monomial.variable(v))
    return acc


def _pair_products(n, vanishes):
    """X_i * X_j for i < j < n where vanishes(i, j), in lexicographic order."""
    return [Monomial.variable(i).mul(Monomial.variable(j))
            for i in range(n) for j in range(i + 1, n) if vanishes(i, j)]


def _nil_ring(level, index, vanishes=lambda i, j: False):
    """X_v^index(v) -> 0 for every variable, then X_i * X_j -> 0 for the
    pairs that vanish; the acting ideal is every variable."""
    n = level + 1
    rules = [RewriteRule(Monomial.variable(v, index(v))) for v in range(n)]
    rules += [RewriteRule(m) for m in _pair_products(n, vanishes)]
    ring = RingPresentation(n, rules)
    return ring, {"a": _variables_ideal(ring)}


def _kills(acting, target, pairs):
    """Kill probe: acting^p * X_i lies inside target for each (i, p), that
    is, the exact kill exponent of X_i is at most p (monomial mode)."""
    ring = target.ring
    for i, p in pairs:
        n = _power_kill_exponent(
            acting, IdealHandle.from_monomials(ring, [Monomial.variable(i)]),
            target)
        if n is None or n > p:
            return False
    return True


def _escapes(acting, probes, outside=None):
    """Escape probe: for each (n, m), m has a nonzero normal form and lies
    in acting^n, and, when the ideal outside is given, not in it."""
    ring = acting.ring
    return all(not ring.normal_form_monomial(m).is_zero
               and power_order(acting, m) >= n
               and (outside is None or not outside.contains_monomial(m))
               for n, m in probes)


def _window_probes(level):
    """(n, X_n..X_{2n-1}) for each window that fits in X_0..X_level."""
    return ((n, _product_of_vars(range(n, 2 * n)))
            for n in range(1, level + 1) if 2 * n - 1 <= level)


def _random_element(ring, rng, pool):
    """Up to three pool monomials, each with a coefficient drawn from
    1, -1 and 2."""
    picks = rng.sample(pool, min(3, len(pool)))
    return Element.from_terms(ring, [(m, rng.choice([1, -1, 2]))
                                     for m in picks])


def _idempotent(ring, monomials):
    nf = ring.normal_form_monomial
    return all(nf(m.mul(m)) == nf(m) for m in monomials)


def _certificate_holds(answer, probe, b):
    """The cofactors of a yes from ideal_membership times b's generators
    sum back to the probe."""
    total = Element.zero(probe.ring)
    for k, h in answer.certificate:
        total = total.add(b.generators[k].mul(h))
    return total == probe


# ---------------------------------------------------------------- nil40A

def _build_nil40A(level):
    ring, ideals = _nil_ring(level, lambda v: 2)
    # X_i times i other variables is a multiple of X_k * X_S, k the least
    # index of the product and S a k-subset of the indices above k; those
    # products are the reduced basis.
    n = level + 1
    ideals["b"] = IdealHandle.from_monomials(ring, [
        _product_of_vars((k,) + above)
        for k in range(n) for above in combinations(range(k + 1, n), k)])
    return ring, ideals


def _nil40A_probe_whole_ring(ring, ideals, level, rng):
    # a^n * 1 stays nonzero while fresh variables remain: the squarefree
    # product X_1..X_n lies in a^n and is a nonzero normal form.
    return _escapes(ideals["a"], ((n, _product_of_vars(range(1, n + 1)))
                                  for n in range(1, level)))


def _nil40A_generators_torsion(ring, ideals, level, rng):
    return _kills(ideals["a"], ideals["b"],
                  ((i, i) for i in range(0, max(level - 1, 0))))


def _nil40A_unit_not_torsion(ring, ideals, level, rng):
    # X_n..X_{2n-1} lies in a^n but escapes b, so a^n * 1 is not inside b.
    return _escapes(ideals["a"], _window_probes(level), ideals["b"])


def _nil40A_top_power_nonzero(ring, ideals, level, rng):
    return _escapes(ideals["a"],
                    [(level + 1, _product_of_vars(range(0, level + 1)))])


# ---------------------------------------------------------------- nil40B

def _build_nil40B(level):
    return _nil_ring(level, lambda v: v + 1, lambda i, j: True)


def _nil40B_generators_torsion(ring, ideals, level, rng):
    # a^i kills X_i: mixed products vanish by the pair rules and the pure
    # power by the X_i^{i+1} rule.
    return _kills(ideals["a"], IdealHandle.zero(ring),
                  ((i, i) for i in range(1, level + 1)))


def _nil40B_unit_not_torsion(ring, ideals, level, rng):
    return _escapes(ideals["a"], ((n, Monomial.variable(n, n))
                                  for n in range(1, level + 1)))


# ---------------------------------------------------------------- nil40C

def _build_nil40C(level):
    return _nil_ring(level, lambda v: 2, lambda i, j: 2 * i < j)


def _nil40C_generators_torsion(ring, ideals, level, rng):
    return _kills(ideals["a"], IdealHandle.zero(ring),
                  ((i, i + 1) for i in range(0, level + 1)))


def _nil40C_unit_not_torsion(ring, ideals, level, rng):
    return _escapes(ideals["a"], _window_probes(level))


# ---------------------------------------------------------------- nil40D

def _build_nil40D(level):
    ring, ideals = _nil_ring(level, lambda v: v + 1)
    ideals["b"] = IdealHandle.from_monomials(
        ring, _pair_products(level + 1, lambda i, j: True))
    return ring, ideals


def _nil40D_fresh_power_probe(ring, ideals, level, rng):
    # For nonzero f on variables below N, X_N^n * f stays nonzero for
    # n <= N.  Tested on the extremal normal monomial and random elements.
    top = level
    heavy = Monomial(tuple((v, v) for v in range(1, top)))
    samples = [Element.from_monomial(ring, heavy), Element.constant(ring, 1)]
    pool = [m for m in ring.normal_monomials_up_to(3)
            if m.max_var() < top]
    for _ in range(3):
        f = _random_element(ring, rng, pool)
        if not f.is_zero:
            samples.append(f)
    powers = (Element.from_monomial(ring, Monomial.variable(top, n))
              for n in range(1, top + 1))
    return all(not f.mul(power).is_zero for power in powers for f in samples)


def _nil40D_generators_torsion(ring, ideals, level, rng):
    return _kills(ideals["a"], ideals["b"],
                  ((i, i) for i in range(1, level + 1)))


def _nil40D_unit_not_torsion(ring, ideals, level, rng):
    for n in range(2, level + 1):
        # X_n^n is a product of n acting generators, hence lies in a^n.
        probe = Monomial.variable(n, n)
        if (ring.normal_form_monomial(probe).is_zero
                or ideals["b"].contains_monomial(probe)):
            return False
    # Directly: 1 is not in (b : a^2), that is, a^2 is not inside b.
    n = _power_kill_exponent(ideals["a"], IdealHandle.unit(ring), ideals["b"])
    return level < 2 or n is None or n > 2


# ---------------------------------------------------------------- idem50A

def _build_idem50A(level):
    n = level + 1
    ring = RingPresentation(n, [
        RewriteRule(Monomial.variable(v, 2), (1, Monomial.variable(v)))
        for v in range(n)])
    return ring, {"a": _variables_ideal(ring)}


def _idem50A_generators_idempotent(ring, ideals, level, rng):
    return _idempotent(ring, (Monomial.variable(v)
                              for v in range(ring.num_vars)))


def _idem50A_low_degree_idempotent(ring, ideals, level, rng):
    return _idempotent(ring, ring.normal_monomials_up_to(3))


# ---------------------------------------------------------------- idem50B

def _build_idem50B(level):
    n = level + 1
    rules = [RewriteRule(Monomial.variable(v, 2),
                         (1, Monomial.variable(v + 1)))
             for v in range(n - 1)]
    ring = RingPresentation(n, rules)
    return ring, {"a": _variables_ideal(ring)}


def _idem50B_power_collapse(ring, ideals, level, rng):
    return all(ring.normal_form_monomial(Monomial.variable(0, 2 ** k))
               == Element.from_monomial(ring, Monomial.variable(k))
               for k in range(0, min(level, 3) + 1))


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
    """Exact membership of a normal monomial X_0^e * X_S in the relations
    ideal: S is nonempty and e >= min(S), the variable of the second pair."""
    p = m.pairs
    return len(p) > 1 and p[0][0] == 0 and p[1][0] <= p[0][1]


def _idem50C_element_member(f):
    """The relations ideal is spanned by monomials, so an element belongs
    exactly when all its monomials do."""
    # A loop, not a generator: a replication round calls this ~3,800 times.
    for m in f.terms:
        if not _idem50C_member(m):
            return False
    return True


def _idem50C_membership_cross_check(ring, ideals, level, rng):
    b = ideals["b"]
    for m in ring.normal_monomials_up_to(4):
        probe = Element.from_monomial(ring, m)
        answer = ideal_membership(probe, b)
        if _idem50C_member(m) != answer.is_yes or (
                answer.is_yes and not _certificate_holds(answer, probe, b)):
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
        f = _random_element(ring, rng, pool)
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
    if any(_idem50C_member(m.mul(x0)) and not _idem50C_split(m)[1]
           for m in ring.normal_monomials_up_to(4)):
        return False
    col = ideal_colon(b, Element.from_monomial(ring, x0))
    return col.complete and all(_idem50C_split(m)[1]
                                for g in col.generators
                                for m in g.monomials())


def _idem50C_complement_kills(ring, ideals, level, rng):
    one = Element.constant(ring, 1)
    xs = (Element.from_monomial(ring, Monomial.variable(v))
          for v in range(1, ring.num_vars))
    return all(x.mul(one.sub(x)).is_zero for x in xs)


def _idem50C_deep_generator_member(ring, ideals, level, rng):
    if level < 3:
        return True
    probe = Element.from_monomial(
        ring, Monomial.variable(0, 3).mul(Monomial.variable(3)))
    answer = ideal_membership(probe, ideals["b"])
    return answer.is_yes and _certificate_holds(answer, probe, ideals["b"])


FAMILIES = {
    "nil40A": FamilySpec(
        "nil40A",
        "square-zero variables; relations collect each variable times the "
        "matching power of the variable ideal",
        _build_nil40A,
        (
            WindowedClaim("whole-ring-torsion-vanishes",
                          "squarefree probes keep a^n away from zero below "
                          "the truncation boundary",
                          _nil40A_probe_whole_ring),
            WindowedClaim("generators-are-quotient-torsion",
                          "a^i * X_i falls into the relations ideal",
                          _nil40A_generators_torsion),
            WindowedClaim("unit-stays-outside-quotient-torsion",
                          "the shifted squarefree probe lies in a^n but not "
                          "in the relations ideal",
                          _nil40A_unit_not_torsion),
            WindowedClaim("top-power-nonzero",
                          "the full variable product certifies a^(N+1) != 0",
                          _nil40A_top_power_nonzero),
        )),
    "nil40B": FamilySpec(
        "nil40B",
        "pairwise products vanish and each variable is nilpotent of index "
        "one more than its position",
        _build_nil40B,
        (
            WindowedClaim("generators-are-torsion",
                          "a^i kills X_i",
                          _nil40B_generators_torsion),
            WindowedClaim("unit-stays-outside-torsion",
                          "X_n^n lies in a^n and is nonzero",
                          _nil40B_unit_not_torsion),
        )),
    "nil40C": FamilySpec(
        "nil40C",
        "square-zero variables with far-apart products vanishing",
        _build_nil40C,
        (
            WindowedClaim("generators-are-torsion",
                          "a^(i+1) kills X_i",
                          _nil40C_generators_torsion),
            WindowedClaim("unit-stays-outside-torsion",
                          "the window product X_n..X_{2n-1} lies in a^n "
                          "and is nonzero",
                          _nil40C_unit_not_torsion),
        )),
    "nil40D": FamilySpec(
        "nil40D",
        "each variable nilpotent of index one more than its position; "
        "relations are the mixed products",
        _build_nil40D,
        (
            WindowedClaim("fresh-power-probe",
                          "multiplying by powers of the top variable keeps "
                          "bounded elements nonzero",
                          _nil40D_fresh_power_probe),
            WindowedClaim("generators-are-quotient-torsion",
                          "a^i * X_i falls into the relations ideal",
                          _nil40D_generators_torsion),
            WindowedClaim("unit-stays-outside-quotient-torsion",
                          "X_n^n lies in a^n but not in the relations "
                          "ideal, and 1 is not in (b : a^2)",
                          _nil40D_unit_not_torsion),
        )),
    "idem50A": FamilySpec(
        "idem50A",
        "all variables idempotent",
        _build_idem50A,
        (
            WindowedClaim("generators-idempotent",
                          "every variable squares to itself",
                          _idem50A_generators_idempotent),
            WindowedClaim("low-degree-idempotent",
                          "every normal monomial up to degree 3 is idempotent",
                          _idem50A_low_degree_idempotent),
        )),
    "idem50B": FamilySpec(
        "idem50B",
        "each square rewrites to the next variable",
        _build_idem50B,
        (
            WindowedClaim("power-collapse",
                          "X_0^(2^k) normalizes to X_k",
                          _idem50B_power_collapse),
        )),
    "idem50C": FamilySpec(
        "idem50C",
        "one free variable, the rest idempotent; relations pair rising "
        "powers of the free variable with each idempotent",
        _build_idem50C,
        (
            WindowedClaim("membership-cross-check",
                          "the exact membership rule for the relations ideal "
                          "matches the engine's membership decision",
                          _idem50C_membership_cross_check),
            WindowedClaim("colon-by-acting-trivial",
                          "no bounded element sends the whole acting ideal "
                          "into the relations ideal (fresh-variable probe)",
                          _idem50C_colon_by_acting_trivial),
            WindowedClaim("colon-by-free-var-inside-acting",
                          "(b : X_0) stays inside the acting ideal",
                          _idem50C_colon_by_free_var_in_acting),
            WindowedClaim("complement-kills",
                          "X_i * (1 - X_i) = 0 for idempotent variables",
                          _idem50C_complement_kills),
            WindowedClaim("deep-generator-member",
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
    return ExampleReport(tag, levels, window, seed, tuple(claims),
                         confluence_ok)

