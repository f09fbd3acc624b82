"""Brute-force oracles for the optimized ideal and assassin computations.

Every oracle here decides its question by direct enumeration against the
definitions, avoiding the algorithms under test: no lifted-basis quotients,
no transversal enumeration, no reduced-basis comparisons, no Groebner
completion.  They are deliberately slow and meant for small instances.
Nothing here imports the ideal, spectrum, torsion, family or harness
modules.

The monomial-mode oracles (colon, saturation, radical, minimal primes and
both assassins) read only ring.rules, ring.num_vars and the ideals'
generators, and call no engine method.  Every rule rewrites to zero, so a
monomial lies in an ideal exactly when a rule lhs or a generator divides
it.  They decide this on exponent vectors packed into ints (_Codes): each
variable owns a WIDTH-bit field with a guard bit above it, so a product is
one addition and a divisibility test one subtraction.  A call whose degree
or exponent could pass a field raises ValueError; nothing carries.  The
general-mode membership oracle and exhaustive_normal_forms read the same
and rewrite on the same codes (_Rewriting): a rule step subtracts the lhs
code and adds the rhs code.

Four facts are kept, each for the last input only: the ring's
(_ring_probes), with its normal monomials and primality probes; the
monomials outside the last ideal asked about (_outside); the witness
annihilators of the last module (_witness_annihilators), which both
assassin oracles read; and the rewriting of the last ring (_rewriting).
A test that needs cold caches clears them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .errors import NonConfluent, RingMismatch
from .ring import Element, Monomial, grlex_key

# The exponent bits of a variable's field in a code, below its guard bit.
WIDTH = 15


def _solve_exact(columns, target):
    """Solve sum x_i * columns[i] = target over the rationals.

    Columns and target are sparse vectors keyed by monomial.  Returns one
    solution (free variables set to zero) or None.
    """
    pivots = {}  # leading key -> (reduced column, combo over original columns)

    def reduce(vec, combo):
        # Eliminating at a pivot's lead key only introduces grlex-larger
        # keys, so always cancelling the smallest applicable key terminates.
        vec = {k: v for k, v in vec.items() if v}
        while True:
            applicable = [k for k in vec if k in pivots]
            if not applicable:
                return vec, combo
            key = min(applicable, key=grlex_key)
            pcol, pcombo = pivots[key]
            factor = Fraction(vec[key]) / pcol[key]
            for kk, vv in pcol.items():
                vec[kk] = vec.get(kk, 0) - factor * vv
            for idx, vv in pcombo.items():
                combo[idx] = combo.get(idx, 0) - factor * vv
            vec = {k: v for k, v in vec.items() if v}

    for idx, col in enumerate(columns):
        vec, combo = reduce(col, {idx: Fraction(1)})
        if vec:
            lead = min(vec, key=grlex_key)
            pivots[lead] = (vec, combo)
    vec, combo = reduce(target, {})
    if vec:
        return None
    return [-combo.get(i, Fraction(0)) for i in range(len(columns))]


def brute_force_membership(f, ideal, degree_bound):
    """A certificate ((generator index, multiplier), ...) with
    sum g_k * h_k = f, every multiplier a combination of monomials (normal
    or not) of degree up to the bound, or None when there is none.

    Exact Gaussian elimination over the rationals on the products of the
    generators with every such monomial, so a None reads "no certificate up
    to this bound", never a hard no.  Each product is rewritten with
    ring.rules on codes (_Rewriting), as exhaustive_normal_forms rewrites;
    NonConfluent when two strategies reach two normal forms.
    """
    ring = f.ring
    if ring is not ideal.ring:
        raise RingMismatch("element and ideal live in different rings")
    if f.is_zero:
        return ()
    _check_degree(max((g.degree for g in ideal.generators), default=0)
                  + degree_bound)
    rewriting = _rewriting(ring)
    codes = rewriting.codes  # no rule lhs: every monomial is a member
    gens = [[(codes.code(t), c) for t, c in g.terms.items()]
            for g in ideal.generators]
    columns = []
    labels = []
    seen_cols = set()
    for k, terms in enumerate(gens):
        for y in codes.up_to(degree_bound):
            prod = {}
            for x, c in terms:
                for z, d in rewriting.normal_form(x + y):
                    prod[z] = prod.get(z, 0) + c * d
            prod = {z: c for z, c in prod.items() if c}
            vec = frozenset(prod.items())
            if not vec or vec in seen_cols:
                continue
            seen_cols.add(vec)
            columns.append({codes.monomial(z): c for z, c in prod.items()})
            labels.append((k, codes.monomial(y)))
    solution = _solve_exact(columns, dict(f.terms))
    if solution is None:
        return None
    parts = {}
    for (k, m), coeff in zip(labels, solution):
        if coeff:
            parts.setdefault(k, []).append((m, coeff))
    return tuple(
        (k, Element.from_terms(ring, pairs))
        for k, pairs in sorted(parts.items()))


def cube_points(ring):
    """The points of {0,1}^n at which every rule lhs equals its rhs.

    For a ring with X_i^2 -> X_i for every variable, plus rules -> 0, this
    is the set the ring is the ring of functions on: a finite product of
    copies of Q, where an ideal is the set of functions vanishing on its
    zero set.
    """
    def holds(rule, point):
        lhs = _value_at(rule.lhs, point)
        if rule.rhs is None:
            return lhs == 0
        c, m = rule.rhs
        return lhs == c * _value_at(m, point)

    return [point for point in product((0, 1), repeat=ring.num_vars)
            if all(holds(rule, point) for rule in ring.rules)]


def _value_at(m, point):
    return int(all(point[v] for v, _ in m.pairs))


def cube_value(f, point):
    """An element's value at a point of {0,1}^n, from its terms."""
    return sum((c for m, c in f.terms.items() if _value_at(m, point)),
               Fraction(0))


def cube_zero_set(generators, points):
    """The points at which every generator vanishes."""
    return frozenset(p for p in points
                     if all(cube_value(g, p) == 0 for g in generators))


def exhaustive_normal_forms(ring, m):
    """Set of all normal forms reachable from a monomial under every
    rewriting strategy, as canonical element keys: () for zero and
    ((pairs, coeff),) for coeff * monomial.  One-term states stay one-term.

    On a confluent rule set the returned set is a singleton.
    """
    _check_degree(m.degree)
    rewriting = _rewriting(ring)
    return frozenset(
        tuple((rewriting.codes.monomial(x).pairs, c) for x, c in key)
        for key in rewriting.forms(rewriting.codes.code(m)))


@lru_cache(maxsize=1)
def _rewriting(ring):
    """The last ring's rules on codes, with the normal forms reached so far
    (_Rewriting).  A rule lowers degree, so no exponent passes the degree
    a call checks for its start."""
    codes = _Codes(ring.num_vars, ())
    return _Rewriting(codes, [(codes.code(rule.lhs), None if rule.rhs is None
                               else (rule.rhs[0], codes.code(rule.rhs[1])))
                              for rule in ring.rules])


class _Rewriting:
    """Rules as (lhs code, None or (coeff, rhs code)) on _Codes, in ring
    order, and, per code, the normal forms reachable from it under every
    rewriting strategy: () for zero and ((code, coeff),) for
    coeff * monomial."""

    def __init__(self, codes, rules):
        self.codes, self.rules, self.reached = codes, rules, {}

    def forms(self, x):
        cached = self.reached.get(x)
        if cached is not None:
            return cached
        g = self.codes.guards
        out = set()
        applicable = [(lhs, rhs) for lhs, rhs in self.rules
                      if ((x | g) - lhs) & g == g]
        if not applicable:
            out.add(((x, 1),))
        for lhs, rhs in applicable:
            if rhs is None:
                out.add(())
                continue
            rc, rm = rhs
            for key in self.forms(x - lhs + rm):
                out.add(tuple((y, c * rc) for y, c in key))
        result = self.reached[x] = frozenset(out)
        return result

    def normal_form(self, x):
        """The one normal form of code x, as a key of forms; NonConfluent
        when two strategies reach two."""
        key, *others = self.forms(x)
        if others:
            raise NonConfluent("two normal forms of %r"
                               % (self.codes.monomial(x),))
        return key


def _check_degree(d):
    if d >> WIDTH:  # an exponent of degree d could pass its field
        raise ValueError("degree %d passes the %d-bit field" % (d, WIDTH))


class _Codes:
    """One ring's monomials as ints, and its facts: the rule lhs, the
    normal monomials, the probe answers, the candidate masks of each bound
    and the decoded Monomials.  X0 owns the top field, so inside a degree
    grlex order is descending code order."""

    def __init__(self, n, lhs):
        self.shifts = [(n - 1 - v) * (WIDTH + 1) for v in range(n)]
        self.guards = sum(1 << s + WIDTH for s in self.shifts)
        self.lhs = [self.code(m) for m in lhs]
        self.normal = _Outside(self, self.lhs)
        self.probes, self.candidates, self.monomials = {}, {}, {}

    def code(self, m):
        for v, e in m.pairs:
            if e >> WIDTH:
                raise ValueError("exponent %d of X%d passes the %d-bit field"
                                 % (e, v, WIDTH))
        return sum(e << self.shifts[v] for v, e in m.pairs)

    def monomial(self, code):
        if code not in self.monomials:
            self.monomials[code] = Monomial(
                [(v, code >> s & (1 << WIDTH) - 1)
                 for v, s in enumerate(self.shifts)])
        return self.monomials[code]

    def mask(self, vars_set):
        """The fields of these variables, which a code's AND with it keeps."""
        return sum((1 << WIDTH) - 1 << self.shifts[v] for v in vars_set)

    def divided(self, x, basis):
        """Does some code d of basis divide x: does no field of
        (x | guards) - d borrow its guard bit?"""
        g = self.guards
        x |= g
        for d in basis:
            if (x - d) & g == g:
                return True
        return False

    def up_to(self, d):
        """The normal codes of degree <= d, in grlex order."""
        self.normal.members_up_to(d)
        return [x for level in self.normal.levels[:d + 1] for x in level]


class _Outside:
    """The codes no code of a basis divides, by degree in grlex order, each
    degree the one below times each variable less the basis multiples, as
    far as a call needs.  They are closed under division, so all past an
    empty degree are empty: up to the degree grown, a code is a multiple
    exactly when it is no member."""

    def __init__(self, codes, basis):
        self.codes, self.basis = codes, basis
        self.levels = [[] if codes.divided(0, basis) else [0]]
        self.members = set(self.levels[0])

    def members_up_to(self, d):
        _check_degree(d)
        while len(self.levels) <= d and self.levels[-1]:
            self._grow()
        return self.members

    def _grow(self):
        codes = self.codes
        grown = {x + (1 << s) for x in self.levels[-1] for s in codes.shifts}
        self.levels.append(sorted((y for y in grown
                                   if not codes.divided(y, self.basis)),
                                  reverse=True))
        self.members.update(self.levels[-1])


@lru_cache(maxsize=1)
def _ring_probes(ring):
    """The facts of one ring (_Codes), its probe answers among them: all
    that the monomial oracles read of the ring is its rules and num_vars."""
    if any(rule.rhs is not None for rule in ring.rules):
        raise ValueError("the monomial oracles need rules -> 0")
    return _Codes(ring.num_vars, [rule.lhs for rule in ring.rules])


@lru_cache(maxsize=1)
def _outside(ideal):
    """The normal monomials outside the last ideal asked about."""
    codes = _ring_probes(ideal.ring)
    return _Outside(codes, codes.lhs + _generator_codes(ideal, codes))


def _generator_codes(ideal, codes):
    if any(len(g.terms) != 1 for g in ideal.generators):
        raise ValueError("the monomial oracles need monomial generators")
    return [codes.code(m) for g in ideal.generators for m in g.terms]


def colon_monomials(ideal, factor, bound):
    """All normal monomials m of degree <= bound with m * factor in the
    ideal, straight from the definition."""
    outside = _outside(ideal).members_up_to(bound + factor.degree)
    codes = _ring_probes(ideal.ring)
    f = codes.code(factor)
    return [codes.monomial(m) for m in codes.up_to(bound)
            if m + f not in outside]


def saturation_monomials(relations, acting, bound, power_cap):
    """All normal monomials m of degree <= bound with acting^n * m inside
    relations for some n <= power_cap.

    Ideal powers are expanded as raw generator product sets, not through
    the ideal engine.
    """
    codes = _ring_probes(relations.ring)
    gens = _generator_codes(acting, codes)
    top = max((g.degree for g in acting.generators), default=0)
    outside = _outside(relations).members_up_to(bound + power_cap * top)
    powers = [{0}]
    for _ in range(power_cap):
        powers.append({p + g for p in powers[-1] for g in gens})
    return [codes.monomial(m) for m in codes.up_to(bound)
            if any(outside.isdisjoint(map(m.__add__, power))
                   for power in powers)]


def radical_monomials(ideal, bound, exponent_cap=6):
    """All normal monomials m of degree <= bound with m^k in the ideal for
    some k <= exponent_cap."""
    outside = _outside(ideal).members_up_to(exponent_cap * bound)
    codes = _ring_probes(ideal.ring)
    powers = range(1, exponent_cap + 1)
    return [codes.monomial(m) for m in codes.up_to(bound)
            if not outside.issuperset(map(m.__mul__, powers))]


def _variable_ideal_is_prime(ring, vars_set, probe_bound):
    """Bounded primality probe: for all normal u, w up to the bound,
    u*w in the ideal implies u or w is.  A normal monomial lies in a
    variable ideal when its support meets the set, and u*w is zero or the
    normal monomial of their joint support, so the probe fails exactly
    when a product of two normal monomials off the set is not normal."""
    codes = _ring_probes(ring)
    mask = codes.mask(vars_set)
    off = [u for u in codes.up_to(probe_bound) if not u & mask]
    normal = codes.normal.members_up_to(2 * probe_bound)
    return {u + w for u in off for w in off} <= normal


def _is_prime(ring, vars_set, probe_bound):
    """_variable_ideal_is_prime, each (variable set, bound) probed once
    per ring."""
    probes = _ring_probes(ring).probes
    key = vars_set, probe_bound
    if key not in probes:
        probes[key] = _variable_ideal_is_prime(ring, vars_set, probe_bound)
    return probes[key]


def _variable_sets(n):
    """Every subset of range(n), by size, then lexicographically."""
    return [frozenset(combo) for size in range(n + 1)
            for combo in combinations(range(n), size)]


def minimal_prime_sets(ideal, probe_bound=3):
    """Inclusion-minimal variable sets whose ideal is prime (by bounded
    probe) and contains the given ideal, by subset enumeration: the
    ideal of s contains it when every generator's support meets s."""
    ring = ideal.ring
    codes = _ring_probes(ring)
    gens = _generator_codes(ideal, codes)
    containing = []
    for s in _variable_sets(ring.num_vars):
        if (not any(c <= s for c in containing)
                and all(g & codes.mask(s) for g in gens)
                and _is_prime(ring, s, probe_bound)):
            containing.append(s)
    return sorted(containing, key=lambda s: (len(s), sorted(s)))


def _bits(flags):
    """An int with one byte per flag, the last flag in the lowest byte."""
    return int.from_bytes(bytes(flags), "big")


@lru_cache(maxsize=1)
def _witness_annihilators(relations, witness_bound, verify_bound):
    """The distinct annihilators (relations : w), w a normal monomial of
    degree <= witness_bound outside relations, in witness order.  Each is
    a mask (_bits) over the normal monomials f up to verify_bound, set
    where w*f lies outside relations: the complement of the annihilator."""
    outside = _outside(relations).members_up_to(witness_bound + verify_bound)
    codes = _ring_probes(relations.ring)
    monos = codes.up_to(verify_bound)
    return tuple(dict.fromkeys(
        _bits(map(outside.__contains__, map(w.__add__, monos)))
        for w in codes.up_to(witness_bound) if w in outside))


def _variable_ideal_sets(ring, bound):
    """(s, mask) for every variable set s, the mask over the normal
    monomials f up to the bound set where the support of f misses s: the
    complement of the ideal of s.  Kept per bound."""
    codes = _ring_probes(ring)
    if bound not in codes.candidates:
        monos = codes.up_to(bound)
        masks = [(s, codes.mask(s)) for s in _variable_sets(ring.num_vars)]
        codes.candidates[bound] = [(s, _bits(not f & mask for f in monos))
                                   for s, mask in masks]
    return codes.candidates[bound]


def assassin_sets(relations, witness_bound, verify_bound, probe_bound=3):
    """Primes of the form (relations : m), found by comparing the colon
    monomial set against every candidate variable ideal on all normal
    monomials up to the verification bound."""
    ring = relations.ring
    by_ideal = {}
    for s, mask in _variable_ideal_sets(ring, verify_bound):
        by_ideal.setdefault(mask, []).append(s)
    found = set()
    for ann in _witness_annihilators(relations, witness_bound, verify_bound):
        found.update(s for s in by_ideal.get(ann, ())
                     if _is_prime(ring, s, probe_bound))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def weak_assassin_sets(relations, witness_bound, verify_bound, probe_bound=3):
    """Union over witnesses of the minimal prime variable sets containing
    the witness annihilator, by subset enumeration: the ideal of s contains
    it when every monomial off s is off the annihilator too."""
    ring = relations.ring
    candidates = _variable_ideal_sets(ring, verify_bound)
    found = set()
    for ann in _witness_annihilators(relations, witness_bound, verify_bound):
        containing = []
        for s, mask in candidates:
            if (not any(c <= s for c in containing) and mask & ~ann == 0
                    and _is_prime(ring, s, probe_bound)):
                containing.append(s)
        found.update(containing)
    return sorted(found, key=lambda s: (len(s), sorted(s)))
