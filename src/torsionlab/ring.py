"""Monomial arithmetic, rewrite-system normal forms, and exact element
arithmetic for truncated monomial-rewriting quotient algebras.

A ring presentation is K[X_0..X_N] modulo a finite set of strictly
degree-decreasing monomial rewrite rules (lhs a monomial, rhs zero or a
rational multiple of a smaller monomial).  Coefficients are exact rationals
throughout.  Normal forms are computed with a fixed deterministic strategy
(smallest applicable lhs in graded lex order first), so results are
reproducible even before confluence has been certified.

A monomial's pairs hold one invariant: variable indices strictly increase
and exponents are positive.  The public ``Monomial`` constructor checks it
on every input; the private ``_trusted_monomial`` assumes it and serves
only the monomial operations of this module, whose results keep it.

The ring keeps the staircase corners of its rule-lhs ideal
(_staircase_corners): the top normal degree is read off them, and every
ideal handle splits its own corners from them by its generators' exponent
tuples (_exponent_vector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from operator import itemgetter, le

from .errors import InvalidPresentation, RingMismatch, VariableOutOfRange


class Monomial:
    """Finitely supported exponent vector, stored as sorted (var, exp) pairs.

    The empty vector is the unit monomial 1.  Invariant: the variable
    indices of ``pairs`` strictly increase and every exponent is positive;
    an absent index means exponent zero.  ``Monomial(...)`` takes pairs from
    outside (the DSL, the harness, the families) and checks the invariant.
    ``mul``, ``div``, ``gcd``, ``lcm``, ``pow``, ``squarefree`` and
    ``without`` build their results from operands that already hold it, so
    they go through ``_trusted_monomial``, which checks nothing.
    """

    __slots__ = ("pairs", "degree", "_hash", "_support")

    def __init__(self, pairs=()):
        cleaned = tuple(sorted((int(v), int(e)) for v, e in pairs if e))
        last = -1
        for v, e in cleaned:
            if v <= last or e <= 0:
                if v < 0 or e <= 0:
                    raise ValueError("bad monomial pair (%d, %d)" % (v, e))
                raise ValueError("repeated variable index %d" % v)
            last = v
        self.pairs = cleaned
        self.degree = sum(e for _, e in cleaned)
        self._hash = hash(cleaned)
        self._support = None

    @classmethod
    def one(cls):
        return _ONE

    @classmethod
    def variable(cls, index, exp=1):
        return cls(((index, exp),))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.pairs == other.pairs

    def __repr__(self):
        return "Monomial(%r)" % (self.pairs,)

    @property
    def is_one(self):
        return not self.pairs

    @property
    def support(self):
        if self._support is None:
            self._support = frozenset(v for v, _ in self.pairs)
        return self._support

    def exponent(self, var):
        for v, e in self.pairs:
            if v == var:
                return e
        return 0

    def max_var(self):
        return self.pairs[-1][0] if self.pairs else -1

    def mul(self, other):
        a, b = self.pairs, other.pairs
        na, nb = len(a), len(b)
        out = []
        i = j = 0
        while i < na and j < nb:
            p, q = a[i], b[j]
            if p[0] < q[0]:
                out.append(p)
                i += 1
            elif q[0] < p[0]:
                out.append(q)
                j += 1
            else:
                out.append((p[0], p[1] + q[1]))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return _trusted_monomial(tuple(out), self.degree + other.degree)

    def pow(self, k):
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return _ONE
        return _trusted_monomial(tuple((v, e * k) for v, e in self.pairs),
                                 self.degree * k)

    def divides(self, other):
        # One merge walk over both sorted pair tuples.
        theirs = iter(other.pairs)
        for v, e in self.pairs:
            for w, f in theirs:
                if w >= v:
                    break
            else:
                return False
            if w != v or f < e:
                return False
        return True

    def div(self, other):
        """Exact quotient self / other; other must divide self."""
        out = []
        mine = iter(self.pairs)
        for w, f in other.pairs:
            for p in mine:
                if p[0] >= w:
                    break
                out.append(p)
            else:
                raise ValueError("non-exact monomial division")
            v, e = p
            if v != w or e < f:
                raise ValueError("non-exact monomial division")
            if e != f:
                out.append((v, e - f))
        out.extend(mine)
        return _trusted_monomial(tuple(out), self.degree - other.degree)

    def gcd(self, other):
        a, b = self.pairs, other.pairs
        na, nb = len(a), len(b)
        out = []
        degree = i = j = 0
        while i < na and j < nb:
            v, e = a[i]
            w, f = b[j]
            if v < w:
                i += 1
            elif w < v:
                j += 1
            else:
                g = e if e < f else f
                out.append((v, g))
                degree += g
                i += 1
                j += 1
        return _trusted_monomial(tuple(out), degree)

    def lcm(self, other):
        a, b = self.pairs, other.pairs
        na, nb = len(a), len(b)
        out = []
        i = j = 0
        while i < na and j < nb:
            p, q = a[i], b[j]
            if p[0] < q[0]:
                out.append(p)
                i += 1
            elif q[0] < p[0]:
                out.append(q)
                j += 1
            else:
                out.append(p if p[1] >= q[1] else q)
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return _trusted_monomial(tuple(out), sum(e for _, e in out))

    def squarefree(self):
        return _trusted_monomial(tuple((v, 1) for v, _ in self.pairs),
                                 len(self.pairs))

    def without(self, variables):
        """The monomial with the exponents on these variables set to zero."""
        out = tuple(p for p in self.pairs if p[0] not in variables)
        return _trusted_monomial(out, sum(e for _, e in out))


def _trusted_monomial(pairs, degree):
    """A Monomial from pairs that already hold the invariant, and their
    exponent sum; nothing is checked."""
    m = object.__new__(Monomial)
    m.pairs = pairs
    m.degree = degree
    m._hash = hash(pairs)
    m._support = None
    return m


_ONE = _trusted_monomial((), 0)

# The unit coefficient, shared: Fractions are immutable.
FRACTION_ONE = Fraction(1)


def grlex_key(m):
    """Sort key: graded, then lexicographic with earlier variables greater.

    Ascending sort by this key lists 1 first, then X0 before X1, X0^2
    before X0*X1 before X1^2, and lower total degree before higher.
    """
    return (m.degree, tuple((v, -e) for v, e in m.pairs))


def format_monomial(m):
    if m.is_one:
        return "1"
    parts = []
    for v, e in m.pairs:
        parts.append("X%d" % v if e == 1 else "X%d^%d" % (v, e))
    return "*".join(parts)


def _next_level(ring, level):
    """The next degree of the monomials outside the rule-lhs ideal of
    ``ring`` from one degree's ``level``.  Such monomials are closed under
    division (Miller & Sturmfels, Combinatorial Commutative Algebra, ch. 1),
    so each is made once, as m * X_v for m in ``level`` and v at least m's
    largest variable, in grlex order as ``level`` is (within a degree, lex
    order of the sorted variable indices).  As m is outside the ideal, a
    rule lhs dividing m * X_v ends in v with the exponent of v there, so
    only the rules the ring files under v (_rules_by_var) are tried.
    """
    buckets, out = ring._rules_by_var, []
    for m in level:
        pairs = m.pairs
        last, e = pairs[-1] if pairs else (0, 0)
        for v in range(last, ring.num_vars):
            head, top = (pairs[:-1], (v, e + 1)) if v == last else (
                pairs, (v, 1))
            cand = _trusted_monomial(head + (top,), m.degree + 1)
            for _, rule in buckets.get(v, ()):
                if rule.lhs.pairs[-1] == top and rule.lhs.divides(cand):
                    break
            else:
                out.append(cand)
    return out


def _below(d, k):
    """Does the exponent tuple d lie below k in every coordinate?"""
    return all(map(le, d, k))


def _staircase_corners(points, corners):
    """The staircase corners of J + (X^u for u in ``points``), J the
    monomial ideal with these ``corners``, as a list of exponent tuples in
    no particular order; a free coordinate is ``math.inf``.  The points are
    exponent tuples too, as long as the corners.

    A corner c stands for the irreducible component generated by
    X_v^(c_v + 1) over its finite coordinates v, and the ideal is the
    intersection of its components: a monomial lies outside it exactly when
    it lies below a corner (Miller & Sturmfels, Combinatorial Commutative
    Algebra, ch. 5).  The polynomial ring's one corner is all ``inf``, and
    the unit ideal has none.  Berge's step (Berge, Hypergraphs, ch. 2) adds
    one point u at a time: every corner c above u gives way to one
    candidate per coordinate v where u is nonzero, c with v lowered to
    u_v - 1.  A candidate is dropped when a corner that u does not reach
    lies above it, or a reached corner with a lower v coordinate than c's
    does (it lies above the candidate from that corner and v); any other
    corner above it would lie above c.  No two candidates are compared.
    """
    corners = set(corners)
    for u in points:
        hit = [c for c in corners if _below(u, c)]
        if not hit:
            continue
        corners.difference_update(hit)
        grown = []
        for v, e in filter(itemgetter(1), enumerate(u)):
            hit.sort(key=itemgetter(v))
            lower = 0
            for c in hit:
                while hit[lower][v] < c[v]:
                    lower += 1
                d = c[:v] + (e - 1,) + c[v + 1:]
                if not any(_below(d, k)
                           for k in chain(corners, islice(hit, lower))):
                    grown.append(d)
        corners.update(grown)
    return list(corners)


def _exponent_vector(m, n):
    """The exponent tuple of the monomial m over n variables, the inverse
    of _exponent_monomial."""
    t = [0] * n
    for v, e in m.pairs:
        t[v] = e
    return tuple(t)


def _exponent_monomial(t):
    """The monomial with the exponent tuple t, every exponent finite."""
    return _trusted_monomial(tuple((v, e) for v, e in enumerate(t) if e),
                             sum(t))


def _meet_generators(corners):
    """The minimal generators, as exponent tuples, of the meet of the
    irreducible components with these ``corners``, a nonempty list.

    Alexander duality (Miller & Sturmfels, ch. 5) in the box a one past
    each coordinate's largest finite exponent, 0 where none is: m lies
    below the corner c exactly when a - m is a multiple of X^(a - c), with
    0 for a free coordinate of c, so the generators reflect the corners in
    the box of the dual ideal, whose generators are these exponent tuples
    (_staircase_corners).  The dual generators go by degree, so one that an
    earlier one divides splits no corner.
    """
    box = [max((e + 1 for e in column if e != math.inf), default=0)
           for column in zip(*corners)]
    dual = sorted((tuple(0 if e == math.inf else a - e
                         for a, e in zip(box, c)) for c in corners), key=sum)
    return [tuple(map(int.__sub__, box, k))
            for k in _staircase_corners(dual, [tuple(box)])]


class RewriteRule:
    """lhs -> 0 or lhs -> coeff * monomial, strictly degree-decreasing."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs=None):
        if lhs.is_one:
            raise InvalidPresentation("rule lhs must not be the unit monomial")
        if rhs is not None:
            coeff, mono = rhs
            coeff = Fraction(coeff)
            if coeff == 0:
                raise InvalidPresentation("zero rhs coefficient; use rhs=None")
            if mono.degree >= lhs.degree:
                raise InvalidPresentation(
                    "rewrite rules must strictly decrease degree")
            rhs = (coeff, mono)
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self):
        if self.rhs is None:
            return "RewriteRule(%s -> 0)" % format_monomial(self.lhs)
        c, m = self.rhs
        return "RewriteRule(%s -> %s*%s)" % (
            format_monomial(self.lhs), c, format_monomial(m))

    def __eq__(self, other):
        return (isinstance(other, RewriteRule)
                and self.lhs == other.lhs and self.rhs == other.rhs)

    def __hash__(self):
        return hash((self.lhs, self.rhs))


class RingPresentation:
    """Truncated variable set X_0..X_{num_vars-1} plus rewrite rules.

    One rule index, keyed by the largest variable of each lhs
    (_rules_by_var), serves both the normal form and the level walk.
    Instances are immutable apart from six caches: the normal-form cache,
    the level cache (the tuple of normal monomials of each degree enumerated
    so far, extended on demand by normal_monomials_of_degree), the critical
    pairs that do not join, kept by the first check_local_confluence, the
    lift of ideals._lift: the rule binomials as Groebner basis entries and
    the term order, the staircase corners of the rule-lhs ideal, which every
    ideal handle's corners start from, and the ideal table of IdealHandle,
    mapping each (reduced generators, complete flag, work budget) key built
    so far to its one handle, which keeps every fact computed about that
    ideal, and (complete flag, work budget) to the unit ideal's handle.
    Cached normal forms are shared, immutable Elements: Element.from_monomial
    with coefficient 1 and the monic generators of every ideal handle are
    these objects themselves.
    """

    def __init__(self, num_vars, rules=()):
        if num_vars < 1:
            raise InvalidPresentation("need at least one variable")
        rules = tuple(rules)
        seen = set()
        for rule in rules:
            if rule.lhs.max_var() >= num_vars:
                raise VariableOutOfRange(
                    "rule lhs %s exceeds variable range" % format_monomial(rule.lhs))
            if rule.rhs is not None and rule.rhs[1].max_var() >= num_vars:
                raise VariableOutOfRange(
                    "rule rhs exceeds variable range")
            if rule.lhs in seen:
                raise InvalidPresentation(
                    "duplicate rule lhs %s" % format_monomial(rule.lhs))
            seen.add(rule.lhs)
        self.num_vars = num_vars
        self.rules = tuple(sorted(rules, key=lambda r: grlex_key(r.lhs)))
        self.all_rhs_zero = all(rule.rhs is None for rule in self.rules)
        # The one rule index: a rule can apply to m only if the largest
        # variable of its lhs occurs in m, so bucket the rules by that
        # variable, each with its position in the grlex rule order.
        self._rules_by_var = {}
        for pos, rule in enumerate(self.rules):
            self._rules_by_var.setdefault(rule.lhs.max_var(), []).append(
                (pos, rule))
        self._nf_cache = {}
        # No rule lhs is the unit monomial, so degree 0 holds just 1.
        self._levels = [(Monomial.one(),)]
        self._confluence_failures = None
        self._lift = None
        self._corners = None
        self._ideals = {}

    def __repr__(self):
        return "RingPresentation(num_vars=%d, rules=%d)" % (
            self.num_vars, len(self.rules))

    def check_variable_range(self, m):
        if m.max_var() >= self.num_vars:
            raise VariableOutOfRange(
                "monomial %s exceeds variable range" % format_monomial(m))

    def _first_applicable(self, m):
        """The first rule in grlex order whose lhs divides m, or None."""
        best = None
        best_pos = len(self.rules)
        buckets = self._rules_by_var
        for v, _ in m.pairs:
            for pos, rule in buckets.get(v, ()):
                if pos >= best_pos:
                    break
                if rule.lhs.divides(m):
                    best, best_pos = rule, pos
                    break
        return best

    def normal_form_monomial(self, m):
        """Normal form of a monomial as an Element (0 or coeff * monomial)."""
        # Every cached key was range-checked, or reached from a checked key
        # by rules whose monomials are in range, so a hit needs no check.
        cached = self._nf_cache.get(m)
        if cached is not None:
            return cached
        self.check_variable_range(m)
        path = []
        coeff = FRACTION_ONE
        cur = m
        result = None
        while True:
            hit = self._nf_cache.get(cur)
            if hit is not None:
                result = hit.scale(coeff)
                break
            rule = self._first_applicable(cur)
            if rule is None:
                result = Element(self, {cur: coeff})
                break
            path.append((cur, coeff))
            if rule.rhs is None:
                result = Element.zero(self)
                break
            rc, rm = rule.rhs
            if rc != 1:
                coeff = coeff * rc
            cur = cur.div(rule.lhs).mul(rm)
        # Cache the normal form of every monomial along the reduction path.
        for mono, c in path:
            self._nf_cache[mono] = result.scale(FRACTION_ONE / c) if c != 1 else result
        if m not in self._nf_cache:
            self._nf_cache[m] = result
        return self._nf_cache[m]

    def is_normal(self, m):
        self.check_variable_range(m)
        return self._first_applicable(m) is None

    def normal_monomials_of_degree(self, d):
        """All normal monomials of total degree d, as a tuple in grlex order.

        Levels are computed once per ring, each from the one below it, as a
        walk outside the ideal of the rule lhs, whatever their rhs.
        """
        if d < 0:
            return ()
        levels = self._levels
        while len(levels) <= d:
            levels.append(tuple(_next_level(self, levels[-1])))
        return levels[d]

    def normal_monomials_up_to(self, d):
        out = []
        for k in range(d + 1):
            out.extend(self.normal_monomials_of_degree(k))
        return out

    def _components(self):
        """The staircase corners of the rule-lhs ideal, whatever the rhs
        (_staircase_corners), computed on the first call."""
        if self._corners is None:
            self._corners = tuple(_staircase_corners(
                (_exponent_vector(r.lhs, self.num_vars) for r in self.rules),
                [(math.inf,) * self.num_vars]))
        return self._corners

    def finite_basis_max_degree(self):
        """Largest degree of a normal monomial, the largest corner degree,
        or None if there are infinitely many: exactly when a corner has a
        free coordinate."""
        top = max(map(sum, self._components()))
        return None if top == math.inf else top


class Element:
    """Normal-form linear combination of monomials with rational coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c != 0}

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def from_monomial(cls, ring, m, coeff=1):
        if coeff == 0:
            return cls.zero(ring)
        return ring.normal_form_monomial(m).scale(coeff)

    @classmethod
    def from_terms(cls, ring, pairs):
        acc = {}
        for m, c in pairs:
            if c == 0:
                continue
            for n, d in ring.normal_form_monomial(m).terms.items():
                acc[n] = acc.get(n, 0) + d * c
        return cls(ring, acc)

    @classmethod
    def constant(cls, ring, c):
        return cls.from_monomial(ring, Monomial.one(), c)

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_single_term(self):
        return len(self.terms) == 1

    def single_term(self):
        ((m, c),) = self.terms.items()
        return m, c

    def monomials(self):
        return sorted(self.terms, key=grlex_key)

    @property
    def degree(self):
        return max((m.degree for m in self.terms), default=0)

    def scale(self, coeff):
        if coeff == 1:
            return self
        coeff = Fraction(coeff)
        if coeff == 0:
            return Element.zero(self.ring)
        return Element(self.ring, {m: c * coeff for m, c in self.terms.items()})

    def _check_ring(self, other):
        if self.ring is not other.ring:
            raise RingMismatch("elements live in different rings")

    def add(self, other):
        self._check_ring(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0) + c
        return Element(self.ring, acc)

    def sub(self, other):
        return self.add(other.scale(-1))

    def mul(self, other):
        self._check_ring(other)
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c12 = c1 * c2
                nf = self.ring.normal_form_monomial(m1.mul(m2))
                for m, c in nf.terms.items():
                    acc[m] = acc.get(m, 0) + c * c12
        return Element(self.ring, acc)

    def __eq__(self, other):
        return (isinstance(other, Element) and self.ring is other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash(self.canonical_key())

    def canonical_key(self):
        return tuple(sorted(
            ((m.pairs, c) for m, c in self.terms.items())))

    def __repr__(self):
        return "Element(%s)" % format_element(self)


def format_element(e):
    if e.is_zero:
        return "0"
    parts = []
    for m in e.monomials():
        c = e.terms[m]
        if m.is_one:
            parts.append(str(c))
        elif c == 1:
            parts.append(format_monomial(m))
        else:
            parts.append("%s*%s" % (c, format_monomial(m)))
    return " + ".join(parts)


@dataclass(frozen=True)
class CriticalPairResult:
    """A critical pair whose two one-step reducts have different normal
    forms."""
    lhs1: Monomial
    lhs2: Monomial
    overlap: Monomial
    left: Element  # normal form of the reduct by the lhs1 rule
    right: Element  # normal form of the reduct by the lhs2 rule

    def __str__(self):
        return "rules on %s and %s do not join at %s: %s vs %s" % (
            format_monomial(self.lhs1), format_monomial(self.lhs2),
            format_monomial(self.overlap), format_element(self.left),
            format_element(self.right))


def _reduct_normal_form(ring, overlap, rule):
    """Normal form of the one-step reduct of overlap by rule."""
    if rule.rhs is None:
        return Element.zero(ring)
    rc, rm = rule.rhs
    return ring.normal_form_monomial(overlap.div(rule.lhs).mul(rm)).scale(rc)


def check_local_confluence(ring):
    """The critical pairs of the rules that do not join; () means the rules
    are confluent.

    A critical pair of two rules is formed at the lcm of their lhs
    monomials.  Rules with coprime lhs always join (reduce the two factors
    independently), and two rules rewriting to zero join at zero.  Every
    rule strictly lowers degree, so rewriting terminates, and by Newman's
    lemma with the critical-pair lemma the rules are confluent exactly when
    every remaining pair joins.  Under confluence normal forms are unique,
    so a pair joins exactly when the normal forms of its two reducts under
    the fixed strategy agree.  The verdict is kept on the ring, so the
    pairs of one ring are checked once.
    """
    if ring._confluence_failures is not None:
        return ring._confluence_failures
    failures = []
    rules = ring.rules
    for i, r1 in enumerate(rules):
        for r2 in rules[i + 1:]:
            if r1.rhs is None and r2.rhs is None:
                continue
            if r1.lhs.gcd(r2.lhs).is_one:
                continue
            overlap = r1.lhs.lcm(r2.lhs)
            left = _reduct_normal_form(ring, overlap, r1)
            right = _reduct_normal_form(ring, overlap, r2)
            if left != right:
                failures.append(CriticalPairResult(
                    r1.lhs, r2.lhs, overlap, left, right))
    ring._confluence_failures = tuple(failures)
    return ring._confluence_failures
