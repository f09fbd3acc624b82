"""Monomial arithmetic, rewrite-system normal forms, and exact element
arithmetic for truncated monomial-rewriting quotient algebras.

A ring presentation is K[X_0..X_N] modulo a finite set of strictly
degree-decreasing monomial rewrite rules (lhs a monomial, rhs zero or a
rational multiple of a smaller monomial).  Coefficients are exact, under the
one rule of _small: an int while integral, else a Fraction.  Each division
is an inverse, Fraction(1, c), as int / int would give a float.  Normal
forms are computed with a fixed deterministic strategy (smallest applicable
lhs in graded lex order first), so results are reproducible even before
confluence has been certified.

A monomial's pairs hold one invariant: variable indices strictly increase
and exponents are positive.  The public ``Monomial`` constructor checks it
on every input; the private ``_trusted_monomial`` assumes it and serves
only the monomial operations of this module, whose results keep it.  Its
twin ``_trusted_element`` trusts that coefficients are nonzero and obey
_small, for the normal form and ``Element.scale``, whose coefficients are
products of nonzero ones.

The rule index (_rules_by_var) files each rule under the largest variable
of its lhs, with the lhs's exponent there: the normal form skips, with no
divisibility walk, a rule whose exponent exceeds m's, which under
idempotent or square-zero rules is every rule for a normal monomial.

The ring keeps the staircase corners of its rule-lhs ideal
(_staircase_corners): the top normal degree is read off them, and every
ideal handle splits its own corners from them by its generators' codes.
The corner layer reads one form of exponents, packed into ints
(_ExponentCodes): corners, generators, rooms and witnesses alike.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import reduce
from itertools import chain, compress, count, islice
from operator import floordiv, or_

from .errors import (ExponentOverflow, InvalidPresentation, RingMismatch,
                     VariableOutOfRange)


class _Record:
    """The value semantics of a frozen dataclass for a plain slotted class
    whose ``__slots__`` name its fields in order and whose ``__init__``
    assigns them: equality field by field between instances of one class,
    the hash of the field tuple, and a ``Name(field=value, ...)`` repr.
    Records are immutable by convention: no code assigns a field after
    ``__init__``."""

    __slots__ = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


class Monomial:
    """Finitely supported exponent vector, stored as sorted (var, exp) pairs.

    The empty vector is the unit monomial 1.  Invariant: the variable
    indices of ``pairs`` strictly increase and every exponent is positive;
    an absent index means exponent zero.  ``Monomial(...)`` takes pairs from
    outside (the DSL, the harness, the families) and checks the invariant.
    ``mul``, ``div``, ``div_mul``, ``gcd``, ``lcm``, ``pow``, ``squarefree``
    and ``without`` build their results from operands that already hold it,
    so they go through ``_trusted_monomial``, which checks nothing; results
    reuse the operands' untouched (var, exp) tuples.  Fast paths: ``mul``
    by 1 returns the other operand, and ``divides`` is False at once when
    self has the larger degree.  A rewrite step is one fused walk,
    ``div_mul``, which ``div`` reuses.
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
        if not a:
            return other
        if not b:
            return self
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
        if self.degree > other.degree:
            return False
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
        return self.div_mul(other, _ONE)

    def div_mul(self, lhs, rhs):
        """self / lhs * rhs, lhs dividing self, in one merge walk."""
        rp, out, i = rhs.pairs, [], 0
        nr = len(rp)
        lhs_pairs = iter(lhs.pairs)
        w, f = next(lhs_pairs, (math.inf, 0))
        for p in self.pairs:
            v = p[0]
            while i < nr and rp[i][0] < v:
                out.append(rp[i])
                i += 1
            if v >= w:
                if v > w or p[1] < f:
                    raise ValueError("non-exact monomial division")
                e = p[1] - f
                w, f = next(lhs_pairs, (math.inf, 0))
            elif i < nr and rp[i][0] == v:
                e = p[1]
            else:
                out.append(p)
                continue
            if i < nr and rp[i][0] == v:
                out.append((v, e + rp[i][1]) if e else rp[i])
                i += 1
            elif e:
                out.append((v, e))
        if w != math.inf:
            raise ValueError("non-exact monomial division")
        out.extend(rp[i:])
        return _trusted_monomial(tuple(out),
                                 self.degree - lhs.degree + rhs.degree)

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


def _small(c):
    """The engine's one coefficient rule: c, an int or Fraction, as an int
    when integral.  Int arithmetic is much faster than Fraction arithmetic,
    and an int compares, hashes and prints as the equal Fraction does."""
    return c.numerator if c.denominator == 1 else c


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
    only v's rules with that exponent (_rules_by_var) are tried.
    """
    buckets, out = ring._rules_by_var, []
    for m in level:
        pairs = m.pairs
        last, e = pairs[-1] if pairs else (0, 0)
        for v in range(last, ring.num_vars):
            head, top = (pairs[:-1], e + 1) if v == last else (pairs, 1)
            cand = _trusted_monomial(head + ((v, top),), m.degree + 1)
            for _, f, rule in buckets.get(v, ()):
                if f == top and rule.lhs.divides(cand):
                    break
            else:
                out.append(cand)
    return out


# The exponent bits of a variable's field in an exponent code, under its
# guard bit: two bytes a field, which struct reads at C speed.  The
# all-ones field is a free coordinate, so the largest exponent is 32766.
CODE_WIDTH = 15
_FREE = (1 << CODE_WIDTH) - 1


class _ExponentCodes:
    """Exponent vectors over one ring's variables packed into ints, the one
    form of the corner layer.  X0 owns the top field, each field has a
    guard bit above it, and a corner's free coordinate is the all-ones
    field.  So d lies below k in every coordinate exactly when no field of
    (k | guards) - d borrows its guard bit, and inside a degree grlex order
    is descending code order.  A set of variables (a prime, the finite
    coordinates of a code, its support) is a flag mask, the guard bits of
    its fields; spread, it masks those fields, so the sigma-part of a code
    is one AND with sigma's spread and its off-sigma part, free on sigma,
    one OR.  Only a report turns a prime into its variables (variables),
    and the Monomial stays at the Element boundary (encode, decode).
    """

    __slots__ = ("shifts", "ones", "guards", "_struct")

    def __init__(self, n):
        self.shifts = tuple((CODE_WIDTH + 1) * (n - 1 - v) for v in range(n))
        self.ones = sum(1 << s for s in self.shifts)
        self.guards = self.ones << CODE_WIDTH
        self._struct = struct.Struct(">%dH" % n)

    def encode(self, m):
        """The code of the monomial m; ExponentOverflow past 32766."""
        x = 0
        for v, e in m.pairs:
            if e >= _FREE:
                raise ExponentOverflow(
                    "exponent %d of X%d passes the largest exponent code, %d"
                    % (e, v, _FREE - 1))
            x |= e << self.shifts[v]
        return x

    def decode(self, x):
        """The monomial of a code whose every field is finite."""
        t = self.fields(x)
        return _trusted_monomial(tuple((v, e) for v, e in enumerate(t) if e),
                                 sum(t))

    def fields(self, x):
        """The fields of x, X0's first."""
        return self._struct.unpack(x.to_bytes(self._struct.size, "big"))

    def degree(self, x):
        """The exponent sum of x, every field finite."""
        return sum(self.fields(x))

    def grlex(self, x):
        """Sort key that orders codes as grlex_key orders monomials."""
        return self.degree(x), -x

    def below(self, d, k):
        """Does d lie below k in every coordinate?"""
        g = self.guards
        return ((k | g) - d) & g == g

    def copies(self, d, k):
        """The most copies of d, nonzero, whose sum lies below k."""
        t = self.fields(d)
        return min(map(floordiv, compress(self.fields(k), t), filter(None, t)))

    def lcm(self, x, y):
        """The field-wise max of x and y."""
        g = self.guards
        kept = self.spread(((x | g) - y) & g)  # the fields where x >= y
        return y ^ (x ^ y) & kept

    def finite(self, x):
        """The flag mask of the finite coordinates of x."""
        g = self.guards
        return g ^ (x + self.ones) & g

    def support(self, x):
        """The flag mask of the nonzero coordinates of x."""
        g = self.guards
        return ((x | g) - self.ones) & g

    @staticmethod
    def spread(flags):
        """The mask of the fields whose guard bits these flags are."""
        return flags - (flags >> CODE_WIDTH)

    def variables(self, flags):
        """The variable set, v for X_v, of a flag mask."""
        return frozenset(compress(count(), self.fields(flags >> CODE_WIDTH)))


def _staircase_corners(codes, points, corners):
    """The staircase corners of J + (X^u for u in ``points``), J the
    monomial ideal with these ``corners``, as a list of exponent codes
    (_ExponentCodes) in no particular order; a free coordinate is the
    all-ones field.  The points are codes of the same ring.

    A corner c stands for the irreducible component generated by
    X_v^(c_v + 1) over its finite coordinates v, and the ideal is the
    intersection of its components: a monomial lies outside it exactly when
    it lies below a corner (Miller & Sturmfels, Combinatorial Commutative
    Algebra, ch. 5).  The polynomial ring's one corner is free everywhere,
    and the unit ideal has none.  Berge's step (Berge, Hypergraphs, ch. 2)
    adds one point u at a time: every corner c above u gives way to one
    candidate per coordinate v where u is nonzero, c with v lowered to
    u_v - 1.  A candidate is dropped when a corner that u does not reach
    lies above it, or a reached corner with a lower v coordinate than c's
    does (it lies above the candidate from that corner and v); any other
    corner above it would lie above c.  No two candidates are compared.
    """
    below = codes.below
    corners = set(corners)
    for u in points:
        hit = [c for c in corners if below(u, c)]
        if not hit:
            continue
        corners.difference_update(hit)
        grown = []
        for s, e in zip(codes.shifts, codes.fields(u)):
            if not e:
                continue
            hit.sort(key=lambda c: c >> s & _FREE)
            lower = 0
            for c in hit:
                k = c >> s & _FREE
                while hit[lower] >> s & _FREE < k:
                    lower += 1
                d = c - ((k - e + 1) << s)
                for x in chain(corners, islice(hit, lower)):
                    if below(d, x):
                        break
                else:
                    grown.append(d)
        corners.update(grown)
    return list(corners)


def _meet_generators(codes, corners):
    """The minimal generators, as exponent codes, of the meet of the
    irreducible components with these ``corners``, a nonempty list.

    Alexander duality (Miller & Sturmfels, ch. 5) in the box a one past
    each coordinate's largest finite exponent, 0 where none is: m lies
    below the corner c exactly when a - m is a multiple of X^(a - c), with
    0 for a free coordinate of c, so the generators reflect the corners in
    the box of the dual ideal, whose generators are these codes
    (_staircase_corners).  The dual generators go by degree, so one that an
    earlier one divides splits no corner.
    """
    finite = [codes.spread(codes.finite(c)) for c in corners]
    parts = [c & f for c, f in zip(corners, finite)]
    box = reduce(codes.lcm, parts) + (reduce(or_, finite) & codes.ones)
    dual = sorted(((box - p) & f for p, f in zip(parts, finite)),
                  key=codes.degree)
    return [box - k for k in _staircase_corners(codes, dual, [box])]


class RewriteRule:
    """lhs -> 0 or lhs -> coeff * monomial, strictly degree-decreasing."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs=None):
        if lhs.is_one:
            raise InvalidPresentation("rule lhs must not be the unit monomial")
        if rhs is not None:
            coeff, mono = rhs
            coeff = _small(Fraction(coeff))
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
    these objects themselves; they hold ints where integral (_small).
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
        # The one rule index: a rule applies to m only if m has the largest
        # variable of its lhs, to at least the lhs's exponent there, so file
        # the rules under that variable, with that exponent and their rank.
        self._rules_by_var = {}
        for pos, rule in enumerate(self.rules):
            v, f = rule.lhs.pairs[-1]
            self._rules_by_var.setdefault(v, []).append((pos, f, rule))
        self._nf_cache = {}
        # No rule lhs is the unit monomial, so degree 0 holds just 1.
        self._levels = [(Monomial.one(),)]
        self._confluence_failures = None
        self._lift = None
        self._codes = _ExponentCodes(num_vars)
        # The corners start from these codes; an lhs exponent past the code
        # field raises ExponentOverflow here, where the ring is written.
        self._lhs_codes = tuple(self._codes.encode(r.lhs) for r in self.rules)
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
        for v, e in m.pairs:
            for pos, f, rule in buckets.get(v, ()):
                if pos >= best_pos:
                    break
                if f <= e and rule.lhs.divides(m):
                    best, best_pos = rule, pos
                    break
        return best

    def normal_form_monomial(self, m):
        """Normal form of a monomial as an Element (0 or coeff * monomial)."""
        # Every cached key was range-checked, or reached from a checked key
        # by rules whose monomials are in range, so a hit needs no check.
        cache = self._nf_cache
        cached = cache.get(m)
        if cached is not None:
            return cached
        self.check_variable_range(m)
        path = []
        coeff = 1
        cur = m
        while True:
            rule = self._first_applicable(cur)
            if rule is None:
                result = _trusted_element(self, {cur: coeff})
                break
            path.append((cur, coeff))
            if rule.rhs is None:
                result = Element.zero(self)
                break
            rc, rm = rule.rhs
            if rc != 1:
                coeff = _small(coeff * rc)
            cur = cur.div_mul(rule.lhs, rm)
            hit = cache.get(cur)
            if hit is not None:
                result = hit.scale(coeff)
                break
        # Cache the normal form of every monomial along the reduction path.
        for mono, c in path:
            cache[mono] = result.scale(Fraction(1, c)) if c != 1 else result
        return cache.setdefault(m, result)

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
            codes = self._codes
            self._corners = tuple(_staircase_corners(
                codes, self._lhs_codes, [codes.spread(codes.guards)]))
        return self._corners

    def finite_basis_max_degree(self):
        """Largest degree of a normal monomial, the largest corner degree,
        or None if there are infinitely many: exactly when a corner has a
        free coordinate."""
        codes, corners = self._codes, self._components()
        if any(codes.finite(c) != codes.guards for c in corners):
            return None
        return max(map(codes.degree, corners))


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
            c = c if type(c) is int else _small(Fraction(c))
            for n, d in ring.normal_form_monomial(m).terms.items():
                d = acc.get(n, 0) + d * c
                acc[n] = d if type(d) is int else _small(d)
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
        coeff = coeff if type(coeff) is int else _small(Fraction(coeff))
        if coeff == 0:
            return Element.zero(self.ring)
        return _trusted_element(self.ring, {
            m: _small(c * coeff) for m, c in self.terms.items()})

    def _check_ring(self, other):
        if self.ring is not other.ring:
            raise RingMismatch("elements live in different rings")

    def add(self, other):
        self._check_ring(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            c += acc.get(m, 0)
            acc[m] = c if type(c) is int else _small(c)
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
                    c = acc.get(m, 0) + c * c12
                    acc[m] = c if type(c) is int else _small(c)
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


def _trusted_element(ring, terms):
    """An Element whose terms are trusted to be nonzero and obey _small."""
    e = object.__new__(Element)
    e.ring = ring
    e.terms = terms
    return e


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


class CriticalPairResult(_Record):
    """A critical pair whose two one-step reducts have different normal
    forms."""

    __slots__ = ("lhs1", "lhs2", "overlap", "left", "right")

    def __init__(self, lhs1, lhs2, overlap, left, right):
        self.lhs1 = lhs1
        self.lhs2 = lhs2
        self.overlap = overlap
        self.left = left  # normal form of the reduct by the lhs1 rule
        self.right = right  # normal form of the reduct by the lhs2 rule

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
    return ring.normal_form_monomial(overlap.div_mul(rule.lhs, rm)).scale(rc)


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
