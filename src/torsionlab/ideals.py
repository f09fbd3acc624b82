"""Ideal presentations and colon/saturation/radical/minimal-prime algorithms.

Two regimes:

* monomial mode: every ring rule rewrites to zero and every generator is a
  monic monomial.  All operations here are exact.  Algorithms work on the
  lifted polynomial-ring ideal (generators plus the rule lhs monomials) and
  map results back by normalization; that is what makes colon, radical and
  minimal primes correct inside the quotient ring.
* general mode: anything else.  When every generator is a single term and
  the ring is confluent, membership is still exact and termwise: the rules
  plus g -> 0 for each generator complete to a Groebner basis by adding
  monomials only, so a normal term lies in the ideal exactly when one of
  those vanishing monomials divides it.  Two cases stay bounded: membership
  in an ideal with a polynomial generator, or in a non-confluent ring, is a
  certificate search by exact linear algebra (yes/unknown), and colon by a
  non-monomial or in a ring with a nonzero rule rhs is a sound search
  flagged incomplete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import NotMonomialMode, RingMismatch, UnitIdeal
from .ring import (
    FRACTION_ONE,
    Element,
    Monomial,
    check_local_confluence,
    grlex_key,
)

MONOMIAL_MODE = "monomial"
GENERAL_MODE = "general"

DEFAULT_ITERATION_CAP = 64

# The derived vanishing monomials of a handle before its first query.
_NOT_YET = object()


def _reduce_monomials(monos):
    """Inclusion-reduced basis of a monomial list, as a grlex-sorted tuple:
    drop duplicates and any monomial divisible by another kept one."""
    out = []
    for m in sorted(set(monos), key=grlex_key):
        if not any(k.divides(m) for k in out):
            out.append(m)
    return tuple(out)


def _colon_basis(basis, m):
    """Reduced basis of (J : m) for the monomial ideal J spanned by the basis
    monomials and a monomial m: each basis monomial divided by its gcd with
    m, reduced (Miller & Sturmfels, GTM 227, ch. 1)."""
    return _reduce_monomials([g.div(g.gcd(m)) for g in basis])


class IdealHandle:
    """Finite generator list inside a ring presentation.

    Handles are immutable.  Handles generated by single terms keep their
    generator monomials, reduced in monomial mode, and in monomial mode from
    the first call of lifted_monomials the reduced lifted basis, both as
    tuples.  From the first membership query, such a handle in a confluent
    ring keeps its derived vanishing monomials, each with its certificate
    (see _derived_vanishing); any other handle keeps None there.
    """

    __slots__ = ("ring", "generators", "mode", "complete", "_monomial_gens",
                 "_lifted", "_derived")

    def __init__(self, ring, elements, complete=True):
        gens = []
        for e in elements:
            if e.ring is not ring:
                raise RingMismatch("generator from a different ring")
            if e.is_zero:
                continue
            if e.is_single_term:
                # Units of the coefficient field never change the ideal.
                m, c = e.single_term()
                e = Element(ring, {m: FRACTION_ONE})
            gens.append(e)
        monomial = ring.all_rhs_zero and all(g.is_monomial for g in gens)
        monos = None
        if monomial:
            monos = _reduce_monomials([g.single_term()[0] for g in gens])
            gens = [Element(ring, {m: FRACTION_ONE}) for m in monos]
            mode = MONOMIAL_MODE
        else:
            seen = set()
            uniq = []
            for g in sorted(gens, key=lambda g: g.canonical_key()):
                key = g.canonical_key()
                if key not in seen:
                    seen.add(key)
                    uniq.append(g)
            gens = uniq
            mode = GENERAL_MODE
            if all(g.is_single_term for g in gens):
                monos = tuple(g.single_term()[0] for g in gens)
        self.ring = ring
        self.generators = tuple(gens)
        self.mode = mode
        self.complete = complete
        self._monomial_gens = monos
        self._lifted = None
        self._derived = _NOT_YET

    @classmethod
    def from_monomials(cls, ring, monos, complete=True):
        return cls(ring, [Element.from_monomial(ring, m) for m in monos],
                   complete=complete)

    @classmethod
    def zero(cls, ring):
        return cls(ring, [])

    @classmethod
    def unit(cls, ring):
        return cls(ring, [Element.constant(ring, 1)])

    @property
    def is_monomial_mode(self):
        return self.mode == MONOMIAL_MODE

    @property
    def is_zero(self):
        return not self.generators

    @property
    def is_unit(self):
        return any(g.is_single_term and g.single_term()[0].is_one
                   for g in self.generators)

    def monomial_generators(self):
        self._require_monomial()
        return self._monomial_gens

    def _require_monomial(self):
        if not self.is_monomial_mode:
            raise NotMonomialMode("operation requires a monomial-mode ideal")

    def lifted_monomials(self):
        """Generators plus rule lhs monomials: the polynomial-ring ideal
        whose image in the quotient is this ideal."""
        self._require_monomial()
        if self._lifted is None:
            self._lifted = _reduce_monomials(
                self._monomial_gens
                + tuple(rule.lhs for rule in self.ring.rules))
        return self._lifted

    def contains_monomial(self, m):
        """Exact membership for a monomial, monomial mode only."""
        self._require_monomial()
        nf = self.ring.normal_form_monomial(m)
        if nf.is_zero:
            return True
        mono = nf.single_term()[0]
        return any(g.divides(mono) for g in self._monomial_gens)

    def _derived_vanishing(self):
        """The monomials beyond the generators that vanish in R/I, each with
        its certificate ((generator index, multiplier), ...); None unless
        every generator is a single term and the ring is confluent.

        Confluent rules are a Groebner basis, so adding g -> 0 per generator
        leaves only the pairs of a rule lhs -> c*rhs with a vanishing z that
        shares a variable (Buchberger's criterion).  Their S-polynomial is
        the single term c*NF((L/lhs)*rhs) = c*c2*u at L = lcm(lhs, z); a u
        no vanishing monomial divides is added, with u = (L/z)*z / (c*c2)
        in R as its certificate.  Dickson's lemma ends the loop.  A normal
        term is in I exactly when a generator or a derived monomial
        divides it (Eisenbud & Sturmfels, Duke Math. J. 1996).
        """
        if self._derived is _NOT_YET:
            ring = self.ring
            gens = self._monomial_gens
            self._derived = None
            if self.is_monomial_mode:
                # No rule has a rhs, so no pair arises.
                self._derived = ()
            elif gens is not None and not check_local_confluence(ring):
                one = Element(ring, {Monomial.one(): FRACTION_ONE})
                vanishing = [(g, ((k, one),)) for k, g in enumerate(gens)]
                # The loop also visits the monomials it appends.
                for z, cert in vanishing:
                    for rule in ring.rules:
                        if rule.rhs is None or rule.lhs.gcd(z).is_one:
                            continue
                        c, rhs = rule.rhs
                        lcm = rule.lhs.lcm(z)
                        nf = ring.normal_form_monomial(
                            lcm.div(rule.lhs).mul(rhs))
                        if nf.is_zero:
                            continue
                        u, c2 = nf.single_term()
                        if any(v.divides(u) for v, _ in vanishing):
                            continue
                        q = ring.normal_form_monomial(lcm.div(z)).scale(
                            1 / (c * c2))
                        vanishing.append(
                            (u, tuple((k, q.mul(h)) for k, h in cert)))
                self._derived = tuple(vanishing[len(gens):])
        return self._derived

    def equals(self, other):
        """Ideal equality; may return None (undecided) in general mode."""
        if self.ring is not other.ring:
            raise RingMismatch("ideals live in different rings")
        if self.is_monomial_mode and other.is_monomial_mode:
            return self._monomial_gens == other._monomial_gens
        one = _mutual_inclusion(self, other)
        two = _mutual_inclusion(other, self)
        if one is True and two is True:
            return True
        if one is False or two is False:
            return False
        return None

    def __repr__(self):
        return "IdealHandle(%s)" % format_ideal(self)


def format_ideal(ideal):
    from .ring import format_element
    if ideal.is_zero:
        return "ideal(0)"
    return "ideal(%s)" % ", ".join(
        format_element(g) for g in ideal.generators)


@dataclass(frozen=True)
class MembershipAnswer:
    """Yes answers always carry a certificate that re-multiplies to f.

    The termwise decision answers yes or no and has no search_bound.  An
    "unknown" verdict comes only from the certificate search and means no
    certificate with multiplier degree up to search_bound exists; that
    search never asserts a hard no.
    """
    verdict: str  # "yes" | "no" | "unknown"
    certificate: Optional[tuple] = None  # ((generator index, Element), ...)
    search_bound: Optional[int] = None

    @property
    def is_yes(self):
        return self.verdict == "yes"


def _check_shared_ring(a, b):
    if a.ring is not b.ring:
        raise RingMismatch("operands live in different rings")


def ideal_membership(f, ideal, multiplier_degree_bound=None):
    """Decide f in I.  Exact, term by term, for an ideal generated by single
    terms in a confluent ring, so in monomial mode too; a certificate search
    with multipliers up to the bound otherwise."""
    if f.ring is not ideal.ring:
        raise RingMismatch("element and ideal live in different rings")
    if f.is_zero:
        return MembershipAnswer("yes", certificate=())
    derived = ideal._derived_vanishing()
    if derived is not None:
        gens = ideal._monomial_gens
        parts = {}
        for t in f.monomials():
            c = f.terms[t]
            for k, g in enumerate(gens):
                if g.divides(t):
                    # A divisor of a normal monomial is normal.
                    q = t.div(g)
                    part = parts.setdefault(k, {})
                    part[q] = part.get(q, 0) + c
                    break
            else:
                for z, cert in derived:
                    if z.divides(t):
                        q = Element(f.ring, {t.div(z): c})
                        for k, h in cert:
                            part = parts.setdefault(k, {})
                            for m, d in q.mul(h).terms.items():
                                part[m] = part.get(m, 0) + d
                        break
                else:
                    return MembershipAnswer("no")
        cert = tuple((k, Element(f.ring, parts[k])) for k in sorted(parts))
        return MembershipAnswer("yes", certificate=cert)
    if multiplier_degree_bound is None:
        multiplier_degree_bound = f.degree + 2
    cert = _certificate_search(f, ideal.generators, multiplier_degree_bound,
                               normal_only=True)
    if cert is not None:
        return MembershipAnswer("yes", certificate=cert,
                                search_bound=multiplier_degree_bound)
    return MembershipAnswer("unknown", search_bound=multiplier_degree_bound)


def brute_force_membership(f, ideal, degree_bound):
    """Independent oracle: exact linear-algebra search over all multiplier
    monomials (normal or not) of degree up to the bound.  Returns yes with a
    certificate, or unknown (read: no certificate up to this bound)."""
    if f.ring is not ideal.ring:
        raise RingMismatch("element and ideal live in different rings")
    if f.is_zero:
        return MembershipAnswer("yes", certificate=(), search_bound=degree_bound)
    cert = _certificate_search(f, ideal.generators, degree_bound,
                               normal_only=False)
    if cert is not None:
        return MembershipAnswer("yes", certificate=cert,
                                search_bound=degree_bound)
    return MembershipAnswer("unknown", search_bound=degree_bound)


def _all_monomials_up_to(num_vars, bound):
    out = [Monomial.one()]
    frontier = [Monomial.one()]
    for _ in range(bound):
        nxt = []
        for m in frontier:
            for v in range(max(m.max_var(), 0), num_vars):
                nxt.append(m.mul(Monomial.variable(v)))
        out.extend(nxt)
        frontier = nxt
    return sorted(set(out), key=grlex_key)


def _certificate_search(f, generators, bound, normal_only):
    """Find multipliers h_k with sum g_k * h_k = f, multiplier degree <= bound.

    Exact Gaussian elimination over the rationals.  Every ring element is a
    combination of normal monomials, so restricting multipliers to normal
    monomials loses nothing; the unrestricted variant exists for the
    independent brute-force oracle.
    """
    ring = f.ring
    if not generators:
        return None
    if normal_only:
        multipliers = ring.normal_monomials_up_to(bound)
    else:
        multipliers = _all_monomials_up_to(ring.num_vars, bound)
    columns = []
    labels = []
    seen_cols = set()
    for k, g in enumerate(generators):
        for m in multipliers:
            prod = g.mul(Element(ring, {m: Fraction(1)}))
            if prod.is_zero:
                continue
            vec = tuple(sorted((mm.pairs, c) for mm, c in prod.terms.items()))
            if vec in seen_cols:
                continue
            seen_cols.add(vec)
            columns.append(dict(prod.terms))
            labels.append((k, m))
    target = dict(f.terms)
    solution = _solve_exact(columns, target)
    if solution is None:
        return None
    parts = {}
    for (k, m), coeff in zip(labels, solution):
        if coeff:
            parts.setdefault(k, []).append((m, coeff))
    cert = tuple(
        (k, Element.from_terms(ring, pairs))
        for k, pairs in sorted(parts.items()))
    return cert


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
            factor = vec[key] / pcol[key]
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


def ideal_sum(a, b):
    _check_shared_ring(a, b)
    return IdealHandle(a.ring, list(a.generators) + list(b.generators),
                       complete=a.complete and b.complete)


def ideal_product(a, b):
    _check_shared_ring(a, b)
    gens = [g.mul(h) for g in a.generators for h in b.generators]
    return IdealHandle(a.ring, gens, complete=a.complete and b.complete)


def ideal_power(a, n):
    if n < 0:
        raise ValueError("negative ideal power")
    acc = IdealHandle.unit(a.ring)
    for _ in range(n):
        acc = ideal_product(acc, a)
    return acc


def ideal_intersection(a, b):
    """Exact in monomial mode via pairwise lcm of generators."""
    _check_shared_ring(a, b)
    a._require_monomial()
    b._require_monomial()
    monos = [g.lcm(h)
             for g in a.monomial_generators()
             for h in b.monomial_generators()]
    return IdealHandle.from_monomials(a.ring, monos,
                                      complete=a.complete and b.complete)


def ideal_colon(ideal, f, multiplier_degree_bound=None):
    """(I : f) = {g | g*f in I}.

    Exact for monomial-mode I and single-term f via divisibility quotients of
    the lifted generators.  Otherwise a bounded sound search, flagged
    incomplete.
    """
    if f.ring is not ideal.ring:
        raise RingMismatch("element and ideal live in different rings")
    if f.is_zero:
        return IdealHandle.unit(ideal.ring)
    if ideal.is_monomial_mode and f.is_single_term:
        # Non-normal quotients are zero in the ring; the handle drops them.
        return IdealHandle.from_monomials(
            ideal.ring,
            _colon_basis(ideal.lifted_monomials(), f.single_term()[0]),
            complete=ideal.complete)
    if multiplier_degree_bound is None:
        multiplier_degree_bound = f.degree + 2
    return _bounded_colon(ideal, (f,), multiplier_degree_bound)


def _bounded_colon(ideal, factors, bound):
    """Sound bounded search for (I : <factors>): the normal monomials up to
    the bound whose product with every factor is certified in I, flagged
    incomplete."""
    found = []
    for m in ideal.ring.normal_monomials_up_to(bound):
        g = Element(ideal.ring, {m: Fraction(1)})
        if all(ideal_membership(g.mul(h), ideal, bound).is_yes
               for h in factors):
            found.append(g)
    return IdealHandle(ideal.ring, found, complete=False)


def ideal_colon_ideal(ideal, other, multiplier_degree_bound=None):
    """(I : J) as the intersection over generators of J of (I : g); one
    bounded search for all of them when a rule has a nonzero rhs."""
    _check_shared_ring(ideal, other)
    if other.is_zero:
        return IdealHandle.unit(ideal.ring)
    if ideal.ring.all_rhs_zero:
        acc = None
        for g in other.generators:
            part = ideal_colon(ideal, g, multiplier_degree_bound)
            acc = part if acc is None else ideal_intersection(acc, part)
        return acc
    bound = multiplier_degree_bound
    if bound is None:
        bound = max(g.degree for g in other.generators) + 2
    return _bounded_colon(ideal, other.generators, bound)


def _mutual_inclusion(a, b):
    """Is every generator of a in b?  True / False / None (undecided)."""
    verdicts = [ideal_membership(g, b).verdict for g in a.generators]
    if all(v == "yes" for v in verdicts):
        return True
    if any(v == "no" for v in verdicts):
        return False
    return None


@dataclass(frozen=True)
class SaturationResult:
    ideal: IdealHandle
    stabilized: bool
    steps: int


def _power_kill_exponent(acting, module, target, iteration_cap):
    """Smallest n <= iteration_cap with acting^n * module inside target, or
    None.  Monomial mode only.

    Walks the products of n generators of acting, level by level, keeping
    each with the module generators it still sends outside target.  Once
    p * m lies in target so does every multiple of it, so a product with
    none left is dropped, and the first empty level is n.  No power of
    acting is built as an ideal (Cox, Little & O'Shea, ch. 9 section 2).
    """
    outside = tuple(m for m in module.monomial_generators()
                    if not target.contains_monomial(m))
    if not outside:
        return 0
    gens = acting.monomial_generators()
    level = {Monomial.one(): outside}
    for n in range(1, iteration_cap + 1):
        grown = {}
        for p, escaping in level.items():
            for g in gens:
                q = p.mul(g)
                if q not in grown:
                    grown[q] = tuple(m for m in escaping
                                     if not target.contains_monomial(q.mul(m)))
        level = {q: escaping for q, escaping in grown.items() if escaping}
        if not level:
            return n
    return None


def power_order(acting, m):
    """Largest k with the normal monomial m in acting^k (monomial mode): the
    most generators of acting whose product divides m.  Unbounded (inf)
    when acting is the unit ideal."""
    gens = acting.monomial_generators()
    if acting.is_unit:
        return math.inf
    memo = {}

    def order(d):
        got = memo.get(d)
        if got is None:
            got = 0
            if not d.is_one:
                # A best product either uses a generator on the first
                # variable of d, or divides d with that variable dropped.
                v = d.pairs[0][0]
                got = order(Monomial(d.pairs[1:]))
                for g in gens:
                    if g.pairs[0][0] == v and g.divides(d):
                        got = max(got, 1 + order(d.div(g)))
            memo[d] = got
        return got

    return order(m)


def _monomial_saturation(ideal, other):
    """(I : J^inf) in monomial mode, J nonzero.

    For a monomial g, the lifted basis of I with the exponents on supp(g)
    set to zero generates (I : g^inf); (I : J^inf) is the intersection of
    those over the generators of J (Miller & Sturmfels, GTM 227, ch. 1).
    """
    acc = None
    for g in other.monomial_generators():
        drop = g.support
        part = IdealHandle.from_monomials(ideal.ring, [
            Monomial((v, e) for v, e in m.pairs if v not in drop)
            for m in ideal.lifted_monomials()], complete=ideal.complete)
        acc = part if acc is None else ideal_intersection(acc, part)
    return acc


def ideal_saturation(ideal, other, iteration_cap=DEFAULT_ITERATION_CAP):
    """(I : J^inf), with the steps of the ascending chain I, (I:J),
    ((I:J):J), ... until it stops moving.

    The chain stops at the first n with J^n * (I : J^inf) inside I.  In
    monomial mode with J nonzero the saturation has a closed form, so that
    n is found directly; the chain itself runs in general mode and when no
    such n is below the cap.
    """
    _check_shared_ring(ideal, other)
    if ideal.is_monomial_mode and other.is_monomial_mode and not other.is_zero:
        sat = _monomial_saturation(ideal, other)
        steps = _power_kill_exponent(other, sat, ideal, iteration_cap - 1)
        if steps is not None:
            # At step 0 the chain hands back I itself.
            return SaturationResult(ideal if steps == 0 else sat, True, steps)
    current = ideal
    for step in range(iteration_cap):
        nxt = ideal_colon_ideal(current, other)
        if nxt.equals(current) is True:
            return SaturationResult(current, True, step)
        current = nxt
    return SaturationResult(current, False, iteration_cap)


def ideal_radical(ideal):
    """Radical of a monomial-mode ideal: squarefree parts of the lifted
    generators, mapped back into the quotient."""
    ideal._require_monomial()
    if ideal.is_unit:
        return IdealHandle.unit(ideal.ring)
    return IdealHandle.from_monomials(
        ideal.ring, [g.squarefree() for g in ideal.lifted_monomials()],
        complete=ideal.complete)


def minimal_transversals(edges):
    """Inclusion-minimal hitting sets of a family of nonempty vertex sets,
    by Berge's step (Berge, Hypergraphs, 1989, ch. 2): take the edges by
    increasing size; a cover that meets the edge stays, any other grows by
    one vertex of the edge unless it then contains a cover that stayed."""
    covers = [frozenset()]
    for edge in sorted(map(frozenset, edges), key=len):
        kept = [c for c in covers if c & edge]
        grown = [c | {v} for c in covers if not c & edge for v in edge]
        covers = kept + [g for g in grown if not any(k <= g for k in kept)]
    return sorted(covers, key=lambda s: (len(s), sorted(s)))


def minimal_primes(ideal):
    """Minimal primes over a proper monomial-mode ideal, as variable sets.

    These are the minimal transversals of the supports of the lifted
    generators; with no rules and no generators the zero prime (empty set)
    is the unique answer.
    """
    ideal._require_monomial()
    return _basis_minimal_primes(ideal.lifted_monomials())


def _basis_minimal_primes(basis):
    """Minimal primes over the monomial ideal with this reduced lifted basis:
    the minimal transversals of the basis supports."""
    supports = [m.support for m in basis]
    if any(not s for s in supports):
        raise UnitIdeal("the unit ideal has no minimal primes")
    return minimal_transversals(supports)
