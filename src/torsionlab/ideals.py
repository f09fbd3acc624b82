"""Ideal presentations and colon/saturation/radical/minimal-prime algorithms.

Every algorithm works on the lifted ideal: the preimage of an ideal of the
quotient ring in the polynomial ring, spanned by the generators and the
rule binomials lhs - c*rhs.  Results map back by normal forms.

* monomial mode: every ring rule rewrites to zero and every generator is a
  monic monomial.  The lifted ideal is a monomial ideal, so membership,
  colon by a monomial, intersection, saturation and radical have closed
  forms over its reduced monomial basis, and minimal primes and the step
  count of a saturation are read off staircase corners, the irreducible
  components of the radical and of the ideal.  So is a saturation that is
  the unit ideal or the ideal itself; any other meets the closed forms of
  the saturations by each generator.  Corners, generators and rooms are
  the ring's exponent codes (ring._ExponentCodes).
* general mode: anything else, in a confluent ring.  Confluent rules are a
  Groebner basis of the rule ideal for a degree-compatible order, so each
  handle completes its generators and the rules to one reduced Groebner
  basis (Buchberger's algorithm; Cox, Little & O'Shea, Ideals, Varieties,
  and Algorithms, ch. 2).  Membership is division by it, with cofactors
  that certify a yes, equality compares reduced bases, intersection
  eliminates a tag variable and colon divides the intersection with (f)
  by f (ch. 4, sections 3-4).  A completion that spends WORK_BUDGET
  stops; the answer then carries the existing incomplete flag.

Colon and saturation by a term c*m take one route (_term_quotient) and
differ only in a monomial closed form and an elimination: the closed form
on the lifted basis in monomial mode, or on the Groebner basis's monomial
entries when m avoids every entry of two or more terms (_monomial_split),
else the elimination.  A quotient by an ideal meets those by its
generators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heappop, heappush
from itertools import accumulate
from operator import or_

from .errors import NonConfluent, NotMonomialMode, RingMismatch, UnitIdeal
from .ring import (
    Element,
    Monomial,
    _Record,
    _small,
    _staircase_corners,
    check_local_confluence,
    grlex_key,
)

MONOMIAL_MODE = "monomial"
GENERAL_MODE = "general"

# Term operations (one monomial product each, in S-polynomials, reduction
# steps and cofactor sums) one Buchberger completion may spend before it
# gives up.  A pair count would not bound the time: one pair can cost
# seconds once the basis polynomials grow.
WORK_BUDGET = 3_000_000

# The Groebner basis of a handle before its first general-mode query.
_NOT_YET = object()


class _OutOfBudget(Exception):
    """A completion spent WORK_BUDGET."""


class _Budget:
    """The term operations one completion has left."""

    __slots__ = ("left",)

    def __init__(self):
        self.left = WORK_BUDGET

    def spend(self, n):
        self.left -= n
        if self.left < 0:
            raise _OutOfBudget()


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


# ------------------------------------------------------ Groebner completion
#
# A basis entry is (lead, terms, cofactors): terms is a monic polynomial of
# the polynomial ring the quotient ring lifts to, plus the elimination tag,
# as a {Monomial: coefficient} dict; lead is its leading monomial, and
# cofactors maps generator index k to an Element h_k of the quotient ring
# with terms = sum h_k * g_k there (rule binomials have none), or is None
# in the tagged computations, which want no certificate.


class _TermOrder(dict):
    """Sort keys of the term order, cached per monomial: the exponent of the
    tag variable first, which makes it an elimination order for the tag,
    then grlex."""

    __slots__ = ("tag",)

    def __init__(self, tag):
        super().__init__()
        self.tag = tag

    def __missing__(self, m):
        pairs = m.pairs
        tagged = pairs[-1][1] if pairs and pairs[-1][0] == self.tag else 0
        key = self[m] = (tagged, grlex_key(m))
        return key


def _lift(ring):
    """(rule entries, term order) of a confluent ring.

    The rule binomials lhs - c*rhs lead with lhs, since every rule lowers
    degree; confluent rules are a Groebner basis of the ideal they span, so
    no completion starts from scratch.  The term order knows one more
    variable than the ring, the elimination tag.
    """
    if ring._lift is None:
        failures = check_local_confluence(ring)
        if failures:
            raise NonConfluent(str(failures[0]))
        rules = []
        for rule in ring.rules:
            terms = {rule.lhs: 1}
            if rule.rhs is not None:
                c, m = rule.rhs
                terms[m] = -c
            rules.append((rule.lhs, terms, {}))
        ring._lift = (tuple(rules), _TermOrder(ring.num_vars))
    return ring._lift


def _size(c):
    """Word count of a coefficient: the cost of one arithmetic operation
    on it grows with it."""
    if type(c) is int:
        return 1 + c.bit_length() // 64
    return 1 + (c.numerator.bit_length() + c.denominator.bit_length()) // 64


class _Reducers(tuple):
    """Basis entries, with the (position, lead, poly) of each filed under
    the last variable of its lead (-1 for the lead 1): a lead divides m
    only if its last variable occurs in m."""

    def __new__(cls, entries):
        self = super().__new__(cls, entries)
        self.by_last = {}
        for i, (lead, poly, _) in enumerate(self):
            self.by_last.setdefault(lead.max_var(), []).append(
                (i, lead, poly))
        return self

    def find(self, m):
        """The first (position, lead, poly) whose lead divides m, or None."""
        by_last = self.by_last
        for v, _ in ((-1, 0),) + m.pairs:
            for hit in by_last.get(v, ()):
                if hit[1].divides(m):
                    return hit
        return None


def _divide(terms, basis, order, quotients=None, budget=None):
    """Remainder of the polynomial ``terms`` on division by the monic
    entries of the _Reducers ``basis``, largest term first.  With a dict
    ``quotients``, entry i's quotient is left in quotients[i], so
    terms = sum q_i * poly_i + rest.  Each step spends from ``budget``."""
    f = {m: _small(c) for m, c in terms.items()}
    rest = {}
    while f:
        m = max(f, key=order.__getitem__) if len(f) > 1 else next(iter(f))
        c = f[m]
        hit = basis.find(m)
        if hit is None:
            rest[m] = f.pop(m)
        else:
            i, lead, poly = hit
            if budget is not None:
                budget.spend(len(poly) * _size(c))
            # Subtracting c*q*poly cancels m, poly being monic.
            q = m.div(lead)
            for gm, gc in poly.items():
                n = q.mul(gm)
                v = f.get(n, 0) - c * gc
                if v:
                    f[n] = v
                else:
                    del f[n]
            if quotients is not None:
                quotients.setdefault(i, {})[q] = c
    return rest


def _cofactor_sum(ring, parts, budget=None):
    """sum q * cofactors over (q, cofactors) parts, q a {monomial: coeff}
    polynomial, as a generator-index -> Element dict of the quotient ring."""
    acc = {}
    for q, cofactors in parts:
        for k, h in cofactors.items():
            if budget is not None:
                budget.spend(len(q) * sum(map(_size, h.terms.values())))
            part = acc.setdefault(k, {})
            for qm, qc in q.items():
                for hm, hc in h.terms.items():
                    w = qc * hc
                    if qm.is_one:
                        # h is in normal form already.
                        part[hm] = part.get(hm, 0) + w
                        continue
                    for m, c in ring.normal_form_monomial(
                            qm.mul(hm)).terms.items():
                        part[m] = part.get(m, 0) + w * c
    out = {k: Element(ring, {m: _small(c) for m, c in part.items()})
           for k, part in acc.items()}
    return {k: h for k, h in out.items() if h.terms}


def _entry(ring, rest, parts, quotients, basis, order, budget=None):
    """The remainder ``rest`` of a division by ``basis``, with its
    ``quotients``, as a monic entry, or None when it is zero.  ``parts`` is
    None, or (q, cofactors) pairs whose sum of q * cofactors is the
    cofactors of the divided polynomial; the entry's cofactors are then
    carried along, and computed only for a nonzero remainder."""
    if not rest:
        return None
    lead = max(rest, key=order.__getitem__)
    inverse = Fraction(1, rest[lead])
    poly = {m: _small(c * inverse) for m, c in rest.items()}
    cofactors = None
    if parts is not None:
        scaled = [({m: _small(c * inverse) for m, c in q.items()}, cof)
                  for q, cof in parts]
        scaled.extend(({m: _small(-c * inverse) for m, c in q.items()},
                       basis[i][2]) for i, q in quotients.items())
        cofactors = _cofactor_sum(ring, scaled, budget)
    return lead, poly, cofactors


def _complete(ring, known, fresh):
    """A minimal Groebner basis, as entries, of the ideal spanned by the
    ``known`` entries, which are a Groebner basis already, and the
    ``fresh`` (terms, parts) pairs, parts as _entry takes them.

    Buchberger's algorithm, pairs by least lcm, with Gebauer and Moeller's
    update (J. Symbolic Comput. 6, 1988; Becker & Weispfenning, Groebner
    Bases, ch. 5.5): a new pair is dropped when its leads are coprime after
    dividing out the common monomial factor of the two polynomials, or
    another new pair's lcm divides its lcm; an old pair when the new lead
    divides its lcm strictly on both sides; an old element when the new
    lead divides its lead.  Pairs among the known entries count as done.
    """
    order = _lift(ring)[1]
    budget = _Budget()
    basis = list(known)
    contents = [reduce(Monomial.gcd, poly) for _, poly, _ in basis]
    live = list(range(len(basis)))
    reducers = _Reducers(basis)
    pairs = {}
    queue = []

    def admit(terms, parts):
        """Add the remainder of terms, if nonzero, with its pairs."""
        nonlocal reducers
        quotients = {}
        rest = _divide(terms, reducers, order, quotients, budget)
        entry = _entry(ring, rest, parts, quotients, reducers, order, budget)
        if entry is None:
            return
        h = entry[0]
        j = len(basis)
        basis.append(entry)
        content = reduce(Monomial.gcd, entry[1])
        contents.append(content)
        news = []
        for i in live:
            lead = basis[i][0]
            lcm = lead.lcm(h)
            # The leads are coprime once the common monomial factor of
            # both polynomials is divided out: the S-polynomial reduces to
            # zero, but the pair still serves the criterion.
            done = lcm.degree == (lead.degree + h.degree
                                  - contents[i].gcd(content).degree)
            news.append((lcm.degree, i, lcm, done))
        news.sort()  # by lcm degree, then position: never ties
        kept = []
        for pos, (d, i, lcm, done) in enumerate(news):
            # Only an equal lcm comes later; a divisor came earlier.
            if done or not (
                    any(n[0] == d and n[2] == lcm for n in news[pos + 1:])
                    or any(m.divides(lcm) for m, _, _ in kept)):
                kept.append((lcm, i, done))
        for (i, k), lcm in list(pairs.items()):
            if (h.divides(lcm) and basis[i][0].lcm(h) != lcm
                    and basis[k][0].lcm(h) != lcm):
                del pairs[i, k]
        for lcm, i, done in kept:
            if not done:
                pairs[i, j] = lcm
                heappush(queue, (order[lcm], i, j))
        live[:] = [i for i in live if not h.divides(basis[i][0])] + [j]
        reducers = _Reducers(basis[i] for i in live)

    for terms, parts in fresh:
        admit(terms, parts)
    while queue:
        _, i, j = heappop(queue)
        lcm = pairs.pop((i, j), None)
        if lcm is None:
            continue
        (li, pi, ci), (lj, pj, cj) = basis[i], basis[j]
        budget.spend(len(pi) + len(pj))
        ui, uj = lcm.div(li), lcm.div(lj)
        terms = {ui.mul(m): c for m, c in pi.items()}
        for m, c in pj.items():
            n = uj.mul(m)
            v = terms.get(n, 0) - c
            if v:
                terms[n] = v
            else:
                del terms[n]
        parts = None if ci is None else [({ui: 1}, ci), ({uj: -1}, cj)]
        admit(terms, parts)
    return [basis[i] for i in live]


def _reduced(ring, basis):
    """The reduced Groebner basis, as entries sorted by lead, of the ideal
    with Groebner basis ``basis``: one entry per minimal lead, each reduced
    by the others."""
    order = _lift(ring)[1]
    minimal = []
    for lead, poly, cofactors in sorted(basis, key=lambda e: order[e[0]]):
        if not any(other.divides(lead) for other, _, _ in minimal):
            minimal.append((lead, poly, cofactors))
    # No lead divides a smaller monomial, so an entry never reduces its own
    # tail, and the tails reduce by the whole minimal basis at once.
    reducers = _Reducers(minimal)
    out = []
    for entry in minimal:
        lead, poly, cofactors = entry
        quotients = {}
        rest = _divide({m: c for m, c in poly.items() if m != lead},
                       reducers, order, quotients)
        if quotients:
            rest[lead] = 1
            parts = None if cofactors is None else [({Monomial.one(): 1},
                                                     cofactors)]
            entry = _entry(ring, rest, parts, quotients, reducers, order)
        out.append(entry)
    return tuple(out)


def _eliminate(ring, basis, polys):
    """Reduced Groebner basis entries of B cap (polys), B the ideal with
    Groebner basis ``basis``: the tag-free part of the reduced basis of
    t*B + (1 - t)*(polys) under the elimination order."""
    tag = Monomial.variable(ring.num_vars)
    known = [(lead.mul(tag), {m.mul(tag): c for m, c in poly.items()}, None)
             for lead, poly, _ in basis]
    fresh = []
    for terms in polys:
        tagged = {m.mul(tag): -c for m, c in terms.items()}
        tagged.update(terms)
        fresh.append((tagged, None))
    return _tag_free(ring, known, fresh)


def _tag_free(ring, known, fresh):
    """The reduced tag-free part of the completion of known plus fresh:
    the entries whose lead avoids the tag variable X_num_vars."""
    return _reduced(ring, [entry for entry in _complete(ring, known, fresh)
                           if entry[0].max_var() < ring.num_vars])


def _generator_key(g):
    """Generators sort by their terms from the leading one down, in grlex
    order, so a monomial basis keeps its grlex order."""
    return tuple((grlex_key(m), g.terms[m]) for m in reversed(g.monomials()))


class IdealHandle:
    """Finite generator list inside a ring presentation.

    Handles are immutable and interned: a ring keeps one handle per reduced
    generator tuple, complete flag and WORK_BUDGET, and it holds every fact
    known about its ideal.  Each monic generator is the shared Element that
    the ring's normal-form cache holds for its monomial; a single term with
    normal form zero is dropped, and a multi-term Element is trusted to be
    in normal form.  Facts are filled on first use: in monomial mode the
    generators' exponent codes (ring._ExponentCodes), the reduced lifted
    basis and the staircase corners of the lifted ideal, its irreducible
    components, as codes with the flag mask of their finite coordinates; in
    general mode the reduced Groebner basis of the lifted ideal, with
    cofactors over the generators, or None when that one completion ran out
    of WORK_BUDGET; saturations; assassin reports; and, in monomial mode,
    the membership answer for each monomial asked of contains_monomial.
    """

    __slots__ = ("ring", "generators", "mode", "complete", "_monomial_gens",
                 "_exponents", "_lifted", "_corners", "_basis", "_saturations",
                 "_assassins", "_members")

    def __new__(cls, ring, elements, complete=True):
        gens = []
        for e in elements:
            if e.ring is not ring:
                raise RingMismatch("generator from a different ring")
            if not e.is_zero:
                gens.append(e)
        # Units never change the ideal: a single term stands for its monic,
        # or drops out when that is zero.  In monomial mode so does every
        # multiple of it, so the reduction can come first.
        monos = None
        if ring.all_rhs_zero and all(g.is_single_term for g in gens):
            monos = _reduce_monomials([g.single_term()[0] for g in gens])
            gens = [nf for nf in map(ring.normal_form_monomial, monos)
                    if not nf.is_zero]
            key = monos = tuple(g.single_term()[0] for g in gens)
            mode = MONOMIAL_MODE
        else:
            gens = [ring.normal_form_monomial(g.single_term()[0])
                    if g.is_single_term else g for g in gens]
            unique = {_generator_key(g): g for g in gens if not g.is_zero}
            key = tuple(sorted(unique))
            gens = [unique[k] for k in key]
            mode = GENERAL_MODE
        key = (key, complete, WORK_BUDGET)
        self = ring._ideals.get(key)
        if self is None:
            self = ring._ideals[key] = super().__new__(cls)
            self.ring = ring
            self.generators = tuple(gens)
            self.mode = mode
            self.complete = complete
            self._monomial_gens = monos
            self._exponents = None
            self._lifted = None
            self._corners = None
            self._basis = _NOT_YET
            self._saturations = {}
            self._assassins = {}
            self._members = None
        return self

    @classmethod
    def from_monomials(cls, ring, monos, complete=True):
        return cls(ring, [ring.normal_form_monomial(m) for m in monos],
                   complete=complete)

    @classmethod
    def zero(cls, ring):
        return cls(ring, [])

    @classmethod
    def unit(cls, ring, complete=True):
        """The unit ideal, as IdealHandle(ring, [1], complete) interns it;
        the ring's ideal table keeps it under (complete, WORK_BUDGET) too."""
        key = (complete, WORK_BUDGET)
        return ring._ideals.get(key) or ring._ideals.setdefault(
            key, cls(ring, [Element.constant(ring, 1)], complete=complete))

    @property
    def is_monomial_mode(self):
        return self.mode == MONOMIAL_MODE

    @property
    def is_zero(self):
        return not self.generators

    @property
    def is_unit(self):
        """Is this the unit ideal?  A constant generator says so; otherwise
        only a general-mode Groebner basis can (its lead is then 1)."""
        if any(g.is_single_term and g.single_term()[0].is_one
               for g in self.generators):
            return True
        if self.is_monomial_mode or self.is_zero:
            return False
        try:
            return self._groebner()[0][0].is_one
        except _OutOfBudget:
            return False

    def monomial_generators(self):
        self._require_monomial()
        return self._monomial_gens

    def _require_monomial(self):
        if not self.is_monomial_mode:
            raise NotMonomialMode("operation requires a monomial-mode ideal")

    def _vectors(self):
        """The exponent codes of the monomial generators, in their order
        (ring._ExponentCodes): the one form the corner layer reads."""
        if self._exponents is None:
            self._exponents = tuple(map(self.ring._codes.encode,
                                        self.monomial_generators()))
        return self._exponents

    def lifted_monomials(self):
        """Generators plus rule lhs monomials: the polynomial-ring ideal
        whose image in the quotient is this ideal."""
        self._require_monomial()
        if self._lifted is None:
            self._lifted = _reduce_monomials(
                self._monomial_gens
                + tuple(rule.lhs for rule in self.ring.rules))
        return self._lifted

    def _components(self):
        """The staircase corners of the lifted ideal, each with the flag
        mask of its finite coordinates: the ring's corners split by the
        generators (ring._staircase_corners)."""
        if self._corners is None:
            codes = self.ring._codes
            self._corners = tuple(
                (c, codes.finite(c)) for c in _staircase_corners(
                    codes, self._vectors(), self.ring._components()))
        return self._corners

    def contains_monomial(self, m):
        """Exact membership for a monomial, monomial mode only, kept as one
        of the handle's facts.  Every rule rewrites to zero, so m is in the
        ideal exactly when some rule lhs or some generator divides it; no
        normal form is built."""
        members = self._members
        if members is None:
            self._require_monomial()
            members = self._members = {}
        answer = members.get(m)
        if answer is None:
            answer = members[m] = (
                not self.ring.is_normal(m)
                or any(g.divides(m) for g in self._monomial_gens))
        return answer

    def _groebner(self):
        """The reduced Groebner basis of the lifted ideal as _Reducers, each
        entry with its cofactors over the generators, completed on the
        first call.  Raises _OutOfBudget past WORK_BUDGET, and NonConfluent
        in a non-confluent ring."""
        if self._basis is _NOT_YET:
            one = Element(self.ring, {Monomial.one(): 1})
            fresh = [(g.terms, [({Monomial.one(): 1}, {k: one})])
                     for k, g in enumerate(self.generators)]
            try:
                self._basis = _Reducers(_reduced(self.ring, _complete(
                    self.ring, _lift(self.ring)[0], fresh)))
            except _OutOfBudget:
                self._basis = None
        if self._basis is None:
            raise _OutOfBudget()
        return self._basis

    def equals(self, other):
        """Ideal equality; None only when a completion ran out of budget."""
        if self.ring is not other.ring:
            raise RingMismatch("ideals live in different rings")
        if self.is_monomial_mode and other.is_monomial_mode:
            return self._monomial_gens == other._monomial_gens
        try:
            mine, theirs = self._groebner(), other._groebner()
        except _OutOfBudget:
            return None
        return [p for _, p, _ in mine] == [p for _, p, _ in theirs]

    def __repr__(self):
        return "IdealHandle(%s)" % format_ideal(self)


def format_ideal(ideal):
    from .ring import format_element
    if ideal.is_zero:
        return "ideal(0)"
    return "ideal(%s)" % ", ".join(
        format_element(g) for g in ideal.generators)


class MembershipAnswer(_Record):
    """A membership decision.  Yes answers always carry a certificate
    ((generator index, multiplier), ...) that re-multiplies to f.  The
    verdict is yes or no, except "unknown" when the ideal's Groebner
    completion ran out of WORK_BUDGET."""

    __slots__ = ("verdict", "certificate")

    def __init__(self, verdict, certificate=None):
        self.verdict = verdict  # "yes" | "no" | "unknown"
        self.certificate = certificate  # ((generator index, Element), ...)

    @property
    def is_yes(self):
        return self.verdict == "yes"


def _image(ring, basis, complete):
    """The handle generated by the quotient-ring images of basis entries."""
    return IdealHandle(ring, [Element.from_terms(ring, poly.items())
                              for _, poly, _ in basis], complete=complete)


def _monomial_split(basis, m):
    """(P, monomials) of a reduced Groebner basis for a monomial m: P the
    entries of two or more terms, without cofactors, and the leads of the
    monomial entries.  None when a variable of m occurs in a term of P.

    Let J be the ideal of the basis, Z the variables of m and Y the others,
    and write m = z^c and each monomial entry g = y^a z^b.  Then
        (J : m)     = (P) + (g / gcd(g, m)),
        (J : m^inf) = (P) + (g with Z zeroed),
    and these generators are Groebner bases, so _reduced turns them into
    the unique reduced basis, the very one elimination finds.

    Proof.  P lies in K[Y], so K[X]/(P) = (K[Y]/(P))[Z], and J's image
    there, spanned by the g, is graded by Z-exponents: its part of Z-degree
    e is I_e z^e, I_e = (P, y^a : b <= e) in K[Y].  So f lies in (J : m)
    exactly when each Z-part f_d z^d of f has f_d in I_{d+c}, the part of
    Z-degree d of (P) + (g / gcd(g, m)), and in (J : m^inf) exactly when
    each f_d lies in the union of the I_e, (P, every y^a), as c > 0 on Z.
    A polynomial's leading term is that of one of its Z-parts, and the
    basis of J gives LT(I_e) = (LT(P), y^a : b <= e) for every e.  So the
    leading terms of the colon and the saturation are spanned, degree by
    degree, by those of the new generators.

    A reduced basis of a binomial ideal holds only binomials and monomials
    (Eisenbud & Sturmfels, Binomial ideals, Duke Math. J. 84, 1996,
    Prop. 1.1), so under binomial rules the monomial closed forms (Miller
    & Sturmfels, GTM 227, ch. 1) apply in every variable that no binomial
    entry touches.
    """
    support = m.support
    polys, monos = [], []
    for lead, poly, _ in basis:
        if len(poly) == 1:
            monos.append(lead)
        elif any(not support.isdisjoint(t.support) for t in poly):
            return None
        else:
            polys.append((lead, poly, None))
    return polys, monos


def _term_quotient(ideal, f, closed_form, eliminate):
    """A colon or saturation of I by a nonzero f: closed_form(monomials, m)
    gives its generators for a monomial ideal and f = c*m, and
    eliminate(ring, basis, f) its reduced entries for any f.  Monomial
    mode takes the closed form on the lifted basis; general mode, when
    _monomial_split applies, the kept entries plus the closed form on the
    monomial ones, a Groebner basis that _reduced makes the one the
    elimination finds; otherwise the elimination.  Raises _OutOfBudget
    past WORK_BUDGET."""
    ring = ideal.ring
    m = f.single_term()[0] if f.is_single_term else None
    if ideal.is_monomial_mode and m is not None:
        # Non-normal monomials are zero in the ring; the handle drops them.
        return IdealHandle.from_monomials(
            ring, closed_form(ideal.lifted_monomials(), m),
            complete=ideal.complete)
    basis = ideal._groebner()
    split = None if m is None else _monomial_split(basis, m)
    if split is None:
        entries = eliminate(ring, basis, f)
    else:
        polys, monos = split
        entries = _reduced(ring, polys + [
            (g, {g: 1}, None) for g in closed_form(monos, m)])
    return _image(ring, entries, ideal.complete)


def _check_shared_ring(a, b):
    if a.ring is not b.ring:
        raise RingMismatch("operands live in different rings")


def ideal_membership(f, ideal):
    """Decide f in I by division by the reduced Groebner basis of the
    lifted ideal, whose cofactors give the certificate."""
    if f.ring is not ideal.ring:
        raise RingMismatch("element and ideal live in different rings")
    if f.is_zero:
        return MembershipAnswer("yes", certificate=())
    try:
        basis = ideal._groebner()
    except _OutOfBudget:
        return MembershipAnswer("unknown")
    quotients = {}
    if _divide(f.terms, basis, _lift(f.ring)[1], quotients):
        return MembershipAnswer("no")
    cert = _cofactor_sum(f.ring, [(q, basis[i][2])
                                  for i, q in quotients.items()])
    return MembershipAnswer("yes", certificate=tuple(sorted(cert.items())))


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
    """I cap J.  In monomial mode the pairwise lcms of the generators;
    otherwise the image of (lifted I) cap (lifted J), by elimination.  Past
    WORK_BUDGET the product I*J, inside I cap J, flagged incomplete."""
    _check_shared_ring(a, b)
    complete = a.complete and b.complete
    ring = a.ring
    if a.is_monomial_mode and b.is_monomial_mode:
        monos = [g.lcm(h)
                 for g in a.monomial_generators()
                 for h in b.monomial_generators()]
        return IdealHandle.from_monomials(ring, monos, complete=complete)
    if a.is_unit:
        return IdealHandle(ring, b.generators, complete=complete)
    try:
        meet = _eliminate(ring, a._groebner(),
                          [poly for _, poly, _ in b._groebner()])
    except _OutOfBudget:
        return IdealHandle(ring, ideal_product(a, b).generators,
                           complete=False)
    return _image(ring, meet, complete)


def ideal_colon(ideal, f):
    """(I : f) = {g | g*f in I}.

    _term_quotient, with the closed form g / gcd(g, m) (_colon_basis) and
    the elimination _colon_entries.  Past WORK_BUDGET I itself, inside
    (I : f), flagged incomplete.
    """
    if f.ring is not ideal.ring:
        raise RingMismatch("element and ideal live in different rings")
    if f.is_zero:
        return IdealHandle.unit(ideal.ring)
    try:
        return _term_quotient(ideal, f, _colon_basis, _colon_entries)
    except _OutOfBudget:
        return IdealHandle(ideal.ring, ideal.generators, complete=False)


def _colon_entries(ring, basis, f):
    """Reduced Groebner basis entries of (B : f), B the ideal with Groebner
    basis ``basis``: a basis of B cap (f), by elimination, divided by f,
    is one of the colon."""
    order = _lift(ring)[1]
    divisor = _Reducers([_entry(ring, f.terms, None, {}, (), order)])
    quotients = []
    for lead, poly, _ in _eliminate(ring, basis, [f.terms]):
        parts = {}
        _divide(poly, divisor, order, parts)
        quotients.append((lead.div(divisor[0][0]), parts[0], None))
    return _reduced(ring, quotients)


def ideal_colon_ideal(ideal, other):
    """(I : J), the meet of the (I : g) over the generators g of J.  In
    monomial mode a g inside I has (I : g) = R and is skipped, so the
    result is R, the empty meet, when every g is."""
    _check_shared_ring(ideal, other)
    gens = other.generators
    if ideal.is_monomial_mode and other.is_monomial_mode:
        gens = [g for g, m in zip(gens, other.monomial_generators())
                if not ideal.contains_monomial(m)]
    return reduce(ideal_intersection, [ideal_colon(ideal, g) for g in gens]
                  or [IdealHandle.unit(ideal.ring)])


class SaturationResult(_Record):
    __slots__ = ("ideal", "stabilized", "steps")

    def __init__(self, ideal, stabilized, steps):
        self.ideal = ideal
        self.stabilized = stabilized
        self.steps = steps


def _most_factors(codes, gens, room):
    """The most generators, repeats allowed, whose exponent sum lies below
    the code ``room``, where a free coordinate is unbounded; None when a
    generator that fits there has no finite coordinate of room in its
    support.  Generators are codes too (ring._ExponentCodes).

    Only finite coordinates bound a count, so it is a sum over the groups
    of fitting generators joined by shared finite coordinates, the parts of
    this set packing (NP-hard; Karp 1972).  A group of one takes
    min(room_v // g_v); a larger one, one memoized recursion over its
    counts by that division, largest first, each skipped when it plus
    (room left) // (least degree to come) cannot beat the best so far.  The
    recursion goes one generator deeper per level, so it runs on an
    explicit stack: a group of any size stays clear of the interpreter's
    recursion limit.
    """
    below, finite = codes.below, codes.finite(room)
    groups = {}
    for g in gens:
        if below(g, room):
            mask = codes.support(g) & finite
            if not mask:
                return None
            hit = [m for m in groups if m & mask]
            groups[reduce(or_, hit, mask)] = sum(map(groups.pop, hit), [g])
    total = 0
    for mask, group in groups.items():
        on = codes.spread(mask)
        group, start = [g & on for g in group], room & on
        if len(group) == 1:
            total += codes.copies(group[0], start)
            continue
        degree = list(map(codes.degree, group))
        least = list(accumulate(reversed(degree), min,
                                initial=codes.degree(start) + 1))[::-1]
        memo = {}

        def state(j, left, free):
            """The count of state (j, left) when it is known, or its frame
            [j, left, room left summed, count to try, best so far]."""
            if j == len(group) or (j, left) in memo:
                return memo.get((j, left), 0)
            g = group[j]
            top = codes.copies(g, left) if below(g, left) else 0
            return [j, left, free, top, 0]

        # value is the count of the state last finished, not yet added to
        # the frame on top, which tried it.
        stack, value = [state(0, start, codes.degree(start))], None
        while stack:
            frame = stack[-1]
            j, left, free, taken, best = frame
            if value is not None:
                best, taken, value = max(best, taken + value), taken - 1, None
            while taken >= 0 and (taken + (free - taken * degree[j])
                                  // least[j + 1] <= best):
                taken -= 1
            if taken < 0:
                memo[j, left] = value = best
                stack.pop()
                continue
            frame[3:] = taken, best
            value = state(j + 1, left - taken * group[j],
                          free - taken * degree[j])
            if type(value) is list:
                stack.append(value)
                value = None
        total += value
    return total


def _power_kill_exponent(acting, module, target):
    """Smallest n with acting^n * module inside target, or None when no
    power of acting gets there or, in general mode, past WORK_BUDGET.

    In monomial mode n is read off the corners of target (_components): a
    product p of generators of acting sends the module generator m outside
    target exactly when p * m lies below a corner c, that is, m lies below
    c and p below c - m (free where c is).  So the products of 1 +
    _most_factors(gens, c - m) generators are the first that send m past
    c, n is the largest of these over such (c, m), and 0 when no m lies
    below a corner.

    Otherwise walks the products of n generators of acting, level by level,
    keeping each with the module generators it still sends outside target,
    by division by the Groebner basis of target.  Once p * m lies in
    target so does every multiple of it, so a product with none left is
    dropped, and the first empty level is n.  Each multiset of generator
    indices is built once, extended only by indices at least its last one.
    No power of acting is built as an ideal (Cox, Little & O'Shea, ch. 9
    section 2).
    """
    if all(h.is_monomial_mode for h in (acting, module, target)):
        codes = target.ring._codes
        counts = [_most_factors(codes, acting._vectors(),
                                c - (m & codes.spread(finite)))
                  for c, finite in target._components()
                  for m in module._vectors() if codes.below(m, c)]
        return None if None in counts else max(counts, default=-1) + 1
    budget = _Budget()
    try:
        gens, products = acting.generators, [
            (0, Element.constant(target.ring, 1), module.generators)]
        basis, order = target._groebner(), _lift(target.ring)[1]
        n = 0
        while True:
            level = []
            for low, p, escaping in products:
                budget.spend(len(escaping))
                left = tuple(m for m in escaping if _divide(
                    p.mul(m).terms, basis, order, budget=budget))
                if left:
                    level.append((low, p, left))
            if not level:
                return n
            n += 1
            products = [(i, p.mul(gens[i]), left) for low, p, left in level
                        for i in range(low, len(gens))]
    except _OutOfBudget:
        return None


def power_order(acting, m):
    """Largest k with the normal monomial m in acting^k (monomial mode): the
    most generators of acting whose product divides m (_most_factors on
    m's code).  None when acting is the unit ideal: every power holds m."""
    codes = acting.ring._codes
    return _most_factors(codes, acting._vectors(), codes.encode(m))


def _saturate_by(ideal, g):
    """(I : g^inf) for a nonzero g: _term_quotient, with the closed form
    that zeroes the exponents on supp(m) (Miller & Sturmfels, GTM 227,
    ch. 1) and the elimination _saturation_entries.  Raises _OutOfBudget
    past WORK_BUDGET.
    """
    return _term_quotient(
        ideal, g, lambda basis, m: [q.without(m.support) for q in basis],
        _saturation_entries)


def _saturation_entries(ring, basis, g):
    """Reduced Groebner basis entries of (B : g^inf), B the ideal with
    Groebner basis ``basis``: the tag-free part of a Groebner basis of B
    plus (1 - t*g) (Cox, Little & O'Shea, ch. 4 section 4)."""
    tag = Monomial.variable(ring.num_vars)
    fresh = {m.mul(tag): -c for m, c in g.terms.items()}
    fresh[Monomial.one()] = 1
    known = [(lead, poly, None) for lead, poly, _ in basis]
    return _tag_free(ring, known, [(fresh, None)])


def ideal_saturation(ideal, other):
    """(I : J^inf), the intersection over the generators g of J of
    (I : g^inf), with steps the least n such that J^n * (I : J^inf) lies in
    I: the step at which the chain I, (I:J), ((I:J):J), ... stops moving.
    At step 0 the result is I itself.  Past WORK_BUDGET it is (I, False, 0),
    the only case with stabilized False.

    In monomial mode the result is read off the corners of I when it is R
    or I (_corner_saturation).  Otherwise a principal J is closed form, and
    any other J meets the (I : g^inf) of its generators: their closed forms
    in monomial mode, the memo's principal saturations in general mode.
    The interned handle of I keeps each result under the handle of J, so
    each is computed once per ring.
    """
    _check_shared_ring(ideal, other)
    if other not in ideal._saturations:
        ideal._saturations[other] = _compute_saturation(ideal, other)
    return ideal._saturations[other]


def _principal_saturations(ideal, other):
    """The memo's (I : g^inf), one per generator g of J."""
    return [ideal_saturation(ideal, IdealHandle(ideal.ring, [g]))
            for g in other.generators]


def _principal_steps(ideal, other):
    """The most steps any (I : g^inf) takes, g a generator of J, read off
    the corners of I in monomial mode, with no saturation built.  The
    closed form of _saturate_by's quotient by the term g zeroes the lifted
    basis of I on supp(g) (_term_quotient), which keeps each corner whose
    mask misses supp(g), so none of its generators lies below one.  Below a
    corner c whose mask meets supp(g) lies one zero on supp(g), as c exceeds
    each kept corner, incomparable to it, off supp(g).  Its kill exponent is
    thus the largest 1 + _most_factors((g,), c) over such c, else 0."""
    codes, corners = ideal.ring._codes, ideal._components()
    return max((1 + _most_factors(codes, (g,), c) for g in other._vectors()
                for s in [codes.support(g)]
                for c, mask in corners if mask & s), default=0)


def _corner_saturation(ideal, other):
    """(I : J^inf) read off the corners of I when it is R or I, in monomial
    mode with J nonzero; None otherwise.

    Each corner c of I is an irreducible component Q_c, primary to the
    prime spanned by the finite coordinates of c, its mask (Miller &
    Sturmfels, GTM 227, ch. 5).  (Q_c : g^inf) is R when the monomial g
    lies in that prime and Q_c when it does not, so (I : J^inf) is the
    meet of the Q_c kept, those whose mask misses the support of some
    generator of J (Atiyah & Macdonald, ch. 4).  That is R when no corner
    is kept and I when every one is.
    """
    if not (ideal.is_monomial_mode and other.is_monomial_mode
            and other.generators):
        return None
    codes = ideal.ring._codes
    supports = {codes.support(g) for g in other._vectors()}
    corners = ideal._components()
    kept = sum(any(not mask & s for s in supports) for _, mask in corners)
    if not kept:
        return IdealHandle.unit(ideal.ring, complete=ideal.complete)
    return ideal if kept == len(corners) else None


def _compute_saturation(ideal, other):
    """ideal_saturation without the memo: the corner read, else the meet of
    the (I : g^inf), g in J.  These take no memo entry and no kill exponent
    of their own, except for a general-mode J of two or more generators,
    which meets the memo's principal saturations."""
    steps = None
    try:
        sat, parts = _corner_saturation(ideal, other), ()
        if sat is None:
            if len(other.generators) > 1 and not (
                    ideal.is_monomial_mode and other.is_monomial_mode):
                parts = _principal_saturations(ideal, other)
                meet = [part.ideal for part in parts]
            else:
                meet = [_saturate_by(ideal, g) for g in other.generators]
            sat = reduce(ideal_intersection,
                         meet or [IdealHandle.unit(ideal.ring)])
        # An intersection past WORK_BUDGET comes back incomplete.
        if (all(part.stabilized for part in parts)
                and (sat.complete or not ideal.complete)):
            steps = _power_kill_exponent(other, sat, ideal)
    except _OutOfBudget:
        pass
    if steps is None:
        return SaturationResult(ideal, False, 0)
    return SaturationResult(ideal if steps == 0 else sat, True, steps)


def ideal_radical(ideal):
    """Radical of a monomial-mode ideal: squarefree parts of the lifted
    generators, mapped back into the quotient.  The unit ideal's lifted
    basis is (1,), its own squarefree part."""
    ideal._require_monomial()
    return IdealHandle.from_monomials(
        ideal.ring, [g.squarefree() for g in ideal.lifted_monomials()],
        complete=ideal.complete)


def prime_key(vars_set):
    """Sort key of primes as variable sets: by size, then by the sorted
    variable indices."""
    return len(vars_set), sorted(vars_set)


def minimal_primes(ideal):
    """Minimal primes over a proper monomial-mode ideal, as variable sets.

    The components of a radical monomial ideal are its minimal primes: the
    finite coordinates of each corner of the radical are 0.  With no rules
    and no generators the zero prime (empty set) is the unique answer.
    """
    ideal._require_monomial()
    components = ideal_radical(ideal)._components()
    if not components:
        raise UnitIdeal("the unit ideal has no minimal primes")
    variables = ideal.ring._codes.variables
    return sorted((variables(mask) for _, mask in components), key=prime_key)
