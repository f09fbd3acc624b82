"""Monomial primes, varieties, and assassin computations for cyclic modules.

Primes of a monomial-mode quotient ring are ideals generated by variables.
A variable set is stored in canonical form: the set S such that the ideal
generated by {X_v : v in S} has lifted reduced basis exactly those variables.
The zero prime (empty set) exists only in rule-free rings.

Assassins are computed from monomial witnesses.  Modules here are spanned by
monomials and graded by exponent vectors, and associated primes of such
modules are annihilators of monomial elements.  One scan yields both ass and
ass^f.  Ideal handles are interned per ring, and the denominator's handle
keeps the report pair per numerator handle, so a module is scanned once.

Both paths read the denominator's staircase corners, the irreducible
components of its lifted ideal (ring._staircase_corners).  When every
corner is finite, R/b is artinian: the only prime of a nonzero module is
the maximal ideal, and the scan reads its witnesses off the corners, the
maximal standard monomials (Miller & Sturmfels, Combinatorial Commutative
Algebra, ch. 5).  The ass witness is the grlex-least corner in the
numerator, the socle monomials being the corners, and the ass^f witness
is the grlex-least numerator generator outside the denominator.  No
monomial is walked.

Otherwise the scan walks the witnesses.  The witness set is finite and
exact: the divisors of L, the lcm of the numerator's generators and the
denominator's lifted basis, in the numerator but not the denominator.
Capping a witness's exponents at L keeps it there and leaves (b : m)
unchanged, so these give every annihilator and the grlex-first witness of
each prime.  Monomials outside a monomial ideal are closed under division
(Miller & Sturmfels, ch. 1), so the walk goes degree by degree outside the
lifted basis, which holds every rule lhs, capped at L.

Each witness annihilator is read off the corners, without building the
colon.  A corner c stands for the component generated by X_v^(c_v + 1)
over its finite coordinates, and (b : m) is the meet of the components of
the corners c above m, each divided by m: X_v^(c_v + 1 - m_v), primary to
the prime of c's finite coordinates.  So the minimal primes of (b : m) are
the minimal finite-coordinate masks among those corners, and (b : m) is
prime exactly when there is one, sigma, and every such c agrees with m on
sigma.  On both paths primes stay int bitmasks until a report is built,
which converts each distinct prime to its variable set once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

from .errors import RingMismatch
from .ideals import IdealHandle, _mask_vars, prime_key
from .ring import Monomial, _next_level, _power_index, grlex_key


def format_prime(vars_set):
    return "prime(%s)" % ", ".join("X%d" % v for v in sorted(vars_set))


def prime_variable_set(ideal) -> Optional[frozenset]:
    """The canonical variable set if the ideal is prime, else None."""
    ideal._require_monomial()
    return _basis_prime(ideal.lifted_monomials())


def _basis_prime(basis):
    """The variable set of the monomial ideal with this reduced lifted basis
    if that ideal is prime, else None.

    It is prime exactly when the basis consists of single variables: any
    higher-degree basis monomial splits into factors outside the ideal.
    """
    if any(m.degree != 1 for m in basis):
        return None
    return frozenset(m.max_var() for m in basis)


def prime_ideal(ring, vars_set):
    """The ideal generated by the variables in vars_set."""
    return IdealHandle.from_monomials(
        ring, [Monomial.variable(v) for v in sorted(vars_set)])


def spectrum(ring):
    """All canonical primes of a monomial-mode ring, sorted by size then
    by variable indices.  Exponential in the variable count."""
    out = []
    n = ring.num_vars
    for mask in range(1 << n):
        s = frozenset(v for v in range(n) if mask >> v & 1)
        if prime_variable_set(prime_ideal(ring, s)) == s:
            out.append(s)
    return sorted(out, key=prime_key)


def in_variety(vars_set, ideal) -> bool:
    """Does the prime with this variable set contain the ideal?

    A normal monomial lies in the prime exactly when its support meets the
    variable set.
    """
    ideal._require_monomial()
    return all(g.support & vars_set
               for g in ideal.monomial_generators())


def intersect_variety(primes, ideal):
    """The primes that contain the ideal, in their input order: callers
    pass AssassinReport.primes, already sorted by prime_key."""
    return [p for p in primes if in_variety(p, ideal)]


def difference_variety(primes, ideal):
    """The primes that do not contain the ideal, in their input order."""
    return [p for p in primes if not in_variety(p, ideal)]


@dataclass(frozen=True)
class AssassinReport:
    """Primes with one monomial witness each, the grlex-first one."""
    primes: tuple  # of frozenset, sorted
    witnesses: tuple  # of (frozenset, Monomial), aligned with primes

    @property
    def prime_set(self):
        return frozenset(self.primes)


def _sorted_primes(first):
    """(primes, witnesses) from a dict mapping each prime mask to its
    grlex-first witness; each distinct prime becomes a variable set once."""
    witnesses = sorted(((_mask_vars(mask), m) for mask, m in first.items()),
                       key=lambda w: prime_key(w[0]))
    return tuple(p for p, _ in witnesses), tuple(witnesses)


def _witness_scan(numerator, denominator, top):
    """The divisors of ``top`` in the numerator but not the denominator,
    in grlex order, walked outside the denominator's lifted basis."""
    index = _power_index(denominator.lifted_monomials())
    caps = tuple(top.exponent(v) for v in range(top.max_var() + 1))
    num_gens = numerator.monomial_generators()
    # Reduced, the unit ideal's generators are 1 alone, which divides all.
    keep_all = num_gens == (Monomial.one(),)
    out = []
    level = () if denominator.is_unit else (Monomial.one(),)
    while level:
        out.extend(m for m in level
                   if keep_all or any(g.divides(m) for g in num_gens))
        level = _next_level(level, caps, index)
    return out


def _annihilator(components, m):
    """(prime or None, minimal primes) of the colon (J : m), for the
    monomial ideal J with these (corner, finite-coordinate mask)
    components and a monomial m outside J, every prime an int bitmask of
    its variables (0 is the zero prime).

    Read off the corners above m, as the module docstring describes; the
    minimal primes are unsorted.
    """
    above = [(c, mask) for c, mask in components
             if all(c[v] >= e for v, e in m.pairs)]
    masks = {mask for _, mask in above}
    minimal = [s for s in masks if not any(t != s and t & s == t
                                           for t in masks)]
    prime = None
    if len(minimal) == 1:
        sigma = minimal[0]
        exps = dict(m.pairs)
        on = [v for v in range(sigma.bit_length()) if sigma >> v & 1]
        if all(c[v] == exps.get(v, 0) for c, _ in above for v in on):
            prime = sigma
    return prime, minimal


def _corner_witnesses(numerator, denominator):
    """(ass, ass^f) first-witness dicts of (numerator + denominator) /
    denominator when the denominator's corners are finite.

    The only prime is the maximal ideal, every variable.  Its ass witnesses
    are the socle monomials in the numerator, the corners.  Every proper
    colon is primary to it, and every witness is a multiple of a numerator
    generator outside the denominator, so its first ass^f witness is the
    grlex-least of those.
    """
    basis = denominator.lifted_monomials()
    # Reduced monomial generators are grlex-sorted.
    outside = [g for g in numerator.monomial_generators()
               if not any(k.divides(g) for k in basis)]
    if not outside:
        return {}, {}
    corners = (Monomial(enumerate(c)) for c, _ in denominator._components())
    witness = min((c for c in corners if any(g.divides(c) for g in outside)),
                  key=grlex_key)
    maximal = (1 << numerator.ring.num_vars) - 1
    return {maximal: witness}, {maximal: outside[0]}


def _walked_witnesses(numerator, denominator):
    """(ass, ass^f) first-witness dicts of (numerator + denominator) /
    denominator from the witness walk over the divisors of L outside the
    denominator: a witness's annihilator, the colon (denominator : m),
    gives an ass prime when it is prime, and its minimal primes are ass^f
    primes."""
    top = reduce(Monomial.lcm, numerator.monomial_generators()
                 + denominator.lifted_monomials(), Monomial.one())
    components = denominator._components()
    ass_first = {}
    assf_first = {}
    # L stays the scan's third positional argument: the perfbench tracer
    # keys each traced scan on it (until ROADMAP item 1).
    for m in _witness_scan(numerator, denominator, top):
        prime, minimal = _annihilator(components, m)
        if prime is not None:
            ass_first.setdefault(prime, m)
        for p in minimal:
            assf_first.setdefault(p, m)
    return ass_first, assf_first


def _report_pair(ass_first, assf_first):
    """The (ass, ass^f) reports of one scan from its first-witness dicts."""
    return tuple(AssassinReport(*_sorted_primes(first))
                 for first in (ass_first, assf_first))


def assassin_scan(numerator, denominator):
    """(ass, ass^f) of the module (numerator + denominator) / denominator.

    When R / denominator is artinian (every corner of the denominator
    finite) the pair is read off the corners (_corner_witnesses), which can
    grow exponentially in number with the variables but never outnumber
    the standard monomials that the walk would visit.  Otherwise one exact
    witness walk serves both reports (_walked_witnesses).  The interned
    handle of the denominator keeps the pair under the handle of the
    numerator, so each module is scanned once per ring.
    """
    if numerator.ring is not denominator.ring:
        raise RingMismatch("numerator and denominator in different rings")
    if numerator not in denominator._assassins:
        full = (1 << numerator.ring.num_vars) - 1
        artinian = all(mask == full for _, mask in denominator._components())
        scan = _corner_witnesses if artinian else _walked_witnesses
        denominator._assassins[numerator] = _report_pair(
            *scan(numerator, denominator))
    return denominator._assassins[numerator]


def _within_degree(report, witness_bound):
    """The primes of ``report`` whose witness has degree at most
    ``witness_bound``; None keeps them all."""
    if witness_bound is None:
        return report
    kept = tuple((p, m) for p, m in report.witnesses
                 if m.degree <= witness_bound)
    return AssassinReport(tuple(p for p, _ in kept), kept)


# ``witness_bound`` stays only because perfbench's oracle workload passes it
# positionally; ROADMAP item 1 removes it.
def assassins_cyclic(denominator, witness_bound=None):
    """ass(R / denominator), optionally only the primes whose grlex-first
    witness has degree at most ``witness_bound``."""
    return _within_degree(assassin_scan(
        IdealHandle.unit(denominator.ring), denominator)[0], witness_bound)


def weak_assassins_cyclic(denominator, witness_bound=None):
    """ass^f(R / denominator), optionally only the primes whose grlex-first
    witness has degree at most ``witness_bound``."""
    return _within_degree(assassin_scan(
        IdealHandle.unit(denominator.ring), denominator)[1], witness_bound)
