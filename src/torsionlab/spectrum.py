"""Monomial primes, varieties, and assassin computations for cyclic modules.

Primes of a monomial-mode quotient ring are ideals generated by variables.
A variable set is stored in canonical form: the set S such that the ideal
generated by {X_v : v in S} has lifted reduced basis exactly those variables.
The zero prime (empty set) exists only in rule-free rings.

Assassins are computed from monomial witnesses.  Modules here are spanned by
monomials and graded by exponent vectors, and associated primes of such
modules are annihilators of monomial elements, so a complete witness scan
yields the complete assassin.  One scan yields both ass and ass^f.  A
witness annihilator (b : m) depends only on the denominator b and the
witness m, so the ring keeps one witness table per denominator generator
tuple, mapping each witness to its ass prime (or None) and its minimal
primes; every numerator scanned over an equal denominator reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import RingMismatch
from .ideals import IdealHandle, _basis_minimal_primes, _colon_basis
from .ring import Monomial


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
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def in_variety(vars_set, ideal) -> bool:
    """Does the prime with this variable set contain the ideal?

    A normal monomial lies in the prime exactly when its support meets the
    variable set.
    """
    ideal._require_monomial()
    return all(g.support & vars_set
               for g in ideal.monomial_generators())


def intersect_variety(primes, ideal):
    return sorted((p for p in primes if in_variety(p, ideal)),
                  key=lambda s: (len(s), sorted(s)))


def difference_variety(primes, ideal):
    return sorted((p for p in primes if not in_variety(p, ideal)),
                  key=lambda s: (len(s), sorted(s)))


@dataclass(frozen=True)
class AssassinReport:
    """Primes with one monomial witness each, plus scan metadata.

    complete means the witness scan provably saw every monomial of the
    module: beyond the scanned degree no normal monomial of the numerator
    survives outside the denominator, so no further primes can appear.
    """
    primes: tuple  # of frozenset, sorted
    witnesses: tuple  # of (frozenset, Monomial), aligned with primes
    witness_bound: int
    complete: bool

    @property
    def prime_set(self):
        return frozenset(self.primes)


def default_witness_bound(denominator):
    """Degree of the lcm of the reduced generators, plus two."""
    acc = Monomial.one()
    for g in denominator.monomial_generators():
        acc = acc.lcm(g)
    return acc.degree + 2


def _sorted_primes(pairs):
    """Witnesses arrive in grlex order, so the first one per prime is kept."""
    dedup = {}
    for p, m in pairs:
        dedup.setdefault(p, m)
    primes = sorted(dedup, key=lambda s: (len(s), sorted(s)))
    return tuple(primes), tuple((p, dedup[p]) for p in primes)


def _witness_scan(numerator, denominator, bound):
    """Normal monomials in the numerator but not the denominator, with a
    completeness certificate.

    A normal monomial lies in a monomial-mode ideal exactly when one of its
    reduced generators divides it.  Divisor-closure argument for
    completeness: a surviving monomial of degree above the scan has a
    surviving divisor at the boundary degree once the boundary is at least
    the largest numerator generator degree, so an empty boundary level
    certifies nothing was missed.
    """
    num_gens = numerator.monomial_generators()
    den_gens = denominator.monomial_generators()
    witnesses = []
    for d in range(bound + 2):
        for m in numerator.ring.normal_monomials_of_degree(d):
            if (any(g.divides(m) for g in num_gens)
                    and not any(g.divides(m) for g in den_gens)):
                if d > bound:
                    return witnesses, False
                witnesses.append(m)
    gen_deg = max((g.degree for g in num_gens), default=0)
    return witnesses, bound + 1 >= gen_deg


def assassin_scan(numerator, denominator, witness_bound=None):
    """(ass, ass^f) of the module (numerator + denominator) / denominator.

    One witness scan serves both reports.  A witness's annihilator, the
    colon (denominator : m) as a lifted basis, gives an ass prime when it
    is prime, and its minimal primes are ass^f primes.  Both are read from
    the ring's witness table for the denominator's generators, so each
    annihilator is computed once per ring, whatever the numerator.
    """
    if numerator.ring is not denominator.ring:
        raise RingMismatch("numerator and denominator in different rings")
    if witness_bound is None:
        witness_bound = default_witness_bound(denominator)
    witnesses, complete = _witness_scan(numerator, denominator, witness_bound)
    table = denominator.ring._witness_tables.setdefault(
        denominator.monomial_generators(), {})
    ass_pairs = []
    assf_pairs = []
    for m in witnesses:
        entry = table.get(m)
        if entry is None:
            basis = _colon_basis(denominator.lifted_monomials(), m)
            entry = table[m] = (_basis_prime(basis),
                                _basis_minimal_primes(basis))
        prime, minimal = entry
        if prime is not None:
            ass_pairs.append((prime, m))
        assf_pairs.extend((p, m) for p in minimal)
    return tuple(AssassinReport(*_sorted_primes(pairs), witness_bound, complete)
                 for pairs in (ass_pairs, assf_pairs))


def assassins_cyclic(denominator, witness_bound=None):
    """ass(R / denominator)."""
    return assassin_scan(
        IdealHandle.unit(denominator.ring), denominator, witness_bound)[0]


def weak_assassins_cyclic(denominator, witness_bound=None):
    """ass^f(R / denominator)."""
    return assassin_scan(
        IdealHandle.unit(denominator.ring), denominator, witness_bound)[1]
