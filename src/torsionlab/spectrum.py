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

One routine reads both off the staircase corners of the denominator's
lifted ideal J, its irreducible components (ring._staircase_corners); no
monomial is walked.  A corner c stands for the component generated by
X_v^(c_v + 1) over its finite coordinates, whose mask sigma is the
component's prime.  For m outside J, (J : m) is the meet over the corners c
above m of the X_v^(c_v + 1 - m_v), primary to c's prime (Miller &
Sturmfels, Combinatorial Commutative Algebra, ch. 5).  So the masks are the
candidate primes, ass and ass^f have the same primes, and for each sigma:

- m is an ass^f witness when it lies below a sigma-corner and in the meet
  of the components whose mask is a proper subset of sigma;
- m is an ass witness when it agrees on sigma with a sigma-corner c and
  lies below no bad corner d, one above c on sigma that misses part of
  sigma or differs from c there: m's off-sigma part lies in the meet of
  the components of the bad corners' off-sigma parts.

Both read the lcm(u, g), u a minimal generator of the meet
(ring._meet_generators) and g a numerator generator: the ass^f witnesses
are their multiples below a sigma-corner, and the ass witnesses of c have
c's exponents on sigma and a multiple of one with g below c off it.
Lying below a corner is closed under division and grlex is a monomial
order, so each first witness is one of these lcms.  When R/J is artinian
both meets are empty: the ass witness is the grlex-least corner above a
numerator generator, and the ass^f witness the grlex-least numerator
generator outside J.  Corners, generators and witnesses are the ring's
exponent codes (ring._ExponentCodes): a sigma-part is one AND with
sigma's fields, an off-sigma part one OR, and inside a degree grlex order
is descending code order.  Primes stay flag masks and witnesses codes
until a report is built, which converts each distinct prime to its
variable set and each witness to its Monomial once.
"""

from __future__ import annotations

from itertools import combinations

from .errors import RingMismatch
from .ideals import IdealHandle, minimal_primes, prime_key
from .ring import Monomial, _Record, _meet_generators


def format_prime(vars_set):
    return "prime(%s)" % ", ".join("X%d" % v for v in sorted(vars_set))


def prime_variable_set(ideal):
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
    by variable indices: the variable sets that contain a minimal prime of
    the zero ideal.  Exponential in the variable count.  Subsets listed by
    size, each size in lexicographic order, come in prime_key order."""
    least = minimal_primes(IdealHandle.zero(ring))
    return [s for k in range(ring.num_vars + 1)
            for s in map(frozenset, combinations(range(ring.num_vars), k))
            if any(p <= s for p in least)]


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


class AssassinReport(_Record):
    """Primes with one monomial witness each, the grlex-first one."""

    __slots__ = ("primes", "witnesses")

    def __init__(self, primes, witnesses):
        self.primes = primes  # of frozenset, sorted
        # of (frozenset, Monomial), aligned with primes
        self.witnesses = witnesses

    @property
    def prime_set(self):
        return frozenset(self.primes)


def _lcms(codes, corners, gens):
    """lcm(u, g) for u among the minimal generators of the meet of the
    components with these corners (1 alone for none) and g in gens, in
    grlex order if gens are."""
    if not corners:
        return gens
    return sorted({codes.lcm(u, g) for u in _meet_generators(codes, corners)
                   for g in gens}, key=codes.grlex)


def _first_witnesses(numerator, denominator):
    """(ass, ass^f) first-witness dicts of (numerator + denominator) /
    denominator, each prime's flag mask mapped to the code of its
    grlex-first witness, read off the denominator's corners as the module
    docstring describes."""
    codes = numerator.ring._codes
    below = codes.below
    components = denominator._components()
    gens = numerator._vectors()
    ass_first, assf_first = {}, {}
    for sigma in {mask for _, mask in components}:
        group = [c for c, mask in components if mask == sigma]
        lower = [c for c, mask in components
                 if mask | sigma == sigma and mask != sigma]
        # Reduced generators are grlex-sorted.
        first = next((t for t in _lcms(codes, lower, gens)
                      if any(below(t, c) for c in group)), None)
        if first is None:
            # ass and ass^f have the same primes: sigma is in neither.
            continue
        assf_first[sigma] = first
        # sigma's fields, the finite ones of its corners: a corner's AND
        # with them is its sigma-part, its OR its off-sigma part, each a
        # corner again.
        on = codes.spread(sigma)
        # A corner whose mask lies in sigma is never bad: it would lie
        # above a corner of mask sigma.
        others = [d for d, mask in components if mask | sigma != sigma]
        witnesses = []
        for c in group:
            floor = c & on
            # lcm(floor, g) has c's exponents on sigma and g's off it.
            lifted = {floor | g & ~on for g in gens if below(g, c)}
            if lifted:
                # Above c on sigma, with another sigma-part: free where d
                # misses part of sigma, or a different exponent.
                bad = [d | on for d in others
                       if below(floor, d) and d & on != floor]
                witnesses.extend(_lcms(codes, bad, lifted))
        ass_first[sigma] = min(witnesses, key=codes.grlex)
    return ass_first, assf_first


def _sorted_primes(codes, first):
    """(primes, witnesses) from a dict mapping each prime's flag mask to
    the code of its grlex-first witness; each distinct prime becomes a
    variable set once."""
    witnesses = sorted(((codes.variables(mask), codes.decode(t))
                        for mask, t in first.items()),
                       key=lambda w: prime_key(w[0]))
    return tuple(p for p, _ in witnesses), tuple(witnesses)


def _report_pair(codes, ass_first, assf_first):
    """The (ass, ass^f) reports of one scan from its first-witness dicts."""
    return tuple(AssassinReport(*_sorted_primes(codes, first))
                 for first in (ass_first, assf_first))


def assassin_scan(numerator, denominator):
    """(ass, ass^f) of the module (numerator + denominator) / denominator,
    both read off the denominator's corners (_first_witnesses).  The
    interned handle of the denominator keeps the pair under the handle of
    the numerator, so each module is scanned once per ring.
    """
    if numerator.ring is not denominator.ring:
        raise RingMismatch("numerator and denominator in different rings")
    if numerator not in denominator._assassins:
        denominator._assassins[numerator] = _report_pair(
            numerator.ring._codes, *_first_witnesses(numerator, denominator))
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
