"""Brute-force oracles for the optimized ideal and assassin computations.

Every oracle here decides its question by direct enumeration against the
definitions, avoiding the algorithms under test: no lifted-basis quotients,
no transversal enumeration, no reduced-basis comparisons, no Groebner
completion.  They are deliberately slow and meant for small instances.
Nothing here imports the ideal, spectrum, torsion, family or harness
modules.  The oracles still read two engine methods on the objects they are
given: IdealHandle.contains_monomial, the handle's membership memo, decides
monomial membership, and RingPresentation.normal_monomials_up_to, the rule
index's level walk, enumerates normal monomials.

The assassin oracles share two enumerations, each kept for one input only.
The witness annihilators (relations : m) are computed once per module and
kept for the last module (_witness_annihilators), which both assassin_sets
and weak_assassin_sets read.  Each bounded primality probe is computed once
per ring and kept for the last ring (_ring_probes), which those two and
minimal_prime_sets read.  Every answer is still read from the definitions:
a shared annihilator is the same colon_monomials set, a shared probe the
same enumeration.  A test that needs cold caches calls
_witness_annihilators.cache_clear() and _ring_probes.cache_clear().
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .errors import RingMismatch
from .ring import Element, Monomial, grlex_key


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


def brute_force_membership(f, ideal, degree_bound):
    """A certificate ((generator index, multiplier), ...) with
    sum g_k * h_k = f, every multiplier a combination of monomials (normal
    or not) of degree up to the bound, or None when there is none.

    Exact Gaussian elimination over the rationals on the products of the
    generators with every such monomial, so a None reads "no certificate up
    to this bound", never a hard no.
    """
    ring = f.ring
    if ring is not ideal.ring:
        raise RingMismatch("element and ideal live in different rings")
    if f.is_zero:
        return ()
    columns = []
    labels = []
    seen_cols = set()
    for k, g in enumerate(ideal.generators):
        for m in _all_monomials_up_to(ring.num_vars, degree_bound):
            prod = g.mul(Element(ring, {m: Fraction(1)}))
            if prod.is_zero:
                continue
            vec = tuple(sorted((mm.pairs, c) for mm, c in prod.terms.items()))
            if vec in seen_cols:
                continue
            seen_cols.add(vec)
            columns.append(dict(prod.terms))
            labels.append((k, m))
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
    cache = {}

    def forms(mono):
        cached = cache.get(mono)
        if cached is not None:
            return cached
        out = set()
        applicable = [rule for rule in ring.rules if rule.lhs.divides(mono)]
        if not applicable:
            out.add(((mono.pairs, 1),))
        for rule in applicable:
            if rule.rhs is None:
                out.add(())
                continue
            rc, rm = rule.rhs
            for key in forms(mono.div(rule.lhs).mul(rm)):
                out.add(tuple((pairs, c * rc) for pairs, c in key))
        result = cache[mono] = frozenset(out)
        return result

    return forms(m)


def colon_monomials(ideal, factor, bound):
    """All normal monomials m of degree <= bound with m * factor in the
    ideal, straight from the definition."""
    ring = ideal.ring
    out = []
    for m in ring.normal_monomials_up_to(bound):
        if ideal.contains_monomial(m.mul(factor)):
            out.append(m)
    return out


def saturation_monomials(relations, acting, bound, power_cap):
    """All normal monomials m of degree <= bound with acting^n * m inside
    relations for some n <= power_cap.

    Ideal powers are expanded as raw generator product lists, not through
    the ideal engine.
    """
    ring = relations.ring
    gen_monos = [g.single_term()[0] for g in acting.generators]
    powers = [[Monomial.one()]]
    for _ in range(power_cap):
        powers.append(sorted(set(
            p.mul(g) for p in powers[-1] for g in gen_monos),
            key=lambda m: m.pairs))
    out = []
    for m in ring.normal_monomials_up_to(bound):
        for power in powers:
            if all(relations.contains_monomial(m.mul(p)) for p in power):
                out.append(m)
                break
    return out


def radical_monomials(ideal, bound, exponent_cap=6):
    """All normal monomials m of degree <= bound with m^k in the ideal for
    some k <= exponent_cap."""
    ring = ideal.ring
    out = []
    for m in ring.normal_monomials_up_to(bound):
        if any(ideal.contains_monomial(m.pow(k))
               for k in range(1, exponent_cap + 1)):
            out.append(m)
    return out


def _contained_in_variable_ideal(ideal, vars_set):
    """Is the ideal inside the ideal generated by these variables?  A normal
    monomial lies in a variable ideal exactly when its support meets the
    variable set, so generator supports decide this."""
    return all(g.support & set(vars_set)
               for g in ideal.monomial_generators())


def _variable_ideal_is_prime(ring, vars_set, probe_bound):
    """Bounded primality probe: for all normal u, w up to the bound,
    u*w in the ideal implies u or w is.  Membership of a normal monomial is
    support intersection; a product can also vanish outside any prime."""
    vs = set(vars_set)
    monos = ring.normal_monomials_up_to(probe_bound)
    for u in monos:
        if u.support & vs:
            continue
        for w in monos:
            if w.support & vs:
                continue
            prod = ring.normal_form_monomial(u.mul(w))
            if prod.is_zero:
                return False
            if prod.single_term()[0].support & vs:
                return False
    return True


@lru_cache(maxsize=1)
def _ring_probes(ring):
    """The probe answers of one ring, keyed by (variable set, bound)."""
    return {}


def _is_prime(ring, vars_set, probe_bound):
    """_variable_ideal_is_prime, each (variable set, bound) probed once
    per ring."""
    probes = _ring_probes(ring)
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
    probe) and contains the given ideal, by subset enumeration."""
    ring = ideal.ring
    containing = []
    for s in _variable_sets(ring.num_vars):
        if any(c <= s for c in containing):
            continue
        if (_contained_in_variable_ideal(ideal, s)
                and _is_prime(ring, s, probe_bound)):
            containing.append(s)
    return sorted(containing, key=lambda s: (len(s), sorted(s)))


@lru_cache(maxsize=1)
def _witness_annihilators(relations, witness_bound, verify_bound):
    """The distinct annihilators (relations : m), m a normal monomial of
    degree <= witness_bound outside relations, each the frozenset of
    colon_monomials up to verify_bound, in witness order."""
    ring = relations.ring
    return tuple(dict.fromkeys(
        frozenset(colon_monomials(relations, m, verify_bound))
        for m in ring.normal_monomials_up_to(witness_bound)
        if not relations.contains_monomial(m)))


def _variable_ideal_sets(ring, bound):
    """(s, P_s) for every variable set s, P_s the normal monomials of
    degree <= bound in the ideal of s: those whose support meets s."""
    monos = ring.normal_monomials_up_to(bound)
    return [(s, frozenset(f for f in monos if f.support & s))
            for s in _variable_sets(ring.num_vars)]


def assassin_sets(relations, witness_bound, verify_bound, probe_bound=3):
    """Primes of the form (relations : m), found by comparing the colon
    monomial set against every candidate variable ideal on all normal
    monomials up to the verification bound."""
    ring = relations.ring
    by_ideal = {}
    for s, ideal in _variable_ideal_sets(ring, verify_bound):
        by_ideal.setdefault(ideal, []).append(s)
    found = set()
    for ann in _witness_annihilators(relations, witness_bound, verify_bound):
        found.update(s for s in by_ideal.get(ann, ())
                     if _is_prime(ring, s, probe_bound))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def weak_assassin_sets(relations, witness_bound, verify_bound, probe_bound=3):
    """Union over witnesses of the minimal prime variable sets containing
    the witness annihilator, by subset enumeration."""
    ring = relations.ring
    candidates = _variable_ideal_sets(ring, verify_bound)
    found = set()
    for ann in _witness_annihilators(relations, witness_bound, verify_bound):
        containing = []
        for s, ideal in candidates:
            if any(c <= s for c in containing):
                continue
            if ann <= ideal and _is_prime(ring, s, probe_bound):
                containing.append(s)
        found.update(containing)
    return sorted(found, key=lambda s: (len(s), sorted(s)))
