"""Brute-force oracles for the optimized ideal and assassin computations.

Every oracle here decides its question by direct enumeration against the
definitions, avoiding the algorithms under test: no lifted-basis quotients,
no transversal enumeration, no reduced-basis comparisons.  They are
deliberately slow and meant for small instances.
"""

from __future__ import annotations

from itertools import combinations

from .ring import Monomial


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


def minimal_prime_sets(ideal, probe_bound=3):
    """Inclusion-minimal variable sets whose ideal is prime (by bounded
    probe) and contains the given ideal, by subset enumeration."""
    ring = ideal.ring
    n = ring.num_vars
    containing = []
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            s = frozenset(combo)
            if any(c <= s for c in containing):
                continue
            if (_contained_in_variable_ideal(ideal, s)
                    and _variable_ideal_is_prime(ring, s, probe_bound)):
                containing.append(s)
    return sorted(containing, key=lambda s: (len(s), sorted(s)))


def assassin_sets(relations, witness_bound, verify_bound, probe_bound=3):
    """Primes of the form (relations : m), found by comparing the colon
    monomial set against every candidate variable ideal on all normal
    monomials up to the verification bound."""
    ring = relations.ring
    n = ring.num_vars
    monos = ring.normal_monomials_up_to(verify_bound)
    found = set()
    for m in ring.normal_monomials_up_to(witness_bound):
        if relations.contains_monomial(m):
            continue
        ann = set(colon_monomials(relations, m, verify_bound))
        for size in range(n + 1):
            for combo in combinations(range(n), size):
                s = frozenset(combo)
                matches = all(
                    (f in ann) == bool(f.support & s) for f in monos)
                if matches and _variable_ideal_is_prime(ring, s, probe_bound):
                    found.add(s)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def weak_assassin_sets(relations, witness_bound, verify_bound, probe_bound=3):
    """Union over witnesses of the minimal prime variable sets containing
    the witness annihilator, by subset enumeration."""
    ring = relations.ring
    n = ring.num_vars
    found = set()
    for m in ring.normal_monomials_up_to(witness_bound):
        if relations.contains_monomial(m):
            continue
        ann = set(colon_monomials(relations, m, verify_bound))
        containing = []
        for size in range(n + 1):
            for combo in combinations(range(n), size):
                s = frozenset(combo)
                if any(c <= s for c in containing):
                    continue
                if (all(bool(f.support & s) for f in ann)
                        and _variable_ideal_is_prime(ring, s, probe_bound)):
                    containing.append(s)
        found.update(containing)
    return sorted(found, key=lambda s: (len(s), sorted(s)))
