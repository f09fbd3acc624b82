"""Prime spectrum, assassins and weak assassins of cyclic modules."""

from __future__ import annotations

import importlib
import random
from functools import reduce

from torsionlab import families
from torsionlab.harness import random_instance
from torsionlab.ideals import (
    IdealHandle,
    _basis_minimal_primes,
    _colon_basis,
    _mask_vars,
    ideal_colon,
    minimal_primes,
    prime_key,
)
from torsionlab.oracles import assassin_sets, weak_assassin_sets
from torsionlab.ring import Element, Monomial, RewriteRule, RingPresentation
from torsionlab.spectrum import (
    assassin_scan,
    assassins_cyclic,
    format_prime,
    prime_ideal,
    prime_variable_set,
    spectrum,
    weak_assassins_cyclic,
)
from torsionlab.torsion import gamma_large_cyclic, gamma_small_cyclic

# The package re-exports the function spectrum under the module's name.
spectrum_module = importlib.import_module("torsionlab.spectrum")


def _var(i, e=1):
    return Monomial.variable(i, e)


def test_spectrum_of_free_ring_is_all_variable_subsets():
    ring = RingPresentation(2)
    assert [sorted(p) for p in spectrum(ring)] == [[], [0], [1], [0, 1]]


def test_spectrum_of_nilpotent_ring_is_maximal_ideal_only():
    ring = RingPresentation(2, [RewriteRule(_var(0, 2)), RewriteRule(_var(1, 2))])
    assert [sorted(p) for p in spectrum(ring)] == [[0, 1]]


def test_prime_ideal_round_trip():
    ring = RingPresentation(3)
    ideal = prime_ideal(ring, {0, 2})
    assert prime_variable_set(ideal) == frozenset({0, 2})
    assert format_prime(frozenset({0, 2})) == "prime(X0, X2)"


def test_non_prime_ideal_rejected():
    ring = RingPresentation(2)
    assert prime_variable_set(
        IdealHandle.from_monomials(ring, [_var(0).mul(_var(1))])) is None


def test_assassins_of_monomial_quotient():
    ring = RingPresentation(2)
    b = IdealHandle.from_monomials(ring, [_var(0, 2), _var(0).mul(_var(1))])
    report = assassins_cyclic(b)
    assert [format_prime(p) for p in report.primes] == [
        "prime(X0)", "prime(X0, X1)"]
    witnesses = dict(report.witnesses)
    # ann(X1) = (X0), ann(X0) = (X0, X1): colon recomputation certifies both
    for prime, witness in witnesses.items():
        colon = ideal_colon(b, Element.from_monomial(ring, witness))
        assert prime_variable_set(colon) == prime
    # The witnesses divide lcm(X0^2, X0*X1), so even a free ring's scan is
    # finite.
    assert all(w.divides(_var(0, 2).mul(_var(1))) for w in witnesses.values())


def test_zero_ideal_of_artinian_ring_has_the_maximal_ideal():
    # Q[X0, X1]/(X0^3, X1^2): the socle X0^2*X1 is killed by (X0, X1).
    ring = RingPresentation(2, [RewriteRule(_var(0, 3)),
                                RewriteRule(_var(1, 2))])
    zero = IdealHandle.zero(ring)
    ass = assassins_cyclic(zero)
    assert ass.primes == (frozenset({0, 1}),)
    assert ass.witnesses == ((frozenset({0, 1}), _var(0, 2).mul(_var(1))),)
    assert weak_assassins_cyclic(zero).primes == (frozenset({0, 1}),)
    # A witness bound keeps the primes whose witness fits under it.
    assert assassins_cyclic(zero, 3) == ass
    assert assassins_cyclic(zero, 2) == spectrum_module.AssassinReport((), ())


def _ring_with_a_free_variable(rng):
    """A monomial-mode ring of 2 or 3 variables, at least one of them
    rule-free, and an ideal of up to three random normal monomials."""
    n = rng.randint(2, 3)
    free = rng.randrange(n)
    ruled = [v for v in range(n) if v != free and rng.random() < 0.8]
    rules = [RewriteRule(_var(v, rng.randint(2, 3))) for v in ruled]
    if len(ruled) == 2 and rng.random() < 0.5:
        rules.append(RewriteRule(_var(ruled[0]).mul(_var(ruled[1]))))
    ring = RingPresentation(n, rules)
    gens = []
    for _ in range(rng.randint(0, 3)):
        m = Monomial([(v, rng.randint(0, 2)) for v in range(n)])
        if not m.is_one and ring.is_normal(m):
            gens.append(m)
    return ring, IdealHandle.from_monomials(ring, gens)


def test_default_scans_are_exact_on_rings_with_free_variables():
    rng = random.Random(2107)
    for _ in range(150):
        ring, b = _ring_with_a_free_variable(rng)
        top = reduce(Monomial.lcm, b.lifted_monomials(), Monomial.one())
        ass, assf = assassin_scan(IdealHandle.unit(ring), b)
        bound = top.degree
        assert list(ass.primes) == assassin_sets(
            b, bound, verify_bound=bound + 1), b
        assert list(assf.primes) == weak_assassin_sets(
            b, bound, verify_bound=bound + 1), b


def test_weak_assassin_of_domain_is_zero_ideal():
    ring = RingPresentation(1)
    report = weak_assassins_cyclic(IdealHandle.zero(ring))
    assert [format_prime(p) for p in report.primes] == ["prime()"]


def test_zero_module_has_empty_assassins():
    ring = RingPresentation(2)
    unit = IdealHandle.unit(ring)
    assert assassins_cyclic(unit).primes == ()
    assert weak_assassins_cyclic(unit).primes == ()


def test_subquotient_scan_restricts_to_numerator():
    ring = RingPresentation(2)
    b = IdealHandle.from_monomials(ring, [_var(0, 2).mul(_var(1))])
    numerator = IdealHandle.from_monomials(ring, [_var(0)])
    report = assassin_scan(numerator, b)[0]
    assert report.witnesses
    for prime, witness in report.witnesses:
        assert numerator.contains_monomial(witness)
        assert not b.contains_monomial(witness)


def test_assassins_contained_in_weak_assassins():
    rng = random.Random(3)
    for i in range(15):
        instance = random_instance(i, rng)
        ass = assassins_cyclic(instance.relations)
        assf = weak_assassins_cyclic(instance.relations)
        assert ass.prime_set <= assf.prime_set


def _sweep_witness_bounds(seed, engine, oracle):
    """At every witness bound up to one past the largest normal degree, the
    engine's filtered report names the oracle's primes."""
    rng = random.Random(seed)
    for i in range(8):
        instance = random_instance(i, rng)
        b, limit = instance.relations, instance.witness_bound
        for bound in range(limit + 1):
            report = engine(b, bound)
            expected = oracle(b, bound, verify_bound=limit + 1)
            assert sorted(report.primes,
                          key=lambda s: (len(s), sorted(s))) == expected
        assert engine(b, limit) == engine(b)


def test_assassin_oracle_agreement():
    _sweep_witness_bounds(13, assassins_cyclic, assassin_sets)


def test_weak_assassin_oracle_agreement():
    _sweep_witness_bounds(17, weak_assassins_cyclic, weak_assassin_sets)


def test_assassin_scan_shared_by_equal_handles(monkeypatch):
    calls = []
    real = spectrum_module._report_pair
    monkeypatch.setattr(spectrum_module, "_report_pair",
                        lambda *args: calls.append(args) or real(*args))
    rng = random.Random(67)
    for i in range(10):
        instance = random_instance(i, rng)
        ring = instance.ring
        gens = instance.relations.monomial_generators()
        first = IdealHandle.from_monomials(ring, gens)
        second = IdealHandle.from_monomials(ring, gens[::-1])
        start = len(calls)
        one = assassin_scan(IdealHandle.unit(ring), first)
        before = len(calls)
        assert before > start
        two = assassin_scan(IdealHandle.unit(ring), second)
        assert one == two
        assert one[0] == assassins_cyclic(instance.relations)
        assert one[1] == weak_assassins_cyclic(instance.relations)
        assert len(calls) == before


def _scan_pairs(instance):
    """(numerator, denominator) generator tuples of four modules of one
    instance, three of them over the same denominator.

    The harness rings are artinian and local, so the small torsion
    preimage is the unit ideal; (c, b) comes first, so that forward and
    reverse order each scan a different numerator over b first.
    """
    ring = instance.ring
    b, c = instance.relations, instance.extension
    small = gamma_small_cyclic(instance.acting, b)
    return [(h.monomial_generators(), k.monomial_generators())
            for h, k in ((c, b), (IdealHandle.unit(ring), b),
                         (small.preimage, b), (IdealHandle.unit(ring), c))]


def _scan_all(ring, pairs):
    """assassin_scan of each pair, rebuilt as handles in ring."""
    return [assassin_scan(IdealHandle.from_monomials(ring, num),
                          IdealHandle.from_monomials(ring, den))
            for num, den in pairs]


def test_assassin_reports_depend_on_the_numerator_too():
    """Scans over a shared denominator, in one order on the instance's ring
    and in the reverse order on a fresh copy of it, give equal reports."""
    rng = random.Random(79)
    for i in range(40):
        instance = random_instance(i, rng)
        ring = instance.ring
        pairs = _scan_pairs(instance)
        forward = _scan_all(ring, pairs)
        fresh = RingPresentation(ring.num_vars, ring.rules)
        backward = _scan_all(fresh, pairs[::-1])[::-1]
        assert forward == backward, pairs


def test_repeated_scan_reads_the_report_cache(monkeypatch):
    calls = []
    real = spectrum_module._report_pair
    monkeypatch.setattr(spectrum_module, "_report_pair",
                        lambda *args: calls.append(args) or real(*args))
    rng = random.Random(83)
    for i in range(10):
        instance = random_instance(i, rng)
        pairs = _scan_pairs(instance)
        start = len(calls)
        first = _scan_all(instance.ring, pairs)
        scanned = len(calls)
        assert scanned - start == len(set(pairs))
        assert _scan_all(instance.ring, pairs) == first
        assert len(calls) == scanned


def _top(numerator, denominator):
    """L: the lcm of the numerator's generators and the denominator's
    lifted basis."""
    return reduce(Monomial.lcm, numerator.monomial_generators()
                  + denominator.lifted_monomials(), Monomial.one())


def _scan_inputs():
    """(numerator, denominator) pairs: four per harness instance, one of
    them over the unit ideal, and the cyclic module R / b of each ring with
    a free variable, where the caps at L's exponents bind."""
    rng = random.Random(73)
    for i in range(30):
        instance = random_instance(i, rng)
        unit = IdealHandle.unit(instance.ring)
        yield unit, instance.relations
        yield instance.extension, instance.relations
        yield instance.acting, instance.extension
        yield instance.acting, unit
    rng = random.Random(2107)
    for _ in range(150):
        ring, b = _ring_with_a_free_variable(rng)
        yield IdealHandle.unit(ring), b


def test_witness_scan_matches_membership_filter():
    """The scan lists the normal divisors of L that lie in the numerator
    and outside the denominator, in grlex order."""
    for numerator, denominator in _scan_inputs():
        ring = numerator.ring
        top = _top(numerator, denominator)
        survivors = [m for m in ring.normal_monomials_up_to(top.degree)
                     if m.divides(top)
                     and numerator.contains_monomial(m)
                     and not denominator.contains_monomial(m)]
        assert spectrum_module._witness_scan(
            numerator, denominator, top) == survivors


def _force_walk(monkeypatch, ring):
    """Make the scan take the witness walk in ring, as in a ring with a
    free variable: the ring fact that selects the corner path says the
    last variable has no pure-power rule."""
    monkeypatch.setattr(ring, "_pure_powers",
                        ring._pure_powers[:-1] + (None,))


def _count_calls(monkeypatch, name, record):
    """Wrap spectrum's ``name`` so that each call ends by running
    ``record`` on its arguments and result."""
    real = getattr(spectrum_module, name)

    def wrapped(*args):
        out = real(*args)
        record(args, out)
        return out

    monkeypatch.setattr(spectrum_module, name, wrapped)


def test_nil40D_scan_at_level_10_walks_few_monomials(monkeypatch):
    """L has 11! normal divisors, but the walk stays outside b: it visits
    1 and the powers X_v^k with 1 <= k <= v, 56 monomials.  The default
    path reads the same witnesses off b's corners, the powers X_v^v."""
    visited, corners = [], []
    _count_calls(monkeypatch, "_next_level",
                 lambda args, out: visited.append(len(args[0])))
    _count_calls(monkeypatch, "_staircase_corners",
                 lambda args, out: corners.append(len(out)))
    maximal = frozenset(range(11))
    for walk in (True, False):
        ring, ideals = families._build_nil40D(10)
        if walk:
            _force_walk(monkeypatch, ring)
        ass, assf = assassin_scan(IdealHandle.unit(ring), ideals["b"])
        assert ass.witnesses == ((maximal, _var(1)),)
        assert assf.witnesses == ((maximal, Monomial.one()),)
        if walk:
            assert sum(visited) == 56 and corners == []
    assert sum(visited) == 56
    assert corners == [10]


def _random_artinian_ring(rng):
    """A ring on 1..6 variables with a pure-power rule for each, of
    exponent 1..3, and up to 3 mixed rule lhs."""
    n = rng.randint(1, 6)
    box = [rng.randint(1, 3) for _ in range(n)]
    lhs = {_var(v, box[v]) for v in range(n)}
    for _ in range(rng.randint(0, 3)):
        m = Monomial((v, rng.randint(1, box[v])) for v in range(n)
                     if rng.random() < 0.5)
        if len(m.pairs) > 1:
            lhs.add(m)
    return RingPresentation(n, [RewriteRule(m) for m in lhs])


def _random_monomials(rng, ring, count):
    """Up to ``count`` monomials other than 1, exponents 1 and 2."""
    out = (Monomial((v, rng.randint(1, 2)) for v in range(ring.num_vars)
                    if rng.random() < 0.4) for _ in range(count))
    return [m for m in out if not m.is_one]


def test_corner_scan_matches_the_walk_on_random_artinian_rings(monkeypatch):
    """The corner path and the witness walk, forced on a copy of the same
    ring, give equal report pairs, for the unit numerator and monomial
    ones over denominators of up to 5 generators."""
    rng = random.Random(103)
    shapes = {"zero module": 0, "nonzero module": 0, "unit numerator": 0,
              "monomial numerator": 0, "mixed rule": 0, "six variables": 0}
    walked = []
    _count_calls(monkeypatch, "_witness_scan",
                 lambda args, out: walked.append(1))
    for _ in range(300):
        ring = _random_artinian_ring(rng)
        walk = RingPresentation(ring.num_vars, ring.rules)
        _force_walk(monkeypatch, walk)
        den = _random_monomials(rng, ring, rng.randint(0, 5))
        nums = [None, _random_monomials(rng, ring, 3) or [_var(0)]]
        for num in nums:
            pair = []
            for r in (ring, walk):
                numerator = (IdealHandle.unit(r) if num is None
                             else IdealHandle.from_monomials(r, num))
                pair.append(assassin_scan(
                    numerator, IdealHandle.from_monomials(r, den)))
            assert pair[0] == pair[1], (ring.rules, num, den)
            shapes["nonzero module" if pair[0][0].primes
                   else "zero module"] += 1
            shapes["unit numerator" if num is None
                   else "monomial numerator"] += 1
        shapes["mixed rule"] += any(len(r.lhs.pairs) > 1 for r in ring.rules)
        shapes["six variables"] += ring.num_vars == 6
    assert len(walked) == 600
    assert min(shapes.values()) >= 30, shapes


def test_assassin_scan_matches_per_witness_recomputation():
    rng = random.Random(71)
    for i in range(40):
        instance = random_instance(i, rng)
        ring = instance.ring
        unit = IdealHandle.unit(ring)
        small = gamma_small_cyclic(instance.acting, instance.relations)
        for numerator, denominator in ((unit, instance.relations),
                                       (instance.extension, instance.relations),
                                       (unit, instance.extension),
                                       (small.preimage, instance.relations)):
            ass, assf = assassin_scan(numerator, denominator)
            witnesses = spectrum_module._witness_scan(
                numerator, denominator, _top(numerator, denominator))
            # Witnesses come in grlex order, so the first one per prime is
            # the smallest.
            expect_ass, expect_assf = {}, {}
            for m in witnesses:
                annihilator = ideal_colon(denominator,
                                          Element.from_monomial(ring, m))
                prime = prime_variable_set(annihilator)
                if prime is not None:
                    expect_ass.setdefault(prime, m)
                for prime in minimal_primes(annihilator):
                    expect_assf.setdefault(prime, m)
            assert dict(ass.witnesses) == expect_ass
            assert dict(assf.witnesses) == expect_assf


def _annihilator_as_sets(basis, m):
    """_annihilator with its prime masks converted to sorted variable sets."""
    prime, minimal = spectrum_module._annihilator(basis, m)
    return (None if prime is None else _mask_vars(prime),
            sorted(map(_mask_vars, minimal), key=prime_key))


def _annihilator_by_colon_basis(basis, m):
    colon = _colon_basis(basis, m)
    return spectrum_module._basis_prime(colon), _basis_minimal_primes(colon)


def test_annihilator_matches_the_colon_basis():
    """The exponent-comparison table entry equals the prime and minimal
    primes of the built colon basis, for every normal monomial outside the
    denominator."""
    rng = random.Random(89)
    checked = 0
    for i in range(100):
        instance = random_instance(i, rng)
        ring = instance.ring
        small = gamma_small_cyclic(instance.acting, instance.relations)
        large = gamma_large_cyclic(instance.acting, instance.relations)
        for denominator in (instance.relations, instance.extension,
                            small.preimage, large.preimage):
            basis = denominator.lifted_monomials()
            for m in ring.normal_monomials_up_to(instance.witness_bound):
                if denominator.contains_monomial(m):
                    continue
                assert (_annihilator_as_sets(basis, m)
                        == _annihilator_by_colon_basis(basis, m)), (basis, m)
                checked += 1
    assert checked >= 2000, checked


def test_annihilator_hand_cases():
    x0, x1 = _var(0), _var(1)
    zero = IdealHandle.zero(RingPresentation(2)).lifted_monomials()
    cases = [
        # (X0^3) : X0 = (X0^2), not prime, over the prime (X0)
        ((_var(0, 3),), x0, (None, [frozenset({0})])),
        # (X0*X1, X1^3) : X1 = (X0, X1^2), not prime, over (X0, X1)
        ((x0.mul(x1), _var(1, 3)), x1, (None, [frozenset({0, 1})])),
        # the zero ideal of a rule-free ring: the zero prime
        (zero, Monomial.one(), (frozenset(), [frozenset()])),
        (zero, x0.mul(x1), (frozenset(), [frozenset()])),
        # (X0*X1, X0*X2) : X0 = (X1, X2), prime
        ((x0.mul(x1), x0.mul(_var(2))), x0,
         (frozenset({1, 2}), [frozenset({1, 2})])),
    ]
    for basis, m, expected in cases:
        assert _annihilator_as_sets(basis, m) == expected
        assert _annihilator_by_colon_basis(basis, m) == expected


def test_assassin_scan_converts_each_distinct_prime_once(monkeypatch):
    """Primes stay bitmasks through the scan: one scan converts exactly
    as many masks to variable sets as its two reports hold primes."""
    ideals_module = importlib.import_module("torsionlab.ideals")
    converted = []
    real = ideals_module._mask_vars

    def count(mask):
        converted.append(mask)
        return real(mask)

    monkeypatch.setattr(ideals_module, "_mask_vars", count)
    monkeypatch.setattr(spectrum_module, "_mask_vars", count)
    rng = random.Random(97)
    for i in range(40):
        instance = random_instance(i, rng)
        converted.clear()
        ass, assf = assassin_scan(IdealHandle.unit(instance.ring),
                                  instance.relations)
        assert len(converted) == len(ass.primes) + len(assf.primes)
