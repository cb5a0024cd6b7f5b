"""Exact algebra: rationals, the constant ring, grading, rendering."""

import json
import math
import random
import re
from fractions import Fraction
from functools import cmp_to_key
from itertools import zip_longest

import pytest

from explogint import parse_constant
from explogint.evaluator import ClosedForm, IntegralSpec, PrefactorTerm, eval_general
from explogint.generators import BITS
from explogint.oracle import Constants, compute_constants, fixed_log
from explogint.ring import (
    EULER_GAMMA,
    GAMMA,
    LOG2,
    LOG2_CONST,
    LOG_MU,
    LOG_MU_CONST,
    MAX_ZETA_INDEX,
    ONE,
    SQRT_PI,
    SQRT_PI_CONST,
    Generator,
    Grade,
    MissingBindingError,
    SymbolicConstant,
    _place,
    _trim,
    _wrap,
    euler_coefficient,
    generator_from_name,
    grade,
    log_mu_slices,
    rational_const,
    sum_of_products,
    zeta_const,
    zeta_gen,
)
from explogint.special_values import ArgPoint, gamma_deriv_at

DELTA = GAMMA + LOG_MU_CONST

GEN_POOL = [EULER_GAMMA, LOG_MU, LOG2, SQRT_PI, zeta_gen(2), zeta_gen(3)]


def random_constant(
    rng, max_terms=4, num_bound=10**6, den_bound=1000, max_exp=3, pool=GEN_POOL
):
    total = rational_const(0)
    for _ in range(rng.randint(0, max_terms)):
        coeff = Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))
        term = rational_const(coeff)
        for g in rng.sample(pool, rng.randint(0, 4)):
            term = term * SymbolicConstant.from_generator(g, rng.randint(1, max_exp))
        total = total + term
    return total


def grlex_sorted(items):
    """(vector, numerator) pairs in graded-lex order, biggest first: higher total
    degree first, then the larger exponent at the first position that differs."""
    items = list(items)
    width = max((len(e) for e, _ in items), default=0)
    return sorted(items, key=lambda item: (sum(item[0]), item[0] + (0,) * (width - len(item[0]))), reverse=True)


def _assert_canonical(c):
    """The stored form: int numerators over one positive int denominator, no
    zero numerator, gcd(denominator, every numerator) == 1, trimmed vectors,
    iterated in graded-lex order."""
    assert type(c._den) is int and c._den > 0
    assert all(type(n) is int and n for n in c._d.values())
    assert math.gcd(c._den, *c._d.values()) == 1
    assert all(not e or e[-1] for e in c._d)
    assert list(c._d.items()) == grlex_sorted(c._d.items())
    return c


# --- rationals (stdlib Fraction as the coefficient field) -------------------


class TestRational:
    def test_addition(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_canonical_form(self):
        r = Fraction(2, 4)
        assert (r.numerator, r.denominator) == (1, 2)
        r = Fraction(3, -6)
        assert (r.numerator, r.denominator) == (-1, 2)  # denominator stays positive
        assert Fraction(0, 7) == Fraction(0, 1)

    def test_inverse_product(self):
        assert Fraction(3, 7) * Fraction(7, 3) == 1

    def test_division_by_zero_is_distinct_error(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 0)


# --- generators --------------------------------------------------------------


def _name_key(g):
    """The generator order read off the name alone, independent of the kernel:
    gamma, log_mu, log2, sqrt_pi, then zeta(k) by k."""
    m = re.fullmatch(r"zeta\((\d+)\)", g.name)
    if m:
        return (4, int(m.group(1)))
    return (("gamma", "log_mu", "log2", "sqrt_pi").index(g.name), 0)


class TestGenerator:
    def test_total_order(self):
        ordered = [EULER_GAMMA, LOG_MU, LOG2, SQRT_PI, zeta_gen(2), zeta_gen(3), zeta_gen(11)]
        assert ordered == sorted(ordered, key=_name_key)
        assert ordered == sorted(reversed(ordered))
        assert EULER_GAMMA < LOG_MU < LOG2 < SQRT_PI < zeta_gen(2) < zeta_gen(3)

    def test_zeta_requires_k_at_least_2(self):
        with pytest.raises(ValueError):
            zeta_gen(1)
        with pytest.raises(ValueError):
            generator_from_name("zeta(1)")

    def test_position_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Generator(-1)
        assert Generator(0) == EULER_GAMMA and Generator(4) == zeta_gen(2)

    def test_zeta_40_round_trips_through_name_json_and_text(self):
        g = generator_from_name("zeta(40)")
        assert g == zeta_gen(40) and (g.name, g.k, g.weight) == ("zeta(40)", 40, 40)
        c = SymbolicConstant.from_generator(g, 2) * GAMMA  # zeta(40)^2 is c_20^2 zeta(2)^40
        doc = json.loads(json.dumps(c.to_json()))
        c20 = euler_coefficient(20) ** 2
        assert doc == {"terms": [{"coeff": f"{c20.numerator}/{c20.denominator}", "powers": {"zeta(2)": 40, "gamma": 1}}]}
        assert SymbolicConstant.from_json(doc) == c
        assert SymbolicConstant.from_json({"terms": [{"coeff": "1", "powers": {"zeta(40)": 2, "gamma": 1}}]}) == c
        assert parse_constant(c.render()) == c == parse_constant("zeta(40)^2*gamma")

    def test_weights(self):
        assert EULER_GAMMA.weight == 1
        assert zeta_gen(5).weight == 5
        assert LOG_MU.weight is None and LOG2.weight is None and SQRT_PI.weight is None

    @pytest.mark.parametrize("i", range(61))
    def test_name_weight_and_zeta_index_follow_from_the_position(self, i):
        g = Generator(i)
        named = ["gamma", "log_mu", "log2", "sqrt_pi"]
        if i < 4:
            expected = (named[i], Fraction(1) if i == 0 else None, 0)
        else:
            expected = (f"zeta({i - 2})", Fraction(i - 2), i - 2)
        assert (g.name, g.weight, g.k) == expected
        assert type(g.weight) is (type(None) if g.weight is None else Fraction)
        assert generator_from_name(g.name) == g and repr(g) == f"Generator({g.name})"


# --- ring operations ---------------------------------------------------------


class TestArithmetic:
    def test_additive_inverse(self):
        assert not (GAMMA + (-GAMMA))
        assert GAMMA - GAMMA == 0

    def test_gamma_double_prime_combination(self):
        # zeta(2) + gamma^2 stays a two-term constant
        c = GAMMA * GAMMA + zeta_const(2)
        assert len(c.terms) == 2

    def test_delta_doubling(self):
        assert DELTA + DELTA == 2 * GAMMA + 2 * LOG_MU_CONST

    def test_delta_squared(self):
        expected = (
            GAMMA**2
            + 2 * GAMMA * LOG_MU_CONST
            + LOG_MU_CONST**2
        )
        assert DELTA * DELTA == expected

    def test_multiplication_by_zero_absorbs(self):
        rng = random.Random(7)
        for _ in range(20):
            assert not random_constant(rng) * rational_const(0)

    def test_product_weight_adds(self):
        # brute-force grading oracle: sum exponent * generator weight
        prod = GAMMA * zeta_const(2)
        assert len(prod.terms) == 1
        (mono,) = prod.terms
        w = sum(e * g.weight for g, e in mono.powers)
        assert w == 3
        assert grade(prod) == Grade("homogeneous", Fraction(3))

    def test_power_expansion(self):
        cube = DELTA**3
        assert len(cube.terms) == 4  # binomial in gamma, log_mu
        assert cube == (
            GAMMA**3
            + 3 * GAMMA**2 * LOG_MU_CONST
            + 3 * GAMMA * LOG_MU_CONST**2
            + LOG_MU_CONST**3
        )

    def test_zero_power_zero_is_one(self):
        assert rational_const(0) ** 0 == 1

    def test_gamma_fourth(self):
        c = GAMMA**4
        assert len(c.terms) == 1
        assert grade(c) == Grade("homogeneous", Fraction(4))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            GAMMA ** (-1)

    def test_scalar_division(self):
        assert zeta_const(2) * 6 / 6 == zeta_const(2)
        with pytest.raises(ZeroDivisionError):
            GAMMA / 0


class TestRingAxioms:
    def test_axioms_on_random_triples(self):
        rng = random.Random(20250808)
        for _ in range(1000):
            a = random_constant(rng, max_terms=3)
            b = random_constant(rng, max_terms=3)
            c = random_constant(rng, max_terms=3)
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_add_zero_is_structurally_identical(self):
        rng = random.Random(99)
        zero = rational_const(0)
        for _ in range(50):
            a = random_constant(rng)
            assert (a + zero).terms == a.terms
            assert hash(a + zero) == hash(a)

    def test_normalization_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            a = random_constant(rng)
            rebuilt = SymbolicConstant({m.powers: m.coeff for m in a.terms})
            assert rebuilt.terms == a.terms


class TestPower:
    def test_repeated_squaring_matches_repeated_multiplication(self):
        rng = random.Random(2718)
        for _ in range(40):
            a = random_constant(rng, max_terms=3, max_exp=2)
            product = rational_const(1)
            for k in range(8):
                assert a**k == product
                product = product * a


# --- kernel against the sorted-tuple reference ------------------------------


def _powers_cmp(pa, pb):
    """Reference term order: the comparator the sorted-tuple kernel used.

    Graded-lexicographic, biggest monomial first: higher total degree sorts
    first; ties are broken by the earliest generator at which the exponents
    differ, larger exponent first.
    """
    da = sum(e for _, e in pa)
    db = sum(e for _, e in pb)
    if da != db:
        return db - da
    ia = ib = 0
    while ia < len(pa) or ib < len(pb):
        ga = _name_key(pa[ia][0]) if ia < len(pa) else None
        gb = _name_key(pb[ib][0]) if ib < len(pb) else None
        if ga == gb:
            ea, eb = pa[ia][1], pb[ib][1]
            if ea != eb:
                return eb - ea
            ia += 1
            ib += 1
        elif gb is None or (ga is not None and ga < gb):
            return -1  # pa has a positive exponent on an earlier generator
        else:
            return 1
    return 0


WIDE_POOL = GEN_POOL + [zeta_gen(k) for k in range(4, 31)]


def kernel_draws(seed, count=300, den_bound=1000):
    """Random constants over every generator kind and zeta(2..30), plus
    products of them (many terms of equal degree, so the tie-break matters)."""
    rng = random.Random(seed)
    for _ in range(count):
        a = random_constant(rng, max_terms=6, den_bound=den_bound, pool=WIDE_POOL)
        yield a
        yield a * random_constant(rng, max_terms=3, den_bound=den_bound, pool=WIDE_POOL)


class TestKernelAgainstReference:
    def test_term_order_matches_reference_comparator(self):
        rng = random.Random(5)
        for c in kernel_draws(11):
            powers = [m.powers for m in c.terms]
            shuffled = rng.sample(powers, len(powers))
            assert powers == sorted(shuffled, key=cmp_to_key(_powers_cmp))

    def test_every_public_coefficient_is_a_fraction(self):
        for c in kernel_draws(12, den_bound=3):
            assert all(type(m.coeff) is Fraction for m in c.terms)
        assert type(rational_const(3).terms[0].coeff) is Fraction

    def test_int_and_fraction_coefficients_are_one_value(self):
        for c in kernel_draws(13, den_bound=3):
            as_fraction = SymbolicConstant({m.powers: m.coeff for m in c.terms})
            as_int = SymbolicConstant(
                {m.powers: int(m.coeff) if m.coeff.denominator == 1 else m.coeff for m in c.terms}
            )
            assert as_int == as_fraction == c
            assert hash(as_int) == hash(as_fraction) == hash(c)
        halved = (2 * GAMMA) * Fraction(1, 2)
        assert halved == GAMMA and hash(halved) == hash(GAMMA)
        assert rational_const(Fraction(6, 2)) == 3
        assert hash(rational_const(3)) == hash(rational_const(Fraction(3)))

    def test_equal_rationals_hash_equal(self):
        # a constant equal to an int or a Fraction hashes as it does, so a set holds one
        assert len({ONE, 1, Fraction(1)}) == 1
        assert hash(rational_const(0)) == hash(SymbolicConstant()) == hash(0) == hash(Fraction(0))
        assert hash(rational_const(Fraction(-3, 4))) == hash(Fraction(-3, 4))
        assert {rational_const(Fraction(-3, 4)): "a"}[Fraction(-3, 4)] == "a"
        assert len({GAMMA, ONE, 1, rational_const(2), 2}) == 3

    def test_public_constructor_round_trips_through_terms(self):
        rng = random.Random(6)
        for c in kernel_draws(14):
            items = [(m.powers, m.coeff) for m in c.terms]
            rebuilt = SymbolicConstant(dict(rng.sample(items, len(items))))
            assert rebuilt.terms == c.terms
            assert rebuilt == c


# --- canonical storage: int numerators over one denominator ------------------


def _stored(c):
    """The stored value as a plain dict of Fraction coefficients."""
    return {e: Fraction(n, c._den) for e, n in c._d.items()}


def _model(pairs):
    """Plain dict-of-Fraction model of a constant: summed, zeros dropped, trimmed."""
    out = {}
    for e, c in pairs:
        e = _trim(tuple(e))
        out[e] = out.get(e, 0) + Fraction(c)
    return {e: c for e, c in out.items() if c}


def _model_times(a, b):
    return _model((tuple(map(sum, zip_longest(ea, eb, fillvalue=0))), ca * cb)
                  for ea, ca in a.items() for eb, cb in b.items())


def _model_log_mu(a, j):
    padded = ((e + (0,) * max(0, 2 - len(e)), c) for e, c in a.items())
    return _model(((e[0], e[1] + j) + e[2:], c) for e, c in padded)


class TestCanonicalForm:
    SCALARS = (0, 1, -2, 6, Fraction(1, 2), Fraction(-4, 3), Fraction(6, 35))

    def test_every_kernel_operation_returns_canonical_form(self):
        rng = random.Random(19)
        draws = list(kernel_draws(19, count=40, den_bound=12))
        # Fixed inputs: a smaller factor whose keys are longer than the larger
        # factor's (the widening path), and ONE as the smaller factor.
        draws += [zeta_const(9) * (GAMMA + 1), ONE]
        for a in draws:
            b, s = rng.choice(draws), rng.choice(self.SCALARS)
            _assert_canonical(a)
            for c in (a + b, a - b, a * b, a * s, s * a, -a, a + s, s - a):
                _assert_canonical(c)
            if s:
                _assert_canonical(a / s)
            _assert_canonical(sum_of_products([(s, a, b), (Fraction(1, 3), b, b)]))
            log_mu_2 = SymbolicConstant.from_generator(LOG_MU, 2)
            _assert_canonical(sum_of_products([(s, log_mu_2, a), (1, ONE, b)], rng.choice((1, 2, 6))))
            _assert_canonical(_place((e + (0,) * rng.randint(0, 2), Fraction(n, a._den)) for e, n in a._d.items()))
            _assert_canonical(SymbolicConstant.from_json(a.to_json()))
            _assert_canonical(parse_constant(a.render()))
            _assert_canonical(parse_constant(a.render(paper_style=True)))

    def test_one_gcd_reduces_the_denominator(self):
        assert (GAMMA / 2 + LOG2_CONST / 2) * 2 == GAMMA + LOG2_CONST
        assert ((GAMMA / 2 + LOG2_CONST / 2) * 2)._den == 1
        assert (rational_const(Fraction(1, 2)) + Fraction(1, 2))._den == 1
        assert (GAMMA / 6 + LOG2_CONST / 3 - LOG2_CONST / 3)._den == 6
        assert (GAMMA / 4 + LOG2_CONST / 4 + GAMMA / 4 + LOG2_CONST / 4)._den == 2
        zero = GAMMA / 2 - GAMMA / 2
        assert (zero._d, zero._den) == ({}, 1) and zero == 0
        placed = _place([((1, 0, 0), Fraction(1, 2)), ((1,), Fraction(1, 2))])
        assert (placed._d, placed._den) == ({(1,): 1}, 1)
        lifted = sum_of_products([(Fraction(3, 2), LOG_MU_CONST, GAMMA / 3)], 5)
        assert (lifted._d, lifted._den) == ({(1, 1): 1}, 10)

    def test_engine_constants_are_canonical(self):
        for twice in (1, 2, 7, 21, 41):
            for k in range(8):
                _assert_canonical(gamma_deriv_at(k, ArgPoint(twice)))
        prefactor = (PrefactorTerm(0, Fraction(2, 3)), PrefactorTerm(1, Fraction(5, 4)))
        for twice in (1, 7):
            for _, c in eval_general(IntegralSpec(prefactor, ArgPoint(twice), 6)).terms:
                _assert_canonical(c)

    def test_kernel_agrees_with_a_fraction_model(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coeff = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=60)
        vector = st.lists(st.integers(0, 3), max_size=6).map(tuple)
        pairs = st.lists(st.tuples(vector, coeff), max_size=6)
        scalar = st.fractions(min_value=-50, max_value=50, max_denominator=40)

        @hypothesis.settings(max_examples=150, deadline=None, database=None)
        @hypothesis.given(pairs, pairs, scalar, scalar, st.integers(0, 3), st.integers(1, 12))
        def check(pa, pb, s, t, j, den):
            a, b = _place(pa), _place(pb)
            ma, mb = _model(pa), _model(pb)
            results = [
                (a, ma),
                (a + b, _model([*ma.items(), *mb.items()])),
                (a - b, _model([*ma.items(), *((e, -c) for e, c in mb.items())])),
                (a * b, _model_times(ma, mb)),
                (a * s, _model((e, c * s) for e, c in ma.items())),
                (sum_of_products([(s, SymbolicConstant.from_generator(LOG_MU, j), a), (t, ONE, b)], den), _model(
                    [*((e, c * s / den) for e, c in _model_log_mu(ma, j).items()),
                     *((e, c * t / den) for e, c in mb.items())])),
                (sum_of_products([(s, a, b), (t, b, b)]), _model(
                    [*((e, c * s) for e, c in _model_times(ma, mb).items()),
                     *((e, c * t) for e, c in _model_times(mb, mb).items())])),
                (SymbolicConstant.from_json(a.to_json()), ma),
                (parse_constant(a.render()), ma),
            ]
            if s:
                results.append((a / s, _model((e, c / s) for e, c in ma.items())))
            for got, expected in results:
                _assert_canonical(got)
                assert _stored(got) == expected

        check()


class TestCanonicalOrder:
    """Term order is part of the canonical form: equal values are identical."""

    def test_equal_constants_built_by_different_routes_are_identical(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coeff = st.fractions(min_value=-10**4, max_value=10**4, max_denominator=30).filter(bool)
        vector = st.lists(st.integers(0, 3), max_size=6).map(tuple)
        pairs = st.lists(st.tuples(vector, coeff), min_size=1, max_size=6)

        @hypothesis.settings(max_examples=150, deadline=None, database=None)
        @hypothesis.given(pairs, pairs, pairs, st.randoms(use_true_random=False), st.integers(0, 4))
        def check(pa, pb, pc, rng, j):
            a, b, c = _place(pa), _place(pb), _place(pc)
            shuffled = list(pa)
            rng.shuffle(shuffled)
            doc = a.to_json()
            rng.shuffle(doc["terms"])
            log_mu_j = SymbolicConstant.from_generator(LOG_MU, j)
            den, slices = log_mu_slices(a)
            routes = [
                (a, _place(shuffled)),
                (a, SymbolicConstant.from_json(doc)),
                (a, SymbolicConstant(dict(m[::-1] for m in reversed(a.terms)))),
                (a, parse_constant(a.render())),
                (a, parse_constant(a.render(paper_style=True))),
                (a, a + b - b),
                (a + b + c, c + (b + a)),
                (a * (b + c), c * a + a * b),
                ((a - b) * (a + b), a * a - b * b),
                (log_mu_j * a + 2 * b, sum_of_products([(2, ONE, b), (1, a, log_mu_j)])),
                (a, sum_of_products(((1, SymbolicConstant.from_generator(LOG_MU, i), k) for i, k in slices), den)),
            ]
            for x, y in routes:
                _assert_canonical(x)
                _assert_canonical(y)
                assert x == y and hash(x) == hash(y)
                assert x.render() == y.render() and x.render(paper_style=True) == y.render(paper_style=True)
                assert x.to_json() == y.to_json()
            # a = sum_i log_mu^i N_i / den over a's denominator: each N_i nonzero, log_mu-free,
            # canonical and of integer coefficients, i ascending
            assert den == a._den
            assert [i for i, _ in slices] == sorted({e[1] if len(e) > 1 else 0 for e in a._d})
            for _, k in slices:
                assert _assert_canonical(k)._den == 1 and all(len(e) < 2 or not e[1] for e in k._d)

        check()


# --- grading -----------------------------------------------------------------


def random_homogeneous(rng, weight):
    """Nonzero constant all of whose monomials have the given weight."""
    total = rational_const(0)
    for _ in range(rng.randint(1, 3)):
        w = weight
        term = rational_const(Fraction(rng.randint(1, 50), rng.randint(1, 9)))
        b = rng.randint(0, w // 3)
        w -= 3 * b
        a = rng.randint(0, w // 2)
        w -= 2 * a
        if b:
            term = term * zeta_const(3) ** b
        if a:
            term = term * zeta_const(2) ** a
        if w:
            term = term * GAMMA**w
        total = total + term
    return total


class TestGrade:
    def test_weight_two(self):
        assert grade(zeta_const(2) + GAMMA**2) == Grade("homogeneous", Fraction(2))

    def test_weight_three(self):
        c = -(GAMMA**3) - 3 * zeta_const(2) * GAMMA - 2 * zeta_const(3)
        assert grade(c) == Grade("homogeneous", Fraction(3))

    def test_inhomogeneous(self):
        assert grade(GAMMA + zeta_const(2)).kind == "inhomogeneous"

    def test_ungradable(self):
        assert grade(LOG_MU_CONST).kind == "ungradable"
        assert grade(LOG2_CONST + GAMMA).kind == "ungradable"
        assert grade(SQRT_PI_CONST * zeta_const(2)).kind == "ungradable"
        # delta = gamma + log mu is deliberately not graded
        assert grade(DELTA).kind == "ungradable"
        # ungradable wins over inhomogeneous
        assert grade(GAMMA + zeta_const(2) + LOG_MU_CONST).kind == "ungradable"

    def test_rational_constants_have_weight_zero(self):
        assert grade(rational_const(Fraction(22, 7))) == Grade("homogeneous", Fraction(0))

    def test_zero_is_homogeneous_of_every_weight(self):
        assert grade(rational_const(0)) == Grade("homogeneous", None)

    def test_grade_agrees_with_the_per_factor_sum_of_generator_weights(self):
        def reference(const):
            if not const:
                return Grade("homogeneous", None)
            weights = set()
            for mono in const.terms:
                w = Fraction(0)
                for g, e in mono.powers:
                    if g.weight is None:
                        return Grade("ungradable")
                    w += g.weight * e
                weights.add(w)
            return Grade("homogeneous", weights.pop()) if len(weights) == 1 else Grade("inhomogeneous")

        rng = random.Random(2718)
        pool = GEN_POOL + [zeta_gen(k) for k in (7, 40, MAX_ZETA_INDEX)]
        homogeneous_pool = [EULER_GAMMA, zeta_gen(2), zeta_gen(3), zeta_gen(50)]
        kinds = set()
        for _ in range(400):
            c = random_constant(rng, pool=rng.choice([pool, homogeneous_pool]))
            if rng.random() < 0.3:
                c = random_homogeneous(rng, rng.randint(0, 8)) * (c if rng.random() < 0.5 else ONE)
            g = grade(c)
            assert g == reference(c)
            assert g.weight is None or type(g.weight) is Fraction
            kinds.add(g.kind if c else "zero")
        assert kinds == {"homogeneous", "inhomogeneous", "ungradable", "zero"}

    def test_product_of_homogeneous_is_homogeneous(self):
        rng = random.Random(31415)
        for _ in range(200):
            w1 = rng.randint(0, 6)
            w2 = rng.randint(0, 6)
            a = random_homogeneous(rng, w1)
            b = random_homogeneous(rng, w2)
            assert grade(a) == Grade("homogeneous", Fraction(w1))
            assert grade(b) == Grade("homogeneous", Fraction(w2))
            assert grade(a * b) == Grade("homogeneous", Fraction(w1 + w2))


# --- numeric evaluation ------------------------------------------------------


class TestEvaluate:
    def test_minus_gamma(self, table):
        value = (-GAMMA).evaluate(table)
        assert abs(value + 0.5772156649) < 1e-9

    def test_weight_two_value(self, table):
        value = (zeta_const(2) + GAMMA**2).evaluate(table)
        assert abs(value - 1.9781119906) < 1e-9

    def test_zero(self, table):
        assert rational_const(0).evaluate(table) == 0.0

    def test_missing_binding_names_the_generator(self, ints):
        with pytest.raises(MissingBindingError) as exc_info:
            zeta_const(7).evaluate(Constants({}))
        assert "zeta(7)" in str(exc_info.value)
        with pytest.raises(MissingBindingError, match="log_mu"):  # bound per call, never held
            LOG_MU_CONST.evaluate(compute_constants())
        with pytest.raises(MissingBindingError, match=re.escape("zeta(5)")):  # a caller's table holds what it is given
            zeta_const(5).evaluate(Constants({g: x for g, x in ints.items() if g.k < 5}))

    def test_only_a_constants_table_binds(self, table, ints):
        # a plain map, of doubles or of ints, is no binding input: the error names the one that is,
        # also for a closed form whose blocks are already bound under the process table
        cf = eval_general(IntegralSpec((PrefactorTerm(0, Fraction(1)),), ArgPoint(3), 2))
        cf.evaluate(2.0, table)
        for plain in ({g: x / 2**BITS for g, x in ints.items()}, dict(ints)):
            with pytest.raises(TypeError, match="Constants table, not dict"):
                GAMMA.evaluate(plain)
            with pytest.raises(TypeError, match="Constants table, not dict"):
                cf.evaluate(2.0, plain)

    def test_the_zero_form_reads_only_a_constants_table(self):
        # the empty form has no group to bind, yet takes the same one input as any other
        with pytest.raises(TypeError, match="Constants table, not dict"):
            ClosedForm([]).evaluate(1.0, {})
        assert ClosedForm([]).evaluate(1.0, compute_constants()) == 0.0

    def test_high_powers_bind_without_recursion(self, table):
        # each generator power is formed exactly and floored once, with no recursion
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            expected = mpmath.zeta(3) ** 999
        assert abs(parse_constant("zeta(3)^999").evaluate(table) - expected) <= 1e-12 * expected
        assert parse_constant("gamma^1000").evaluate(table) == 0.0  # below 2^-BITS from gamma^243 on

    def test_monomials_are_summed_exactly_then_rounded_once(self):
        # monomials 2^53, 1 and -2^53 sum to 1, where a plain float sum of the first two loses it
        c = rational_const(2**53) * LOG2_CONST + ONE - rational_const(2**53) * SQRT_PI_CONST
        assert c.evaluate(Constants({LOG2: 1 << BITS, SQRT_PI: 1 << BITS})) == 1.0

    def test_a_sum_beyond_the_float_range_is_a_value_error(self):
        big = rational_const(10**308)
        with pytest.raises(ValueError, match="closed-form value lies outside the float range"):
            (big * GAMMA + big * LOG2_CONST).evaluate(Constants({EULER_GAMMA: 1 << BITS, LOG2: 1 << BITS}))

    def test_evaluation_homomorphism(self, ints):
        rng = random.Random(4242)
        bindings = Constants({**ints, LOG_MU: fixed_log(2.0)})
        for _ in range(300):
            a = random_constant(rng, num_bound=1000, den_bound=60, max_exp=2)
            b = random_constant(rng, num_bound=1000, den_bound=60, max_exp=2)
            lhs = (a * b).evaluate(bindings)
            rhs = a.evaluate(bindings) * b.evaluate(bindings)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


# --- rendering, JSON, parsing ------------------------------------------------


class TestRendering:
    def test_weight_three_display_form(self):
        c = -(GAMMA**3) - 3 * zeta_const(2) * GAMMA - 2 * zeta_const(3)
        assert c.render() == "-gamma^3 - 3*zeta(2)*gamma - 2*zeta(3)"

    def test_zero_renders(self):
        assert rational_const(0).render() == "0"

    def test_rational_rendering(self):
        assert rational_const(Fraction(-5, 6)).render() == "-5/6"
        assert (rational_const(Fraction(1, 2)) * GAMMA).render() == "1/2*gamma"

    def test_paper_style_delta(self):
        assert (-DELTA).render(paper_style=True) == "-delta"
        c = zeta_const(2) + DELTA**2
        assert c.render(paper_style=True) == "delta^2 + 1/6*pi^2"

    def test_paper_style_falls_back_when_no_delta_form(self):
        assert GAMMA.render(paper_style=True) == "gamma"
        assert (GAMMA * LOG_MU_CONST).render(paper_style=True) == "log_mu*gamma"

    def test_coefficients_past_the_str_digit_limit_print(self):
        # str() of an int past sys.get_int_max_str_digits() digits raises; render and to_json do not
        big = 10**5000 + 1
        digits = "1" + "0" * 4999 + "1"
        c = rational_const(Fraction(-big, 7)) * GAMMA + rational_const(big)
        assert c.render() == c.render(paper_style=True) == f"-{digits}/7*gamma + {digits}"
        assert c.to_json() == {"terms": [{"coeff": f"-{digits}/7", "powers": {"gamma": 1}},
                                         {"coeff": f"{digits}/1", "powers": {}}]}

    def test_json_golden_shape(self):
        c = -(GAMMA**3)
        assert c.to_json() == {"terms": [{"coeff": "-1/1", "powers": {"gamma": 3}}]}

    def test_json_round_trip(self):
        rng = random.Random(55)
        for _ in range(100):
            c = random_constant(rng)
            assert SymbolicConstant.from_json(c.to_json()) == c
            # and through an actual serialization
            assert SymbolicConstant.from_json(json.loads(json.dumps(c.to_json()))) == c

    def test_from_json_names_the_malformed_field(self):
        term = {"coeff": "3/2", "powers": {"gamma": 1}}
        cases = [
            ({}, "'terms' array"),
            ({"terms": [{**term, "powers": {"gamma": 0}}]}, "positive integers"),
            ({"terms": [{**term, "coeff": "1/0"}]}, "'coeff'"),
            ({"terms": [{"powers": {"gamma": 1}}]}, "'coeff'"),
            ({"terms": [{"coeff": "1/1"}]}, "'powers'"),
            ([], "'terms' array"),
            ({"terms": 5}, "'terms' array"),
            ({"terms": [5]}, "'coeff'"),
            ({"terms": [{**term, "powers": [["gamma", 1]]}]}, "'powers'"),
            ({"terms": [{**term, "powers": {"gamma": "x"}}]}, "'powers'"),
            ({"terms": [{**term, "powers": {"gamma": 1.5}}]}, "'powers'"),
            ({"terms": [{**term, "powers": {"gamma": True}}]}, "'powers'"),
            ({"terms": [{**term, "powers": {"tau": 1}}]}, "'powers'"),
            ({"terms": [{**term, "powers": {f"zeta({MAX_ZETA_INDEX + 1})": 1}}]}, "'powers'"),
            ({"terms": [{**term, "powers": {"zeta(3000000)": 1}}]}, "'powers'"),
            ({"terms": [{**term, "powers": {"gamma": MAX_ZETA_INDEX + 1}}]}, "'powers'"),
            ({"terms": [{**term, "powers": {"gamma": 10**9}}]}, "'powers'"),
        ]
        for doc, field in cases:
            with pytest.raises(ValueError, match=re.escape(field)):
                SymbolicConstant.from_json(doc)
        for doc in ({}, [], {"terms": 5}, {"terms": {"mu_exponent": "0/1"}}):
            with pytest.raises(ValueError, match=re.escape("'terms' array")):
                ClosedForm.from_json(doc)
        const = {"terms": [term]}
        for item, field in [
            ({"mu_exponent": "1/0", "constant": const}, "'mu_exponent'"),
            ({"constant": const}, "'mu_exponent'"),
            ({"mu_exponent": "1/2"}, "'constant'"),
            ({"mu_exponent": "1/2", "constant": {"terms": [{**term, "coeff": "1/0"}]}}, "'coeff'"),
        ]:
            with pytest.raises(ValueError, match=re.escape(field)):
                ClosedForm.from_json({"terms": [item]})
        assert ClosedForm.from_json({"terms": [{"mu_exponent": "1/2", "constant": const}]}) == ClosedForm(
            [(Fraction(1, 2), Fraction(3, 2) * GAMMA)]
        )
        top = {"terms": [{"coeff": "1/1", "powers": {f"zeta({MAX_ZETA_INDEX})": 1}}]}
        assert SymbolicConstant.from_json(top) == zeta_const(MAX_ZETA_INDEX)

    def test_render_parse_round_trip(self):
        rng = random.Random(77)
        for _ in range(200):
            c = random_constant(rng)
            assert parse_constant(c.render()) == c

    def test_paper_style_parse_round_trip(self):
        rng = random.Random(78)
        for _ in range(200):
            c = random_constant(rng)
            assert parse_constant(c.render(paper_style=True)) == c

    def test_parse_constant_examples(self):
        assert parse_constant("-gamma^3 - 3*zeta(2)*gamma - 2*zeta(3)") == (
            -(GAMMA**3) - 3 * zeta_const(2) * GAMMA - 2 * zeta_const(3)
        )
        assert parse_constant("delta") == DELTA
        assert parse_constant("1/6*pi^2") == zeta_const(2)

    def test_parse_constant_rejects_odd_pi_power(self):
        with pytest.raises(ValueError):
            parse_constant("pi")
        with pytest.raises(ValueError):
            parse_constant("2*pi^3")

    def test_parse_constant_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            parse_constant("gamma + tau")


class TestReadersShareOneCap:
    """``parse_constant``, ``from_json`` and the Mapping constructor hold one cap,
    ``ring.top_exponent`` <= MAX_ZETA_INDEX, so whatever one of them takes reads back."""

    @pytest.mark.parametrize("powers", [((EULER_GAMMA, 1001),), ((EULER_GAMMA, 600), (EULER_GAMMA, 600)),
                                        ((zeta_gen(3), 5000),)])
    def test_mapping_constructor_is_capped_like_json(self, powers):
        with pytest.raises(ValueError, match=f"must be at most {MAX_ZETA_INDEX}"):
            SymbolicConstant({powers: Fraction(1)})

    @staticmethod
    def near_cap_factor(rng):
        """(name, exponent) of one factor, its exponent a random share of the cap, in its own units:
        zeta(2k)^e counts as zeta(2)^(k e) and pi^(2e) as zeta(2)^e."""
        name = rng.choice(["gamma", "log_mu", "log2", "sqrt_pi", "delta", "pi", "zeta", "zeta"])
        share = rng.choice([rng.uniform(0.9, 1.05), rng.uniform(0.3, 0.6), rng.uniform(0, 0.05)])
        if name == "pi":
            return name, 2 * max(1, round(share * MAX_ZETA_INDEX))
        weight = 1
        if name == "zeta":
            k = rng.randint(2, MAX_ZETA_INDEX)
            name, weight = f"zeta({k})", k // 2 if k % 2 == 0 else 1
        return name, max(1, round(share * MAX_ZETA_INDEX / weight))

    def test_whatever_a_reader_takes_reads_back(self):
        # seeded products near the cap, each read by every reader that can spell it
        rng = random.Random(4401)
        taken, rejected, failures = 0, 0, []
        for _ in range(100):
            terms = [(Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 99)),
                      [self.near_cap_factor(rng) for _ in range(rng.randint(1, 4))])
                     for _ in range(rng.randint(1, 2))]
            text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*" + "*".join(f"{n}^{e}" for n, e in factors)
                            for c, factors in terms)
            readers = {"text": lambda: parse_constant(text.removeprefix("+ "))}
            if not any(n in ("delta", "pi") for _, factors in terms for n, _ in factors):
                readers["Mapping"] = lambda: SymbolicConstant(
                    {tuple((generator_from_name(n), e) for n, e in factors): c for c, factors in terms})
                merged = [(c, {n: sum(e for m, e in factors if m == n) for n, _ in factors}) for c, factors in terms]
                readers["JSON"] = lambda: SymbolicConstant.from_json(
                    {"terms": [{"coeff": str(c), "powers": powers} for c, powers in merged]})
            for reader, read in readers.items():
                try:
                    c = read()
                except ValueError:
                    rejected += 1
                    continue
                taken += 1
                try:
                    back = (parse_constant(c.render()), SymbolicConstant.from_json(json.loads(json.dumps(c.to_json()))))
                except ValueError as exc:
                    back = (exc,)
                if back != (c, c):
                    failures.append((reader, text))
        assert not failures
        assert taken > 60 and rejected > 60  # the draws straddle the cap


# --- log_mu specialisations against general substitution ----------------------


def substitute_reference(c, g, replacement):
    """General substitution g -> replacement by ring products, as the ring
    once had it: monomials are grouped by their exponent k of g, and group k
    is multiplied by replacement**k."""
    i = g.index
    groups = {}
    for e, coeff in c._d.items():
        k = e[i] if i < len(e) else 0
        if k:
            e = _trim(e[:i] + (0,) + e[i + 1 :])
        groups.setdefault(k, {})[e] = coeff
    parts, power, done = [], rational_const(1), 0
    for k in sorted(groups):
        for _ in range(k - done):
            power = power * replacement
        done = k
        parts.append((1, _wrap(groups[k], c._den), power))
    return sum_of_products(parts)


def at_mu_one_reference(cf):
    zero = rational_const(0)
    return sum((substitute_reference(c, LOG_MU, zero) for _, c in cf.terms), zero)


def paper_style_reference(c):
    """The delta rewrite by substituting gamma -> gamma - log_mu: it applies
    when the result is free of log_mu and still names gamma."""
    form = substitute_reference(c, EULER_GAMMA, GAMMA - LOG_MU_CONST)
    named = {i for e in form._d for i, k in enumerate(e) if k}
    if LOG_MU.index in named or EULER_GAMMA.index not in named:
        return None
    return form.render(paper_style=True).replace("gamma", "delta")


class TestLogMuSpecialisations:
    @staticmethod
    def closed_forms():
        for twice in range(1, 22):
            for n in range(10):
                yield eval_general(IntegralSpec.simple(ArgPoint(twice), n))
        rng = random.Random(29)
        for _ in range(20):
            prefactor = tuple(
                PrefactorTerm(p, Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5)), rng.randint(0, 1))
                for p in rng.sample(range(4), rng.randint(2, 4))
            )
            yield eval_general(IntegralSpec(prefactor, ArgPoint(rng.randint(1, 9)), rng.randint(0, 5)))

    HAND = [
        GAMMA * LOG_MU_CONST,  # no delta form: d/dgamma = log_mu, d/dlog_mu = gamma
        GAMMA + 2 * LOG_MU_CONST,  # its log_mu-free part names gamma, yet no delta form
        GAMMA * LOG_MU_CONST + GAMMA,
        zeta_const(3) * LOG2_CONST - Fraction(1, 3),  # neither gamma nor log_mu
        LOG_MU_CONST**2 + 1,  # log_mu without gamma
        rational_const(0),
        -DELTA,
        DELTA**2 + zeta_const(2),
    ]

    def check(self, c):
        expected = paper_style_reference(c)
        got = c.render(paper_style=True)
        if expected is None:
            assert "delta" not in got
            assert parse_constant(got) == c
        else:
            assert got == expected
        return expected is not None

    def test_hand_and_random_constants(self):
        assert [self.check(c) for c in self.HAND] == [False] * 6 + [True] * 2
        rng = random.Random(30)
        mixed = [random_constant(rng, pool=[EULER_GAMMA, LOG_MU, zeta_gen(2), LOG2]) for _ in range(100)]
        in_delta = [
            sum((random_constant(rng, max_terms=2, pool=[LOG2, SQRT_PI, zeta_gen(2), zeta_gen(3)]) * DELTA**k
                 for k in range(rng.randint(1, 4))), rational_const(0))
            for _ in range(100)
        ]
        draws = mixed + in_delta
        assert sum(self.check(c) for c in mixed) < 10 < sum(self.check(c) for c in in_delta)
        for c in self.HAND + draws:
            cf = ClosedForm([(Fraction(1), c), (Fraction(3, 2), 2 * c)])
            assert cf.at_mu_one() == at_mu_one_reference(cf) == 3 * at_mu_one_reference(
                ClosedForm([(0, c)])
            )

    def test_eval_general_constants(self):
        delta_forms = 0
        for cf in self.closed_forms():
            assert cf.at_mu_one() == at_mu_one_reference(cf)
            delta_forms += sum(self.check(c) for _, c in cf.terms)
        assert delta_forms > 100

    def test_delta_polynomials_and_one_changed_coefficient(self):
        # sum b * delta^m * T prints as delta; changing the coefficient of one
        # monomial that names gamma or log_mu, or zeroing it, leaves no delta form
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        tails = [ONE, LOG2_CONST, SQRT_PI_CONST, zeta_const(2), zeta_const(3),
                 LOG2_CONST * zeta_const(2), SQRT_PI_CONST * zeta_const(3) ** 2]
        coeff = st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool)
        blocks = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, len(tails) - 1)), coeff,
                                 min_size=1, max_size=5)

        @hypothesis.settings(max_examples=150, deadline=None, database=None)
        @hypothesis.given(blocks, st.integers(0, 10**6), coeff)
        def check(b, pick, change):
            hypothesis.assume(any(m for m, _ in b))
            c = sum((v * DELTA**m * tails[t] for (m, t), v in b.items()), rational_const(0))
            in_gamma = sum((v * GAMMA**m * tails[t] for (m, t), v in b.items()), rational_const(0))
            got = c.render(paper_style=True)
            assert got == render_reference(in_gamma, paper_style=True).replace("gamma", "delta")
            assert got == render_reference(c, paper_style=True)
            movable = [m for m in c.terms if any(g in (EULER_GAMMA, LOG_MU) for g, _ in m.powers)]
            one = movable[pick % len(movable)]
            for new_coeff in (one.coeff + change, 0):
                changed = c + SymbolicConstant({one.powers: new_coeff - one.coeff})
                got = changed.render(paper_style=True)
                assert "delta" not in got
                assert got == render_reference(changed, paper_style=True)

        check()


# --- render and to_json against one monomial at a time -------------------------


def render_reference(c, paper_style=False):
    """The display form built one monomial at a time from the public term
    list, every factor formatted afresh; delta by substitution."""
    gamma_name = "gamma"
    if paper_style:
        form = substitute_reference(c, EULER_GAMMA, GAMMA - LOG_MU_CONST)
        named = {g for m in form.terms for g, _ in m.powers}
        if LOG_MU not in named and EULER_GAMMA in named:
            c, gamma_name = form, "delta"
    text = ""
    for coeff, powers in c.terms:
        factors = []
        for g, e in reversed(powers):
            if paper_style and g == zeta_gen(2):
                coeff /= 6**e
                factors.append("pi^2" if e == 1 else f"pi^{2 * e}")
            else:
                name = gamma_name if g == EULER_GAMMA else g.name
                factors.append(name if e == 1 else f"{name}^{e}")
        mag = str(abs(coeff))
        body = "*".join(factors if mag == "1" and factors else [mag, *factors])
        if not text:
            text = f"-{body}" if coeff < 0 else body
        else:
            text += f" - {body}" if coeff < 0 else f" + {body}"
    return text or "0"


def to_json_text_reference(c):
    """``json.dumps`` of the JSON form built one monomial at a time (key order counts)."""
    return json.dumps({"terms": [
        {"coeff": f"{m.coeff.numerator}/{m.coeff.denominator}", "powers": {g.name: e for g, e in reversed(m.powers)}}
        for m in c.terms
    ]})


class TestTextOfEachPartOnce:
    """``render`` and ``to_json`` build the text of each distinct part of the
    exponent vectors once; the result must match formatting every monomial
    on its own."""

    @staticmethod
    def closed_forms():
        coeffs = [Fraction(1), Fraction(-2, 3), Fraction(5, 4), Fraction(-3)]
        for s in (Fraction(1, 2), Fraction(1), Fraction(7, 2), Fraction(10)):
            for n in range(11):
                prefactor = (PrefactorTerm(0, coeffs[n % 4]), PrefactorTerm(1 + n % 2, coeffs[(n + 1) % 4]))
                yield eval_general(IntegralSpec(prefactor, ArgPoint.of(s), n))

    def test_eval_general_output(self):
        pi_powers = 0
        for cf in self.closed_forms():
            consts = [c for _, c in cf.terms] + [cf.at_mu_one()]
            for c in consts:
                assert c.render() == render_reference(c)
                assert c.render(paper_style=True) == render_reference(c, paper_style=True)
                assert json.dumps(c.to_json()) == to_json_text_reference(c)
            pi_powers += "pi^4" in consts[-1].render(paper_style=True)
        assert pi_powers > 10

    def test_hand_constants(self):
        cases = TestLogMuSpecialisations.HAND + [
            zeta_const(2) ** 3 * Fraction(7, 5) - zeta_const(2) ** 2 * GAMMA * LOG_MU_CONST,
            (DELTA**2 + zeta_const(2) ** 2) * (LOG2_CONST - SQRT_PI_CONST * zeta_const(5)),
            rational_const(Fraction(-1, 36)) * zeta_const(2),
        ]
        for c in cases:
            for paper_style in (False, True):
                assert c.render(paper_style=paper_style) == render_reference(c, paper_style)
            assert json.dumps(c.to_json()) == to_json_text_reference(c)
