"""Closed-form evaluation: I_n, J_n, the general reduction, ClosedForm."""

import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from explogint.evaluator import (
    ClosedForm,
    IntegralSpec,
    PrefactorTerm,
    eval_general,
    eval_In,
)
from explogint.generators import BITS
from explogint.oracle import Constants, compute_constants
from explogint.parser import parse_constant, parse_integrand, to_integral_spec
from explogint.ring import (
    EULER_GAMMA,
    GAMMA,
    LOG_MU,
    LOG2_CONST,
    LOG_MU_CONST,
    SQRT_PI,
    SQRT_PI_CONST,
    Grade,
    SymbolicConstant,
    grade,
    log_mu_slices,
    rational_const,
    sum_of_products,
    zeta_const,
)
from explogint.special_values import ArgPoint, gamma_deriv_at

HALF = Fraction(1, 2)
DELTA = GAMMA + LOG_MU_CONST


def form_items(cf):
    """(e, d, a, j, K) per item of a form, in order: the one place the tests read a form's
    layout, groups (e, d, items) of items (a, j, K) each standing for mu^(-e) a/d log_mu^j K."""
    return [(e, d, a, j, K) for e, d, items in cf._groups for a, j, K in items]


def blocks_of(*forms):
    """The distinct K objects of the forms' items, in order of first appearance."""
    return list({id(K): K for cf in forms for *_, K in form_items(cf)}.values())


def bound_under(K):
    """The table under which K's kept value was bound, or None when none is kept."""
    kept = getattr(K, "_bound", None)
    return kept and kept[0]


def drop_plans(Ks):
    """Forget the print plans kept with the Ks, so that their next print is cold."""
    for K in Ks:
        if getattr(K, "_plan", None) is not None:
            del K._plan


def J(n):
    """integral_0^inf e^(-mu x) (ln x)^n dx through the general reduction."""
    return eval_general(IntegralSpec.simple(1, n))


class TestIn:
    def test_base_case(self):
        assert eval_In(0) == 1

    def test_first(self):
        assert eval_In(1) == -GAMMA

    def test_second(self):
        assert eval_In(2) == zeta_const(2) + GAMMA**2

    def test_third(self):
        assert eval_In(3) == -(GAMMA**3) - 3 * zeta_const(2) * GAMMA - 2 * zeta_const(3)

    def test_homogeneous_through_ten(self):
        for n in range(11):
            assert grade(eval_In(n)) == Grade("homogeneous", Fraction(n))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            eval_In(-1)


class TestJn:
    def test_base_case(self):
        assert J(0) == ClosedForm([(Fraction(1), rational_const(1))])

    def test_first_is_minus_delta_over_mu(self):
        assert J(1) == ClosedForm([(Fraction(1), -DELTA)])

    def test_second_matches_table_form(self):
        # (1/mu)(pi^2/6 + delta^2) with pi^2/6 carried as zeta(2)
        assert J(2) == ClosedForm([(Fraction(1), zeta_const(2) + DELTA**2)])

    def test_third_matches_table_form(self):
        bracket = DELTA**3 + 3 * zeta_const(2) * DELTA + 2 * zeta_const(3)
        assert J(3) == ClosedForm([(Fraction(1), -bracket)])

    def test_specializes_to_In(self):
        for n in range(9):
            assert J(n).at_mu_one() == eval_In(n)

    def test_agrees_with_general_reduction(self):
        # mu*x -> x turns J_n into (1/mu) sum_m C(n,m) I_m (-ln mu)^(n-m)
        for n in range(9):
            total = sum(
                (rational_const(math.comb(n, m)) * eval_In(m) * (-LOG_MU_CONST) ** (n - m)
                 for m in range(n + 1)),
                rational_const(0),
            )
            assert J(n) == ClosedForm([(Fraction(1), total)])


class TestGeneral:
    def test_log_weighting_formula(self):
        # x^(s-1) e^(-mu x) ln x -> mu^-s Gamma(s)(psi(s) - ln mu)
        for s in (Fraction(1), Fraction(2), Fraction(5, 2), Fraction(7, 2)):
            point = ArgPoint.of(s)
            got = eval_general(IntegralSpec.simple(point, 1))
            expected = ClosedForm(
                [(s, gamma_deriv_at(1, point) - LOG_MU_CONST * gamma_deriv_at(0, point))]
            )
            assert got == expected

    def test_integer_powers_reduce_to_harmonic_form(self):
        for n in range(5):
            got = eval_general(IntegralSpec.simple(n + 1, 1))
            harmonic = sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))
            bracket = rational_const(harmonic) - GAMMA - LOG_MU_CONST
            expected = ClosedForm(
                [(Fraction(n + 1), rational_const(math.factorial(n)) * bracket)]
            )
            assert got == expected

    def test_mu_one_specialization_gives_gamma_prime(self):
        for s in (Fraction(1), Fraction(3), Fraction(1, 2), Fraction(7, 2)):
            point = ArgPoint.of(s)
            spec = IntegralSpec.simple(point, 1, mu=1)
            assert eval_general(spec).at_mu_one() == gamma_deriv_at(1, point)

    def test_symbolic_cancellation_in_shifted_prefactor(self):
        # (x - nu) x^(nu-1) e^-x ln x: the psi contributions cancel exactly,
        # leaving pure Gamma(nu) with no gamma/log/zeta generators.
        for twice in range(1, 13):
            nu = ArgPoint(twice)
            spec = IntegralSpec(
                (PrefactorTerm(1, Fraction(1)), PrefactorTerm(0, -nu.value)),
                nu,
                1,
                Fraction(1),
            )
            const = eval_general(spec).at_mu_one()
            assert const == gamma_deriv_at(0, nu)
            assert {g for m in const.terms for g, _ in m.powers} <= {SQRT_PI}

    def test_mu_coupled_prefactor(self):
        # (mu x - n - 1/2) x^(n-1/2) e^(-mu x) ln x
        #   -> (2n-1)!!/(2 mu)^n sqrt(pi/mu); both log mu terms cancel.
        for n in range(5):
            spec = IntegralSpec(
                (
                    PrefactorTerm(1, Fraction(1), mu_power=1),
                    PrefactorTerm(0, -(n + HALF)),
                ),
                ArgPoint(2 * n + 1),
                1,
            )
            got = eval_general(spec)
            scale = rational_const(Fraction(math.prod(range(1, 2 * n, 2)), 2**n))
            expected = ClosedForm([(n + HALF, scale * SQRT_PI_CONST)])
            assert got == expected
            named = {g for m in got.terms[0][1].terms for g, _ in m.powers}
            assert LOG_MU not in named and EULER_GAMMA not in named


class TestClosedForm:
    def test_canonicalization_merges_and_sorts(self):
        cf = ClosedForm(
            [
                (Fraction(3, 2), GAMMA),
                (Fraction(1, 2), rational_const(1)),
                (Fraction(3, 2), -GAMMA),
            ]
        )
        assert cf.terms == ((Fraction(1, 2), rational_const(1)),)

    def test_equality_is_semantic(self):
        a = ClosedForm([(Fraction(1), GAMMA), (Fraction(1), LOG_MU_CONST)])
        b = ClosedForm([(Fraction(1), GAMMA + LOG_MU_CONST)])
        assert a == b

    def test_equality_agrees_with_terms(self):
        # == compares forms item by item; it must say what comparing their kernel sums says
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
        prefactors = st.lists(st.tuples(st.integers(0, 3), coeffs, st.integers(-1, 1)), min_size=1, max_size=3)

        def spec(prefactor, twice, n):
            return IntegralSpec(tuple(PrefactorTerm(*term) for term in prefactor), ArgPoint(twice), n)

        @hypothesis.settings(max_examples=60, deadline=None, database=None)
        @hypothesis.given(prefactors, prefactors, st.integers(1, 8), st.integers(0, 4), st.data())
        def check(prefactor, other, twice, n, data):
            a, b = eval_general(spec(prefactor, twice, n)), eval_general(spec(other, twice, n))
            assert (a == b) == (a.terms == b.terms)
            # the same value by two other routes: from its terms, and with one prefactor term split in two
            same = ClosedForm(a.terms)
            assert same == a and a == same and hash(same) == hash(a)
            i = data.draw(st.integers(0, len(prefactor) - 1))
            power, coeff, mu_power = prefactor[i]
            split = prefactor[:i] + [(power, coeff / 3, mu_power), (power, 2 * coeff / 3, mu_power)] + prefactor[i + 1:]
            assert eval_general(spec(split, twice, n)) == a
            if not a:
                return
            # mutants of one constant: a coefficient changed, a log_mu slice dropped, the exponent moved by 1/2
            g = data.draw(st.integers(0, len(a.terms) - 1))
            e, c = a.terms[g]
            monomials = {m.powers: m.coeff for m in c.terms}
            chosen = data.draw(st.sampled_from(sorted(monomials, key=repr)))
            j = dict(chosen).get(LOG_MU, 0)
            mutants = [(e, SymbolicConstant({**monomials, chosen: monomials[chosen] + 1})),
                       (e, SymbolicConstant({k: v for k, v in monomials.items() if dict(k).get(LOG_MU, 0) != j})),
                       (e + HALF, c)]
            for pair in mutants:
                mutant = ClosedForm(a.terms[:g] + (pair,) + a.terms[g + 1:])
                assert mutant != a and a != mutant and mutant.terms != a.terms

        check()

    def test_evaluate_binds_mu_both_ways(self, table):
        cf = J(1)  # -(gamma + ln mu)/mu
        for mu in (0.5, 1.0, 2.0, 10.0):
            expected = -(table.fixed[EULER_GAMMA] / 2**BITS + math.log(mu)) / mu
            assert abs(cf.evaluate(mu, table) - expected) < 1e-14

    def test_evaluate_rejects_bad_mu(self, table):
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                J(1).evaluate(bad, table)

    def test_evaluate_names_a_coefficient_beyond_the_float_range(self):
        # ints have no range: a coefficient beyond the doubles binds, and only a
        # value outside the double range is an error
        big = "1" + "0" * 400
        cf = eval_general(to_integral_spec(parse_integrand(f"{big}*exp(-x)")))
        with pytest.raises(ValueError, match="closed-form value lies outside the float range"):
            cf.evaluate(1.0, compute_constants())
        assert cf.evaluate(1e300, compute_constants()) == float(10**400 / Fraction(1e300))  # 10^400/mu
        tiny = eval_general(to_integral_spec(parse_integrand(f"1/{big}*exp(-x)")))
        assert tiny.evaluate(1.0, compute_constants()) == 0.0

    def test_render(self):
        assert J(1).render() == "mu^(-1) * (-gamma - log_mu)"
        assert ClosedForm([]).render() == "0"

    def test_render_exponent_edge_cases(self):
        cf = ClosedForm([(Fraction(0), GAMMA), (Fraction(-3, 2), rational_const(2))])
        assert cf.render() == "mu^(3/2) * (2)  +  gamma"

    def test_json_round_trip(self):
        for n in range(4):
            cf = J(n)
            assert ClosedForm.from_json(cf.to_json()) == cf
        spec = IntegralSpec.simple(Fraction(7, 2), 2)
        cf = eval_general(spec)
        assert ClosedForm.from_json(cf.to_json()) == cf

    def test_an_exponent_off_the_half_integer_lattice_is_named(self):
        with pytest.raises(ValueError, match=r"'mu_exponent' must be a multiple of 1/2, got 1/3"):
            ClosedForm([(Fraction(1, 3), GAMMA)])
        doc = {"terms": [{"mu_exponent": "1/3", "constant": GAMMA.to_json()}]}
        with pytest.raises(ValueError, match="'mu_exponent'"):
            ClosedForm.from_json(doc)
        doc["terms"][0]["mu_exponent"] = "-3/2"
        assert ClosedForm.from_json(doc).evaluate(4.0, compute_constants()) == 8 * (
            compute_constants().fixed[EULER_GAMMA] / 2**BITS)

    def test_scaled_and_add(self):
        # doubling every constant is adding the form to itself term by term
        cf = eval_general(IntegralSpec.simple(Fraction(7, 2), 2))
        doubled = ClosedForm((e, 2 * c) for e, c in cf.terms)
        assert doubled == ClosedForm(cf.terms + cf.terms)
        assert [e for e, _ in doubled.terms] == [e for e, _ in cf.terms]


class TestPipelineProperties:
    def test_reduction_is_linear_in_the_prefactor(self):
        # evaluating term by term and summing gives the same closed form
        import random

        rng = random.Random(8128)
        for _ in range(40):
            s = ArgPoint(rng.randint(1, 7))
            n = rng.randint(0, 3)
            terms = []
            seen = set()
            for _ in range(rng.randint(2, 3)):
                p = rng.randint(0, 3)
                if p in seen:
                    continue
                seen.add(p)
                coeff = Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((1, -1))
                terms.append(PrefactorTerm(p, coeff))
            combined = eval_general(IntegralSpec(tuple(terms), s, n))
            split = ClosedForm(
                item for t in terms for item in eval_general(IntegralSpec((t,), s, n)).terms
            )
            assert combined == split

    def test_randomized_specs_match_quadrature(self, table):
        # end to end: random member of the class, symbolic route vs oracle
        import random

        from explogint.oracle import quadrature

        rng = random.Random(60902)
        for _ in range(25):
            s = ArgPoint(rng.randint(1, 6))
            n = rng.randint(0, 3)
            powers = rng.sample(range(0, 3), rng.randint(1, 2))
            prefactor = tuple(
                PrefactorTerm(p, Fraction(rng.randint(1, 6), rng.randint(1, 3)))
                for p in powers
            )
            spec = IntegralSpec(prefactor, s, n)
            mu = rng.choice((0.5, 1.0, 2.0, 5.0))
            closed_value = eval_general(spec).evaluate(mu, table)
            result = quadrature(spec, mu, rel_tol=1e-10)
            assert result.converged
            assert abs(closed_value - result.value) <= 1e-8 * (1.0 + abs(closed_value))



def horner_reference(spec):
    """The Leibniz sum by Horner in -log_mu with ring products."""
    n = spec.log_power
    terms = []
    for pf in spec.prefactor:
        point = spec.s.shifted(pf.power)
        const = rational_const(0)
        for k in range(n + 1):
            const = const * -LOG_MU_CONST + math.comb(n, k) * gamma_deriv_at(k, point)
        terms.append((spec.s.value + pf.power - pf.mu_power, rational_const(pf.coeff) * const))
    return ClosedForm(terms)


class TestLeibnizAssembly:
    # Integral, non-integral and negative coefficients; the x^1 * mu^1 term
    # shares its mu exponent with the constant term.
    PREFACTOR = (
        PrefactorTerm(0, Fraction(1)),
        PrefactorTerm(1, Fraction(3, 2)),
        PrefactorTerm(2, Fraction(-4)),
        PrefactorTerm(1, Fraction(-2, 3), mu_power=1),
    )

    @pytest.mark.parametrize(
        "s", [HALF, Fraction(1), Fraction(3, 2), Fraction(7, 2), Fraction(10)], ids=str
    )
    def test_matches_horner_reference(self, s):
        for n in (0, 1, 2, 5, 9, 14):
            spec = IntegralSpec(self.PREFACTOR, ArgPoint.of(s), n)
            got, expected = eval_general(spec), horner_reference(spec)
            assert got == expected, n
            assert got.render() == expected.render()
            assert got.render(paper_style=True) == expected.render(paper_style=True)
            assert got.to_json() == expected.to_json()

    def test_leibniz_sum_arrives_as_one_descending_run_per_term(self):
        # Each Gamma^(k) block is a kernel output, so in term order, and log_mu^(n-k)
        # keeps that order: the form reads n + 1 sorted blocks, and its constant is one run.
        n = 14
        ((_, const),) = eval_general(IntegralSpec.simple(Fraction(7, 2), n)).terms
        width = max(map(len, const._d))
        keys = [(sum(e), e + (0,) * (width - len(e))) for e in const._d]
        assert len(keys) > 2000
        assert 1 + sum(a < b for a, b in zip(keys, keys[1:])) <= n + 1

    # Each reader of a block form, applied to a fresh form so that each one is
    # the first to expand it; ``at_mu_one`` reads only the blocks.
    READERS = {
        "terms": lambda cf: [(e, c.to_json()) for e, c in cf.terms],
        "render": lambda cf: cf.render(),
        "paper": lambda cf: cf.render(paper_style=True),
        "json": lambda cf: cf.to_json(),
        "hash": hash,
        "at_mu_one": lambda cf: (cf.at_mu_one(), cf.at_mu_one().to_json()),
        "round trip": lambda cf: ClosedForm.from_json(cf.to_json()) == cf,
    }

    def test_block_form_reads_as_the_eager_form(self):
        # s in 1/2 .. 21/2, n <= 12, one to three terms; the x * mu term shares its
        # mu exponent with the constant term, as in 4.353.2
        import random

        rng = random.Random(2609)
        cases = [(ArgPoint(7), 12, self.PREFACTOR[:1] + self.PREFACTOR[3:])]
        for _ in range(16):
            terms = rng.sample(self.PREFACTOR, rng.randint(1, 3))
            cases.append((ArgPoint(rng.randint(1, 21)), rng.randint(0, 12), tuple(terms)))
        for point, n, prefactor in cases:
            spec = IntegralSpec(prefactor, point, n)
            expected = horner_reference(spec)
            for name, read in self.READERS.items():
                assert read(eval_general(spec)) == read(expected), (point, n, name)
            assert eval_general(spec) == expected

    def test_a_block_bound_under_one_map_is_not_read_under_another(self, ints):
        cf = eval_general(to_integral_spec(parse_integrand("x^(5/2)*exp(-2*x)*log(x)^14")))
        table = compute_constants()
        other = Constants({g: x + (1 << BITS - 38) for g, x in ints.items()})  # each 2^-38 larger
        first = cf.evaluate(2.0, table)
        assert all(bound_under(K) is table for K in blocks_of(cf))  # bound once, kept beside the table
        shifted = cf.evaluate(2.0, other)
        assert all(bound_under(K) is other for K in blocks_of(cf))
        assert shifted == cf.evaluate(2.0, Constants(dict(other.fixed))) != first
        assert cf.evaluate(2.0, table) == first
        assert eval_general(to_integral_spec(parse_integrand("x^(5/2)*exp(-2*x)*log(x)^14"))).evaluate(
            2.0, compute_constants()) == first

    def test_one_table_binds_every_log_power(self):
        # zeta(13) .. zeta(20) are built on their first read; a table sized to the
        # log power, zeta(2) .. zeta(20), bound the same double
        cf = eval_general(to_integral_spec(parse_integrand("x^(5/2)*exp(-2*x)*log(x)^20")))
        assert cf.evaluate(2.0, compute_constants()) == 9043082.718658617

    def test_both_constructors_take_the_one_route(self, ints):
        # The form from eval_general and the form rebuilt from its (exponent, constant)
        # pairs bind through the same groups; their doubles agree exactly.
        import random

        rng = random.Random(2701)
        table = compute_constants()
        for _ in range(24):
            prefactor = tuple(rng.sample(self.PREFACTOR, rng.randint(1, 3)))
            spec = IntegralSpec(prefactor, ArgPoint(rng.randint(1, 21)), rng.randint(0, 12))
            cf = eval_general(spec)
            pairs = ClosedForm(cf.terms)
            fresh = Constants(dict(ints))
            for mu in (1e-3, 1 / 20, 1.0, 3.0, 1e3):
                assert cf.evaluate(mu, table) == pairs.evaluate(mu, fresh), (spec, mu)
            # each form keeps its own blocks' values, each beside its own table
            assert all(bound_under(K) is table for K in blocks_of(cf))
            assert all(bound_under(K) is fresh for K in blocks_of(pairs))
            assert cf.at_mu_one() == pairs.at_mu_one()
            for _, const in cf.terms:
                den, slices = log_mu_slices(const)
                assert sum_of_products(((1, LOG_MU_CONST**j, k) for j, k in slices), den) == const

    def test_the_log_power_bounds_the_zetas(self, ints):
        # Gamma^(k)(s) names no zeta above zeta(k), so a form of log power n binds under
        # zeta(2) .. zeta(n) alone, to the same doubles as under the process table, which
        # builds no other zeta for it.  The mu_power = 1 terms make merged groups.
        import random

        rng = random.Random(3201)
        merged = 0
        for _ in range(40):
            prefactor = {}
            for _ in range(rng.randint(1, 3)):
                power, mu_power = rng.randint(0, 3), rng.randint(0, 1)
                if prefactor and rng.random() < 0.5:  # x mu shares the exponent of a drawn term
                    power, mu_power = (x + 1 for x in rng.choice(sorted(prefactor)))
                prefactor[power, mu_power] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
            spec = IntegralSpec(tuple(PrefactorTerm(p, c, m) for (p, m), c in prefactor.items()),
                                ArgPoint(rng.randint(1, 21)), rng.randint(0, 16))
            cf = eval_general(spec)
            merged += len({p - m for p, m in prefactor}) < len(prefactor)  # two terms share an exponent
            sized = Constants({g: x for g, x in ints.items() if g.k <= spec.log_power})
            for mu in (1e-3, 1.0, 1e3):
                assert cf.evaluate(mu, sized) == cf.evaluate(mu, compute_constants()), (spec, mu)
        assert merged >= 8

    def test_tiny_and_huge_coefficients_keep_their_precision(self):
        # A constant's denominator stays outside the 2^-BITS rounding of its slices, so a
        # form built from pairs binds a tiny constant as exactly as eval_general's form.
        table = compute_constants()
        tiny = rational_const(Fraction(1, 10**60))
        assert ClosedForm([(0, tiny)]).evaluate(1.0, table) == 1e-60
        assert ClosedForm([(-20, tiny)]).evaluate(1e3, table) == 1.0  # 10^-60 * 1000^20
        cubed = LOG_MU_CONST**3 * rational_const(Fraction(3, 10**80))
        assert ClosedForm([(1, cubed)]).evaluate(1 / 20, table) == -1.6130961137777235e-77
        mixed = GAMMA * LOG_MU_CONST + zeta_const(3)
        assert ClosedForm([(0, mixed * tiny)]).evaluate(3.0, table) == 1.836193125832152e-60
        huge = mixed * rational_const(10**60 + Fraction(1, 7))
        assert ClosedForm([(HALF, huge)]).evaluate(1e-3, table) == -8.807599940565788e61
        for coeff in (Fraction(1, 10**60), Fraction(10**60, 7)):
            for n in (0, 3):
                pf = (PrefactorTerm(0, coeff), PrefactorTerm(2, 3 * coeff, mu_power=1))
                cf = eval_general(IntegralSpec(pf, ArgPoint(3), n))
                for mu in (1e-3, 1.0, 1e3):
                    assert ClosedForm(cf.terms).evaluate(mu, table) == cf.evaluate(mu, table), (coeff, n, mu)
        assert eval_general(IntegralSpec((PrefactorTerm(0, Fraction(1, 10**60)),), ArgPoint(2), 0)).evaluate(
            1e3, table) == 1e-63

    def test_pairs_are_held_as_their_groups(self):
        # Pairs that share an exponent, over different denominators, read as their sum.
        point = ArgPoint.of(Fraction(3, 2))
        one, coupled = PrefactorTerm(0, Fraction(1, 3)), PrefactorTerm(1, Fraction(2, 5), mu_power=1)
        ((e, a),), ((_, b),) = (eval_general(IntegralSpec((pf,), point, 4)).terms for pf in (one, coupled))
        rest = (0, GAMMA / 7)
        pairs = ClosedForm([(e, a), rest, (e, b)])
        summed = ClosedForm([rest, (e, a + b)])
        assert pairs.terms == summed.terms == ((0, GAMMA / 7), (e, a + b))
        assert ClosedForm([(e, a), (e, b)]) == eval_general(IntegralSpec((one, coupled), point, 4))
        for read in (lambda cf: [(e, list(c._d.items()), c._den) for e, c in cf.terms], hash, ClosedForm.render,
                     lambda cf: cf.render(paper_style=True), ClosedForm.to_json):
            assert read(pairs) == read(summed)
        # Pairs that cancel are the zero form, with no group left; pairs that cancel in
        # part bind as their sum does.
        cancelled = ClosedForm([(1, a), (1, -a)])
        assert cancelled.terms == () and not cancelled and cancelled.render() == "0"
        assert cancelled.to_json() == {"terms": []} and cancelled.at_mu_one() == 0
        assert cancelled == ClosedForm([]) and hash(cancelled) == hash(ClosedForm([]))
        assert form_items(cancelled) == []
        table = compute_constants()
        tiny = GAMMA / 10**40
        for mu in (0.3, 1.0, 3.0):
            assert cancelled.evaluate(mu, table) == 0.0
            in_part = ClosedForm([(1, a), (1, tiny - a)])
            assert in_part.evaluate(mu, table) == ClosedForm([(1, tiny)]).evaluate(mu, table)
        # A zero constant adds no group.
        assert form_items(ClosedForm([(1, a - a), rest])) == form_items(ClosedForm([rest]))
        assert form_items(ClosedForm([(HALF, rational_const(0))])) == []

    def test_shared_exponent_terms_are_summed(self):
        point = ArgPoint.of(Fraction(3, 2))
        shared = IntegralSpec(self.PREFACTOR[:1] + self.PREFACTOR[3:], point, 3)
        exponents = [e for e, _ in eval_general(shared).terms]
        assert exponents == [Fraction(3, 2)]
        assert eval_general(shared) == horner_reference(shared)

    # evaluate's doubles at MUS of forms whose two terms share an exponent, pinned: summing
    # the terms' blocks before they are bound must not move them.  4.353.2 is
    # (mu x - n - 1/2) x^(n-1/2) at log power 1, for n = 0 .. 6; the other is
    # (3/5 - 7/4 mu x) x^(5/2) at log power 0 .. 8.
    MUS = (1e-3, 0.5, 1.0, 3.0, 1e3)
    MERGED_DOUBLES = {
        "4.353.2": [
            "0x1.c06638593fb58p+5 0x1.40d931ff62706p+1 0x1.c5bf891b4ef6bp+0 0x1.05f8bd37c0e62p+0 0x1.cb292f7603cc5p-5",
            "0x1.b5e3d30728374p+14 0x1.40d931ff62706p+1 0x1.c5bf891b4ef6bp-1 0x1.5d4ba6f50132dp-3 0x1.d62e45147ec4fp-16",
            "0x1.40b85d0fbdf47p+25 0x1.e145caff13a88p+2 0x1.544fa6d47b390p+0 0x1.5d4ba6f50132dp-4 0x1.69194b94dc3d2p-25",
            "0x1.87810d99b760ep+36 0x1.2ccb9edf6c495p+5 0x1.a96390899a074p+1 0x1.23146076d6550p-4 0x1.ce34db9fd239cp-34",
            "0x1.4e89865f19721p+48 0x1.07322b037ec03p+8 0x1.74371e7866c65p+3 0x1.5397c5dffa0dep-4 0x1.9e23129b7cdfcp-42",
            "0x1.6f8896dffab48p+60 0x1.28187063ee983p+11 0x1.a2be0247739f2p+5 0x1.fd63a8cff714dp-4 0x1.dd15f8c38184ep-50",
            "0x1.ed83a89740e3ep+72 0x1.97219a8968114p+14 0x1.1fe2a1911f7d6p+8 0x1.d2f0b013f7d31p-3 0x1.4fde50ebf0af7p-57",
        ],
        "two terms": [
            "-0x1.0e61ed648f722p+39 -0x1.9f79403e33f88p+7 -0x1.25c8c3056e603p+4 -0x1.920dbed7580bdp-2 -0x1.3f361ae0c6c98p-31",
            "-0x1.1974de6121001p+42 -0x1.b6f51a4e7394fp+8 -0x1.a124d32447a4cp+4 -0x1.02594a955bbf4p-3 0x1.b5f24f4048e26p-29",
            "-0x1.25f4b4eee878bp+45 -0x1.e7a963fd001e1p+9 -0x1.49f0e073163e7p+5 -0x1.0bf97ce2a7f57p-3 -0x1.2eb7d655f1b60p-26",
            "-0x1.33febab92b137p+48 -0x1.19b271f0ac4c0p+11 -0x1.16f0b69b70671p+6 -0x1.5219fd669179fp-4 0x1.a5b9e23cb9d4bp-24",
            "-0x1.43b4c8c75e622p+51 -0x1.5023d647cc965p+12 -0x1.f0abf9ee2ff87p+6 -0x1.a937d777b5193p-4 -0x1.280e9b99e9378p-21",
            "-0x1.553dbdd995e81p+54 -0x1.9c5f85cfb2adep+13 -0x1.cd39bb5f79993p+7 -0x1.525323d4d018ap-4 0x1.a2f4b3801daf9p-19",
            "-0x1.68c608f480b08p+57 -0x1.0327219a18f5dp+15 -0x1.bbb2455e929f7p+8 -0x1.d31168f39551cp-4 -0x1.2accab7b627f2p-16",
            "-0x1.7e804ae709522p+60 -0x1.4cd4a801fd017p+16 -0x1.b84a521d5a504p+9 -0x1.fdcb937a8bf6ap-4 0x1.ada16a1bf168cp-14",
            "-0x1.96a611dab2552p+63 -0x1.b3d80bf97640cp+17 -0x1.c0c5ec68c362ap+10 -0x1.8bf910eaeefe2p-4 -0x1.375db150e8ed5p-11",
        ],
    }

    def test_merged_terms_bind_to_the_pinned_doubles(self, ints, monkeypatch):
        # A merged item keeps its value beside the table, as a Gamma^(k)(s) block does: bound
        # once per form and table.
        from explogint import ring

        table = Constants(dict(ints))
        specs = [(IntegralSpec((PrefactorTerm(1, Fraction(1), mu_power=1), PrefactorTerm(0, -Fraction(2 * n + 1, 2))),
                               ArgPoint(2 * n + 1), 1), doubles)
                 for n, doubles in enumerate(self.MERGED_DOUBLES["4.353.2"])]
        specs += [(IntegralSpec((PrefactorTerm(0, Fraction(3, 5)), PrefactorTerm(1, Fraction(-7, 4), mu_power=1)),
                                ArgPoint(7), n), doubles) for n, doubles in enumerate(self.MERGED_DOUBLES["two terms"])]
        forms = []
        for spec, doubles in specs:
            cf = eval_general(spec)
            assert len({e for e, *_ in form_items(cf)}) == 1, spec  # one group, of merged items alone
            gammas = {id(gamma_deriv_at(k, spec.s.shifted(p))) for k in range(spec.log_power + 1) for p in (0, 1)}
            assert not {id(K) for K in blocks_of(cf)} & gammas, spec
            assert " ".join(cf.evaluate(mu, table).hex() for mu in self.MUS) == doubles, spec
            assert all(bound_under(K) is table for K in blocks_of(cf)), spec
            n = spec.log_power
            assert cf.at_mu_one() == sum((gamma_deriv_at(n, spec.s.shifted(pf.power)) * pf.coeff
                                          for pf in spec.prefactor), rational_const(0)), spec
            forms.append((cf, doubles))
        with monkeypatch.context() as patched:  # read back, none bound again
            patched.setattr(ring, "binder", lambda bindings: pytest.fail("a kept value was bound again"))
            for cf, doubles in forms:
                assert " ".join(cf.evaluate(mu, table).hex() for mu in self.MUS) == doubles
        # The same Gamma^(k)(s) parts under other coefficients: a value kept for the parts
        # alone would hand each the value bound for the first.  (6/5, -7/2) scales to the
        # same parts as (3/5, -7/4) over half the denominator.
        for coeffs in ((Fraction(3, 5), Fraction(7, 4)), (Fraction(1), Fraction(-1)), (Fraction(-7, 4), Fraction(3, 5)),
                       (Fraction(6, 5), Fraction(-7, 2)), (Fraction(3, 5), Fraction(-7, 4))):
            for n in (0, 1, 4):
                cf = eval_general(IntegralSpec((PrefactorTerm(0, coeffs[0]), PrefactorTerm(1, coeffs[1], mu_power=1)),
                                               ArgPoint(7), n))
                fresh = Constants(dict(ints))
                for mu in self.MUS:
                    assert cf.evaluate(mu, table) == cf.evaluate(mu, fresh), (coeffs, n, mu)


def kernel_terms(cf):
    """A form's (e, constant) pairs, each expanded from its groups by one kernel call."""
    triples = {}
    for e, d, a, j, K in form_items(cf):
        triples.setdefault(e, []).append((Fraction(a, d), LOG_MU_CONST**j, K))
    consts = ((e, sum_of_products(parts)) for e, parts in sorted(triples.items()))
    return [(e, c) for e, c in consts if c]


def kernel_json(cf):
    """A form's JSON written from the kernel-expanded ``terms`` one monomial at a time, without
    the printers' walk."""
    return {"terms": [{"mu_exponent": f"{e.numerator}/{e.denominator}", "constant": {"terms": [
        {"coeff": f"{m.coeff.numerator}/{m.coeff.denominator}", "powers": {g.name: k for g, k in reversed(m.powers)}}
        for m in c.terms]}} for e, c in kernel_terms(cf)]}


def kernel_prints(cf):
    """Plain text, paper-style text and JSON of a form, each constant printed on its own."""
    pairs = kernel_terms(cf)

    def text(paper_style):
        bodies = [(e, c.render(paper_style=paper_style)) for e, c in pairs]
        return "  +  ".join(body if e == 0 else f"mu^({-e}) * ({body})" for e, body in bodies) or "0"

    doc = {"terms": [{"mu_exponent": f"{e.numerator}/{e.denominator}", "constant": c.to_json()}
                     for e, c in pairs]}
    return text(False), text(True), doc


class TestPrintingFromBlocks:
    # A form prints by walking its Gamma^(k)(s) blocks in term order; every print
    # must match the kernel-expanded constants printed one by one.
    PREFACTOR = TestLeibnizAssembly.PREFACTOR

    @staticmethod
    def assert_layout(cf, label):
        """One group per mu exponent, ascending; within a group one item per j, each K nonzero."""
        items = form_items(cf)
        exponents = [e for e, *_ in items]
        assert exponents == sorted(exponents), label
        for e in set(exponents):  # one denominator and distinct j per exponent, so one group
            group = [(d, j) for e_i, d, _, j, _ in items if e_i == e]
            assert len({d for d, _ in group}) == 1 and len({j for _, j in group}) == len(group), label
        assert all(K for *_, K in items), label

    @classmethod
    def assert_prints_like_the_kernel(cls, cf, label, read_back=True):
        expected = kernel_prints(cf)
        copies = [ClosedForm(cf.terms)] + ([ClosedForm.from_json(cf.to_json())] if read_back else [])
        for form in [cf] + copies:
            cls.assert_layout(form, label)
            assert (form.render(), form.render(paper_style=True), form.to_json()) == expected, label

    def test_seeded_forms_print_like_the_kernel(self):
        import random

        rng = random.Random(2801)
        for _ in range(24):
            prefactor = tuple(rng.sample(self.PREFACTOR, rng.randint(1, 3)))
            spec = IntegralSpec(prefactor, ArgPoint(rng.randint(1, 21)), rng.randint(0, 12))
            self.assert_prints_like_the_kernel(eval_general(spec), spec)

    def test_verify_mix_shapes_print_like_the_kernel(self):
        # the benchmark's deepest shapes: three prefactor terms of degree <= 2, s up to 10, n up to 14
        import random

        rng = random.Random(2803)
        for n, twice in ((14, 20), (14, 7), (13, 19), (12, 2), (11, 16)):
            prefactor = tuple(PrefactorTerm(p, Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6)))
                              for p in range(3))
            spec = IntegralSpec(prefactor, ArgPoint(twice), n)
            self.assert_prints_like_the_kernel(eval_general(spec), spec)

    def test_a_form_prints_alike_around_another_that_shares_its_blocks(self):
        # B reads A's Gamma^(k)(s) blocks under other multipliers and at other j (n = 5, not 8),
        # so its prints walk A's kept plans; A prints the same before and after
        def prints(cf):
            return cf.render(), cf.render(paper_style=True), cf.to_json()

        for point in (ArgPoint(5), ArgPoint(8)):
            a = eval_general(IntegralSpec((PrefactorTerm(0, Fraction(1)), PrefactorTerm(2, Fraction(-3, 5))), point, 8))
            b = eval_general(IntegralSpec((PrefactorTerm(2, Fraction(7, 9)), PrefactorTerm(0, Fraction(-2))), point, 5))
            shared = {id(K) for *_, K in form_items(a)} & {id(K) for *_, K in form_items(b)}
            assert len(shared) == 12  # k = 0..5 at s and at s + 2
            assert {(a_, j) for _, _, a_, j, K in form_items(a) if id(K) in shared}.isdisjoint(
                (b_, j) for _, _, b_, j, K in form_items(b) if id(K) in shared)
            drop_plans(blocks_of(a, b))
            first = prints(a)
            assert first == kernel_prints(a), point
            assert prints(b) == kernel_prints(b), point
            assert prints(a) == first, point

    def test_catalog_forms_print_like_the_kernel(self):
        from explogint.catalog import catalog, param_grid

        for entry in catalog():
            for param in param_grid(entry):
                self.assert_prints_like_the_kernel(eval_general(entry.build(param)), (entry.id, param))
                self.assert_prints_like_the_kernel(entry.printed_form(param), (entry.id, param, "printed"))

    def test_pair_built_forms_print_like_the_kernel(self):
        # delta polynomials print in delta, others in gamma and log_mu
        in_delta = [DELTA**3 - 2 * zeta_const(3), DELTA * zeta_const(2) / 7 + Fraction(1, 3), DELTA**2]
        not_in_delta = [GAMMA * LOG2_CONST + LOG_MU_CONST, DELTA**2 * SQRT_PI_CONST + LOG_MU_CONST, GAMMA**2]
        for c in in_delta + not_in_delta:
            for pairs in ([(1, c)], [(HALF, c), (0, c * c), (-HALF, GAMMA), (HALF, GAMMA - GAMMA)]):
                cf = ClosedForm(pairs)
                self.assert_prints_like_the_kernel(cf, pairs)
                assert ("delta" in cf.render(paper_style=True)) == (c in in_delta), pairs

    def test_an_exponent_whose_groups_cancel_is_dropped(self):
        # x mu and -x mu share an exponent and a point: their Leibniz items cancel
        # item by item, while the constant term's exponent stays.
        point = ArgPoint.of(Fraction(3, 2))
        pf = (PrefactorTerm(1, Fraction(2, 3), mu_power=1), PrefactorTerm(0, Fraction(5)),
              PrefactorTerm(1, Fraction(-2, 3), mu_power=1))
        for n in (0, 4):
            cf = eval_general(IntegralSpec(pf, point, n))
            assert [e for e, _ in cf.terms] == [Fraction(3, 2)]
            self.assert_prints_like_the_kernel(cf, n)
            gone = eval_general(IntegralSpec(pf[:1] + pf[2:], point, n))
            assert not gone and gone.render() == "0" and gone.to_json() == {"terms": []}
            self.assert_prints_like_the_kernel(gone, n)

    def test_a_coefficient_past_the_str_limit_prints_through_decimal(self):
        cf = eval_general(to_integral_spec(parse_integrand("x^(2000)*exp(-x)")))
        ((_, const),) = kernel_terms(cf)
        assert len(str(Decimal(const.terms[0].coeff.numerator))) > sys.get_int_max_str_digits()
        # JSON reads back through int(), which has the limit: only the pairs are copied
        self.assert_prints_like_the_kernel(cf, "x^(2000)", read_back=False)
        # the readers keep the limit, and name it
        cap = f"'coeff' must be a rational of at most {sys.get_int_max_str_digits()} digits a side, got 5736"
        for read, doc in ((ClosedForm.from_json, cf.to_json()), (SymbolicConstant.from_json, const.to_json())):
            with pytest.raises(ValueError, match=re.escape(cap)):
                read(doc)

    def test_printing_leaves_the_form_unexpanded(self, monkeypatch):
        import random

        def expand(cf):
            raise AssertionError("printing expanded the form")

        rng = random.Random(2802)
        for _ in range(12):
            prefactor = tuple(rng.sample(self.PREFACTOR, rng.randint(1, 3)))
            spec = IntegralSpec(prefactor, ArgPoint(rng.randint(1, 21)), rng.randint(0, 12))
            cf = eval_general(spec)
            with monkeypatch.context() as patched:
                patched.setattr(ClosedForm, "terms", property(expand))
                cf.render()
                cf.render(paper_style=True)
                cf.to_json()
            # the walk-built constants keep the kernel's item order, which the hash reads
            expected = kernel_terms(cf)
            assert [(e, list(c._d.items()), c._den) for e, c in cf.terms] == \
                [(e, list(c._d.items()), c._den) for e, c in expected], spec
            assert hash(cf) == hash(ClosedForm(expected)) and cf == ClosedForm(expected)

    @staticmethod
    def shared_block_forms(seed):
        """Engine forms over few points, so that their Gamma^(k)(s) blocks recur under other
        coefficients, denominators and log powers (so other j), and 4.353.2-shaped forms whose
        merged items recur with them."""
        import random

        rng = random.Random(seed)
        forms = []
        for _ in range(16):
            prefactor = {}
            for _ in range(rng.randint(1, 3)):
                prefactor[rng.randint(0, 2)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
            spec = IntegralSpec(tuple(PrefactorTerm(p, c) for p, c in prefactor.items()),
                                ArgPoint(rng.choice([3, 4])), rng.randint(0, 8))
            forms.append(eval_general(spec))
        for n in range(4):
            for coeff in (Fraction(1), Fraction(-5, 3)):
                lead = PrefactorTerm(1, coeff, mu_power=1)
                forms.append(eval_general(IntegralSpec((lead, PrefactorTerm(0, -Fraction(2 * n + 1, 2))),
                                                       ArgPoint(2 * n + 1), 1)))
        rng.shuffle(forms)
        return forms

    def test_shared_blocks_print_alike_cold_and_warm(self):
        import random

        forms = self.shared_block_forms(3301)
        blocks = blocks_of(*forms)
        assert len(blocks) < len([K for cf in forms for *_, K in form_items(cf)])  # blocks recur across forms
        gammas = {id(gamma_deriv_at(k, ArgPoint(twice))): k for k in range(9) for twice in range(1, 11)}
        ks = [gammas[id(K)] for K in blocks if id(K) in gammas]
        assert len(ks) > len(set(ks))  # one k, many s
        assert len(ks) < len(blocks)  # merged items
        printers = (ClosedForm.render, lambda cf: cf.render(paper_style=True), ClosedForm.to_json)
        jobs = [(i, p) for i in range(len(forms)) for p in range(3)]
        expected = [kernel_prints(cf) for cf in forms]
        assert [doc for _, _, doc in expected] == [kernel_json(cf) for cf in forms]
        drop_plans(blocks)
        rng = random.Random(3302)
        for state in ("cold", "warm"):
            rng.shuffle(jobs)
            for i, p in jobs:
                assert printers[p](forms[i]) == expected[i][p], (state, i, p)
        assert all(getattr(K, "_plan", None) is not None for K in blocks)

    def test_blocks_keep_plans_and_warm_prints_build_no_tail(self, monkeypatch):
        from explogint import ring

        def prints(value):
            return value.render(), value.render(paper_style=True), value.to_json()

        def planned(Ks):
            return [K for K in Ks if getattr(K, "_plan", None) is not None]

        # A copy's blocks keep their own plans and a constant keeps none: its slices are built
        # per print.  None of them prints through the engine forms' blocks.
        forms = self.shared_block_forms(3303)
        drop_plans(blocks_of(*forms))
        for cf in forms:
            pairs = ClosedForm(cf.terms)
            for copy in (pairs, ClosedForm.from_json(pairs.to_json())):
                prints(copy)
                assert planned(blocks_of(copy)) == blocks_of(copy)
            constants = [cf.at_mu_one(), *(c for _, c in cf.terms)]
            for c in constants:
                prints(c)
            assert planned(constants) == []
        sum_of_deltas = GAMMA * LOG2_CONST + DELTA**2
        prints(sum_of_deltas)
        assert planned([sum_of_deltas]) == [] and planned(blocks_of(*forms)) == []
        # n + 1 blocks at each of two points, then the same blocks under other coefficients and
        # denominators, and a subset of them under another log power, so at other j
        specs = [IntegralSpec(pf, ArgPoint(5), n) for pf, n in (
            ((PrefactorTerm(0, Fraction(1)), PrefactorTerm(2, Fraction(-3, 5))), 8),
            ((PrefactorTerm(2, Fraction(1, 9)), PrefactorTerm(0, Fraction(-2))), 5),
            ((PrefactorTerm(0, Fraction(7, 3)), PrefactorTerm(2, Fraction(2))), 8),
            ((PrefactorTerm(2, Fraction(-4, 7)), PrefactorTerm(0, Fraction(5))), 5))]
        first, *again = [eval_general(spec) for spec in specs]
        blocks = blocks_of(first, *again)
        drop_plans(blocks)
        expected = [kernel_prints(cf) for cf in again]
        prints(first)
        assert len(blocks) == len(planned(blocks)) == 18
        calls = []
        for name in ("_tail_text", "_tail_powers"):
            monkeypatch.setattr(ring, name, lambda *args, f=getattr(ring, name), name=name: calls.append(name) or f(*args))
        # plain text and JSON of the subset need no tail; its paper style prints in delta, whose
        # blocks k = 5 the n = 8 form printed at j = 3, where delta does not read them
        assert prints(again[0]) == expected[0]
        assert "_tail_powers" not in calls
        assert len(calls) == sum(len(gamma_deriv_at(5, ArgPoint(twice))._d) for twice in (5, 9))
        calls.clear()
        for cf, printed in zip(again, expected):
            assert prints(cf) == printed
        assert calls == [] and len(planned(blocks)) == 18


class TestSpecValidation:
    def test_prefactor_must_be_nonempty(self):
        with pytest.raises(ValueError):
            IntegralSpec((), ArgPoint.of(1), 0)

    def test_log_power_nonnegative(self):
        with pytest.raises(ValueError):
            IntegralSpec.simple(1, -1)

    def test_mu_positive(self):
        with pytest.raises(ValueError):
            IntegralSpec.simple(1, 0, mu=0)

    def test_prefactor_term_validation(self):
        with pytest.raises(ValueError):
            PrefactorTerm(-1, Fraction(1))
        with pytest.raises(ValueError):
            PrefactorTerm(0, Fraction(0))


class TestBindingSameBits:
    """``ClosedForm.evaluate``'s doubles, bit for bit, over a fixed set of forms, mus and
    bindings: where a bound block value is kept must not move any of them.  The forms are
    seeded engine forms, their pair-built copies and the catalog's 4.353.2 forms (computed
    and printed); each binds under the process table and a caller's table, then under the
    two again, so warm reads and reads after another table are pinned too."""

    MUS = (1e-3, 1 / 20, 1.0, 3.0, 1e3)

    @staticmethod
    def forms():
        import random

        from explogint.catalog import catalog, param_grid

        rng = random.Random(3701)
        for _ in range(16):
            prefactor = tuple(rng.sample(TestLeibnizAssembly.PREFACTOR, rng.randint(1, 3)))
            cf = eval_general(IntegralSpec(prefactor, ArgPoint(rng.randint(1, 21)), rng.randint(0, 14)))
            yield cf
            yield ClosedForm(cf.terms)
        for entry in catalog():
            if entry.id == "4.353.2":
                for param in param_grid(entry):
                    yield eval_general(entry.build(param))
                    yield entry.printed_form(param)

    def test_bound_values_keep_their_bits(self, ints):
        import hashlib

        table, caller = compute_constants(), Constants(dict(ints))
        digest, count = hashlib.sha256(), 0
        for cf in self.forms():
            for bindings in (table, caller, table, caller):
                for mu in self.MUS:
                    digest.update(cf.evaluate(mu, bindings).hex().encode())
                    count += 1
        assert count == 840
        assert digest.hexdigest() == "db74e746b34b900288a26801ca2c93fe535460354955ead92f569367094aa743"


class TestBindingAgainstMpmath:
    """``evaluate`` against the engine's exact form bound by mpmath at 60 digits."""

    def test_sweep_is_within_1e_15(self):
        mpmath = pytest.importorskip("mpmath")
        import random

        rng = random.Random(26)
        mp = mpmath.mp.clone()
        mp.dps = 60
        named = {"gamma": mp.euler, "log2": mp.log(2), "sqrt_pi": mp.sqrt(mp.pi),
                 **{f"zeta({k})": mp.zeta(k) for k in range(2, 23)}}
        blocks, products = {}, {}

        def block(k, point):  # Gamma^(k)(s), bound monomial by monomial
            if (k, point) not in blocks:
                terms = gamma_deriv_at(k, point).terms
                for m in terms:
                    if m.powers not in products:
                        products[m.powers] = mp.fprod(named[g.name] ** e for g, e in m.powers)
                blocks[k, point] = mp.fsum(
                    mp.mpf(m.coeff.numerator) / m.coeff.denominator * products[m.powers] for m in terms)
            return blocks[k, point]

        checked = 0
        for s in (HALF, Fraction(7, 2), Fraction(21, 2), Fraction(100)):
            point = ArgPoint.of(s)
            for n in sorted(rng.sample(range(23), 4)) + [22] * (s == Fraction(21, 2)):
                cf = eval_general(IntegralSpec.simple(s, n))
                table = compute_constants()
                for mu in (1e-3, 1 / 20, 1.0, 3.0, 1e3):
                    log_mu = mp.log(mp.mpf(mu))
                    exact = mp.mpf(mu) ** (-mp.mpf(s.numerator) / s.denominator) * mp.fsum(
                        math.comb(n, k) * (-log_mu) ** (n - k) * block(k, point) for k in range(n + 1))
                    if abs(exact) > mp.mpf(2) ** 1024:  # beyond the doubles, e.g. mu = 1e-3 at s = 100
                        with pytest.raises(ValueError, match="outside the float range"):
                            cf.evaluate(mu, table)
                        continue
                    assert abs(cf.evaluate(mu, table) - exact) <= 1e-15 * abs(exact), (s, n, mu)
                    checked += 1
        assert checked >= 80

    def test_high_generator_power_binds(self):
        # binding floors each generator power at 2^-BITS, so gamma^k loses relative precision as
        # it nears 2^-BITS, and reads 0.0 from k = 243 on; parse_constant and from_json accept
        # exponents up to 1000
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        exact = mp.euler ** 150
        assert abs(parse_constant("gamma^150").evaluate(compute_constants()) - exact) <= 1e-12 * exact
