"""An exact third route: SymPy differentiates Gamma(s) mu^(-s) symbol for symbol.

The n-th s-derivative of Gamma(s) mu^(-s) at s0 is the integral of
x^(s0-1) e^(-mu x) (ln x)^n, so it must equal the engine's closed form
exactly.  SymPy leaves polygamma(k, s0) alone for k >= 1 off the base
points, so it is first shifted down to b = 1 or 1/2 with
psi^(k)(x+1) = psi^(k)(x) + (-1)^k k! x^(-k-1).  SymPy knows each zeta(2m)
as a rational multiple of pi^(2m), which the ring keeps apart, so both sides
are read with pi^(2k) = 6^k zeta(2)^k before ``==``.  No engine code is
shared: the reference enters the ring through the public constructor.
SymPy is used here only, as an independent reference.
"""

import functools
import random
from fractions import Fraction

import pytest

from explogint.evaluator import ClosedForm, IntegralSpec, eval_general
from explogint.ring import EULER_GAMMA, LOG2, LOG_MU, SQRT_PI, SymbolicConstant, zeta_gen

sympy = pytest.importorskip("sympy")

S = sympy.Symbol("s")
MU = sympy.Symbol("mu", positive=True)
POINTS = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(7, 2), Fraction(21, 2)]
# A seeded sample of deeper points: each costs SymPy up to about a second.
DEEPER = random.Random(1).sample([(s0, n) for s0 in POINTS for n in (7, 8, 9)], 2)


def _fraction(q) -> Fraction:
    return Fraction(int(q.p), int(q.q))


def _shift_down(p):
    """polygamma(k, b + m) as polygamma(k, b) plus m rationals, b = 1 or 1/2."""
    k, x = p.args
    b = sympy.Rational(1, 2) if x.q == 2 else sympy.Integer(1)
    return sympy.polygamma(k, b) + sum((-1) ** k * sympy.factorial(k) * (b + i) ** (-k - 1) for i in range(int(x - b)))


@functools.cache
def _derivative(n: int):
    return sympy.gamma(S) * MU ** (-S) if n == 0 else sympy.diff(_derivative(n - 1), S)


def reference(s0: Fraction, n: int) -> ClosedForm:
    """SymPy's d^n/ds^n Gamma(s) mu^(-s) at s0, read into a ClosedForm."""
    expr = _derivative(n).subs(S, sympy.Rational(s0.numerator, s0.denominator))
    expr = sympy.expand(sympy.expand_func(expr.replace(lambda e: isinstance(e, sympy.polygamma), _shift_down)))
    atoms = {sympy.EulerGamma: EULER_GAMMA, sympy.log(MU): LOG_MU, sympy.log(2): LOG2}
    terms: dict[Fraction, dict] = {}
    for term in sympy.Add.make_args(expr):
        coeff, factors = term.as_coeff_mul()
        scale, powers, mu_exponent = _fraction(coeff), {}, Fraction(0)
        for factor in factors:
            base, k = factor.as_base_exp()
            if base == MU:
                mu_exponent = -_fraction(k)
            elif base == sympy.pi:  # pi^(j/2) = sqrt_pi^(j mod 4) (6 zeta(2))^(j div 4)
                j = int(2 * k)
                assert j % 4 in (0, 1), term
                powers[SQRT_PI], powers[zeta_gen(2)] = j % 4, j // 4
                scale *= 6 ** (j // 4)
            elif isinstance(base, sympy.zeta):
                powers[zeta_gen(int(base.args[0]))] = int(k)
            else:
                powers[atoms[base]] = int(k)
        _add(terms.setdefault(mu_exponent, {}), powers, scale)
    return ClosedForm((e, SymbolicConstant(d)) for e, d in terms.items())


def _add(acc: dict, powers: dict, coeff: Fraction) -> None:
    key = tuple(sorted((g, k) for g, k in powers.items() if k))
    acc[key] = acc.get(key, 0) + coeff


def fold_even_zetas(form: ClosedForm) -> ClosedForm:
    """The engine's form with each zeta(2m) read as SymPy's rational multiple of zeta(2)^m."""
    terms = []
    for e, const in form.terms:
        acc: dict = {}
        for m in const.terms:
            scale, powers = m.coeff, {}
            for g, k in m.powers:
                if g.k > 2 and g.k % 2 == 0:
                    scale *= _fraction(sympy.zeta(g.k) / sympy.zeta(2) ** (g.k // 2)) ** k
                    g, k = zeta_gen(2), k * g.k // 2
                powers[g] = powers.get(g, 0) + k
            _add(acc, powers, scale)
        terms.append((e, SymbolicConstant(acc)))
    return ClosedForm(terms)


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("s0", POINTS, ids=str)
def test_engine_equals_sympy_exactly(s0, n):
    expected = reference(s0, n)
    assert expected and expected.terms[0][0] == s0
    assert fold_even_zetas(eval_general(IntegralSpec.simple(s0, n))) == expected


@pytest.mark.parametrize("s0, n", DEEPER, ids=lambda v: str(v))
def test_engine_equals_sympy_exactly_deeper(s0, n):
    test_engine_equals_sympy_exactly(s0, n)
