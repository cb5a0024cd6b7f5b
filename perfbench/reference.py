"""Independent reference answers, computed with mpmath and nothing of explogint.

The reference for an integral

    integral_0^inf sum_j c_j mu^(m_j) x^(s+p_j-1) e^(-mu x) (ln x)^n dx

is  sum_j c_j mu^(m_j) d^n/ds^n [Gamma(s+p_j) mu^-(s+p_j)], expanded by the
Leibniz rule over the stored table of Gamma^(k) (``gamma_derivs.json``, made
by ``make_reference.py`` with ``mpmath.diff``).  Closed forms printed by the
program are bound with mpmath constants at 60 digits, both from their JSON
form and from the rendered text (plain or ``--paper-style``), with a parser
of the text written here.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import mpmath

DPS = 60
#: A closed form matches the reference when bound values agree to this share.
EXACT_RTOL = mpmath.mpf("1e-25")

TABLE = Path(__file__).with_name("gamma_derivs.json")

# One prefactor term: (x power p, coefficient c, mu power m).
Term = tuple[int, Fraction, int]


def _mpf(value: Fraction) -> mpmath.mpf:
    return mpmath.mpf(value.numerator) / value.denominator


class Reference:
    """Reference values at DPS digits; the Gamma^(k) table is read once."""

    def __init__(self, table: Path = TABLE):
        doc = json.loads(table.read_text())
        self.max_order = doc["max_order"]
        with mpmath.workdps(DPS):
            self._gamma = {
                int(twice): [mpmath.mpf(v) for v in values]
                for twice, values in doc["values"].items()
            }
            self._consts = {
                "gamma": +mpmath.euler,
                "log2": +mpmath.ln2,
                "sqrt_pi": mpmath.sqrt(mpmath.pi),
                "pi": +mpmath.pi,
            }
        self._cache: dict[tuple, mpmath.mpf] = {}  # generator and monomial values by mu

    # -- integrals -----------------------------------------------------------

    def integral(self, terms: Iterable[Term], s: Fraction, n: int, mu: Fraction) -> mpmath.mpf:
        if n > self.max_order:
            raise ValueError(f"log power {n} is beyond the reference table")
        with mpmath.workdps(DPS):
            mu_mp = _mpf(Fraction(mu))
            neg_log = -mpmath.log(mu_mp)
            total = mpmath.mpf(0)
            for power, coeff, mu_power in terms:
                twice = int(2 * (Fraction(s) + power))
                derivs = self._gamma[twice]
                leibniz = mpmath.fsum(
                    math.comb(n, k) * neg_log ** (n - k) * derivs[k] for k in range(n + 1)
                )
                scale = _mpf(Fraction(coeff)) * mu_mp ** mu_power
                total += scale * mpmath.power(mu_mp, -_mpf(Fraction(s) + power)) * leibniz
            return total

    # -- binding closed forms ------------------------------------------------

    def generator(self, name: str, mu: Fraction) -> mpmath.mpf:
        key = (name, mu)
        if key not in self._cache:
            self._cache[key] = self._generator(name, mu)
        return self._cache[key]

    def _generator(self, name: str, mu: Fraction) -> mpmath.mpf:
        if name in self._consts:
            return self._consts[name]
        if name == "log_mu":
            return mpmath.log(_mpf(mu))
        if name == "delta":  # paper style: delta = gamma + ln mu
            return self._consts["gamma"] + mpmath.log(_mpf(mu))
        m = re.fullmatch(r"zeta\((\d+)\)", name)
        if m:
            return mpmath.zeta(int(m.group(1)))
        raise ValueError(f"unknown generator {name!r}")

    def bind_json(self, doc: dict, mu: Fraction) -> mpmath.mpf:
        """Value of a ``closed_form_json`` document at the given mu."""
        with mpmath.workdps(DPS):
            total = mpmath.mpf(0)
            for item in doc["terms"]:
                exponent = Fraction(item["mu_exponent"])
                const = mpmath.fsum(
                    _mpf(Fraction(t["coeff"])) * self._monomial(t["powers"].items(), mu)
                    for t in item["constant"]["terms"]
                )
                total += mpmath.power(_mpf(mu), -_mpf(exponent)) * const
            return total

    def bind_text(self, text: str, mu: Fraction) -> mpmath.mpf:
        """Value of a rendered closed form (``ClosedForm.render`` layout)."""
        with mpmath.workdps(DPS):
            total = mpmath.mpf(0)
            for part in text.split("  +  "):
                m = re.fullmatch(r"mu\^\(([^)]*)\) \* \((.*)\)", part)
                if m:
                    scale = mpmath.power(_mpf(mu), _mpf(Fraction(m.group(1))))
                    total += scale * self._bind_constant(m.group(2), mu)
                else:
                    total += self._bind_constant(part, mu)
            return total

    def _bind_constant(self, text: str, mu: Fraction) -> mpmath.mpf:
        if text == "0":
            return mpmath.mpf(0)
        pieces = re.split(r" ([+-]) ", text)
        signed = [(1, pieces[0])] + [
            (1 if op == "+" else -1, body) for op, body in zip(pieces[1::2], pieces[2::2])
        ]
        values = []
        for sign, body in signed:
            if body.startswith("-"):
                sign, body = -sign, body[1:]
            factors = body.split("*")
            coeff = Fraction(1)
            if re.fullmatch(r"\d+(/\d+)?", factors[0]):
                coeff = Fraction(factors[0])
                factors = factors[1:]
            powers = []
            for factor in factors:
                name, _, exp = factor.partition("^")
                powers.append((name, int(exp) if exp else 1))
            values.append(sign * _mpf(coeff) * self._monomial(powers, mu))
        return mpmath.fsum(values)

    def _monomial(self, powers: Iterable[tuple[str, int]], mu: Fraction) -> mpmath.mpf:
        key = (tuple((name, int(exp)) for name, exp in powers), mu)
        if key not in self._cache:
            value = mpmath.mpf(1)
            for name, exp in key[0]:
                value *= self.generator(name, mu) ** exp
            self._cache[key] = value
        return self._cache[key]


def rel_dev(value, ref) -> float:
    """|value - ref| / |ref| as a float; ``inf`` when ref is 0 and value is not."""
    with mpmath.workdps(DPS):
        diff = abs(mpmath.mpf(value) - ref)
        if ref == 0:
            return 0.0 if diff == 0 else math.inf
        return float(diff / abs(ref))


def matches(value, ref) -> bool:
    with mpmath.workdps(DPS):
        return abs(value - ref) <= EXACT_RTOL * abs(ref)


def spec_terms(terms: Sequence[Sequence]) -> list[Term]:
    """Terms from their JSON form [power, "coeff", mu_power]."""
    return [(int(p), Fraction(c), int(m)) for p, c, m in terms]
