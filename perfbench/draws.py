"""Seeded request lists for the three workloads.

A request is a plain dict.  The program only ever sees its integrand string
(or, for ``catalog``, an entry index and parameter of the shipped catalog);
the rest describes the question for the reference.  Draws are stratified:
what sets a request's cost follows a fixed pattern, so that every seed gives
the same mix of sizes, and the seed draws the details (s within its class,
coefficients, mu within its stratum, the order).
"""

from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction

DEEP_S = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(7, 2), Fraction(10))
DEEP_N = tuple(range(8, 15))
DEEP_MU = (Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5), Fraction(10))
DEEP_PAPER_SHARE = 3  # of the five n = 8 requests
DEEP_TWO_TERM_MAX_N = 11

VERIFY_S = tuple(Fraction(k, 2) for k in range(1, 21))  # 1/2 .. 10
VERIFY_N = tuple(range(15))  # 0 .. 14
VERIFY_MU_DECADES = (-3.0, 3.0)

# Probes from the seed-1 survey of verify; every pass keeps them, so each
# known defect shows on every seed: zeta(13) missing from the constants
# table, binding error at s = 10, n = 9, and the quadrature window at mu = 1e3.
VERIFY_PINNED = (
    (Fraction(1), 13, Fraction(1), ((0, Fraction(1), 0),)),
    (Fraction(10), 9, Fraction(10), ((0, Fraction(1), 0),)),
    (Fraction(10), 0, Fraction(1000), ((0, Fraction(1), 0),)),
)

_COEFFS = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2), Fraction(2, 3),
           Fraction(5, 4))


def _text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def integrand(s: Fraction, n: int, mu: Fraction, terms) -> str:
    """Integrand text in the program's expression language."""
    poly = []
    for power, coeff, _ in terms:
        mag = _text(abs(coeff))
        x = "" if power == 0 else ("x" if power == 1 else f"x^({power})")
        body = mag if not x else (x if abs(coeff) == 1 else f"{mag}*{x}")
        if poly:
            poly.append(("- " if coeff < 0 else "+ ") + body)
        else:
            poly.append(("-" if coeff < 0 else "") + body)
    factors = []
    if len(terms) > 1 or terms[0][0] != 0 or terms[0][1] != 1:
        factors.append(f"({' '.join(poly)})" if len(terms) > 1 else poly[0])
    if s != 1:
        factors.append(f"x^({_text(s - 1)})")
    factors.append("exp(-x)" if mu == 1 else f"exp(-{_text(mu) if mu.denominator == 1 else _decimal(mu)}*x)")
    if n:
        factors.append("log(x)" if n == 1 else f"log(x)^{n}")
    return "*".join(factors)


def _decimal(mu: Fraction) -> str:
    # mu is drawn as a decimal; write it back as one (the parser reads it exactly).
    d = Decimal(mu.numerator) / Decimal(mu.denominator)
    text = format(d.normalize(), "f")
    if Fraction(text) != mu:
        return _text(mu)
    return text


def _request(rid: int, kind: str, s, n, mu, terms, **extra) -> dict:
    return {
        "id": rid,
        "kind": kind,
        "expr": integrand(s, n, mu, terms),
        "s": _text(s),
        "n": n,
        "mu": _text(mu),
        "terms": [[p, _text(c), m] for p, c, m in terms],
        **extra,
    }


def _terms(rng: random.Random, degree: int, count: int):
    """``count`` prefactor terms with top power ``degree``, lead coefficient > 0."""
    powers = sorted(rng.sample(range(degree), count - 1)) + [degree] if count > 1 else [degree]
    out = []
    for i, p in enumerate(powers):
        c = rng.choice(_COEFFS)
        if i and rng.random() < 0.5:
            c = -c
        out.append((p, c, 0))
    return tuple(out)


def deep_log(seed: int) -> list[dict]:
    """Every (s, n) pair once.  Which pairs carry a second prefactor term, and
    its power, follow a fixed checkerboard over n <= DEEP_TWO_TERM_MAX_N so
    that every seed costs about the same (a second term doubles the engine's
    work, and at n >= 12 one such request would take seconds); the seed draws
    coefficients, signs, mu, the paper-style share and the order."""
    rng = random.Random(f"deep_log:{seed}")
    pairs = [(i, s, n) for i, s in enumerate(DEEP_S) for n in DEEP_N]
    paper = set(rng.sample([s for _, s, n in pairs if n == 8], DEEP_PAPER_SHARE))
    reqs = []
    for i, s, n in pairs:
        terms = ((0, rng.choice(_COEFFS), 0),)
        if (i + n) % 2 and n <= DEEP_TWO_TERM_MAX_N:
            power = 1 + (i + n) // 2 % 2
            terms += ((power, rng.choice(_COEFFS) * rng.choice((1, -1)), 0),)
        mu = rng.choice(DEEP_MU)
        reqs.append(_request(0, "eval", s, n, mu, terms, paper=n == 8 and s in paper))
    rng.shuffle(reqs)
    for i, r in enumerate(reqs):
        r["id"] = i
    return reqs


def _mu_decimal(rng: random.Random, lo: float, hi: float) -> Fraction:
    """Log-uniform mu in [10^lo, 10^hi], kept to three significant digits."""
    value = Decimal(10) ** Decimal(repr(rng.uniform(lo, hi)))
    return Fraction(Decimal(format(value, ".3g")))


def verify_mix(seed: int) -> list[dict]:
    """Each n in 0..14 three times.  What sets most of a request's cost
    follows a fixed pattern over (n, slot): the lattice class of s (integer
    or half-integer) and its size (low, middle or high third), the prefactor
    degree and number of terms, and the stratum of log10 mu (45 strata over
    -3..3, each used once).  The seed draws s within its third, mu within its
    stratum, which lower powers appear, the coefficients and the order.  The
    pinned probes are added to every pass."""
    rng = random.Random(f"verify_mix:{seed}")
    lo, hi = VERIFY_MU_DECADES
    count = len(VERIFY_N) * 3
    width = (hi - lo) / count
    reqs = []
    for n in VERIFY_N:
        for slot, kind in enumerate(("int", "half", "int" if n % 2 else "half")):
            i = 3 * n + slot
            lattice = [s for s in VERIFY_S if (s.denominator == 1) == (kind == "int")]
            third = (n + 2 * slot) % 3
            s = rng.choice(lattice[third * len(lattice) // 3:(third + 1) * len(lattice) // 3])
            degree = (n + slot) % 3
            terms = _terms(rng, degree, 1 + (n + slot) % (degree + 1))
            stratum = i * 17 % count  # 17 is prime to 45: a permutation of the strata
            mu = _mu_decimal(rng, lo + stratum * width, lo + (stratum + 1) * width)
            reqs.append(_request(0, "verify", s, n, mu, terms))
    for s, n, mu, terms in VERIFY_PINNED:
        reqs.append(_request(0, "verify", s, n, mu, terms))
    rng.shuffle(reqs)
    for i, r in enumerate(reqs):
        r["id"] = i
    return reqs


def catalog(seed: int, checks: int) -> list[dict]:
    """The shipped catalog grid in a seeded order; ``checks`` is its size."""
    order = list(range(checks))
    random.Random(f"catalog:{seed}").shuffle(order)
    return [{"id": i, "kind": "catalog", "check": c} for i, c in enumerate(order)]
