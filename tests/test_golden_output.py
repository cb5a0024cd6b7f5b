"""Byte-identity of CLI output: exit code and SHA-256 of stdout, pinned.

The hashes fix every character the CLI prints for a few deep commands:
term order, coefficients, paper-style rendering, JSON layout and the
verify floats.  A verify float is the ``math.fsum`` of the monomials'
float values, each its correctly rounded coefficient times powers of the
correctly rounded constants, so it does not depend on the term order but
moves with any change to a constant or a coefficient.  A change to the
ring kernel or the exact engine that alters any of these shows up here
even when the value stays mathematically equal.
"""

import hashlib

import pytest

from explogint.cli import main

GOLDEN = [
    (
        ["eval", "exp(-x)*log(x)^10", "--json"],
        "8ceb11dd2621442078efcdd81828bd0ce325628b2d6a9298b49eb54059115e3b",
    ),
    (
        ["eval", "(1 - 2*x)*x^(5/2)*exp(-3*x)*log(x)^9", "--json"],
        "c29e61c359230662690923cf9ee79c39b1c2c2f66cbd4756d620f14ee60cb0df",
    ),
    (
        ["eval", "x^(-1/2)*exp(-2*x)*log(x)^8", "--json", "--paper-style"],
        "72c1ea3ec118e516dcefea2cc7769635549993e98160674c955482f4a130fa98",
    ),
    (
        ["eval", "x^(9)*exp(-x)*log(x)^7", "--paper-style"],
        "5de8af5b310289a56a00709d95b6ba124b0fef9adf490759d7fe7fb043fa22a7",
    ),
    (
        ["verify", "x^(3/2)*exp(-0.5*x)*log(x)^6", "--json"],
        "5e66d4c7744c5bec5cdbedeee8732ba8068beed8fccabb3af7db8a5c9140cba2",
    ),
    (
        ["verify", "(2 + x^(2))*exp(-5*x)*log(x)^5"],
        "ccccdba8a60e202c56b4ef2e6604d7b6fdd79cd686f37bf88a9f0b70b4717b0f",
    ),
    (
        ["weight", "--max-n", "12", "--json"],
        "7dc5f6dd7da6c6100eaf31188b6d26b2b9be480efdcf3ec5cdba3cae6b002ac6",
    ),
    (
        ["verify", "(1 + 3/2*x)*exp(-0.5*x)*log(x)^13", "--json"],
        "96faef28eacf61f70140d4c4037b4f6cedfd3857307a1f975c9097c1d5c4ba11",
    ),
    (
        # shifts of m = 20 and 21 from the base point 1/2
        ["verify", "(3 - x)*x^(39/2)*exp(-3*x)*log(x)^6", "--json"],
        "40601f02729122d0e95a31518d9d72e21d294e54b4ee22705bc29772ee91249c",
    ),
    (
        # a shift of m = 15 from the base point 1
        ["verify", "x^(15)*exp(-2*x)*log(x)^9", "--json"],
        "61c0877b0908da71491c776c2bd18f774207cb29eeb7e599dbd6cc2551b9b084",
    ),
    (
        # a 604-monomial constant through the delta rewrite, in text mode
        ["verify", "x^(7)*exp(-1/2*x)*log(x)^11", "--paper-style"],
        "07e0f8fe0eff1ebd8adff7ad7def582be26661398ac8798fa671447fb501d964",
    ),
    (
        # mixed denominators 3, 4 and 2^m through to_json (587 KB)
        ["eval", "(2/3 + 5/4*x)*x^(7/2)*exp(-3*x)*log(x)^10", "--json"],
        "b6e7004bc06879ebdcd1d6a80f162fe26e471e16b7b9fe9ca66a3a0ee287cc29",
    ),
    (
        # PASS at rel err 1.1e-12: pins the bound value and the reduced text
        ["verify", "(5/4 - x - 3/2*x^(2))*x^(9/2)*exp(-0.168*x)*log(x)^12", "--json"],
        "e1a2082280a7b0b1cb30a99c7635358c93fdfc63df8c94ef95e3066fa585f51b",
    ),
    (
        # n = 24 at the base point 1 (2.26 MB): deep Leibniz products
        ["eval", "exp(-x)*log(x)^24", "--json"],
        "0369db13d2e1686885e58a0d8905b9635b58aeab0403504ad41534628f3aafcc",
    ),
    (
        # n = 16 at the base point 1/2 (1.09 MB), where psi(1/2) = -gamma - 2*log2
        # multiplies vectors of different lengths
        ["eval", "x^(-1/2)*exp(-x)*log(x)^16", "--json"],
        "c481460037457f59cf4f7ac5fb951756107b69eda9ec94a27319eb82fc068379",
    ),
    (
        # the at_mu_1 rendering in paper style: delta and pi^2 .. pi^12 with
        # their 6^e denominators
        ["eval", "x^(1/2)*exp(-x)*log(x)^12", "--json", "--paper-style"],
        "6ea5464e1fdbf727af81fed8e59a03617cba149b3566144922b168ce21d9f876",
    ),
    (
        # text mode, paper style, pi^4 and pi^6 beside log2 and a pinned mu
        ["eval", "(1 - x)*x^(3/2)*exp(-2*x)*log(x)^6", "--paper-style"],
        "9034bab985d4069331c13a9c4216648a5698d8ec8d2c8768da8f3f873ce9af39",
    ),
    (
        # three binomials multiplied out: like terms merge across factors
        ["eval", "(x + 1)*(x - 2)*(2*x + 3)*x^(1/2)*exp(-3*x)*log(x)^2", "--json"],
        "5209a0c0f896433cb70a5b53165899f6728711f0255af8dfe1083718eda34bd1",
    ),
    (
        # three prefactor terms, each a large form in term order; PASS
        ["verify", "(2 - x + 1/3*x^(2))*x^(1/2)*exp(-4*x)*log(x)^11", "--json"],
        "8b11670e974b029c630eaf862f849150696c9a1d9ae37488974a7f0d9381a4c1",
    ),
    (
        # the mu = 1 path through at_mu_one, in paper style; PASS
        ["verify", "(1 + x)*x^(3/2)*exp(-x)*log(x)^10", "--paper-style"],
        "337097c2f301f442304e45eb544e65202ac5ea111c632f04a90e4cf669c65f6e",
    ),
    (
        ["catalog", "--json"],
        "8fef5ca18566582dc82574ac81598407fff973dbb10e978c41072a19a0d5feb7",
    ),
    (
        # text mode prints each entry's integrand and closed-form strings,
        # which the JSON report leaves out
        ["catalog"],
        "641dc05d222e8b815959b1e44d07da50cca5e28de16d80bdaa53d09ff448c69d",
    ),
    (
        ["catalog", "--mu", "3", "--max-n", "6"],
        "3e3cfbf66b4474b7fc839eebc868f94c936ab9360661ebf3e1d1133e3b772b44",
    ),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a[:2]) for a, _ in GOLDEN])
def test_stdout_is_byte_identical(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
