"""Byte-identity of CLI output: exit code and SHA-256 of stdout, pinned.

The hashes fix every character the CLI prints for a few deep commands:
term order, coefficients, paper-style rendering, JSON layout and the
verify floats.  A verify float is the closed form bound in ints at
2^-128, from the constants' own 128-bit ints, and rounded to a double
once, so it does not depend on the term order and is within an ulp or
so of the exact value.  A change to the ring kernel or the exact engine
that alters the text shows up here even when the value stays
mathematically equal.
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
        "ff8be95899fa90d46dd441e51a49088ad590ca5a7cc524b3b47df4badd9b51f4",
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
        "497634dfd37abad7253f3a64c55f453c8de457773836d47b45120586af63a11b",
    ),
    (
        ["verify", "(2 + x^(2))*exp(-5*x)*log(x)^5"],
        "1207f618c329d3312c3ff2c27ef9a1c6f8cc39e0bdadb67df9ee6d2c94b4f7d7",
    ),
    (
        ["weight", "--max-n", "12", "--json"],
        "7dc5f6dd7da6c6100eaf31188b6d26b2b9be480efdcf3ec5cdba3cae6b002ac6",
    ),
    (
        ["verify", "(1 + 3/2*x)*exp(-0.5*x)*log(x)^13", "--json"],
        "33ae0e5a03c0658ed6cd7116489841e4ffb1dc0b88f96ce455cd219ed63525fd",
    ),
    (
        # shifts of m = 20 and 21 from the base point 1/2
        ["verify", "(3 - x)*x^(39/2)*exp(-3*x)*log(x)^6", "--json"],
        "0ecf0de9f2e4bc113ed440c0846100a2596d5a0e58ec56ca619462e9d07a165d",
    ),
    (
        # a shift of m = 15 from the base point 1
        ["verify", "x^(15)*exp(-2*x)*log(x)^9", "--json"],
        "f378412072826adf20e3f075547a83c83c36385e6dd25eaa1073be598ca802b0",
    ),
    (
        # a 604-monomial constant through the delta rewrite, in text mode
        ["verify", "x^(7)*exp(-1/2*x)*log(x)^11", "--paper-style"],
        "5f2f810f3a0f69b43ec8b660c5a8cd53a18d61c09be4105ef9a1791d23aef8a8",
    ),
    (
        # mixed denominators 3, 4 and 2^m through to_json (587 KB)
        ["eval", "(2/3 + 5/4*x)*x^(7/2)*exp(-3*x)*log(x)^10", "--json"],
        "ce604c625513ac00033ada80c8c85dc5b4ffbae42176eac936f1a9dc6d4c3727",
    ),
    (
        # PASS at rel err 5.2e-16 (1.1e-12 when bound in doubles): pins the bound value and the reduced text
        ["verify", "(5/4 - x - 3/2*x^(2))*x^(9/2)*exp(-0.168*x)*log(x)^12", "--json"],
        "512242415a062ff617f7fa67391566fa040c1010db3010cf2efcc6d51bb7a0bb",
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
        "1c541564c9dcbf362f76ac1ba2cb438fb7b53b6658129dcd0c1e10211eeea515",
    ),
    (
        # three binomials multiplied out: like terms merge across factors
        ["eval", "(x + 1)*(x - 2)*(2*x + 3)*x^(1/2)*exp(-3*x)*log(x)^2", "--json"],
        "0aab0b4fd459eb9924fa9b1bdbdc705b9b5cf54774001f2097b13b667fe08976",
    ),
    (
        # three prefactor terms, each a large form in term order; PASS
        ["verify", "(2 - x + 1/3*x^(2))*x^(1/2)*exp(-4*x)*log(x)^11", "--json"],
        "4825dc35174bae1aacd6349e5cbd85680227c27c462cdc608bac0247521e6581",
    ),
    (
        # the mu = 1 path through at_mu_one, in paper style; PASS
        ["verify", "(1 + x)*x^(3/2)*exp(-x)*log(x)^10", "--paper-style"],
        "a5a3a419ce82386fec08a4744cd55d1f7687e0edc69999dc2e3997971452b31b",
    ),
    (
        ["catalog", "--json"],
        "f374d49e2fbca6f9f69462ea33e46ca3d280a1ba4b8e0d0c07d160bf6ad60d30",
    ),
    (
        # text mode prints each entry's integrand and closed-form strings,
        # which the JSON report leaves out
        ["catalog"],
        "f3695a2c99f57709167dc46b8cf0ff0bc7c7d88356b23d08ca249e4d0ee078b9",
    ),
    (
        ["catalog", "--mu", "3", "--max-n", "6"],
        "455747958abb643b66b73e23f02d9fdb6f833ac39a21c10e2f098343a267ce37",
    ),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a[:2]) for a, _ in GOLDEN])
def test_stdout_is_byte_identical(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
