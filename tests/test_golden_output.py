"""Byte-identity of CLI output: exit code and SHA-256 of stdout, pinned.

The hashes fix every character the CLI prints for a few deep commands:
term order, coefficients, paper-style rendering, JSON layout and the
verify floats.  A verify float is the closed form bound in ints at
2^-BITS, from the constants' own ints at that scale, and rounded to a double
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
        "c8861ab86b7a52186e40e4697f9df70c13aac3ff37d1204aae0a70727bec87b4",
    ),
    (
        ["eval", "(1 - 2*x)*x^(5/2)*exp(-3*x)*log(x)^9", "--json"],
        "10097580fedf7850932bc7d944cfb38bf291391d6ebdd19910198c23a6a7661c",
    ),
    (
        ["eval", "x^(-1/2)*exp(-2*x)*log(x)^8", "--json", "--paper-style"],
        "e159d02cf97b7eda5a0b7231bd32191d60b9381249995752c27b9bc55e029cbf",
    ),
    (
        ["eval", "x^(9)*exp(-x)*log(x)^7", "--paper-style"],
        "4c3ce0b4d71a4a6df7e74919836c6f04bcb0d8852d9838ba879229a0c777c1d6",
    ),
    (
        ["verify", "x^(3/2)*exp(-0.5*x)*log(x)^6", "--json"],
        "02dbc0f052e3c01accc08871429be6e23862a2e8b71afcfaab340f56c978ee06",
    ),
    (
        ["verify", "(2 + x^(2))*exp(-5*x)*log(x)^5"],
        "7a38c62ec423dff16a9cc02424bab6c70eab427d4922583b2efe28959f06f863",
    ),
    (
        ["weight", "--max-n", "12", "--json"],
        "7dc5f6dd7da6c6100eaf31188b6d26b2b9be480efdcf3ec5cdba3cae6b002ac6",
    ),
    (
        ["verify", "(1 + 3/2*x)*exp(-0.5*x)*log(x)^13", "--json"],
        "963d76c832e023f182f816b5cbeeb382af5247128b508990bfa52ab1553d7bb9",
    ),
    (
        # shifts of m = 20 and 21 from the base point 1/2
        ["verify", "(3 - x)*x^(39/2)*exp(-3*x)*log(x)^6", "--json"],
        "06249890ac47114ad8b3acfac04165c68f0d220db757eb92c6fa90946d9b6ada",
    ),
    (
        # a shift of m = 15 from the base point 1
        ["verify", "x^(15)*exp(-2*x)*log(x)^9", "--json"],
        "aa7b84298313697f78cc7953d756cc1d3e6f25070184b5eccb01518969b6c370",
    ),
    (
        # a 425-monomial constant through the delta rewrite, in text mode
        ["verify", "x^(7)*exp(-1/2*x)*log(x)^11", "--paper-style"],
        "2d9aa67e31bfc476ab844130bba7b917d548c2bf82fb77051e2c96c614bdccfe",
    ),
    (
        # mixed denominators 3, 4 and 2^m through to_json (463 KB)
        ["eval", "(2/3 + 5/4*x)*x^(7/2)*exp(-3*x)*log(x)^10", "--json"],
        "a6afed3bc717c8576446dccba5aae8fffa40f66f3db3ba00d73476bb536b26c9",
    ),
    (
        # PASS at rel err 5.2e-16 (1.1e-12 when bound in doubles): pins the bound value and the reduced text
        ["verify", "(5/4 - x - 3/2*x^(2))*x^(9/2)*exp(-0.168*x)*log(x)^12", "--json"],
        "d0d7c1fe0f4b52e88cd657fb3f5f74ebfcd5af0b39a91fa96d4734ea5a0a7887",
    ),
    (
        # n = 24 at the base point 1 (0.69 MB): deep Leibniz products
        ["eval", "exp(-x)*log(x)^24", "--json"],
        "526d8f22ef0cf48c41ca7b32bad686883da2c5d32a8c6345dc3550f70a36e52a",
    ),
    (
        # n = 16 at the base point 1/2 (0.59 MB), where psi(1/2) = -gamma - 2*log2
        # multiplies vectors of different lengths
        ["eval", "x^(-1/2)*exp(-x)*log(x)^16", "--json"],
        "95fd2dd9d7bc14e83a9a3660bd0a899463742f3a3791933bc5cc91b347a52691",
    ),
    (
        # the at_mu_1 rendering in paper style: delta and pi^2 .. pi^12 with
        # their 6^e denominators
        ["eval", "x^(1/2)*exp(-x)*log(x)^12", "--json", "--paper-style"],
        "a081694944c35d7c44ae8362c3be030a101cc018e84ba7f4e40e6a995ba85984",
    ),
    (
        # text mode, paper style, pi^4 and pi^6 beside log2 and a pinned mu
        ["eval", "(1 - x)*x^(3/2)*exp(-2*x)*log(x)^6", "--paper-style"],
        "5d3e7f930920b884b36bcd5069c48eb5e67df5b2515f506e933df3a25d9e5265",
    ),
    (
        # three binomials multiplied out: like terms merge across factors
        ["eval", "(x + 1)*(x - 2)*(2*x + 3)*x^(1/2)*exp(-3*x)*log(x)^2", "--json"],
        "0aab0b4fd459eb9924fa9b1bdbdc705b9b5cf54774001f2097b13b667fe08976",
    ),
    (
        # three prefactor terms, each a large form in term order; PASS
        ["verify", "(2 - x + 1/3*x^(2))*x^(1/2)*exp(-4*x)*log(x)^11", "--json"],
        "41911c3056b18ff7ed52852c4097b94fb6adb921672ebf71cb07b421f9ae8d72",
    ),
    (
        # the mu = 1 path through at_mu_one, in paper style; PASS
        ["verify", "(1 + x)*x^(3/2)*exp(-x)*log(x)^10", "--paper-style"],
        "baee5726d1c0b23f2d747cba8dd262d8aca6aa57874ebc09e21025cf06ecf12d",
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
