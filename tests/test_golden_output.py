"""Byte-identity of CLI output: exit code and SHA-256 of stdout, pinned.

The hashes fix every character the CLI prints for a few deep commands:
term order, coefficients, paper-style rendering, JSON layout and the
verify floats (whose compensated sum depends on the term order).  A
change to the ring kernel or the exact engine that alters any of these
shows up here even when the value stays mathematically equal.
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
        "cec85f836c1cec6fb6448549f20cac8348fab0305073a0d1711bc6c37a4a5682",
    ),
    (
        ["verify", "(2 + x^(2))*exp(-5*x)*log(x)^5"],
        "20bed51c396ba8a489dae77c9a457433c63f3320ba592631141eb3303a3b456e",
    ),
    (
        ["weight", "--max-n", "12", "--json"],
        "7dc5f6dd7da6c6100eaf31188b6d26b2b9be480efdcf3ec5cdba3cae6b002ac6",
    ),
    (
        ["verify", "(1 + 3/2*x)*exp(-0.5*x)*log(x)^13", "--json"],
        "21feba033a11d445d29b342ae3574d9626fab88f066a80d398c4b5411381164e",
    ),
    (
        # shifts of m = 20 and 21 from the base point 1/2
        ["verify", "(3 - x)*x^(39/2)*exp(-3*x)*log(x)^6", "--json"],
        "e7f46e943a43e13b1a0894dbe3a7891c6b7fcdd25c10dc288b184356cae90e2e",
    ),
    (
        # a shift of m = 15 from the base point 1
        ["verify", "x^(15)*exp(-2*x)*log(x)^9", "--json"],
        "533b5f17ec7856c9124474b40fefb83fd2e4c1df89b96893f26d4942aa9b2ebe",
    ),
    (
        # a 604-monomial constant through the delta rewrite, in text mode
        ["verify", "x^(7)*exp(-1/2*x)*log(x)^11", "--paper-style"],
        "2487badf12d975a6f2e16bed54a21ad5625ec4e1923643e1880bb22ba3052efb",
    ),
    (
        # mixed denominators 3, 4 and 2^m through to_json (587 KB)
        ["eval", "(2/3 + 5/4*x)*x^(7/2)*exp(-3*x)*log(x)^10", "--json"],
        "b6e7004bc06879ebdcd1d6a80f162fe26e471e16b7b9fe9ca66a3a0ee287cc29",
    ),
    (
        # PASS at rel err 1.7e-11: pins the binding order and the reduced text
        ["verify", "(5/4 - x - 3/2*x^(2))*x^(9/2)*exp(-0.168*x)*log(x)^12", "--json"],
        "f0a47f85d86062311fa3b19333e0f988f946a7694ab307eea62262fbdfd83dee",
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
        "137da5ef051ac5a74fbf6069f2e495c75fa9a2db08f3bf9786b7ab0c25155003",
    ),
    (
        # the mu = 1 path through at_mu_one, in paper style; PASS
        ["verify", "(1 + x)*x^(3/2)*exp(-x)*log(x)^10", "--paper-style"],
        "ec3cf054ff7196781f86997f0fc8d92d19efef4fa255b8d455238c0a5025a89d",
    ),
    (
        ["catalog", "--json"],
        "860431a58d459214231b1baabe5b614e667b8d94335ae23e38a251a14224aea6",
    ),
    (
        # text mode prints each entry's integrand and closed-form strings,
        # which the JSON report leaves out
        ["catalog"],
        "cc7a230c32316cf6eb379e0f29bcd0f23fa59cea4489581b9de8281a8a4cf8fa",
    ),
    (
        ["catalog", "--mu", "3", "--max-n", "6"],
        "b93c371e9094a7749f9e8aabf289e950a858abb6689b191220d048059f02773d",
    ),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a[:2]) for a, _ in GOLDEN])
def test_stdout_is_byte_identical(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
