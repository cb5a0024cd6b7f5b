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
        "6259620d886dd98f535cd7fea2cc6aeb7351474608b3ef109660822091117f65",
    ),
    (
        ["verify", "(2 + x^(2))*exp(-5*x)*log(x)^5"],
        "9d7a00ede99292554ceaf300b153225cca34131d768fadbba252721a39aa359f",
    ),
    (
        ["weight", "--max-n", "12", "--json"],
        "7dc5f6dd7da6c6100eaf31188b6d26b2b9be480efdcf3ec5cdba3cae6b002ac6",
    ),
    (
        ["verify", "(1 + 3/2*x)*exp(-0.5*x)*log(x)^13", "--json"],
        "00ab6194553215345ed5771fffd217844d097e70f0c205abc161e89bc05fe01c",
    ),
    (
        # shifts of m = 20 and 21 from the base point 1/2
        ["verify", "(3 - x)*x^(39/2)*exp(-3*x)*log(x)^6", "--json"],
        "d4e38ff49d2d51651bb236933cd75f4c1f31f93046df9e5de3db4584f22b203f",
    ),
    (
        # a shift of m = 15 from the base point 1
        ["verify", "x^(15)*exp(-2*x)*log(x)^9", "--json"],
        "a7e954728171e87c27e6e2115f88f95c75671616ba0abcabc88bc4ee9915827e",
    ),
    (
        ["catalog", "--json"],
        "438c9841d19baac7bb3acae34c5896ad03d28de695a5b1c44f3d23347d768684",
    ),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a[:2]) for a, _ in GOLDEN])
def test_stdout_is_byte_identical(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
