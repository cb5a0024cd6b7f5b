"""Regenerate ``gamma_derivs.json``: Gamma^(k)(s) to 60 digits with mpmath.

The table covers every lattice point s = 1/2, 1, ..., 12 and every order
k <= 14, which is all the benchmark's workloads reach (s <= 10 plus a
prefactor of degree <= 2, log power n <= 14).  mpmath differentiates its own
Gamma numerically at raised precision; nothing here touches explogint.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath

TABLE = Path(__file__).with_name("gamma_derivs.json")
MAX_TWICE = 24  # s up to 12
MAX_ORDER = 14
DIGITS = 60


def main() -> int:
    mpmath.mp.dps = DIGITS + 20
    values = {}
    for twice in range(1, MAX_TWICE + 1):
        s = mpmath.mpf(twice) / 2
        values[str(twice)] = [
            mpmath.nstr(mpmath.diff(mpmath.gamma, s, k), DIGITS, min_fixed=-1, max_fixed=-1)
            for k in range(MAX_ORDER + 1)
        ]
        print(f"s = {twice}/2 done", file=sys.stderr)
    doc = {
        "about": "Gamma^(k)(twice/2) for k = 0..max_order, from mpmath.diff at raised precision",
        "digits": DIGITS,
        "max_order": MAX_ORDER,
        "values": values,
    }
    TABLE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
