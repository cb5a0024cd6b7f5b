"""The ring's generators and the precision at which binding holds their values.

A generator is its position in an exponent vector: gamma, log_mu, log2,
sqrt_pi, zeta(2), zeta(3), ... are 0, 1, 2, 3, 4, 5, ..., which is also
their total order, and its name, weight and zeta index follow from the
position: gamma weighs 1, log_mu, log2 and sqrt_pi have no weight, and
zeta(k) at k + 2 weighs k.

This module is a leaf of the package and needs only the standard library,
so the oracle's table of generator values (:mod:`explogint.oracle`) loads
without the algebra of :mod:`explogint.ring`, which imports its generators
from here.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:
    from fractions import Fraction

BITS = 192  # binding precision: a generator's value is held as an int at 2^-BITS


class _GeneratorFields(NamedTuple):
    index: int


class Generator(_GeneratorFields):
    """A named constant, identified by its exponent-vector position (its order too)."""

    __slots__ = ()

    def __new__(cls, index: int) -> "Generator":
        if index < 0:
            raise ValueError(f"generator index must be nonnegative, got {index}")
        return super().__new__(cls, index)

    @property
    def name(self) -> str:
        return _name(self.index)

    @property
    def weight(self) -> Optional[Fraction]:
        """Grading weight: gamma has weight 1, zeta(k) weight k, others none."""
        from fractions import Fraction  # here, so that the oracle's table loads no fractions

        i = self.index
        return Fraction(1) if i == 0 else Fraction(i - 2) if i >= len(_NAMES) else None

    @property
    def k(self) -> int:
        """The zeta index; 0 for every other generator."""
        return self.index - 2 if self.index >= len(_NAMES) else 0

    def __repr__(self) -> str:
        return f"Generator({self.name})"


# Positions 0..3; zeta(k) sits at position k + 2.
_NAMES = ("gamma", "log_mu", "log2", "sqrt_pi")


def _name(i: int) -> str:
    return _NAMES[i] if i < len(_NAMES) else f"zeta({i - 2})"


# One instance per position, for readers that hand out a Generator per factor.
_generator = lru_cache(maxsize=None)(Generator)


EULER_GAMMA, LOG_MU, LOG2, SQRT_PI = (Generator(i) for i in range(len(_NAMES)))


def zeta_gen(k: int) -> Generator:
    if k < 2:
        raise ValueError(f"zeta generator requires k >= 2, got {k}")
    return Generator(k + 2)
