"""Butcher data for symplectic diagonally implicit Runge-Kutta schemes.

Only the symplectic DIRK family is representable here: a_ij = b_j for
j < i, a_ii = b_i / 2, and c_i = sum_{j<i} b_j + b_i / 2.  A tableau of
this shape is determined by its weight vector b alone, and the s-stage
method is exactly the composition of s implicit midpoint substeps of
sizes b_i * h.  Negative weights are legal and are what the 4th-order
composition schemes use.  The steppers read nothing else: a macro step
of size h takes the substeps h * b_i in order, computed on the fly
from StepperConfig.tableau.

SdirkTableau checks its weights where it is built, for every caller,
and raises ValueError unless there is at least one, each is a finite,
nonzero real (a zero-length substage is degenerate) and they sum to 1
within 1e-10.  It stores them as a tuple of floats, so a list or an
array of weights gives the same, hashable tableau.  It is the one home
of these rules: the CLI builds its custom tableau straight from the
parsed weights.

Builtin weight vectors:

    midpoint  (1,)                                  order 2
    sdirk2    (1/2, 1/2)                            order 2
    yoshida4  (w1, 1 - 2 w1, w1), w1 = 1/(2-2^(1/3))   order 4
    suzuki4   (v, v, 1 - 4 v, v, v), v = 1/(4-4^(1/3)) order 4

The order-4 candidates are recognized by sum(b) = 1 together with
sum(b^3) = 0; both defects are exposed by order_conditions().
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadlie import _real

__all__ = [
    "SdirkTableau",
    "BUILTIN_TABLEAUS",
    "builtin",
    "order_conditions",
]


@dataclass(frozen=True)
class SdirkTableau:
    """Weight vector of one symplectic DIRK scheme."""

    b: tuple[float, ...]
    name: str = "custom"

    def __post_init__(self):
        weights = () if self.b is None else tuple(_real(w, "weight", "finite and nonzero") for w in self.b)
        object.__setattr__(self, "b", weights)
        if not weights:
            raise ValueError("empty weight list")
        defect = abs(sum(self.b) - 1.0)
        if not defect <= 1e-10:  # a sum that overflows fails here too
            raise ValueError(f"weights must sum to 1 (defect {defect:.3e})")

    @property
    def s(self) -> int:
        return len(self.b)


def _yoshida_weights() -> tuple[float, ...]:
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    return (w1, 1.0 - 2.0 * w1, w1)


def _suzuki_weights() -> tuple[float, ...]:
    v = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
    return (v, v, 1.0 - 4.0 * v, v, v)


BUILTIN_TABLEAUS = {
    "midpoint": SdirkTableau((1.0,), "midpoint"),
    "sdirk2": SdirkTableau((0.5, 0.5), "sdirk2"),
    "yoshida4": SdirkTableau(_yoshida_weights(), "yoshida4"),
    "suzuki4": SdirkTableau(_suzuki_weights(), "suzuki4"),
}


def builtin(name: str) -> SdirkTableau:
    """Look up a builtin tableau by name; ValueError on unknown names."""
    try:
        return BUILTIN_TABLEAUS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_TABLEAUS))
        raise ValueError(f"unknown tableau {name!r}; builtins: {known}") from None


def order_conditions(tableau: SdirkTableau) -> tuple[float, float]:
    """Defects (|sum b - 1|, |sum b^3|).

    The first is consistency; both below 1e-12 marks an order-4
    candidate within this family.
    """
    b = np.asarray(tableau.b, dtype=float)
    return abs(float(b.sum()) - 1.0), abs(float((b ** 3).sum()))
