"""Tolerance bundle for the numerical decisions that take one.

All values are relative; each operation documents the quantity they are
scaled by. Callers pass a ``Tolerances`` instance or accept :data:`DEFAULT`;
the README lists the thresholds that are fixed in the code.
"""

import math
from dataclasses import dataclass, fields
from numbers import Real

from .errors import InvalidInput


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances for spectral and rank decisions.

    Every field must be a finite number >= 0, else construction (by
    ``dataclasses.replace`` too) raises :class:`InvalidInput`.

    Attributes
    ----------
    axis : float
        Half-width of the imaginary-axis band, relative to ||A0||.
        Eigenvalues with |Re| inside the band are classified AXIS.
    rank : float
        Singular-value cutoff relative to the largest singular value.
    definiteness : float
        Eigenvalue cutoff for sign classification, relative to
        max(1, ||S||_max).
    base : float
        Residual bound for accepting a base ARE solution, relative to
        max(1, ||A||_max, ||Q||_max).
    sym : float
        Allowed symmetry deviation |S - S^T|_max relative to
        max(1, ||S||_max).
    """

    axis: float = 1e-8
    rank: float = 1e-10
    definiteness: float = 1e-8
    base: float = 1e-7
    sym: float = 1e-8

    def __post_init__(self):
        for field in fields(self):
            _check_tolerance(getattr(self, field.name), field.name)


def _check_tolerance(value, label):
    """Raise :class:`InvalidInput` unless ``value`` is a finite real number
    >= 0; ``label`` names it in the message."""
    # bool is an int subclass, but True is no tolerance; NaN fails both bounds
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 <= value < math.inf:
        raise InvalidInput(f"tolerance {label!r} must be a finite number >= 0, got {value!r}")


DEFAULT = Tolerances()
