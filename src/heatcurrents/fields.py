"""Lie-algebra-valued fields on the torus grid.

AlgebraField is a grid of algebra coefficient vectors.  The pointwise
bracket and Killing pairing act on the coefficients; derivatives come from
`torus.spectral_derivative`, exact Fourier differentiation of each algebra
coefficient, so identities like the Leibniz rule for the Killing pairing
hold to round-off on band-limited fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie import LieBasis, bracket_coeffs, killing_pair

__all__ = [
    "AlgebraField",
    "field_bracket",
    "field_killing",
]


@dataclass(frozen=True)
class AlgebraField:
    """A Lie-algebra-valued grid function as coefficient arrays.

    coeffs has shape (*grid.shape, dim_g); entry [S, a] is the coefficient
    of basis direction T_a at grid point S.
    """

    coeffs: np.ndarray
    lie: LieBasis

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape[-1] != self.lie.dim:
            raise ValueError(
                f"trailing axis must hold {self.lie.dim} algebra coefficients, "
                f"got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("algebra field contains non-finite entries")
        object.__setattr__(self, "coeffs", c)

    @property
    def grid_shape(self) -> tuple:
        return self.coeffs.shape[:-1]


def _check_pair(x: AlgebraField, y: AlgebraField) -> None:
    if x.grid_shape != y.grid_shape:
        raise ValueError(
            f"fields live on different grids: {x.grid_shape} vs {y.grid_shape}"
        )
    if x.lie.n != y.lie.n:
        raise ValueError(f"fields over different algebras: su({x.lie.n}) vs su({y.lie.n})")


def field_bracket(x: AlgebraField, y: AlgebraField) -> AlgebraField:
    """Pointwise commutator [x, y]."""
    _check_pair(x, y)
    return AlgebraField(coeffs=bracket_coeffs(x.lie, x.coeffs, y.coeffs), lie=x.lie)


def field_killing(x: AlgebraField, y: AlgebraField) -> np.ndarray:
    """Pointwise Killing pairing kappa(x, y): scalar grid function."""
    _check_pair(x, y)
    return killing_pair(x.lie, x.coeffs, y.coeffs)
