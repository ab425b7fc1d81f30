"""The Killing 2-cocycle on current algebras over the circle.

omega(eta, eta1) = class of the 1-form kappa(eta, d eta1).  On T^1 with
eta = cos(x) X and eta1 = sin(x) X the class is kappa(X, X)/2 exactly;
random band-limited fields then exercise antisymmetry and the cyclic
cocycle identity on brackets.
"""

import numpy as np

from heatcurrents import build_basis, build_grid, cocycle
from heatcurrents.diagnostics import random_band_limited
from heatcurrents.extension import cocycle_scalars
from heatcurrents.lie import bracket_coeffs
from heatcurrents.rng import substream
from heatcurrents.torus import build_spectrum

lie = build_basis(2)
grid = build_grid(1, 64)
x = grid.coordinates()[:, 0]

# closed-form example: X = T_1, kappa(T_1, T_1) = -2
coef = np.array([1.0, 0.0, 0.0])
eta = np.cos(x)[:, None] * coef  # coefficient fields, (P, dim_g)
eta1 = np.sin(x)[:, None] * coef
value = cocycle_scalars(grid, lie, eta, eta1)[0]
print(f"omega(cos x T1, sin x T1) = {value:+.12f}   (exact: -1)")

# antisymmetry and the cyclic identity on random band-limited triples
stream = substream(0, 0)
basis = build_spectrum(1, 64, 10)
anti = cyc = 0.0
for _ in range(25):
    e0 = random_band_limited(basis, lie, stream)
    e1 = random_band_limited(basis, lie, stream)
    e2 = random_band_limited(basis, lie, stream)
    anti = max(anti, np.max(np.abs(
        cocycle(grid, lie, e0, e1) + cocycle(grid, lie, e1, e0)
    )))
    total = (
        cocycle(grid, lie, bracket_coeffs(lie, e0, e1), e2)
        + cocycle(grid, lie, bracket_coeffs(lie, e1, e2), e0)
        + cocycle(grid, lie, bracket_coeffs(lie, e2, e0), e1)
    )
    cyc = max(cyc, np.max(np.abs(total)))

print(f"max antisymmetry residual over 25 pairs:  {anti:.3e}")
print(f"max cyclic-identity residual over 25 triples: {cyc:.3e}")
print("both are pure round-off: the cocycle is exact on band-limited fields")
