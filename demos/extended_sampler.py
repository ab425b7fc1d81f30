"""Sampling the centrally extended group: a field plus a torus fiber.

The extension adds a compact torus Z = R^N / L (N = d * dim su(2) = 3
here).  The lifted measure is the product of the field law with Haar
measure on Z; Brownian motion on Z converges to Haar, which the wrapped
one-shot marginal shows directly.
"""

import numpy as np

from heatcurrents import (
    LatticeSpec,
    central_brownian_marginal,
    default_config,
    sample_extension,
    substream,
)
from heatcurrents.diagnostics import ks_uniform

cfg = default_config(p=16, m_max=3, n_steps=32)
lattice = LatticeSpec.identity(3)

fields, fibers = sample_extension(cfg, lattice)
print("field part:   grid of", fields.shape[1], "SU(2) matrices")
print("central part:", np.round(fibers[0], 4), "in [0,1)^3")

# draw i pairs field stream i with central stream 2^33 + i: a batch of
# three starts with the single draw above
batch_fields, batch_fibers = sample_extension(cfg, lattice, n_samples=3)
print("first of three reproduces the single draw:",
      np.array_equal(batch_fields[0], fields[0])
      and np.array_equal(batch_fibers[0], fibers[0]))

# Brownian motion on the fiber torus mixes to Haar as t grows
print()
print("  t    KS distance to uniform")
for slot, t in enumerate([0.05, 0.2, 1.0, 5.0]):
    draws = central_brownian_marginal(lattice, t, 20_000, substream(1, slot))
    ks = ks_uniform(draws[:, 0])[0]
    print(f"{t:5.2f}   {ks:.4f}")
print("by t ~ 1 the wrapped Gaussian is uniform to sampling accuracy")
