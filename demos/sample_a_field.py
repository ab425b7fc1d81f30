"""Draw one SU(2)-valued random field on the circle and look at it.

The field solves dg = g dB in the group, driven by a smooth (Sobolev
order 2) algebra-valued Brownian motion, integrated by pointwise geodesic
steps g <- g exp(dB).
"""

import numpy as np

from heatcurrents import default_config, sample_field, substream

cfg = default_config()  # d=1, P=64, k=2, M_max=16, SU(2), 256 steps
state = sample_field(cfg, stream=substream(seed := 42, 0))

print(f"grid points: {state.mats.shape[0]}, terminal time t = {cfg.t_end}")
print(f"max ||g^H g - I||_F over the grid: {state.unitarity_defect():.3e}")
print(f"max |det g - 1| over the grid:     {state.det_defect():.3e}")

# the field is continuous in S: neighbouring matrices are close
gaps = np.linalg.norm(np.diff(state.mats, axis=0), axis=(1, 2))
print(f"largest neighbour gap ||g(S_i+1) - g(S_i)||_F: {gaps.max():.3f}")
print(f"mean neighbour gap:                            {gaps.mean():.3f}")

# one matrix, for flavour
np.set_printoptions(precision=3, suppress=True)
print("g at S = 0:")
print(state.mats[0])

# the same seed and stream id always reproduce the same field
again = sample_field(cfg, stream=substream(seed, 0))
print("bit-identical on re-run:", np.array_equal(state.mats, again.mats))
