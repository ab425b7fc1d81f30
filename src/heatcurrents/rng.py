"""Deterministic, splittable random number streams.

All randomness in this package flows through :class:`RngStream`, a thin
wrapper around numpy's counter-based Philox 4x64 bit generator.  A stream is
identified by ``(root_seed, stream_id)``, which becomes the 128-bit Philox
key; the draw position is the Philox counter.  Distinct stream ids therefore
give statistically independent streams, and every draw is a pure function of
``(root_seed, stream_id, counter)`` regardless of platform or scheduling.

The algorithm identifier below is pinned in ensemble manifests so persisted
data records exactly how its noise was produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Pinned generator identity, recorded in manifests. Bump if the key/counter
# mapping or the underlying bit generator ever changes.
RNG_ALGORITHM = "numpy-philox4x64-v1"


@dataclass
class RngStream:
    """One independent Philox stream addressed by (root_seed, stream_id).

    Both lie in [0, 2^64), the two 64-bit words of the Philox key; a value
    outside raises ValueError rather than alias another stream.
    """

    root_seed: int
    stream_id: int
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("root_seed", "stream_id"):
            value = getattr(self, name)
            if not 0 <= value < 1 << 64:
                raise ValueError(f"{name} must lie in [0, 2^64), got {value}")
        key = np.array([self.root_seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def normal(self, size) -> np.ndarray:
        return self._gen.standard_normal(size)

    def uniform(self, size) -> np.ndarray:
        return self._gen.random(size)


def substream(root_seed: int, stream_id: int) -> RngStream:
    """The stream uniquely associated with ``stream_id`` under ``root_seed``."""
    return RngStream(root_seed=root_seed, stream_id=stream_id)


# Diagnostics draw from stream ids offset far above ensemble sample indices
# (samples use ids 0..n_samples-1), so their own draws stay apart from the
# data.  Two checks re-draw shipped streams on purpose: `drift` flows
# `sample_field`'s default substream(seed, 0), ensemble sample 0, and `haar`
# draws from substream(seed, 0) and substream(seed, EXTENSION_CENTRAL_STREAM),
# `extend` sample 0's field and fiber streams.
DIAGNOSTIC_STREAM_BASE = 1 << 32


def diagnostic_stream(root_seed: int, slot: int) -> RngStream:
    return substream(root_seed, DIAGNOSTIC_STREAM_BASE + slot)
