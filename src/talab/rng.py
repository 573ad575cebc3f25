"""Counter-based uniform streams for reproducible, partition-independent Monte Carlo.

Every stochastic quantity is a pure function of ``(key, index)``, ``index`` a
position in the Philox stream of ``key`` < 2^128: a run's seed, or for sweep row
l seed * 2^64 + l, so no two rows share a stream. Workers may generate any window
independently; the result never depends on how the index range was partitioned.

Philox natively emits blocks of 4 outputs per counter value, so jumping to an
arbitrary absolute index means advancing to the enclosing block and discarding
the unaligned head.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 4  # Philox outputs per counter increment


def uniform_stream(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms at absolute positions [start, start+count) of the key's stream."""
    if start < 0 or count < 0:
        raise ValueError(f"need start >= 0 and count >= 0, got {start}, {count}")
    if count == 0:
        return np.empty(0)
    aligned = (start // _BLOCK) * _BLOCK
    pad = start - aligned
    bg = np.random.Philox(key=seed)
    bg.advance(aligned // _BLOCK)
    out = np.random.Generator(bg).random(pad + count)
    return out[pad:] if pad else out


def uniform_block(seed: int, first_replicate: int, n_replicates: int, stride: int) -> np.ndarray:
    """Replicate-shaped window: row j holds the uniforms of replicate first_replicate+j.

    Replicate r owns stream positions [r*stride, (r+1)*stride).
    """
    flat = uniform_stream(seed, first_replicate * stride, n_replicates * stride)
    return flat.reshape(n_replicates, stride)
