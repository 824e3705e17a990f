"""Counter-based random streams keyed by (seed, pixel, sample, dim).

Every uniform is a pure function of its key, so renders are bit-identical
regardless of chunking or thread count, and perturbed re-renders can reuse
the exact random stream of the base render (common random numbers).
"""

from __future__ import annotations

import numpy as np

from .core import ContractError

_U64 = np.uint64
_MIX_A = _U64(0xBF58476D1CE4E5B9)
_MIX_B = _U64(0x94D049BB133111EB)
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_PIXEL_SALT = _U64(0x632BE59BD9B4E019)
_SAMPLE_SALT = _U64(0xFF51AFD7ED558CCD)
_DIM_SALT = _U64(0xC4CEB9FE1A85EC53)
_INV_2_53 = float(2.0**-53)


def check_seed(seed) -> None:
    """A seed must be an integer in [0, 2^64), the streams' key space."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64):
        raise ContractError(f"seed must be an integer in [0, 2^64), got {seed!r}")


def _mix(x: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; uint64 arithmetic wraps by design
    with np.errstate(over="ignore"):
        x = (x ^ (x >> _U64(30))) * _MIX_A
        x = (x ^ (x >> _U64(27))) * _MIX_B
        return x ^ (x >> _U64(31))


def _key(seed, pixel, sample, dim) -> np.ndarray:
    seed = np.asarray(seed, dtype=np.uint64)
    pixel = np.asarray(pixel, dtype=np.uint64)
    sample = np.asarray(sample, dtype=np.uint64)
    dim = np.asarray(dim, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = _mix(seed + _GOLDEN)
        x = _mix(x ^ (pixel * _PIXEL_SALT + _GOLDEN))
        x = _mix(x ^ (sample * _SAMPLE_SALT + _GOLDEN))
        x = _mix(x ^ (dim * _DIM_SALT + _GOLDEN))
    return x


def uniform(seed, pixel, sample, dim) -> np.ndarray:
    """Uniforms in [0, 1). Arguments broadcast; output is float64."""
    bits = _key(seed, pixel, sample, dim)
    return (bits >> _U64(11)).astype(np.float64) * _INV_2_53


def uniform_block(seed: int, pixel, sample, dims: int) -> np.ndarray:
    """Stack of `dims` independent uniforms, shape (*broadcast, dims)."""
    pixel = np.asarray(pixel, dtype=np.uint64)
    sample = np.asarray(sample, dtype=np.uint64)
    d = np.arange(dims, dtype=np.uint64)
    return uniform(seed, pixel[..., None], sample[..., None], d)


def derive_seed(seed: int, stream: int) -> int:
    """Decorrelated child seed, e.g. one per optimizer iteration."""
    return int(_key(np.uint64(seed), np.uint64(stream), _U64(0), _U64(0)))
