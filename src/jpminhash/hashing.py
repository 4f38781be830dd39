"""Deterministic 64-bit hashing primitives.

Every random quantity in this package is derived from a single finalizer-based
hash family, so identical inputs and seeds reproduce identical samples,
signatures and Monte-Carlo estimates on any platform.  The bit-level contract
below is part of the package's file formats and must not change.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MASK64",
    "GOLDEN64",
    "CONTINUOUS_SALT",
    "fin64",
    "rotl32",
    "uniform_hash",
    "derive_seed",
    "fin64_vec",
    "uniform_hash_vec",
    "derive_seed_vec",
]

MASK64 = (1 << 64) - 1

# Weyl increment used to derive per-index seeds from a base seed.
GOLDEN64 = 0x9E3779B97F4A7C15

# Salt separating position hashes from arrival hashes in the continuous
# proposal stream.
CONTINUOUS_SALT = 0x517CC1B727220A95

_MUL1 = 0xFF51AFD7ED558CCD
_MUL2 = 0xC4CEB9FE1A85EC53
_TWO_NEG_53 = 2.0**-53


def fin64(z: int) -> int:
    """Avalanche finalizer: a fixed bijection on 64-bit words."""
    z &= MASK64
    z ^= z >> 33
    z = (z * _MUL1) & MASK64
    z ^= z >> 33
    z = (z * _MUL2) & MASK64
    z ^= z >> 33
    return z


def rotl32(s: int) -> int:
    """Rotate a 64-bit word left by 32 bits (swap halves)."""
    s &= MASK64
    return ((s << 32) | (s >> 32)) & MASK64


def uniform_hash(element_id: int, seed: int) -> float:
    """Seeded uniform variate in (0, 1] for a 64-bit element id.

    Computes ``((z >> 11) + 1) * 2**-53`` where ``z`` is the finalized mix
    of id and seed; the ``+ 1`` keeps the output strictly positive so its
    negative log is always finite.
    """
    z = fin64(fin64(element_id ^ rotl32(seed)) + seed)
    return ((z >> 11) + 1) * _TWO_NEG_53


def derive_seed(base: int, j: int) -> int:
    """j-th seed of the hash family rooted at ``base``."""
    return fin64(base + j * GOLDEN64)


_U64 = np.uint64
_S33 = _U64(33)
_S32 = _U64(32)
_S11 = _U64(11)
_VMUL1 = _U64(_MUL1)
_VMUL2 = _U64(_MUL2)
_VGOLDEN = _U64(GOLDEN64)


def fin64_vec(z: np.ndarray) -> np.ndarray:
    """Vectorized :func:`fin64` over uint64 arrays (wraps modulo 2**64)."""
    z = np.array(z, dtype=np.uint64, copy=True)
    z ^= z >> _S33
    z *= _VMUL1
    z ^= z >> _S33
    z *= _VMUL2
    z ^= z >> _S33
    return z


def uniform_hash_vec(element_ids, seeds) -> np.ndarray:
    """Vectorized :func:`uniform_hash`; ids broadcast against seeds."""
    ids = np.asarray(element_ids, dtype=np.uint64)
    s = np.asarray(seeds, dtype=np.uint64)
    rot = (s << _S32) | (s >> _S32)
    z = fin64_vec(fin64_vec(ids ^ rot) + s)
    return ((z >> _S11).astype(np.float64) + 1.0) * _TWO_NEG_53


def derive_seed_vec(base, js) -> np.ndarray:
    """Vectorized :func:`derive_seed`; bases and indices broadcast together."""
    base = np.asarray(base, dtype=np.uint64)
    js = np.asarray(js, dtype=np.uint64)
    return fin64_vec(base + js * _VGOLDEN)
