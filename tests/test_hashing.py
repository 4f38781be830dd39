"""Bit-exact contract of the hashing primitives."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jpminhash
from jpminhash.hashing import (
    GOLDEN64,
    MASK64,
    derive_seed,
    derive_seed_vec,
    fin64,
    fin64_vec,
    rotl32,
    uniform_hash,
    uniform_hash_vec,
)


def _fin64_reference(z: int) -> int:
    # independent restatement of the finalizer used to pin the contract
    z &= MASK64
    z = (z ^ (z >> 33)) & MASK64
    z = (z * 0xFF51AFD7ED558CCD) & MASK64
    z = (z ^ (z >> 33)) & MASK64
    z = (z * 0xC4CEB9FE1A85EC53) & MASK64
    z = (z ^ (z >> 33)) & MASK64
    return z


def test_fin64_matches_reference_bit_ops():
    rng = np.random.default_rng(1)
    for z in [0, 1, 2, MASK64, 0xDEADBEEF] + [int(v) for v in rng.integers(0, 2**63, 50)]:
        assert fin64(z) == _fin64_reference(z)


def test_uniform_hash_golden_values():
    # frozen regression fixtures, computed once from the bit contract
    assert uniform_hash(0, 0) == 2.0**-53
    assert uniform_hash(1, 0) == 0.48996417306913687
    assert uniform_hash(0, 1) == 0.20263755323248567
    assert uniform_hash(0xDEADBEEF, 0x12345) == 0.7489865796496973
    assert fin64(1) == 12994781566227106604
    assert derive_seed(0, 1) == 11286133854226296554
    assert derive_seed(42, 3) == 8614243093142228113


def test_uniform_hash_full_construction():
    # ((z >> 11) + 1) * 2**-53 with z = fin64(fin64(id ^ rotl32(seed)) + seed)
    for eid, seed in [(0, 0), (3, 7), (2**63, 2**64 - 1), (12345, 678910)]:
        z = _fin64_reference((_fin64_reference(eid ^ rotl32(seed)) + seed) & MASK64)
        assert uniform_hash(eid, seed) == ((z >> 11) + 1) * 2.0**-53


def test_rotl32_swaps_halves():
    assert rotl32(0x00000000FFFFFFFF) == 0xFFFFFFFF00000000
    assert rotl32(0x0123456789ABCDEF) == 0x89ABCDEF01234567
    assert rotl32(rotl32(0xDEADBEEF12345678)) == 0xDEADBEEF12345678


def test_output_range_and_determinism():
    rng = np.random.default_rng(2)
    for _ in range(500):
        eid = int(rng.integers(0, 2**64, dtype=np.uint64))
        seed = int(rng.integers(0, 2**64, dtype=np.uint64))
        u = uniform_hash(eid, seed)
        assert 0.0 < u <= 1.0
        assert uniform_hash(eid, seed) == u


def test_derive_seed_is_finalized_weyl_sequence():
    base = 0xCAFEBABE
    for j in range(20):
        assert derive_seed(base, j) == fin64((base + j * GOLDEN64) & MASK64)


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(3)
    ids = rng.integers(0, 2**64, size=40, dtype=np.uint64)
    seeds = rng.integers(0, 2**64, size=17, dtype=np.uint64)
    u = uniform_hash_vec(ids[:, None], seeds[None, :])
    for i, eid in enumerate(ids):
        for j, s in enumerate(seeds):
            assert u[i, j] == uniform_hash(int(eid), int(s))
    zs = rng.integers(0, 2**64, size=100, dtype=np.uint64)
    assert all(int(a) == fin64(int(z)) for a, z in zip(fin64_vec(zs), zs))
    ds = derive_seed_vec(123, np.arange(16))
    assert all(int(a) == derive_seed(123, j) for j, a in enumerate(ds))


@pytest.mark.parametrize("n", [1000])
def test_uniform_hash_is_roughly_uniform(n):
    u = uniform_hash_vec(np.arange(n, dtype=np.uint64), np.uint64(99))
    assert abs(u.mean() - 0.5) < 0.05
    assert 0.95 < 12.0 * u.var() < 1.05  # Var of U(0,1) is 1/12


def test_golden_digests_under_reduced_simd_dispatch():
    # np.log's last bit may follow numpy's SIMD dispatch; the artifacts must not
    from numpy._core import _multiarray_umath as umath

    off = [f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
           if f in umath.__cpu_dispatch__ and umath.__cpu_features__.get(f)]
    if not off:
        pytest.skip("numpy dispatches to none of the AVX-512 targets here")
    code = (
        "import sys, pytest\n"
        "from numpy._core import _multiarray_umath as umath\n"
        f"assert not any(umath.__cpu_features__[f] for f in {off!r}), 'dispatch not reduced'\n"
        "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', sys.argv[1]]))\n"
    )
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES=" ".join(off),
        PYTHONPATH=str(Path(jpminhash.__file__).parents[1]),
    )
    golden = Path(__file__).with_name("test_golden.py")
    done = subprocess.run(
        [sys.executable, "-c", code, str(golden)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout + done.stderr
