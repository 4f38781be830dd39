"""Sparse vector, distribution, and partition invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpminhash import sparse
from jpminhash.sparse import (
    Partition,
    SparseDistribution,
    SparseVector,
    _normalize_rows,
    _scale_rows,
    coarsen,
    normalize,
)


def test_normalize_symmetric_masses():
    d = normalize(SparseVector(((1, 2.0), (2, 2.0))))
    assert d.entries == ((1, 0.5), (2, 0.5))


def test_normalize_single_element():
    assert normalize(SparseVector(((7, 5.0),))).entries == ((7, 1.0),)


def test_normalize_empty_is_degenerate():
    with pytest.raises(ValueError, match="degenerate distribution"):
        normalize(SparseVector(()))


def test_entry_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        SparseVector(((2, 1.0), (1, 1.0)))
    with pytest.raises(ValueError, match="strictly increasing"):
        SparseVector(((2, 1.0), (2, 1.0)))
    with pytest.raises(ValueError, match="positive and finite"):
        SparseVector(((1, 0.0),))
    with pytest.raises(ValueError, match="positive and finite"):
        SparseVector(((1, float("nan")),))
    with pytest.raises(ValueError, match="strictly increasing"):
        SparseVector(((2**64 - 1, 1.0), (0, 1.0)))  # uint64 differences would wrap
    with pytest.raises(ValueError, match="64-bit"):
        SparseVector(((2**64, 1.0),))


def test_from_pairs_merges_and_sorts():
    v = SparseVector.from_pairs([(5, 1.0), (1, 2.0), (5, 0.5)])
    assert v.entries == ((1, 2.0), (5, 1.5))
    ends = SparseVector.from_pairs([(2**64 - 1, 0.25), (0, 0.75)])
    assert ends.entries == ((0, 0.75), (2**64 - 1, 0.25))
    # repeats add in input order: (0.1 + 0.2) + 0.3, which differs from 0.1 + (0.2 + 0.3)
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    repeats = SparseVector.from_pairs([(9, 0.1), (1, 1.0), (9, 0.2), (9, 0.3)])
    assert repeats.entries == ((1, 1.0), (9, (0.1 + 0.2) + 0.3))


def test_from_dense_skips_zeros():
    v = SparseVector.from_dense([0.0, 0.5, 0.0, 0.5])
    assert v.entries == ((1, 0.5), (3, 0.5))


def test_distribution_must_sum_to_one():
    with pytest.raises(ValueError, match="sum"):
        SparseDistribution(((0, 0.5), (1, 0.4)))
    d = SparseDistribution(((0, 0.5), (1, 0.5)))
    assert d.total == 1.0


def test_mass_of_and_support():
    d = SparseDistribution(((3, 0.25), (9, 0.75)))
    assert d.mass_of(3) == 0.25
    assert d.mass_of(4) == 0.0
    assert SparseDistribution(((0, 0.5), (2**64 - 1, 0.5))).mass_of(2**64 - 1) == 0.5
    assert d.support == frozenset({3, 9})


def test_arrays_are_read_only():
    d = SparseDistribution(((0, 0.5), (1, 0.5)))
    with pytest.raises(ValueError):
        d.masses[0] = 1.0
    assert d.ids.dtype == np.uint64


def test_partition_validation():
    with pytest.raises(ValueError, match="disjoint"):
        Partition.of([1, 2], [2, 3])
    with pytest.raises(ValueError, match="empty"):
        Partition.of([1], [])


def test_coarsen_merges_masses():
    x = SparseDistribution(((1, 0.5), (2, 0.4), (3, 0.1)))
    out = coarsen(x, Partition.of([1], [2, 3]))
    assert out.entries == ((1, 0.5), (2, 0.5))


def test_coarsen_singletons_is_identity():
    x = SparseDistribution(((1, 0.5), (2, 0.4), (3, 0.1)))
    assert coarsen(x, Partition.singletons([1, 2, 3])).entries == x.entries


def test_coarsen_allows_extra_ids_but_not_uncovered_support():
    x = SparseDistribution(((1, 0.6), (2, 0.4)))
    out = coarsen(x, Partition.of([1, 99], [2]))
    assert out.entries == ((1, 0.6), (2, 0.4))
    with pytest.raises(ValueError, match="does not cover element 2"):
        coarsen(x, Partition.of([1],))


def test_normalize_is_scale_consistent_for_powers_of_two():
    v = SparseVector(((1, 0.3), (5, 1.2), (9, 0.01)))
    d = normalize(v)
    scaled = SparseVector(tuple((i, 8.0 * m) for i, m in v.entries))
    assert normalize(scaled).entries == d.entries
    # the total, 2.5e308, is past the float range
    huge = normalize(SparseVector(((0, 1e308), (1, 1.5e308))))
    assert huge.masses.tolist() == pytest.approx([0.4, 0.6], abs=1e-15)


# --- exact row totals -----------------------------------------------------------

def _fsum_rows(masses, bounds):
    """The reference :func:`_normalize_rows`: each scaled row divided by its ``math.fsum``."""
    masses = _scale_rows(masses, bounds)
    totals = [math.fsum(masses[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:])]
    return masses / np.repeat(totals, np.diff(bounds))


def _packed(rows):
    bounds = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum([len(r) for r in rows], out=bounds[1:])
    return np.concatenate(rows).astype(np.float64), bounds


def _assert_fsum_bits(rows):
    masses, bounds = _packed(rows)
    got = _normalize_rows(masses, bounds)
    assert got.tobytes() == _fsum_rows(masses, bounds).tobytes()


def _count_fsum(monkeypatch):
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(sparse.math, "fsum", lambda xs: calls.append(len(xs)) or fsum(xs))
    return calls


@st.composite
def _rows(draw):
    """A row of 1-2,000 nonnegative masses, not all zero, spanning the float range."""
    if draw(st.booleans()):
        row = draw(st.lists(st.floats(0.0, 1.7e308), min_size=1, max_size=40))
        return np.array(row) if any(row) else np.array(row + [5e-324])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 2000))
    kind = draw(st.sampled_from(["exponential", "powers-of-two", "ties", "integers"]))
    if kind == "exponential":
        row = rng.exponential(size=n)
    elif kind == "powers-of-two":
        row = np.ldexp(1.0, -rng.integers(0, 60, n))
    elif kind == "ties":  # halves and 2**-54, whose sums land on and between ties
        row = np.where(rng.random(n) < 0.5, 2.0**-54, np.ldexp(1.0, -rng.integers(0, 3, n)))
    else:
        row = np.ldexp(rng.integers(1, 2**20, n).astype(np.float64), -rng.integers(0, 80, n))
    row[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    row[rng.integers(n)] = row.max() if row.any() else 1.0
    # largest mass 2**shift times [1, 2): subnormal up to just below 1.8e308
    row = row / row.max() * draw(st.floats(1.0, 1.99))
    return np.ldexp(row, draw(st.integers(-1074, 1023)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_rows(), min_size=1, max_size=4))
def test_normalize_rows_equals_per_row_fsum(rows):
    _assert_fsum_bits(rows)


def test_normalize_rows_sums_ordinary_rows_without_fsum(monkeypatch):
    calls = _count_fsum(monkeypatch)
    _assert_fsum_bits([np.arange(1.0, 301.0), np.array([0.5, 0.25, 0.0, 3.0])])
    assert calls == [300, 4]  # the reference's calls only


def test_normalize_rows_falls_back_near_a_tie(monkeypatch):
    # fsum is 0.5 + 2**-53, but the two split sums 0.5 and 2**-54 round to 0.5
    row = np.array([0.5, 2.0**-54, 2.0**-200])
    calls = _count_fsum(monkeypatch)
    out = _normalize_rows(row, np.array([0, 3]))
    assert calls == [3]
    assert out.tolist() == (row / (0.5 + 2.0**-53)).tolist()


def test_normalize_rows_falls_back_on_a_row_of_2_13_entries(monkeypatch):
    rng = np.random.default_rng(19)
    calls = _count_fsum(monkeypatch)
    _assert_fsum_bits([rng.exponential(size=2**13 - 1), rng.exponential(size=2**13)])
    assert calls == [2**13, 2**13 - 1, 2**13]  # the long row's fallback, then the reference
