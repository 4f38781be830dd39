"""Sparse vector, distribution, and partition invariants."""

import numpy as np
import pytest

from jpminhash.sparse import (
    Partition,
    SparseDistribution,
    SparseVector,
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
