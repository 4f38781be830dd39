"""Sparse nonnegative vectors, probability distributions and partitions.

Element ids are unsigned 64-bit integers.  Entries are kept sorted by id and
zero-mass entries are never stored, so the support of a vector is exactly the
set of stored ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

__all__ = [
    "MAX_ID",
    "NORMALIZATION_TOL",
    "SparseVector",
    "SparseDistribution",
    "normalize",
    "Partition",
    "coarsen",
]

MAX_ID = (1 << 64) - 1

# Tolerance for "sums to one": double-precision accumulation over supports of
# up to ~1e5 entries stays orders of magnitude inside it.
NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True, init=False, eq=False)
class SparseVector:
    """Nonnegative vector: sorted distinct uint64 ids and their float64 masses.

    Both arrays are read-only and every mass is positive and finite.
    ``SparseVector(entries)`` takes ``(id, mass)`` pairs already in that form;
    :meth:`from_arrays` builds from unordered input.
    """

    ids: np.ndarray
    masses: np.ndarray

    def __init__(self, entries: Iterable[tuple[int, float]] = ()) -> None:
        self._set(*_arrays(entries))

    def _set(self, ids: np.ndarray, masses: np.ndarray) -> None:
        if (ids[1:] <= ids[:-1]).any():  # not np.diff: uint64 differences wrap
            raise ValueError("element ids must be strictly increasing")
        _check_masses(ids, masses)
        ids.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "masses", masses)

    @classmethod
    def _rows(cls, ids: np.ndarray, masses: np.ndarray, bounds) -> list:
        """Row r of a packed batch, ``[bounds[r], bounds[r + 1])``, as a vector of this class.

        The trusted constructor: each vector is a read-only view of the
        batch, which must already be in this class's form (ids strictly
        increasing within a row, masses positive and finite, for a
        distribution summing to one).  Nothing is sorted, checked or summed.
        """
        ids.setflags(write=False)
        masses.setflags(write=False)
        bounds = np.asarray(bounds).tolist()
        out = []
        for lo, hi in zip(bounds, bounds[1:]):
            v = cls.__new__(cls)
            object.__setattr__(v, "ids", ids[lo:hi])
            object.__setattr__(v, "masses", masses[lo:hi])
            out.append(v)
        return out

    @classmethod
    def from_arrays(cls, ids, masses) -> "SparseVector":
        """Build from parallel id and mass arrays in any order.

        Ids are sorted and masses of a repeated id add in input order, by
        the merge :func:`_distributions` runs on each row; zero masses drop.
        The caller's arrays are copied, never frozen.
        """
        ids = _id_array(ids)
        masses = np.asarray(masses, dtype=np.float64)
        if ids.ndim != 1 or ids.shape != masses.shape:
            raise ValueError("ids and masses must be 1-D arrays of one length")
        if (ids[1:] <= ids[:-1]).any():
            ids, masses, _ = _merge(ids, masses, np.zeros(ids.shape[0], dtype=np.intp))
        keep = masses != 0.0
        v = cls.__new__(cls)
        v._set(ids[keep], masses[keep])
        return v

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "SparseVector":
        """Build from unordered pairs: duplicates add, zero masses drop."""
        return cls.from_arrays(*_arrays(pairs))

    @classmethod
    def from_dense(cls, masses: Iterable[float]) -> "SparseVector":
        """Vector over ids 0..n-1; zero positions are skipped."""
        arr = np.fromiter(masses, dtype=np.float64)
        return cls.from_arrays(np.arange(arr.shape[0], dtype=np.uint64), arr)

    @cached_property
    def entries(self) -> tuple[tuple[int, float], ...]:
        return tuple(zip(self.ids.tolist(), self.masses.tolist()))

    @cached_property
    def total(self) -> float:
        return math.fsum(self.masses.tolist())

    @cached_property
    def support(self) -> frozenset[int]:
        return frozenset(self.ids.tolist())

    def mass_of(self, element_id: int) -> float:
        """Mass of an element, 0.0 if absent."""
        pos = int(np.searchsorted(self.ids, element_id))
        if pos < len(self) and self.ids[pos] == element_id:
            return float(self.masses[pos])
        return 0.0

    def __len__(self) -> int:
        return self.ids.shape[0]

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.ids, other.ids) and np.array_equal(self.masses, other.masses)

    def __hash__(self) -> int:
        return hash(self.entries)


def _arrays(pairs: Iterable[tuple[int, float]]) -> tuple[np.ndarray, np.ndarray]:
    """Id and mass arrays of (id, mass) pairs, in input order."""
    pairs = tuple(pairs)
    return _id_array([i for i, _ in pairs]), np.array([m for _, m in pairs], dtype=np.float64)


def _check_masses(ids: np.ndarray, masses: np.ndarray) -> None:
    """Raise for the first mass that is not positive and finite."""
    bad = ~(np.isfinite(masses) & (masses > 0.0))
    if bad.any():
        raise ValueError(f"mass for element {ids[bad][0]} must be positive and finite")


def _id_ranks(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct, rank)``: the sorted distinct ids, and each entry's index into them.

    This is ``np.unique(ids, return_inverse=True)``, from one argsort: the
    running count of distinct ids along the sorted entries is scattered back
    to the entries' places.
    """
    order = np.argsort(ids)
    ordered = ids[order]
    new = np.ones(ids.shape[0], dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    distinct = ordered[new]
    counts = np.cumsum(new, out=ordered.view(np.intp))  # reuses the sorted ids: one array fewer
    counts -= 1
    rank = np.empty(ids.shape[0], dtype=np.intp)
    rank[order] = counts
    return distinct, rank


def _row_id_groups(ids: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, first)``: the stable order of entries by (row, id), and where each (row, id) starts.

    ``first`` is over the sorted entries, true at the first entry of each
    distinct (row, id).  Rows are non-negative, and their largest times the
    number of distinct ids stays below 2**63: the order is one stable sort
    of the key ``row * n_distinct + rank`` of each entry's id.
    """
    distinct, rank = _id_ranks(ids)
    key = rows * distinct.shape[0] + rank
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(key.shape[0], dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return order, first


def _merge(ids: np.ndarray, masses: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(ids, masses, rows)`` sorted by (row, id); an id's repeats in a row add in input order."""
    order, first = _row_id_groups(ids, rows)
    masses = np.bincount(np.cumsum(first) - 1, weights=masses[order], minlength=int(first.sum()))
    kept = order[first]
    return ids[kept], masses, rows[kept]


def _kept_bounds(keep: np.ndarray, bounds) -> np.ndarray:
    """Row bounds of a packed batch after only its entries where ``keep`` holds are kept."""
    counts = np.zeros(keep.shape[0] + 1, dtype=np.intp)
    np.cumsum(keep, out=counts[1:])
    return counts[bounds]


def _id_array(ids) -> np.ndarray:
    """Ids as a uint64 array; an id outside the unsigned 64-bit range raises, never wraps."""
    if isinstance(ids, np.ndarray) and ids.dtype == np.uint64:
        return ids
    ints = [int(i) for i in ids]
    for i in ints:
        if not 0 <= i <= MAX_ID:
            raise ValueError(f"element id {i} outside unsigned 64-bit range")
    return np.array(ints, dtype=np.uint64)


class SparseDistribution(SparseVector):
    """Sparse vector whose masses sum to one within :data:`NORMALIZATION_TOL`."""

    def _set(self, ids: np.ndarray, masses: np.ndarray) -> None:
        super()._set(ids, masses)
        if not len(self):
            raise ValueError("degenerate distribution")
        if abs(self.total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"masses sum to {self.total!r}, not 1")


def _scale_rows(masses: np.ndarray, bounds) -> np.ndarray:
    """Each row's masses scaled by the power of two that brings its largest into [0.5, 1).

    Row r is ``masses[bounds[r]:bounds[r + 1]]``; no row may be empty.
    Sums of a scaled row then stay finite for masses near 1e308, and keys
    ``-log(u) / mass`` stay finite for subnormal masses.  Scaling by a
    power of two is exact while the scaled masses stay normal floats, so
    sums, ratios and keys of a row scale by that same power: samples keep
    their winners and ratios their value.
    """
    bounds = np.asarray(bounds)
    exps = np.frexp(np.maximum.reduceat(masses, bounds[:-1]))[1]
    return np.ldexp(masses, -np.repeat(exps, np.diff(bounds)))


def _normalize_rows(masses: np.ndarray, bounds) -> np.ndarray:
    """Each row ``[bounds[r], bounds[r + 1])`` divided by its total, as :func:`normalize` divides.

    A row is scaled with :func:`_scale_rows` and divided by the
    ``math.fsum`` of its scaled masses.  No row may be empty or all zero;
    zeros inside a row stay zero and change no other mass.

    The totals are ``math.fsum``'s bits, found for all rows at once by an
    error-free split of each mass (as in the extraction of Rump, Ogita and
    Oishi, "Accurate Floating-Point Summation Part I", 2008).  A scaled mass
    ``s`` lies in [0, 1); ``high = floor(s * 2**40)`` and
    ``low = floor(frac * 2**40)``, with ``frac = s * 2**40 - high``, are
    exact integers below 2**40, and ``s`` exceeds
    ``high * 2**-40 + low * 2**-80`` by less than 2**-80.  In a row of
    n < 2**13 entries every partial sum of ``high`` or of ``low`` is an
    integer below 2**53, so ``np.add.reduceat`` sums them exactly in any
    order, and the row's exact total lies in
    ``[hi + mid, hi + mid + n * 2**-80)`` for ``hi = sum(high) * 2**-40``
    and ``mid = sum(low) * 2**-80``.  Rounding to nearest is monotonic, so
    when ``hi + mid`` rounds to the same double as
    ``hi + (mid + n * 2**-79)``, an upper end past that interval even after
    its inner rounding, so does the exact total: that double is the row's
    ``math.fsum``.  A row where the two differ, as near a tie, or of 2**13
    entries or more, is summed by ``math.fsum``.
    """
    masses = _scale_rows(masses, bounds)
    bounds = np.asarray(bounds)
    lengths = np.diff(bounds)
    frac, high = np.modf(masses * 2.0**40)
    hi = np.add.reduceat(high, bounds[:-1]) * 2.0**-40
    mid = np.add.reduceat(np.floor(frac * 2.0**40), bounds[:-1]) * 2.0**-80
    totals = hi + mid
    unsure = (hi + (mid + lengths * 2.0**-79) != totals) | (lengths >= 2**13)
    for r in np.flatnonzero(unsure).tolist():
        totals[r] = math.fsum(masses[bounds[r]:bounds[r + 1]].tolist())
    return masses / np.repeat(totals, lengths)


def _distributions(ids: np.ndarray, masses: np.ndarray, row_len) -> tuple[list, np.ndarray]:
    """Distributions of rows of unordered ``(id, mass)`` entries, and the numbers of the rows kept.

    Row r is the ``row_len[r]`` entries after row r - 1's.  Each row merges
    as in :meth:`SparseVector.from_arrays` and zeros drop; an empty row is
    skipped.  One check, with the message of :meth:`SparseVector.from_arrays`,
    covers the batch before rows are divided as :func:`_normalize_rows`
    divides: an all-negative row would divide to positive masses, and
    positive finite masses divided by their ``fsum`` stay finite and sum to
    one within rounding.  Masses that round to zero then drop.
    """
    ids, masses, rows = _merge(ids, masses, np.repeat(np.arange(len(row_len)), row_len))
    keep = masses != 0.0
    ids, masses, rows = ids[keep], masses[keep], rows[keep]
    _check_masses(ids, masses)
    lengths = np.bincount(rows, minlength=len(row_len))
    kept = np.flatnonzero(lengths)
    bounds = np.zeros(kept.shape[0] + 1, dtype=np.intp)
    np.cumsum(lengths[kept], out=bounds[1:])
    masses = _normalize_rows(masses, bounds)  # scaled rows sum without overflow near 1e308
    keep = masses != 0.0  # a mass far below its row's largest can round to zero
    return SparseDistribution._rows(ids[keep], masses[keep], _kept_bounds(keep, bounds)), kept


def normalize(v: SparseVector) -> SparseDistribution:
    """Scale a nonnegative vector to total mass one: a one-row :func:`_distributions`.

    Raises ``ValueError("degenerate distribution")`` for an empty (equivalently
    all-zero) vector.
    """
    if not len(v):
        raise ValueError("degenerate distribution")
    return _distributions(v.ids, v.masses, [len(v)])[0][0]


@dataclass(frozen=True)
class Partition:
    """Disjoint groups of element ids.

    A merged group is identified by its smallest member id, so coarsening by
    singletons is the identity map.
    """

    groups: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "groups", tuple(frozenset(int(i) for i in g) for g in self.groups)
        )
        seen: set[int] = set()
        for g in self.groups:
            if not g:
                raise ValueError("empty partition group")
            if seen & g:
                raise ValueError("partition groups must be disjoint")
            seen |= g

    @classmethod
    def of(cls, *groups: Iterable[int]) -> "Partition":
        return cls(tuple(frozenset(g) for g in groups))

    @classmethod
    def singletons(cls, ids: Iterable[int]) -> "Partition":
        return cls(tuple(frozenset((int(i),)) for i in ids))


def coarsen(x: SparseDistribution, partition: Partition) -> SparseDistribution:
    """Push a distribution forward through a partition: member masses add.

    Every support element of ``x`` must be covered by some group; groups may
    also contain ids outside the support.
    """
    owner = {eid: gi for gi, g in enumerate(partition.groups) for eid in g}
    sums: dict[int, list[float]] = {}
    for eid, m in zip(x.ids.tolist(), x.masses.tolist()):
        gi = owner.get(eid)
        if gi is None:
            raise ValueError(f"partition does not cover element {eid}")
        sums.setdefault(gi, []).append(m)
    return SparseDistribution.from_arrays(
        [min(partition.groups[gi]) for gi in sums], [math.fsum(ms) for ms in sums.values()]
    )
