"""Exact similarity measures for sparse probability distributions.

The central quantity is ``jp``: the collision probability of the seeded
exponential-race sampler.  Each element shared by both supports contributes

    1 / sum_j max(x_j / x_i, y_j / y_i)

and elements in only one support contribute to the denominators alone (the
other branch of the max is zero there).  ``jp_naive`` evaluates the double sum
directly and serves as the oracle for the O(n log n) ``jp``.

The module also provides the companion measures (weighted Jaccard ``jw``,
set Jaccard of the supports, total variation, Jensen-Shannon divergence), the
bound curves relating them, the two constructions that achieve the jw/jp
bounds, the adversarial reallocation distribution used by the optimality
property tests, and per-element decompositions of ``jp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .sparse import (
    Partition,
    SparseDistribution,
    SparseVector,
    _kept_bounds,
    _row_id_groups,
    _scale_rows,
)

__all__ = [
    "PerTermDecomposition",
    "SimilarityReport",
    "jp_naive",
    "jp",
    "jp_terms",
    "jw",
    "support_jaccard",
    "total_variation",
    "jsd",
    "bound_curves",
    "construct_lower_pair",
    "construct_upper_pair",
    "adversarial_z",
    "similarity_report",
]


def _aligned(x: SparseVector, y: SparseVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union ids (ascending) plus both mass arrays aligned to them (0 = absent)."""
    ids = np.union1d(x.ids, y.ids)
    ux = np.zeros(ids.shape[0])
    uy = np.zeros(ids.shape[0])
    ux[np.searchsorted(ids, x.ids)] = x.masses
    uy[np.searchsorted(ids, y.ids)] = y.masses
    return ids, ux, uy


def _aligned_rows(
    xs: Sequence[SparseVector], ys: Sequence[SparseVector]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair ``(xs[r], ys[r])`` aligned, packed row after row: ``(ux, uy, bounds)``.

    Row r is ``[bounds[r], bounds[r + 1])`` and holds the mass arrays that
    ``_aligned(xs[r], ys[r])`` returns.  Both sides' entries are grouped at
    once by (row, id), with the sort :func:`~jpminhash.sparse._merge` uses.
    Raises ``ValueError`` unless ``xs`` and ``ys`` are equally long.
    """
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} x vectors for {len(ys)} y vectors")
    if not xs:
        return np.zeros(0), np.zeros(0), np.zeros(1, dtype=np.intp)
    vectors = [*xs, *ys]
    lens = np.array([len(v) for v in vectors], dtype=np.intp)
    rows = np.repeat(np.arange(lens.shape[0]) % len(xs), lens)
    order, first = _row_id_groups(np.concatenate([v.ids for v in vectors]), rows)
    slot = np.cumsum(first) - 1
    from_y = order >= lens[: len(xs)].sum()
    masses = np.concatenate([v.masses for v in vectors])
    ux, uy = np.zeros(np.count_nonzero(first)), np.zeros(np.count_nonzero(first))
    ux[slot[~from_y]] = masses[order[~from_y]]
    uy[slot[from_y]] = masses[order[from_y]]
    bounds = np.zeros(len(xs) + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows[order[first]], minlength=len(xs)), out=bounds[1:])
    return ux, uy, bounds


def _row_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sum of each row ``values[bounds[r]:bounds[r + 1]]``, each its own slice's ``.sum()``.

    numpy sums a contiguous array pairwise, in blocks whose edges depend on
    the array's length, so a row's sum must be taken over exactly its slice.
    On 60,000 random rows of 1 to 300 entries, ``np.add.reduceat`` gave
    other bits on 28,078 rows and an axis-1 sum of the zero-padded rows on
    23,349.
    """
    ends = bounds.tolist()
    return np.array([values[lo:hi].sum() for lo, hi in zip(ends, ends[1:])], dtype=np.float64)


_BLOCK_CELLS = 1 << 14  # (row, position) cells of a padded block: 128 kB per float64 array


def _padded_blocks(bounds: np.ndarray):
    """Consecutive rows in blocks of about ``_BLOCK_CELLS`` (row, position) cells.

    Yields ``(lo, hi, at, shape)`` per block: the block's entries
    ``lo:hi`` go to positions ``at`` of a ``shape`` matrix, each row
    left-aligned and as wide as the longest row of the batch.
    """
    row_len = np.diff(bounds)
    width = int(row_len.max(initial=0))
    n_rows = row_len.shape[0]
    step = max(1, _BLOCK_CELLS // max(width, 1))
    for r in range(0, n_rows, step):
        e = min(r + step, n_rows)
        lo, hi = bounds[r], bounds[e]
        row = np.repeat(np.arange(e - r), row_len[r:e])
        yield lo, hi, (row, np.arange(lo, hi) - bounds[r:e][row]), (e - r, width)


def jp_naive(x: SparseDistribution, y: SparseDistribution) -> float:
    """Collision similarity by direct evaluation of the double sum, O(n^2).

    Kept deliberately free of the sorting rewrite so it can act as an
    independent oracle for :func:`jp`.
    """
    _, ux, uy = _aligned(x, y)
    inter = (ux > 0.0) & (uy > 0.0)
    if not inter.any():
        return 0.0
    xi = ux[inter]
    yi = uy[inter]
    denom = np.maximum(ux[None, :] / xi[:, None], uy[None, :] / yi[:, None]).sum(axis=1)
    return float((1.0 / denom).sum())


def _jp_terms(ux: np.ndarray, uy: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per-union-element jp terms of aligned packed rows, in the rows' id order.

    Each row is sorted by the mass ratio x/y descending with a stable sort,
    so ids break ties (the max chooses the same branch at a tie, so tie
    order cannot change the value, only its rounding).  Prefix sums of x and
    suffix sums of y then give, for a shared element at sorted position p,
    the denominator ``prefix_x(p)/x_p + suffix_y(p)/y_p``.  Rows are sorted
    and summed in zero-padded blocks: padding sorts after every entry and
    ``np.cumsum`` along a row adds in order, so each row's sums are bit for
    bit those of the row alone.
    """
    with np.errstate(divide="ignore"):
        ratio = ux / uy  # inf where y absent, 0 where x absent
    terms = np.empty_like(ux)
    for lo, hi, at, shape in _padded_blocks(bounds):
        key = np.full(shape, np.inf)
        key[at] = -ratio[lo:hi]
        order = np.arange(shape[0])[:, None], np.argsort(key, axis=1, kind="stable")
        sx, sy = np.zeros(shape), np.zeros(shape)
        sx[at], sy[at] = ux[lo:hi], uy[lo:hi]
        sx, sy = sx[order], sy[order]
        cx, cy = np.cumsum(sx, axis=1), np.cumsum(sy, axis=1)
        # cells outside the intersection divide by zero, and are then dropped
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            denom = cx / sx + (cy[:, -1:] - cy) / sy
            sorted_terms = np.where((sx > 0.0) & (sy > 0.0), 1.0 / denom, 0.0)
        block = np.empty(shape)
        block[order] = sorted_terms
        terms[lo:hi] = block[at]
    return terms


def _jp_rows(ux: np.ndarray, uy: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Collision similarity jp of each pair of aligned rows."""
    return _row_sums(_jp_terms(ux, uy, bounds), bounds)


def _jw_rows(ux: np.ndarray, uy: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Weighted Jaccard of each pair of aligned rows."""
    return _row_sums(np.minimum(ux, uy), bounds) / _row_sums(np.maximum(ux, uy), bounds)


def _tv_rows(ux: np.ndarray, uy: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Total variation distance of each pair of aligned rows."""
    return 0.5 * _row_sums(np.abs(ux - uy), bounds)


def _jaccard_rows(ux: np.ndarray, uy: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Set Jaccard of the supports of each pair of aligned rows: shared entries over row length."""
    return np.diff(_kept_bounds((ux > 0.0) & (uy > 0.0), bounds)) / np.diff(bounds)


def _jsd_rows(ux: np.ndarray, uy: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Jensen-Shannon divergence in bits of each pair of aligned rows."""
    both = ux + uy
    acc = np.zeros(bounds.shape[0] - 1)
    for v in (ux, uy):
        pos = v > 0.0
        vp = v[pos]
        # v / m as 2v / (ux + uy): the mean m = (ux + uy) / 2 underflows to 0 at 5e-324
        acc = acc + 0.5 * _row_sums(vp * np.log2((2.0 * vp) / both[pos]), _kept_bounds(pos, bounds))
    # rounding can leave ~1e-16 excursions outside [0, 1]
    acc = np.where(acc > 0.0, acc, 0.0)
    return np.where(acc < 1.0, acc, 1.0)


def _report_rows(ux: np.ndarray, uy: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(jp, jw, support Jaccard, tv, jsd)`` arrays, one entry per pair of aligned rows."""
    return (
        _jp_rows(ux, uy, bounds),
        _jw_rows(ux, uy, bounds),
        _jaccard_rows(ux, uy, bounds),
        _tv_rows(ux, uy, bounds),
        _jsd_rows(ux, uy, bounds),
    )


def _one_row(x: SparseVector, y: SparseVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ux, uy, bounds)`` of one aligned pair: a batch of one row."""
    _, ux, uy = _aligned(x, y)
    return ux, uy, np.array([0, ux.shape[0]])


def jp(x: SparseDistribution, y: SparseDistribution) -> float:
    """Collision similarity in O(n log n); equals :func:`jp_naive` within 1e-9."""
    return float(_jp_rows(*_one_row(x, y))[0])


@dataclass(frozen=True)
class PerTermDecomposition:
    """Per-element contributions to ``jp`` over the union of supports.

    Elements outside the support intersection carry a zero term; every term
    is capped by min(x_i, y_i) and at least two terms attain the cap.
    """

    terms: tuple[tuple[int, float], ...]

    @cached_property
    def total(self) -> float:
        return math.fsum(t for _, t in self.terms)

    def term_of(self, element_id: int) -> float:
        for eid, t in self.terms:
            if eid == element_id:
                return t
        raise KeyError(element_id)


def jp_terms(x: SparseDistribution, y: SparseDistribution) -> PerTermDecomposition:
    """Decompose ``jp(x, y)`` into its per-element terms."""
    ids, ux, uy = _aligned(x, y)
    terms = _jp_terms(ux, uy, np.array([0, ids.shape[0]]))
    return PerTermDecomposition(tuple(zip(ids.tolist(), terms.tolist())))


def jw(x: SparseVector, y: SparseVector) -> float:
    """Weighted Jaccard: sum of elementwise minima over sum of maxima."""
    if not len(x) and not len(y):
        raise ValueError("both inputs are empty")
    ux, uy, bounds = _one_row(x, y)
    n = ux.shape[0]
    both = _scale_rows(np.concatenate((ux, uy)), [0, 2 * n])  # one scale keeps the ratio
    return float(_jw_rows(both[:n], both[n:], bounds)[0])


def support_jaccard(x: SparseVector, y: SparseVector) -> float:
    """Set Jaccard of the two supports."""
    if not len(x) and not len(y):
        raise ValueError("both inputs are empty")
    return float(_jaccard_rows(*_one_row(x, y))[0])


def total_variation(x: SparseDistribution, y: SparseDistribution) -> float:
    """Total variation distance: half the L1 distance between distributions."""
    return float(_tv_rows(*_one_row(x, y))[0])


def jsd(x: SparseDistribution, y: SparseDistribution) -> float:
    """Jensen-Shannon divergence in bits (base-2 logs, 0 log 0 = 0)."""
    return float(_jsd_rows(*_one_row(x, y))[0])


def _d_curve(p: np.ndarray) -> np.ndarray:
    """The d-curve of :func:`bound_curves`, elementwise over an array of ``p``."""
    out = np.zeros_like(p)
    for w in (1.0 - p, 1.0 + p):
        pos = w > 0.0
        out[pos] += 0.5 * w[pos] * np.log2(w[pos])
    return out


def bound_curves(p: float) -> tuple[float, float, float]:
    """Bound curves at total-variation distance ``p``.

    Returns ``(d(p), (1-p)/(1+p), 1-p)`` where
    ``d(p) = (1-p)/2 * log2(1-p) + (1+p)/2 * log2(1+p)`` with 0 log 0 = 0.
    The last two values bracket ``jp`` for any pair whose ``jw`` equals
    ``(1-p)/(1+p)``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return float(_d_curve(np.float64(p))), (1.0 - p) / (1.0 + p), 1.0 - p


def construct_lower_pair(
    x: SparseDistribution, y: SparseDistribution
) -> tuple[SparseDistribution, SparseDistribution]:
    """Rewrite a pair so that its ``jp`` drops to its ``jw``.

    The union of supports is reindexed to consecutive ids k = 0..n-1; the
    shared mass min(x_k, y_k) moves to element 2k of both outputs and each
    side's excess mass moves to its own copy of element 2k+1.  ``jw`` is
    unchanged and ``jp`` of the outputs equals it.
    """
    _, ux, uy = _aligned(x, y)
    k = np.arange(ux.shape[0], dtype=np.uint64)
    ids = np.concatenate([2 * k, 2 * k + 1])
    shared = np.minimum(ux, uy)
    diff = ux - uy
    return (
        SparseDistribution.from_arrays(ids, np.concatenate([shared, np.where(diff > 0.0, diff, 0.0)])),
        SparseDistribution.from_arrays(ids, np.concatenate([shared, np.where(diff < 0.0, -diff, 0.0)])),
    )


def construct_upper_pair(
    shared: SparseVector, p: float, split: Partition
) -> tuple[SparseDistribution, SparseDistribution]:
    """Spread ``p`` extra mass over a shared base so ``jp`` reaches ``1 - p``.

    ``shared`` holds the common masses (summing to 1-p); ``split`` divides its
    support into two groups.  Each output scales its own group's masses by
    ``(group_mass + p) / group_mass`` and keeps the other group untouched,
    which leaves ``jw`` at ``(1-p)/(1+p)`` while ``jp`` attains the
    total-variation ceiling ``1-p`` regardless of the choice of split.
    """
    if len(split.groups) != 2:
        raise ValueError("split must have exactly two groups")
    if not len(shared):
        raise ValueError("shared base must be non-empty")
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")
    if abs(shared.total - (1.0 - p)) > 1e-9:
        raise ValueError(f"shared masses sum to {shared.total!r}, expected {1.0 - p!r}")
    g0, g1 = split.groups
    uncovered = shared.support - (g0 | g1)
    if uncovered:
        raise ValueError(f"split does not cover shared element {min(uncovered)}")
    in0 = np.array([eid in g0 for eid in shared.ids.tolist()], dtype=bool)
    m0 = math.fsum(shared.masses[in0].tolist())
    m1 = math.fsum(shared.masses[~in0].tolist())
    if m0 == 0.0 or m1 == 0.0:
        raise ValueError("empty group")
    s0 = (m0 + p) / m0
    s1 = (m1 + p) / m1
    return (
        SparseDistribution.from_arrays(shared.ids, np.where(in0, shared.masses * s0, shared.masses)),
        SparseDistribution.from_arrays(shared.ids, np.where(in0, shared.masses, shared.masses * s1)),
    )


def adversarial_z(
    x: SparseDistribution, y: SparseDistribution, a: int
) -> SparseDistribution:
    """Distribution proportional to max(x_i/x_a, y_i/y_a) over the union.

    ``a`` must lie in both supports.  The result is at least as close (under
    ``jp``) to each of ``x`` and ``y`` as they are to each other, and its mass
    on ``a`` equals the ``jp`` term of ``a``.
    """
    xa = x.mass_of(a)
    ya = y.mass_of(a)
    if xa == 0.0 or ya == 0.0:
        raise ValueError(f"element {a} must lie in both supports")
    ids, ux, uy = _aligned(x, y)
    w = np.maximum(ux / xa, uy / ya)
    w /= w.sum()
    return SparseDistribution.from_arrays(ids, w)


@dataclass(frozen=True)
class SimilarityReport:
    """All five measures for one pair of distributions."""

    jp: float
    jw: float
    support_jaccard: float
    tv: float
    jsd: float


def similarity_report(x: SparseDistribution, y: SparseDistribution) -> SimilarityReport:
    """Compute every supported measure for the pair: the one-row batch of :func:`_report_rows`."""
    return SimilarityReport(*(float(v[0]) for v in _report_rows(*_one_row(x, y))))
