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

import numpy as np

from .sparse import Partition, SparseDistribution, SparseVector, _scale_rows

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


def _terms_from(ids: np.ndarray, ux: np.ndarray, uy: np.ndarray) -> np.ndarray:
    """Per-union-element jp terms from aligned mass arrays.

    Sorts the union by the mass ratio x/y descending (ids break ties; the max
    chooses the same branch at a tie, so tie order cannot change the value)
    and accumulates prefix sums of x and suffix sums of y: for a shared
    element at sorted position p the denominator is
    ``prefix_x(p)/x_p + suffix_y(p)/y_p``.
    """
    with np.errstate(divide="ignore"):
        ratio = ux / uy  # inf where y absent, 0 where x absent
    order = np.lexsort((ids, -ratio))
    sx = ux[order]
    sy = uy[order]
    cx = np.cumsum(sx)
    cy = np.cumsum(sy)
    sy_total = cy[-1] if cy.size else 0.0
    inter = (sx > 0.0) & (sy > 0.0)
    terms_sorted = np.zeros(ids.shape[0])
    if inter.any():
        denom = cx[inter] / sx[inter] + (sy_total - cy[inter]) / sy[inter]
        terms_sorted[inter] = 1.0 / denom
    terms = np.empty_like(terms_sorted)
    terms[order] = terms_sorted
    return terms


def jp(x: SparseDistribution, y: SparseDistribution) -> float:
    """Collision similarity in O(n log n); equals :func:`jp_naive` within 1e-9."""
    ids, ux, uy = _aligned(x, y)
    return float(_terms_from(ids, ux, uy).sum())


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
    terms = _terms_from(ids, ux, uy)
    return PerTermDecomposition(tuple((int(i), float(t)) for i, t in zip(ids, terms)))


def _jw_from(ux: np.ndarray, uy: np.ndarray) -> float:
    """Weighted Jaccard of two aligned mass arrays."""
    return float(np.minimum(ux, uy).sum() / np.maximum(ux, uy).sum())


def jw(x: SparseVector, y: SparseVector) -> float:
    """Weighted Jaccard: sum of elementwise minima over sum of maxima."""
    if not len(x) and not len(y):
        raise ValueError("both inputs are empty")
    _, ux, uy = _aligned(x, y)
    n = ux.shape[0]
    both = _scale_rows(np.concatenate((ux, uy)), [0], [2 * n])  # one scale keeps the ratio
    return _jw_from(both[:n], both[n:])


def support_jaccard(x: SparseVector, y: SparseVector) -> float:
    """Set Jaccard of the two supports."""
    if not len(x) and not len(y):
        raise ValueError("both inputs are empty")
    a = x.support
    b = y.support
    return len(a & b) / len(a | b)


def _tv_from(ux: np.ndarray, uy: np.ndarray) -> float:
    """Total variation distance of two aligned mass arrays."""
    return float(0.5 * np.abs(ux - uy).sum())


def total_variation(x: SparseDistribution, y: SparseDistribution) -> float:
    """Total variation distance: half the L1 distance between distributions."""
    _, ux, uy = _aligned(x, y)
    return _tv_from(ux, uy)


def _jsd_from(ux: np.ndarray, uy: np.ndarray) -> float:
    """Jensen-Shannon divergence in bits of two aligned mass arrays."""
    m = 0.5 * (ux + uy)
    acc = 0.0
    for v in (ux, uy):
        pos = v > 0.0
        acc += 0.5 * float((v[pos] * np.log2(v[pos] / m[pos])).sum())
    # rounding can leave ~1e-16 excursions outside [0, 1]
    return min(1.0, max(0.0, acc))


def jsd(x: SparseDistribution, y: SparseDistribution) -> float:
    """Jensen-Shannon divergence in bits (base-2 logs, 0 log 0 = 0)."""
    _, ux, uy = _aligned(x, y)
    return _jsd_from(ux, uy)


def _half_xlog2(w: float) -> float:
    return 0.0 if w == 0.0 else 0.5 * w * math.log2(w)


def bound_curves(p: float) -> tuple[float, float, float]:
    """Bound curves at total-variation distance ``p``.

    Returns ``(d(p), (1-p)/(1+p), 1-p)`` where
    ``d(p) = (1-p)/2 * log2(1-p) + (1+p)/2 * log2(1+p)`` with 0 log 0 = 0.
    The last two values bracket ``jp`` for any pair whose ``jw`` equals
    ``(1-p)/(1+p)``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    d = _half_xlog2(1.0 - p) + _half_xlog2(1.0 + p)
    return d, (1.0 - p) / (1.0 + p), 1.0 - p


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
    """Compute every supported measure for the pair (one alignment pass)."""
    ids, ux, uy = _aligned(x, y)
    inter = (ux > 0.0) & (uy > 0.0)
    return SimilarityReport(
        jp=float(_terms_from(ids, ux, uy).sum()),
        jw=_jw_from(ux, uy),
        support_jaccard=float(inter.sum()) / ids.shape[0],
        tv=_tv_from(ux, uy),
        jsd=_jsd_from(ux, uy),
    )
