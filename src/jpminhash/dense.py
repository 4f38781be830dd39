"""Exponential-race sampling for dense measures via a bounded proposal search.

A fixed-seed proposal stream visits candidates in ascending arrival key; each
candidate's key is rescaled by the density ratio proposal/measure, and the
search stops as soon as no later arrival could beat the current best given a
global bound B on measure/proposal.  For finite measures the stream is
realized by sorting the per-element exponential keys of the proposal, which
is distributionally identical to drawing incremental truncated exponentials
and makes the result coincide exactly, seed by seed, with the sparse sampler
applied to the measure.  That sort hashes every proposal element up front, so
on finite measures early termination shortens only the visiting loop and
saves no hashing: the finite search is the seed-for-seed oracle for
``pminhash``, not a faster route to it.  Piecewise-constant densities on
[0, 1) use the incremental form with inverse-CDF position draws, where
stopping early does save work.

Measures store read-only float64 arrays, as sparse vectors do, and compare
by identity.  Finite searches run on copies scaled by a power of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Union

import numpy as np

from .hashing import CONTINUOUS_SALT, TILE_CELLS, derive_seed_vec, uniform_hash, uniform_hash_vec
from .sparse import _scale_rows

__all__ = [
    "FiniteMeasure",
    "PiecewiseDensity",
    "AStarResult",
    "global_bound",
    "proposal_stream",
    "astar_pminhash",
    "astar_collision",
    "refine_breakpoints",
    "piece_values_on",
]


def _freeze(measure, field: str) -> np.ndarray:
    """Set ``field`` of a frozen measure to a read-only float64 copy of its 1-D sequence."""
    a = np.array(getattr(measure, field), dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{field} must be a 1-D sequence of numbers")
    a.setflags(write=False)
    object.__setattr__(measure, field, a)
    return a


@dataclass(frozen=True, eq=False)
class FiniteMeasure:
    """Dense nonnegative measure; the index is the element id.

    ``masses`` is a read-only float64 array copied from any 1-D sequence.
    Measures compare and hash by identity.
    """

    masses: np.ndarray

    def __post_init__(self) -> None:
        m = _freeze(self, "masses")
        bad = ~(np.isfinite(m) & (m >= 0.0))
        if bad.any():
            raise ValueError(f"mass at index {int(np.argmax(bad))} must be finite and nonnegative")
        if not (m > 0.0).any():
            raise ValueError("measure must have positive total mass")

    @property
    def arr(self) -> np.ndarray:
        """``masses`` under the name ``perfbench`` reads."""
        return self.masses

    @cached_property
    def total(self) -> float:
        return math.fsum(self.masses.tolist())

    def __len__(self) -> int:
        return self.masses.shape[0]


@dataclass(frozen=True, eq=False)
class PiecewiseDensity:
    """Piecewise-constant density on [0, 1).

    ``breakpoints`` are strictly increasing, starting at 0 and ending at 1;
    ``values[i]`` is the density on [breakpoints[i], breakpoints[i+1]).  Both
    are read-only float64 arrays copied from any 1-D sequences.  Densities
    compare and hash by identity.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        bp, vals = _freeze(self, "breakpoints"), _freeze(self, "values")
        if bp.shape[0] < 2 or bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must run from 0.0 to 1.0")
        if not (bp[1:] > bp[:-1]).all():  # false on NaN too
            raise ValueError("breakpoints must be strictly increasing")
        if vals.shape[0] != bp.shape[0] - 1:
            raise ValueError("need exactly one density value per piece")
        if not (np.isfinite(vals) & (vals >= 0.0)).all():
            raise ValueError("density values must be finite and nonnegative")
        if not (vals > 0.0).any():
            raise ValueError("density must have at least one positive piece")

    @cached_property
    def piece_masses(self) -> np.ndarray:
        a = self.values * np.diff(self.breakpoints)
        a.setflags(write=False)
        return a

    @cached_property
    def total(self) -> float:
        return float(self.piece_masses.sum())

    def density_at(self, t: float) -> float:
        if not 0.0 <= t < 1.0:
            raise ValueError("point outside [0, 1)")
        return float(self.values[np.searchsorted(self.breakpoints, t, side="right") - 1])


Measure = Union[FiniteMeasure, PiecewiseDensity]


def refine_breakpoints(a: PiecewiseDensity, b: PiecewiseDensity) -> np.ndarray:
    """Union of the two breakpoint sets."""
    return np.union1d(a.breakpoints, b.breakpoints)


def piece_values_on(d: PiecewiseDensity, breakpoints: np.ndarray) -> np.ndarray:
    """Density values of ``d`` on each piece of a refined breakpoint grid."""
    idx = np.searchsorted(d.breakpoints, breakpoints[:-1], side="right") - 1
    return d.values[idx]


def global_bound(mu: Measure, lam: Measure) -> float:
    """Exact maximum of the density ratio mu/lam over the support of mu.

    Raises ``ValueError("unbounded ratio")`` when lam vanishes somewhere mu
    does not; the stopping rule's correctness depends on a valid bound.
    """
    if isinstance(mu, FiniteMeasure) and isinstance(lam, FiniteMeasure):
        if len(mu) != len(lam):
            raise ValueError("measure and proposal have different lengths")
        m, l = mu.masses, lam.masses
    elif isinstance(mu, PiecewiseDensity) and isinstance(lam, PiecewiseDensity):
        bp = refine_breakpoints(mu, lam)
        m, l = piece_values_on(mu, bp), piece_values_on(lam, bp)
    else:
        raise ValueError("measure and proposal must be of the same kind")
    pos = m > 0.0
    if (l[pos] == 0.0).any():
        raise ValueError("unbounded ratio")
    return float(np.max(m[pos] / l[pos]))


def _unit_scaled(m: FiniteMeasure) -> tuple[FiniteMeasure, int]:
    """``m`` with its largest mass scaled by ``2**-e`` into [0.5, 1), and ``e``.

    A search's keys on scaled measures are its keys on ``m`` times ``2**e``,
    exactly for normal masses, so it makes the same decisions, overflowing
    neither on subnormal masses nor on masses near 1e308.
    """
    return FiniteMeasure(_scale_rows(m.masses, [0], [len(m)])), math.frexp(float(m.masses.max()))[1]


def proposal_stream(lam: Measure, seed: int) -> Iterator[tuple[int | float, float]]:
    """Stream of (candidate, arrival_key) pairs in ascending key order.

    The stream is a function of (lam, seed) only -- it never reads the target
    measure, which is exactly what couples two searches run against the same
    proposal.  Finite case: every positive-mass element, ordered by its
    exponential key; all keys are hashed and sorted before the first yield,
    so a consumer that stops early saves no hashing.  This finite stream is
    the seed-for-seed oracle for ``pminhash``.  Continuous case: arrival keys
    grow by exponentials at rate lam([0,1)) (removing visited points is a
    no-op for a non-atomic proposal) and positions are inverse-CDF draws from
    a salted uniform, produced lazily one candidate at a time.
    """
    if isinstance(lam, FiniteMeasure):
        ids = np.nonzero(lam.masses)[0]
        u = uniform_hash_vec(ids.astype(np.uint64), np.uint64(seed))
        keys = -np.log(u) / lam.masses[ids]
        for j in np.argsort(keys, kind="stable"):
            yield int(ids[j]), float(keys[j])
        return
    total = lam.total
    pos = lam.piece_masses > 0.0
    cum = np.concatenate(([0.0], np.cumsum(lam.piece_masses[pos]) / total))
    cum[-1] = 1.0
    left = lam.breakpoints[:-1][pos]
    right = lam.breakpoints[1:][pos]
    e = 0.0
    k = 0
    while True:
        e += -math.log(uniform_hash(k, seed)) / total
        u = uniform_hash(k ^ CONTINUOUS_SALT, seed)
        j = int(np.searchsorted(cum, u, side="left"))  # u in (0, 1] -> 1..m
        frac = (u - cum[j - 1]) / (cum[j] - cum[j - 1])
        point = left[j - 1] + frac * (right[j - 1] - left[j - 1])
        if point >= right[j - 1]:  # keep the draw inside its half-open piece
            point = float(np.nextafter(right[j - 1], left[j - 1]))
        yield float(point), e
        k += 1


@dataclass(frozen=True)
class AStarResult:
    """Outcome of one bounded search: sample, its key and iterations used."""

    sample: int | float
    best_key: float
    iterations: int


def astar_pminhash(
    mu: Measure, lam: Measure, seed: int, *, early_termination: bool = True
) -> AStarResult:
    """Stable sample from ``mu`` by searching the proposal stream.

    Each visited candidate's rescaled key is ``e_k * lam(X_k) / mu(X_k)``;
    the search stops once the best key is at most ``e_k / B``, after which no
    later candidate can win.  For finite measures the result equals
    ``pminhash`` on the same seed, element for element.  Exact key ties keep
    the earlier-visited candidate.
    """
    exp = 0
    if isinstance(mu, FiniteMeasure) and isinstance(lam, FiniteMeasure):
        (mu, exp), (lam, _) = _unit_scaled(mu), _unit_scaled(lam)
    b = global_bound(mu, lam)
    if isinstance(lam, FiniteMeasure):
        mu_of = mu.masses.item
        lam_of = lam.masses.item
    else:
        if not early_termination:
            raise ValueError("cannot exhaust a continuous proposal stream")
        mu_of = mu.density_at
        lam_of = lam.density_at
    best = math.inf
    best_sample: int | float | None = None
    iters = 0
    for cand, e in proposal_stream(lam, seed):
        iters += 1
        m_val = mu_of(cand)
        if m_val > 0.0:
            key = e * (lam_of(cand) / m_val)  # the batched search's order of operations
            if key < best:
                best = key
                best_sample = cand
        if early_termination and best <= e / b:
            break
    if best_sample is None:
        raise ValueError("measure has no mass on the proposal support")
    try:
        best = math.ldexp(best, -exp)  # back to the units of mu
    except OverflowError:
        best = math.inf
    return AStarResult(sample=best_sample, best_key=best, iterations=iters)


def _astar_many_discrete(
    mu: FiniteMeasure, lam: FiniteMeasure, seeds
) -> tuple[np.ndarray, np.ndarray]:
    """Batched bounded search; returns (samples, iterations) per seed.

    Mirrors :func:`astar_pminhash` exactly: per-seed stream order, running
    best, first stopping index, argmin among visited candidates.  Seeds are
    searched in blocks of about :data:`~jpminhash.hashing.TILE_CELLS`
    (element, seed) cells, which changes no result: the search runs in cache
    whatever large blocks the allocator still holds from earlier work.
    """
    (mu, _), (lam, _) = _unit_scaled(mu), _unit_scaled(lam)
    b = global_bound(mu, lam)
    seeds = np.asarray(seeds, dtype=np.uint64)
    ids = np.nonzero(lam.masses)[0]
    lam_vals, mu_vals = lam.masses[ids], mu.masses[ids]
    with np.errstate(divide="ignore"):
        ratio = np.where(mu_vals > 0.0, lam_vals / np.where(mu_vals > 0.0, mu_vals, 1.0), np.inf)
    samples = np.empty(seeds.shape[0], dtype=ids.dtype)
    iterations = np.empty(seeds.shape[0], dtype=np.intp)
    step = max(1, TILE_CELLS // ids.shape[0])
    for lo in range(0, seeds.shape[0], step):
        u = uniform_hash_vec(ids.astype(np.uint64)[:, None], seeds[None, lo : lo + step])
        lam_keys = -np.log(u) / lam_vals[:, None]
        order = np.argsort(lam_keys, axis=0, kind="stable")
        e = np.take_along_axis(lam_keys, order, axis=0)
        rk = ratio[order]
        keys = np.where(np.isinf(rk), np.inf, e * rk)
        best = np.minimum.accumulate(keys, axis=0)
        stop = best <= e / b
        first = np.argmax(stop, axis=0)
        first = np.where(stop.any(axis=0), first, ids.shape[0] - 1)
        visited = np.arange(ids.shape[0])[:, None] <= first[None, :]
        masked = np.where(visited, keys, np.inf)
        arg = np.argmin(masked, axis=0)
        stream_pos = np.take_along_axis(order, arg[None, :], axis=0)[0]
        samples[lo : lo + step] = ids[stream_pos]
        iterations[lo : lo + step] = first + 1
    return samples, iterations


def astar_collision(
    mu: Measure, nu: Measure, lam: Measure, base_seed: int, n: int
) -> float:
    """Fraction of n seeds on which the searches for mu and nu return the
    same candidate; converges to the pair's ``jp`` similarity."""
    if n < 1:
        raise ValueError("n must be positive")
    seeds = derive_seed_vec(base_seed, np.arange(n))
    if isinstance(lam, FiniteMeasure):
        if not (isinstance(mu, FiniteMeasure) and isinstance(nu, FiniteMeasure)):
            raise ValueError("measure and proposal must be of the same kind")
        a, _ = _astar_many_discrete(mu, lam, seeds)
        b, _ = _astar_many_discrete(nu, lam, seeds)
        return float(np.mean(a == b))
    matches = 0
    for s in seeds:
        ra = astar_pminhash(mu, lam, int(s))
        rb = astar_pminhash(nu, lam, int(s))
        if ra.sample == rb.sample:
            matches += 1
    return matches / n
