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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Union

import numpy as np

from .hashing import CONTINUOUS_SALT, derive_seed_vec, uniform_hash, uniform_hash_vec

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
    "piece_masses_on",
]


@dataclass(frozen=True)
class FiniteMeasure:
    """Dense nonnegative measure; the index is the element id."""

    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
        for i, m in enumerate(self.masses):
            if not math.isfinite(m) or m < 0.0:
                raise ValueError(f"mass at index {i} must be finite and nonnegative")
        if self.total <= 0.0:
            raise ValueError("measure must have positive total mass")

    @cached_property
    def arr(self) -> np.ndarray:
        a = np.array(self.masses, dtype=np.float64)
        a.setflags(write=False)
        return a

    @cached_property
    def total(self) -> float:
        return math.fsum(self.masses)

    def __len__(self) -> int:
        return len(self.masses)


@dataclass(frozen=True)
class PiecewiseDensity:
    """Piecewise-constant density on [0, 1).

    ``breakpoints`` are strictly increasing, starting at 0 and ending at 1;
    ``values[i]`` is the density on [breakpoints[i], breakpoints[i+1]).
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "breakpoints", tuple(float(b) for b in self.breakpoints))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        bp = self.breakpoints
        if len(bp) < 2 or bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must run from 0.0 to 1.0")
        if any(b >= c for b, c in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(self.values) != len(bp) - 1:
            raise ValueError("need exactly one density value per piece")
        for v in self.values:
            if not math.isfinite(v) or v < 0.0:
                raise ValueError("density values must be finite and nonnegative")
        if all(v == 0.0 for v in self.values):
            raise ValueError("density must have at least one positive piece")

    @cached_property
    def bp_arr(self) -> np.ndarray:
        a = np.array(self.breakpoints, dtype=np.float64)
        a.setflags(write=False)
        return a

    @cached_property
    def val_arr(self) -> np.ndarray:
        a = np.array(self.values, dtype=np.float64)
        a.setflags(write=False)
        return a

    @cached_property
    def piece_masses(self) -> np.ndarray:
        a = self.val_arr * np.diff(self.bp_arr)
        a.setflags(write=False)
        return a

    @cached_property
    def total(self) -> float:
        return float(self.piece_masses.sum())

    def density_at(self, t: float) -> float:
        if not 0.0 <= t < 1.0:
            raise ValueError("point outside [0, 1)")
        idx = int(np.searchsorted(self.bp_arr, t, side="right")) - 1
        return self.values[idx]


Measure = Union[FiniteMeasure, PiecewiseDensity]


def refine_breakpoints(a: PiecewiseDensity, b: PiecewiseDensity) -> np.ndarray:
    """Union of the two breakpoint sets."""
    return np.union1d(a.bp_arr, b.bp_arr)


def piece_values_on(d: PiecewiseDensity, breakpoints: np.ndarray) -> np.ndarray:
    """Density values of ``d`` on each piece of a refined breakpoint grid."""
    idx = np.searchsorted(d.bp_arr, breakpoints[:-1], side="right") - 1
    return d.val_arr[idx]


def piece_masses_on(d: PiecewiseDensity, breakpoints: np.ndarray) -> np.ndarray:
    """Masses of ``d`` on each piece of a refined breakpoint grid."""
    return piece_values_on(d, breakpoints) * np.diff(breakpoints)


def global_bound(mu: Measure, lam: Measure) -> float:
    """Exact maximum of the density ratio mu/lam over the support of mu.

    Raises ``ValueError("unbounded ratio")`` when lam vanishes somewhere mu
    does not; the stopping rule's correctness depends on a valid bound.
    """
    if isinstance(mu, FiniteMeasure) and isinstance(lam, FiniteMeasure):
        if len(mu) != len(lam):
            raise ValueError("measure and proposal have different lengths")
        m = mu.arr
        l = lam.arr
        pos = m > 0.0
        if np.any(l[pos] == 0.0):
            raise ValueError("unbounded ratio")
        return float(np.max(m[pos] / l[pos]))
    if isinstance(mu, PiecewiseDensity) and isinstance(lam, PiecewiseDensity):
        bp = refine_breakpoints(mu, lam)
        m = piece_values_on(mu, bp)
        l = piece_values_on(lam, bp)
        pos = m > 0.0
        if np.any(l[pos] == 0.0):
            raise ValueError("unbounded ratio")
        return float(np.max(m[pos] / l[pos]))
    raise ValueError("measure and proposal must be of the same kind")


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
        ids = np.nonzero(lam.arr)[0]
        u = uniform_hash_vec(ids.astype(np.uint64), np.uint64(seed))
        keys = -np.log(u) / lam.arr[ids]
        for j in np.argsort(keys, kind="stable"):
            yield int(ids[j]), float(keys[j])
        return
    total = lam.total
    pos = lam.piece_masses > 0.0
    cum = np.concatenate(([0.0], np.cumsum(lam.piece_masses[pos]) / total))
    cum[-1] = 1.0
    left = lam.bp_arr[:-1][pos]
    right = lam.bp_arr[1:][pos]
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
    b = global_bound(mu, lam)
    if isinstance(lam, FiniteMeasure):
        mu_of = lambda c: mu.masses[c]
        lam_of = lambda c: lam.masses[c]
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
            key = e * lam_of(cand) / m_val
            if key < best:
                best = key
                best_sample = cand
        if early_termination and best <= e / b:
            break
    if best_sample is None:
        raise ValueError("measure has no mass on the proposal support")
    return AStarResult(sample=best_sample, best_key=best, iterations=iters)


def _astar_many_discrete(
    mu: FiniteMeasure, lam: FiniteMeasure, seeds
) -> tuple[np.ndarray, np.ndarray]:
    """Batched bounded search; returns (samples, iterations) per seed.

    Mirrors :func:`astar_pminhash` exactly: per-seed stream order, running
    best, first stopping index, argmin among visited candidates.
    """
    b = global_bound(mu, lam)
    seeds = np.asarray(seeds, dtype=np.uint64)
    ids = np.nonzero(lam.arr)[0]
    u = uniform_hash_vec(ids.astype(np.uint64)[:, None], seeds[None, :])
    lam_keys = -np.log(u) / lam.arr[ids][:, None]
    order = np.argsort(lam_keys, axis=0, kind="stable")
    e = np.take_along_axis(lam_keys, order, axis=0)
    mu_vals = mu.arr[ids]
    with np.errstate(divide="ignore"):
        ratio = np.where(mu_vals > 0.0, lam.arr[ids] / np.where(mu_vals > 0.0, mu_vals, 1.0), np.inf)
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
    return ids[stream_pos], first + 1


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
