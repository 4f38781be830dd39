"""Exponential-race sampling for dense measures via a bounded proposal search.

A fixed-seed proposal stream visits candidates in ascending arrival key; each
candidate's key is rescaled by the density ratio proposal/measure, and the
search stops as soon as no later arrival could beat the current best given a
global bound B on measure/proposal.  For finite measures the stream is
realized by sorting the per-element exponential keys of the proposal, which
is distributionally identical to drawing incremental truncated exponentials
and makes the result coincide exactly, seed by seed, with the sparse sampler
applied to the measure.  The scalar search sorts every key up front and is
the seed-for-seed oracle for ``pminhash``.  Piecewise-constant densities on
[0, 1) use the incremental form with inverse-CDF position draws.

One batched search, :func:`_search`, runs any number of measures of either
kind against one proposal in one call: the stream reads no target measure,
so each seed's head of ``k`` arrivals is drawn once and every measure visits
it.  A seed whose head may not be its stream's, or where some measure's
search has not stopped within the head, is searched again over a head twice
as long, until the head is the whole stream; so samples and iteration
counts stay the scalar search's.  The two kinds differ only in how a head is
drawn.  A finite head is picked by partition from the hashed keys, first as
long as the largest bound of the normalized measures suggests (a search
visits about that many proposals); a piecewise head is drawn incrementally,
looking each point's piece up once in the common refinement, with its logs
from ``math.log``, as the scalar stream takes them, so that no key depends
on numpy's SIMD dispatch.  The stopping rule is applied in one place,
:func:`_visit`, and a collision estimate is one batched call for its two
measures.

Measures store read-only float64 arrays, as sparse vectors do, and compare
by identity.  Searches run on copies scaled by a power of two, made once per
measure.
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

    @cached_property
    def _unit(self) -> tuple[FiniteMeasure, int]:
        """:func:`_unit_scaled` of this measure, made once: measures are immutable."""
        return _unit_scaled(self)

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

    @cached_property
    def _unit(self) -> tuple[PiecewiseDensity, int]:
        """:func:`_unit_scaled` of this density, made once: densities are immutable."""
        return _unit_scaled(self)

    def density_at(self, t: float) -> float:
        if not 0.0 <= t < 1.0:
            raise ValueError("point outside [0, 1)")
        return float(self.values[np.searchsorted(self.breakpoints, t, side="right") - 1])


Measure = Union[FiniteMeasure, PiecewiseDensity]


def refine_breakpoints(*densities: PiecewiseDensity) -> np.ndarray:
    """Union of the densities' breakpoint sets."""
    return np.unique(np.concatenate([d.breakpoints for d in densities]))


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
    with np.errstate(over="ignore"):  # a ratio past the float range is an infinite, valid bound
        return float(np.max(m[pos] / l[pos]))


def _unit_scaled(m: Measure) -> tuple[Measure, int]:
    """``m`` with its largest mass or density value scaled by ``2**-e`` into [0.5, 1), and ``e``.

    A search's keys on scaled measures are its keys on ``m`` times ``2**e``,
    exactly for normal masses and values, so it makes the same decisions,
    overflowing neither on subnormal masses nor on masses near 1e308, and
    its bound does not underflow when ``m`` is tiny against its proposal.
    """
    if isinstance(m, FiniteMeasure):
        return FiniteMeasure(_scale_rows(m.masses, [0, len(m)])), math.frexp(float(m.masses.max()))[1]
    values = _scale_rows(m.values, [0, m.values.shape[0]])
    return PiecewiseDensity(m.breakpoints, values), math.frexp(float(m.values.max()))[1]


def _ldexp_or_inf(x: float, exp: int) -> float:
    """``x * 2**exp``, or ``inf`` past the float range."""
    try:
        return math.ldexp(x, exp)
    except OverflowError:
        return math.inf


def _inverse_cdf(lam: PiecewiseDensity) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cum, left, right): the inverse-CDF table of ``lam`` over its positive pieces.

    Piece ``j`` is ``[left[j], right[j])`` and holds the share
    ``cum[j + 1] - cum[j]`` of the mass; ``cum`` runs from 0 to exactly 1.
    """
    pos = lam.piece_masses > 0.0
    cum = np.concatenate(([0.0], np.cumsum(lam.piece_masses[pos]) / lam.total))
    cum[-1] = 1.0
    return cum, lam.breakpoints[:-1][pos], lam.breakpoints[1:][pos]


def _positions(table: tuple[np.ndarray, np.ndarray, np.ndarray], u):
    """Inverse-CDF positions of uniforms ``u`` in (0, 1], one or an array of them."""
    cum, left, right = table
    j = np.searchsorted(cum, u, side="left") - 1  # u in (0, 1] -> piece 0..m-1
    lo, hi = left[j], right[j]
    point = lo + (u - cum[j]) / (cum[j + 1] - cum[j]) * (hi - lo)
    return np.minimum(point, np.nextafter(hi, lo))  # keep each draw inside its half-open piece


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
        scaled, exp = lam._unit
        ids = np.nonzero(scaled.masses)[0]
        u = uniform_hash_vec(ids.astype(np.uint64), np.uint64(seed))
        with np.errstate(over="ignore"):  # a key past the float range arrives last, at inf
            keys = -np.log(u) / scaled.masses[ids]
        for j in np.argsort(keys, kind="stable"):
            yield int(ids[j]), _ldexp_or_inf(float(keys[j]), -exp)
        return
    total = lam.total
    table = _inverse_cdf(lam)
    e = 0.0
    k = 0
    while True:
        e += -math.log(uniform_hash(k, seed)) / total
        yield float(_positions(table, uniform_hash(k ^ CONTINUOUS_SALT, seed))), e
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
    the earlier-visited candidate.  A continuous search whose bound is past
    the float range raises ``ValueError("unbounded ratio")``, as its endless
    stream would never stop it; a finite stream ends, so its search runs.
    """
    (mu, exp), (lam, _) = mu._unit, lam._unit
    b = global_bound(mu, lam)
    if isinstance(lam, FiniteMeasure):
        mu_of = mu.masses.item
        lam_of = lam.masses.item
    else:
        if not early_termination:
            raise ValueError("cannot exhaust a continuous proposal stream")
        if math.isinf(b):  # no arrival would stop the endless stream
            raise ValueError("unbounded ratio")
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
    best = _ldexp_or_inf(best, -exp)  # back to the units of mu
    return AStarResult(sample=best_sample, best_key=best, iterations=iters)


def _stream_head(keys: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, e, tied)``: the ``k`` earliest arrivals of each column of ``keys``.

    They come in stream order: ascending key, ties by row, as a stable sort
    gives it.  When ``k`` is at least the number of rows, that sort is taken
    of the whole column and no column is tied.  Otherwise the ``k`` smallest
    keys are picked with a partition and only they are sorted: rows first,
    then stably by key.  ``tied`` marks columns whose ``k``-th key is shared
    with a row outside the head, whose head may then hold the wrong one of
    the tied rows.
    """
    if k >= keys.shape[0]:
        order = np.argsort(keys, axis=0, kind="stable")
        return order, np.take_along_axis(keys, order, axis=0), np.zeros(keys.shape[1], dtype=bool)
    picked = np.sort(np.argpartition(keys, k - 1, axis=0)[:k], axis=0)
    head = np.take_along_axis(keys, picked, axis=0)
    by_key = np.argsort(head, axis=0, kind="stable")
    e = np.take_along_axis(head, by_key, axis=0)
    tied = np.count_nonzero(keys <= e[-1], axis=0) > k
    return np.take_along_axis(picked, by_key, axis=0), e, tied


def _visit(cands: np.ndarray, e: np.ndarray, rk: np.ndarray, b: float):
    """``(sample, first, stopped)`` of each column's search over a stream head.

    Row ``i`` of a column is its stream's ``i``-th arrival: candidate
    ``cands``, arrival key ``e`` and ratio proposal/measure ``rk`` (``inf``
    where the measure vanishes), which is overwritten.  Mirrors
    :func:`astar_pminhash`: running best, first stopping index (the last row
    when the search does not stop within the head), and the earliest
    candidate whose key is the best at that index, which is the first
    minimum among the visited candidates.  A search that stops before any
    candidate with a finite key raises, as the scalar search does.
    """
    # Keys may overflow to inf, and an infinite arrival under an infinite
    # bound gives nan, which stops no search; the scalar search's floats agree.
    with np.errstate(over="ignore", invalid="ignore"):
        keys = e * rk
        keys[np.isinf(rk)] = np.inf
        best = np.minimum.accumulate(keys, axis=0)
        stop = best <= np.divide(e, b, out=rk)  # rk is not read again: one temporary fewer
    stopped = stop.any(axis=0)
    first = np.where(stopped, np.argmax(stop, axis=0), cands.shape[0] - 1)
    cols = np.arange(first.shape[0])
    best = best[first, cols]
    if np.isinf(best[stopped]).any():
        raise ValueError("measure has no mass on the proposal support")
    return cands[np.argmax(keys == best, axis=0), cols], first, stopped


def _head_len(b_hat: float, n: int) -> int:
    """How many arrivals of an ``n``-long stream the first round of the finite batch sorts.

    A search visits about as many proposals as the bound of the normalized
    measures, ``b_hat = B * |lam| / |mu|``; the head holds 16 times that, at
    least 32, and the whole stream once that is no shorter.
    """
    return min(n, max(32, 16 * math.ceil(b_hat))) if 16 * b_hat < n else n


def _search(head, searches, seeds, k: int, n: int | float) -> tuple[np.ndarray, np.ndarray]:
    """``(samples, iterations)`` of each ``(ratio, bound)`` in ``searches``, a column per seed.

    Row ``j`` is search ``j``, equal to :func:`astar_pminhash` in sample and
    iteration count: positions in a finite stream, points of a continuous
    one.  ``head(seeds, k)`` draws the ``k`` earliest arrivals of each
    seed's ``n``-long stream (``n`` is ``inf`` when it is continuous) as
    ``(cands, e, piece, tied)``: row ``i`` of a column is the seed's ``i``-th
    arrival, with candidate ``cands``, key ``e`` and index ``piece`` into
    every ratio; ``tied`` marks a seed whose head may not be its stream's.
    The stream reads no target measure, so every search visits one head
    through :func:`_visit`.  A seed that is tied, or not stopped by some
    search, is drawn again with ``k`` doubled, up to ``n``: the whole stream
    decides every search.  A round draws its heads in tiles of about
    :data:`~jpminhash.hashing.TILE_CELLS` arrivals.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    iterations = np.empty((len(searches), seeds.shape[0]), dtype=np.intp)
    samples = np.empty(iterations.shape, dtype=np.float64 if math.isinf(n) else np.intp)
    todo = np.arange(seeds.shape[0])
    while todo.shape[0]:
        step = max(1, TILE_CELLS // k)
        undecided = np.empty(todo.shape[0], dtype=bool)
        for lo in range(0, todo.shape[0], step):
            at = todo[lo : lo + step]
            cands, e, piece, undecided[lo : lo + step] = head(seeds[at], k)
            for j, (ratio, b) in enumerate(searches):
                samples[j, at], first, stopped = _visit(cands, e, ratio[piece], b)
                iterations[j, at] = first + 1
                undecided[lo : lo + step] |= ~stopped
        if k >= n:
            break
        todo = todo[undecided]
        k = min(2 * k, n)
    return samples, iterations


def _astar_many_discrete(mus, lam: FiniteMeasure, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Batched bounded search of each measure in ``mus`` against one proposal.

    Returns (samples, iterations); entry ``j * len(seeds) + s`` is measure
    ``j`` under seed ``s``, equal to :func:`astar_pminhash` in sample and
    iteration count.  The stream's head is a partition of its hashed keys
    (:func:`_stream_head`), first as long as :func:`_head_len` gives for the
    largest normalized bound: a search stops after about that bound's
    number of proposals, and the head spares sorting the rest of the
    stream.  Keys are hashed in tiles of about
    :data:`~jpminhash.hashing.TILE_CELLS` (element, seed) cells.
    """
    lam = lam._unit[0]
    mus = [mu._unit[0] for mu in mus]
    ids = np.nonzero(lam.masses)[0]
    lam_vals = lam.masses[ids]
    n = ids.shape[0]
    with np.errstate(divide="ignore", over="ignore"):  # inf where mu vanishes or past the float range
        searches = [(lam_vals / mu.masses[ids], global_bound(mu, lam)) for mu in mus]
    k = max(_head_len(b * lam.total / mu.total, n) for mu, (_, b) in zip(mus, searches))
    column = ids.astype(np.uint64)[:, None]
    step = max(1, TILE_CELLS // n)

    def head(seeds, k):
        parts = []
        for lo in range(0, seeds.shape[0], step):
            u = uniform_hash_vec(column, seeds[None, lo : lo + step])
            with np.errstate(over="ignore"):  # as in proposal_stream
                parts.append(_stream_head(-np.log(u) / lam_vals[:, None], k))
        if len(parts) == 1:  # not copied: copying a whole sorted stream slows its search
            (order, e, tied), = parts
        else:
            order, e, tied = (np.concatenate(a, axis=-1) for a in zip(*parts))
        return order, e, order, tied

    pos, iterations = _search(head, searches, seeds, k, n)
    return ids[pos].ravel(), iterations.ravel()


def _astar_many_piecewise(mus, lam: PiecewiseDensity, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Batched continuous search of each density in ``mus`` against one proposal.

    Returns (samples, iterations) laid out as :func:`_astar_many_discrete`
    lays them out, equal to :func:`astar_pminhash` in sample and iteration
    count.  The stream's head is drawn incrementally, so it has no ties, and
    each point's piece is looked up once in the common refinement of all the
    breakpoints.  The first head holds 4 arrivals (a search visits about 2.5
    proposals on typical densities).  Arrival keys add in the scalar order
    down the head, and their logs come from ``math.log``, so no key depends
    on numpy's SIMD dispatch.  An infinite bound raises, as in
    :func:`astar_pminhash`.
    """
    lam = lam._unit[0]
    mus = [mu._unit[0] for mu in mus]
    total = lam.total
    table = _inverse_cdf(lam)
    bp = refine_breakpoints(lam, *mus)
    lam_vals = piece_values_on(lam, bp)
    # 0 / 0 only on pieces no point falls in; a ratio past the float range is inf, massless
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        searches = [(lam_vals / piece_values_on(mu, bp), global_bound(mu, lam)) for mu in mus]
    if any(math.isinf(b) for _, b in searches):
        raise ValueError("unbounded ratio")

    def head(seeds, k):
        ks = np.arange(k, dtype=np.uint64)[:, None]
        u = uniform_hash_vec(ks, seeds)
        steps = -np.fromiter(map(math.log, u.ravel().tolist()), np.float64, u.size) / total
        points = _positions(table, uniform_hash_vec(ks ^ np.uint64(CONTINUOUS_SALT), seeds))
        e = np.cumsum(steps.reshape(u.shape), axis=0)
        return points, e, np.searchsorted(bp, points, side="right") - 1, False

    samples, iterations = _search(head, searches, seeds, 4, math.inf)
    return samples.ravel(), iterations.ravel()


def astar_collision(
    mu: Measure, nu: Measure, lam: Measure, base_seed: int, n: int
) -> float:
    """Fraction of n seeds on which the searches for mu and nu return the
    same candidate; converges to the pair's ``jp`` similarity.  Both
    searches are one batched call over one proposal stream."""
    if n < 1:
        raise ValueError("n must be positive")
    if not (isinstance(mu, type(lam)) and isinstance(nu, type(lam))):
        raise ValueError("measure and proposal must be of the same kind")
    search = _astar_many_discrete if isinstance(lam, FiniteMeasure) else _astar_many_piecewise
    a, b = search((mu, nu), lam, derive_seed_vec(base_seed, np.arange(n)))[0].reshape(2, n)
    return float(np.mean(a == b))
