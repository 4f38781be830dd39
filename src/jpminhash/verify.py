"""The property suite: one check per guarantee of the paper.

``jpminhash verify`` and the acceptance tests run the same checks.  Each
check takes its sizes and seeds as arguments, whose defaults are the small
sizes behind ``jpminhash verify``: :func:`run_all` passes only the pair
sample the checks share, and ``tests/test_acceptance.py`` passes the
acceptance sizes.  Every check is deterministic (fixed seeds throughout) and
returns a single pass/fail row with a short diagnostic, so a clean build
prints a clean table and any regression points at the responsible property.
Statistical checks use four-sigma binomial bands; with the seeds pinned they
either always pass or always fail.

The reference pair and the random generators the checks draw from are
shared with the unit tests.  The checks of exact properties (oracle,
sandwich, uniform reduction, structure, metric) draw all their data first,
build it with the package's batch constructor and score each property's
pairs in one batch, bit for bit as the single-pair functions; only the
``jp_naive`` oracle and the reference pair are evaluated pair by pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dense, harness, minhash, similarity, sparse
from .sparse import Partition, SparseDistribution, SparseVector, coarsen, normalize

__all__ = [
    "CheckResult",
    "run_all",
    "REF_X",
    "REF_Y",
    "REF_JP",
    "REF_JW",
    "REF_TV",
    "rand_dist",
    "rand_pair",
    "uniform_on",
    "sigma_band",
    "chi2_sf",
]

# x = (0.5, 0.4, 0.1) vs y = (0.2, 0.4, 0.4): the worked reference pair.
# Its jp is 1/5 + 4/13 + 1/10 = 79/130 with per-element terms (0.2, 4/13, 0.1).
REF_X = SparseDistribution(((0, 0.5), (1, 0.4), (2, 0.1)))
REF_Y = SparseDistribution(((0, 0.2), (1, 0.4), (2, 0.4)))
REF_JP = 79.0 / 130.0
REF_JW = 7.0 / 13.0
REF_TV = 0.3
_REF_TERMS = (0.2, 4.0 / 13.0, 0.1)


def rand_dist(rng: np.random.Generator, ids: np.ndarray) -> SparseDistribution:
    """Normalized exponential masses on an id array."""
    return _dists([_rand_row(rng, sparse._id_array(ids))])[0]


def _rand_row(rng: np.random.Generator, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An id array and the exponential masses :func:`rand_dist` draws for it."""
    return ids, np.maximum(rng.exponential(size=ids.shape[0]), 1e-12)  # draws of exactly 0 are void


def _dists(rows) -> list[SparseDistribution]:
    """Distributions of ``(uint64 ids, masses)`` rows, built by one batch constructor call."""
    if not rows:
        return []
    dists, kept = sparse._distributions(*map(np.concatenate, zip(*rows)), [len(i) for i, _ in rows])
    if kept.shape[0] != len(rows):
        raise ValueError("degenerate distribution")
    return dists


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def rand_pair(
    rng: np.random.Generator, max_side: int = 30
) -> tuple[SparseDistribution, SparseDistribution]:
    """Random pair with overlap anywhere between disjoint and identical."""
    (x,), (y,) = _rand_pairs(rng, 1, max_side)
    return x, y


def _rand_pair_rows(rng: np.random.Generator, max_side: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``(ids, masses)`` rows of one :func:`rand_pair`, x then y."""
    shared = int(rng.integers(0, max_side + 1))
    only_x = int(rng.integers(0 if shared else 1, max_side + 1))
    only_y = int(rng.integers(0 if shared else 1, max_side + 1))
    pool = rng.choice(1_000_000, size=shared + only_x + only_y, replace=False).astype(np.uint64)
    x = _rand_row(rng, pool[: shared + only_x])
    return [x, _rand_row(rng, np.concatenate([pool[:shared], pool[shared + only_x :]]))]


def _rand_pairs(rng: np.random.Generator, n: int, max_side: int) -> tuple[list, list]:
    """The xs and ys of ``n`` :func:`rand_pair` calls: the same draws, built in one batch."""
    dists = _dists([row for _ in range(n) for row in _rand_pair_rows(rng, max_side)])
    return dists[0::2], dists[1::2]


def uniform_on(ids) -> SparseDistribution:
    ids = sorted(int(i) for i in ids)
    return normalize(SparseVector(tuple((i, 1.0) for i in ids)))


def sigma_band(p: float, n: int, sigmas: float = 4.0) -> float:
    return sigmas * math.sqrt(p * (1.0 - p) / n)


def chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of the chi-square law with a positive integer ``df``.

    Even df: ``exp(-x/2) * sum_{i<df/2} (x/2)^i / i!``.  Odd df: ``erfc(sqrt(x/2))
    + sqrt(2x/pi) * exp(-x/2) * sum_{k<(df-1)/2} x^k / (3*5*...*(2k+1))``.  The
    exponential rides in the first term, so a huge ``x`` gives 0, never inf*0.
    """
    if x <= 0.0:
        return 1.0
    odd = df % 2
    total = math.erfc(math.sqrt(x / 2.0)) if odd else 0.0
    term = math.exp(-x / 2.0) * (math.sqrt(2.0 * x / math.pi) if odd else 1.0)
    for i in range(1, df // 2 + 1):
        total += term
        term *= x / (2 * i + odd)
    return total


def _worst(values) -> float:
    """The largest of ``values``, 0.0 when there are none."""
    return float(np.max(values, initial=0.0))


def _band_check(name: str, cases, n: int, head: str, tail: str = "") -> CheckResult:
    """Each ``(label, estimate, target)`` case against its four-sigma band at ``n`` trials.

    The first case outside its band fails the check, named by its label.
    Otherwise the pass line gives the worst pull between ``head`` and
    ``tail``: a pull is the deviation in units of the band, or the raw
    deviation when the band is 0.
    """
    worst = 0.0
    for label, est, target in cases:
        band = sigma_band(target, n)
        if abs(est - target) > band:
            return CheckResult(name, False, f"{label}: {est:.6f} vs {target:.6f} (band {band:.6f})")
        worst = max(worst, abs(est - target) / band if band else abs(est - target))
    return CheckResult(name, True, f"{head}, worst pull {worst:.2f} sigma-units of 4{tail}")


def check_oracle_equivalence(n_pairs: int = 300, seed: int = 7, max_side: int = 60) -> CheckResult:
    """Fast jp equals the O(n^2) oracle, and the hand values on the reference pair."""
    xs, ys = _rand_pairs(np.random.default_rng(seed), n_pairs, max_side)
    naive = [similarity.jp_naive(x, y) for x, y in zip(xs, ys)]
    worst = _worst(np.abs(similarity._jp_rows(*similarity._aligned_rows(xs, ys)) - naive))
    jp_val = similarity.jp(REF_X, REF_Y)
    jw_val = similarity.jw(REF_X, REF_Y)
    tv_val = similarity.total_variation(REF_X, REF_Y)
    terms = similarity.jp_terms(REF_X, REF_Y)
    ref_dev = max(
        abs(jp_val - REF_JP),
        abs(jw_val - REF_JW),
        abs(tv_val - REF_TV),
        *(abs(terms.term_of(i) - t) for i, t in enumerate(_REF_TERMS)),
    )
    return CheckResult(
        "oracle-equivalence",
        worst <= 1e-9 and ref_dev <= 1e-12,
        f"max dev {worst:.3g} over {n_pairs} pairs; reference pair "
        f"jp={jp_val:.9f} jw={jw_val:.9f} tv={tv_val:.3f}",
    )


def check_collision_law(
    n_pairs: int = 5, n_seeds: int = 200_000, seed: int = 2, base_seed: int = 101
) -> CheckResult:
    """Collision frequency over n_seeds seeds equals jp within four sigma.

    The pairs are the reference pair, a distribution with itself, a disjoint
    pair, then random pairs drawn from ``seed`` up to ``n_pairs`` in all.
    Pair i hashes under seeds derived from ``base_seed + i``.
    """
    rng = np.random.default_rng(seed)
    pairs = [(REF_X, REF_Y), (REF_X, REF_X), (uniform_on([0]), uniform_on([1]))]
    pairs.extend(rand_pair(rng, max_side=12) for _ in range(n_pairs - len(pairs)))
    cases = [
        (f"pair {i}", minhash.collision_estimate(x, y, base_seed + i, n_seeds), similarity.jp(x, y))
        for i, (x, y) in enumerate(pairs)
    ]
    _, ref_est, ref_jp = cases[0]
    ref = f"estimate {ref_est:.6f} vs {REF_JP:.6f} (band {sigma_band(ref_jp, n_seeds):.6f}, N={n_seeds})"
    return _band_check("collision-law", cases, n_seeds, f"{len(pairs)} pairs", f"; reference pair {ref}")


def check_marginal_law(n_seeds: int = 40_000, seed: int = 0) -> CheckResult:
    """Chi-square of pminhash samples against five distributions.

    Distribution j hashes under the seeds ``seed + j*n_seeds`` onwards.
    """
    dists = [
        REF_X,
        REF_Y,
        uniform_on(range(10)),
        normalize(SparseVector(((0, 0.96), (1, 0.01), (2, 0.01), (3, 0.01), (4, 0.01)))),
        normalize(SparseVector(tuple((i, 2.0**-i) for i in range(1, 9)))),
    ]
    worst_p = 1.0
    for j, d in enumerate(dists):
        lo = seed + j * n_seeds
        samples = minhash.pminhash_many(d, np.arange(lo, lo + n_seeds, dtype=np.uint64))
        counts = np.array([(samples == eid).sum() for eid, _ in d.entries])
        expected = d.masses * n_seeds
        worst_p = min(worst_p, chi2_sf(float(((counts - expected) ** 2 / expected).sum()), len(d) - 1))
    return CheckResult(
        "marginal-law",
        worst_p > 0.001,
        f"{len(dists)} distributions, min chi-square p {worst_p:.4f}",
    )


def check_dense_sparse(n_cases: int = 200, seed: int = 31) -> CheckResult:
    """A* search, its exhaustive run and the sparse sampler pick the same element.

    About 15% of the masses are zero, to exercise zero-mass skipping.
    """
    rng = np.random.default_rng(seed)
    mismatches = 0
    early_violations = 0
    for _ in range(n_cases):
        n = int(rng.integers(2, 40))
        masses = rng.exponential(size=n)
        masses[rng.random(n) < 0.15] = 0.0
        if masses.sum() == 0.0:
            masses[0] = 1.0
        mu = dense.FiniteMeasure(tuple(masses.tolist()))
        lam = dense.FiniteMeasure((1.0,) * n)
        s = int(rng.integers(0, 2**63))
        res = dense.astar_pminhash(mu, lam, s)
        full = dense.astar_pminhash(mu, lam, s, early_termination=False)
        if res.sample != minhash.pminhash(SparseVector.from_dense(masses.tolist()), s):
            mismatches += 1
        if res.sample != full.sample:
            early_violations += 1
    return CheckResult(
        "dense-sparse-agreement",
        mismatches == 0 and early_violations == 0,
        f"{n_cases} cases, {mismatches} mismatches, {early_violations} early-stop diffs",
    )


def check_sandwich_and_constructions(
    n_pairs: int = 300,
    seed: int = 11,
    max_side: int = 30,
    construction_seed: int = 13,
    *,
    sample: harness.PairSample,
) -> CheckResult:
    """jw <= jp <= 2jw/(1+jw) and jw = (1-tv)/(1+tv), plus both bound constructions.

    The sandwich is checked on random pairs and on the scores of ``sample``.
    The lower construction runs on the first tenth of the random pairs; the
    upper one on as many random shared bases drawn from ``construction_seed``.
    """
    xs, ys = _rand_pairs(np.random.default_rng(seed), n_pairs, max_side)
    n_constructions = n_pairs // 10
    pairs = [similarity.construct_lower_pair(x, y) for x, y in zip(xs[:n_constructions], ys)]
    rng = np.random.default_rng(construction_seed)
    ps = []
    for _ in range(n_constructions):
        n = int(rng.integers(2, 12))
        p = float(rng.uniform(0.0, 0.95))
        masses = rng.exponential(size=n)
        masses = masses / masses.sum() * (1.0 - p)
        shared = SparseVector(tuple(zip(range(n), masses.tolist())))
        cut = int(rng.integers(1, n))
        split = Partition.of(range(cut), range(cut, n))
        pairs.append(similarity.construct_upper_pair(shared, p, split))
        ps.append(p)
    built = xs + [x for x, _ in pairs], ys + [y for _, y in pairs]
    jp, jw, _, tv, _ = similarity._report_rows(*similarity._aligned_rows(*built))
    jp, jp_lower, jp_upper = np.split(jp, [n_pairs, n_pairs + n_constructions])
    worst_lower = _worst(np.abs(jp_lower - jw[:n_constructions]))
    worst_upper = _worst(np.abs(jp_upper - (1.0 - np.array(ps))))
    jp = np.concatenate([jp, [s.jp for s in sample.scores]])
    jw = np.concatenate([jw[:n_pairs], [s.jw for s in sample.scores]])
    tv = np.concatenate([tv[:n_pairs], [s.tv for s in sample.scores]])
    worst_sandwich = _worst(np.maximum(jw - jp, jp - 2.0 * jw / (1.0 + jw)))
    worst_identity = _worst(np.abs(jw - (1.0 - tv) / (1.0 + tv)))
    worst = max(worst_sandwich, worst_identity, worst_lower, worst_upper)
    return CheckResult(
        "sandwich-and-constructions",
        worst <= 1e-9,
        f"sandwich slack {worst_sandwich:.3g}, identity {worst_identity:.3g}, "
        f"lower {worst_lower:.3g}, upper {worst_upper:.3g}",
    )


def check_uniform_reduction(n_cases: int = 200, seed: int = 17) -> CheckResult:
    """jp equals set Jaccard on pairs of uniform distributions.

    Also, on a fifth as many cases: for uniform distributions on ``big`` and
    ``small < big`` elements sharing ``overlap``, jw is overlap / (2 big - overlap).
    """
    rng = np.random.default_rng(seed)
    rows = []  # x, y of each pair; each is normalized as uniform_on normalizes
    for _ in range(n_cases):
        shared = int(rng.integers(0, 40))
        nx = int(rng.integers(0 if shared else 1, 40))
        ny = int(rng.integers(0 if shared else 1, 40))
        pool = rng.choice(100_000, size=shared + nx + ny, replace=False).astype(np.uint64)
        rows += [pool[: shared + nx], np.concatenate([pool[:shared], pool[shared + nx :]])]
    expected = []
    for _ in range(n_cases // 5):
        big = int(rng.integers(2, 40))
        small = int(rng.integers(1, big))
        overlap = int(rng.integers(1, small + 1))
        pool = rng.choice(100_000, size=big + small - overlap, replace=False).astype(np.uint64)
        rows += [pool[:big], np.concatenate([pool[:overlap], pool[big : big + small - overlap]])]
        expected.append(overlap / ((big - overlap) + big))
    dists = _dists([(ids, np.ones(ids.shape[0])) for ids in rows])
    aligned = similarity._aligned_rows(dists[0::2], dists[1::2])
    jp, jw, jaccard, _, _ = similarity._report_rows(*aligned)
    worst_reduction = _worst(np.abs(jp - jaccard)[:n_cases])
    worst_indicator = _worst(np.abs(jw[n_cases:] - expected))
    return CheckResult(
        "uniform-reduction",
        worst_reduction <= 1e-12 and worst_indicator <= 1e-12,
        f"set-jaccard dev {worst_reduction:.3g}, indicator jw dev {worst_indicator:.3g}",
    )


def check_structural_properties(n_cases: int = 250, seed: int = 19) -> CheckResult:
    """Term caps and saturation, then (a fifth as many cases each) disjoint-block
    combination, adversarial dominance and coarsening monotonicity."""
    rng = np.random.default_rng(seed)
    n = n_cases // 5

    def broken(detail: str) -> CheckResult:
        return CheckResult("structural-properties", False, detail)

    xs, ys = _rand_pairs(rng, n_cases, max_side=8)
    block_rows, weights = [], []
    for _ in range(n):
        m = int(rng.integers(2, 6))
        block_rows += [
            _rand_row(rng, np.arange(100 * k, 100 * k + rng.integers(1, 5), dtype=np.uint64))
            for k in range(m)
        ]
        alpha = np.maximum(rng.exponential(size=m), 1e-9)
        beta = np.maximum(rng.exponential(size=m), 1e-9)
        weights.append((alpha / alpha.sum(), beta / beta.sum()))
    dom_x, dom_y = _rand_pairs(rng, n, max_side=6)
    coarse_rows, labels = [], []
    for _ in range(n):
        coarse_rows += _rand_pair_rows(rng, max_side=8)
        size = np.union1d(coarse_rows[-2][0], coarse_rows[-1][0]).shape[0]
        labels.append(rng.integers(0, max(1, size // 2), size=size).tolist())

    blocks, mixed = iter(_dists(block_rows)), []  # per case: the mixtures, then their weights
    for alpha, beta in weights:
        ws = [next(blocks) for _ in alpha]
        ids = np.concatenate([w.ids for w in ws])
        for c in (alpha, beta):
            mixed.append((ids, np.concatenate([c[k] * w.masses for k, w in enumerate(ws)])))
        mixed += [(np.arange(alpha.shape[0], dtype=np.uint64), c) for c in (alpha, beta)]
    mixed = _dists(mixed)
    zs = [
        (i, a, similarity.adversarial_z(x, y, a))
        for i, (x, y) in enumerate(zip(dom_x, dom_y))
        for a in np.intersect1d(x.ids, y.ids).tolist()
    ]
    coarse, coarsened = _dists(coarse_rows), []
    for x, y, lab in zip(coarse[0::2], coarse[1::2], labels):
        groups: dict[int, set[int]] = {}
        for eid, label in zip(sorted(x.support | y.support), lab):
            groups.setdefault(label, set()).add(eid)
        part = Partition(tuple(frozenset(g) for g in groups.values()))
        coarsened += [coarsen(x, part), coarsen(y, part)]
    ux, uy, bounds = similarity._aligned_rows(xs, ys)
    terms = similarity._jp_terms(ux, uy, bounds)
    cap = np.minimum(ux, uy)
    over = np.diff(sparse._kept_bounds(terms > cap + 1e-12, bounds)) > 0
    saturated = np.diff(sparse._kept_bounds(np.abs(terms - cap) <= 1e-12, bounds))
    bad = np.flatnonzero(over | ((np.diff(bounds) >= 2) & (saturated < 2)))
    if bad.size:
        i = int(bad[0])
        return broken(f"term cap broken on pair {i}" if over[i] else f"under-saturated pair {i}")
    mix = similarity._jp_rows(*similarity._aligned_rows(mixed[0::2], mixed[1::2]))
    off = np.abs(mix[0::2] - mix[1::2])
    if (off > 1e-9).any():
        return broken(f"disjoint combination off by {off[off > 1e-9][0]:.3g}")
    # the dominance pairs, then (x, z) and (y, z) per z
    ux, uy, bounds = similarity._aligned_rows(
        dom_x + [v for i, _, _ in zs for v in (dom_x[i], dom_y[i])],
        dom_y + [z for *_, z in zs for _ in (0, 1)],
    )
    terms = similarity._jp_terms(ux, uy, bounds)
    base, dom = np.split(similarity._row_sums(terms, bounds), [n])
    base = base[[i for i, _, _ in zs]] - 1e-9
    term = terms[(ux > 0.0) & (uy > 0.0)][: len(zs)]  # of each z's element, in order
    z_off = np.abs(np.array([z.mass_of(a) for _, a, z in zs]) - term) > 1e-12
    dominated = (dom[0::2] < base) | (dom[1::2] < base)
    bad = np.flatnonzero(dominated | z_off)
    if bad.size:
        k, a = int(bad[0]), zs[bad[0]][1]
        what = "dominance broken" if dominated[k] else "z mass differs from the jp term"
        return broken(f"{what} at element {a}")
    after, before = np.split(similarity._jp_rows(*similarity._aligned_rows(
        coarsened[0::2] + coarse[0::2], coarsened[1::2] + coarse[1::2]
    )), 2)
    bad = np.flatnonzero(after < before - 1e-9)
    if bad.size:
        return broken(f"coarsening decreased jp on pair {int(bad[0])}")
    return CheckResult(
        "structural-properties",
        True,
        f"{n_cases} pairs: caps, saturation, combination, dominance, z mass, coarsening all held",
    )


def check_metric(n_triples: int = 2000, seed: int = 29) -> CheckResult:
    """1 - jp satisfies the triangle inequality on random triples."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_triples):
        pool = rng.choice(100_000, size=15, replace=False).astype(np.uint64)
        picks = []
        for _ in range(3):
            mask = rng.random(15) < 0.7
            if not mask.any():
                mask[0] = True
            picks.append(pool[mask])
        rows += [_rand_row(rng, p) for p in picks]
    dists = _dists(rows)
    x, y, z = dists[0::3], dists[1::3], dists[2::3]
    jp = similarity._jp_rows(*similarity._aligned_rows(x + x + y, y + z + z))
    d_xy, d_xz, d_yz = 1.0 - jp.reshape(3, n_triples)
    violations = int(np.count_nonzero(d_xy > d_xz + d_yz + 1e-12))
    return CheckResult(
        "metric-triangle", violations == 0, f"{n_triples} triples, {violations} violations"
    )


def check_tree_collision(n_cases: int = 2, n_seeds: int = 100_000, seed: int = 37) -> CheckResult:
    """A tree that puts one element first makes pairs collide there with min-mass frequency.

    The cases are the reference pair, then random pairs drawn from ``seed``;
    case j hashes under the seeds ``j*n_seeds`` onwards.
    """
    rng = np.random.default_rng(seed)
    pairs = [(REF_X, REF_Y)]
    for _ in range(n_cases - 1):
        ids = np.arange(int(rng.integers(3, 7)), dtype=np.uint64)
        pairs.append((rand_dist(rng, ids), rand_dist(rng, ids)))
    cases = []
    for j, (x, y) in enumerate(pairs):
        union = sorted(x.support | y.support)
        first = union[0]
        tree = minhash.WeightTree.from_nested((first, tuple(union[1:])))
        seeds = np.arange(j * n_seeds, (j + 1) * n_seeds, dtype=np.uint64)
        sx = minhash.tree_pminhash_many(tree, x, seeds)
        sy = minhash.tree_pminhash_many(tree, y, seeds)
        freq = float(np.mean((sx == first) & (sy == first)))
        cases.append((f"case {j}", freq, min(x.mass_of(first), y.mass_of(first))))
    return _band_check("tree-generalization", cases, n_seeds, f"{len(pairs)} pairs")


def check_amplification(replicates: int = 5000, seed: int = 41, band_seed: int = 7) -> CheckResult:
    """Banded collision frequency equals amplify(jp, a, o) within four sigma.

    Besides one exact value of ``amplify``, the cases are the reference pair
    at (2, 8) and two random pairs drawn from ``seed`` at (1, 3) and (3, 2);
    case j bands under ``band_seed + j``.
    """
    if harness.amplify(0.5, 2, 3) != 0.578125:
        return CheckResult("amplification", False, "amplify(0.5, 2, 3) != 0.578125")
    rng = np.random.default_rng(seed)
    pairs = [
        (REF_X, REF_Y, 2, 8),
        (*rand_pair(rng, max_side=6), 1, 3),
        (*rand_pair(rng, max_side=6), 3, 2),
    ]
    cases = [
        (
            f"case {j} (a={a}, o={o})",
            harness.banded_collision_frequency(x, y, a, o, seed=band_seed + j, replicates=replicates),
            harness.amplify(similarity.jp(x, y), a, o),
        )
        for j, (x, y, a, o) in enumerate(pairs)
    ]
    return _band_check("amplification", cases, replicates, f"exact value plus {len(cases)} cases")


def check_retrieval_curves(sample: harness.PairSample, replicates: int = 10, seed: int = 9) -> CheckResult:
    """Analytic curves over the default grid, and empirical retrieval against them.

    For two tasks, analytic recall rises with o and falls with a for both JP
    and JW.  Empirical (2, 4) retrieval over ``replicates`` replicates agrees
    with the analytic JP point within 3 standard errors, in precision and in
    recall.  Which method wins at low cost depends on the sample, so that is
    reported only.
    """
    grid = harness.DEFAULT_GRID

    def broken(detail: str) -> CheckResult:
        return CheckResult("retrieval-curves", False, detail)

    curves = {
        task: harness.eval_curves(sample, grid=grid, task=task, mode="analytic")
        for task in ("jsd<0.25", "jw>0.5")
    }
    for task, points in curves.items():
        if len(points) != 2 * len(grid):
            return broken(f"missing grid points for {task}")
        for method in ("JP", "JW"):
            rows = [p for p in points if p.method == method]
            for p in rows:
                for q in rows:
                    if q.a == p.a and q.o > p.o and q.recall < p.recall - 1e-12:
                        return broken(f"recall not increasing in o ({method}, {task})")
                    if q.o == p.o and q.a > p.a and q.recall > p.recall + 1e-12:
                        return broken(f"recall not decreasing in a ({method}, {task})")
    (jp_point,) = [p for p in curves["jsd<0.25"] if (p.method, p.a, p.o) == ("JP", 2, 4)]
    runs = harness.empirical_retrieval_runs(sample, "jsd<0.25", 2, 4, replicates=replicates, seed=seed)
    precisions, recalls = np.array(runs).T
    se_r = float(recalls.std(ddof=1) / math.sqrt(len(runs)))
    se_p = float(precisions.std(ddof=1) / math.sqrt(len(runs)))
    dr = abs(float(recalls.mean()) - jp_point.recall)
    dp = abs(float(precisions.mean()) - jp_point.precision)
    jp_mean, jw_mean = (
        float(np.mean([p.recall for p in curves["jsd<0.25"] if p.method == m and p.o <= 8]))
        for m in ("JP", "JW")
    )
    return CheckResult(
        "retrieval-curves",
        dr <= 3.0 * se_r and dp <= 3.0 * se_p,
        f"{2 * len(grid)} analytic points per task; empirical (2,4) over {replicates} "
        f"replicates: recall diff {dr:.5f} <= 3SE {3 * se_r:.5f}, precision diff {dp:.5f} "
        f"<= 3SE {3 * se_p:.5f}; low-cost mean recall JP {jp_mean:.3f} vs JW {jw_mean:.3f} "
        "(reported)",
    )


def check_divergence_scatter(sample: harness.PairSample, steps: int = 200) -> CheckResult:
    """d(tv) <= jsd <= tv holds on a grid of two-element pairs, the transposed sandwich not.

    How often jsd falls under the empirical d(1 - jp) curve, and under the
    exact bounds, on the pairs of ``sample`` is reported, never asserted.
    """
    direction = harness.check_jsd_tv_direction(steps=steps)
    summary = harness.divergence_summary(sample)
    if not (direction.lower_holds and direction.upper_holds):
        verdict = (
            f"exact two-element bounds failed (max {direction.max_below_lower:.3g} under d(tv), "
            f"{direction.max_above_upper:.3g} over tv)"
        )
    else:
        verdict = (
            f"verified direction d(tv) <= jsd <= tv on {direction.grid_pairs} grid pairs "
            f"(transposed sandwich holds: {direction.transposed_holds})"
        )
    return CheckResult(
        "divergence-scatter",
        direction.lower_holds and direction.upper_holds and not direction.transposed_holds,
        f"{verdict}; jsd under d(1-jp) on {summary.frac_jsd_below_jp_curve:.5f} of "
        f"{summary.n} pairs (max gap {summary.max_jsd_below_jp_curve:.5f}), exact-bound violations "
        f"{summary.frac_jsd_below_d_of_tv:.5f}/{summary.frac_jsd_above_tv:.5f}",
    )


def run_all() -> list[CheckResult]:
    """Every check at its default sizes and seeds, those of ``jpminhash verify``."""
    sample = harness.synth_pairs(400, seed=5)
    return [
        check_oracle_equivalence(),
        check_collision_law(),
        check_marginal_law(),
        check_dense_sparse(),
        check_sandwich_and_constructions(sample=sample),
        check_uniform_reduction(),
        check_structural_properties(),
        check_metric(),
        check_tree_collision(),
        check_amplification(),
        check_retrieval_curves(sample),
        check_divergence_scatter(sample),
    ]
