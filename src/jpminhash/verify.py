"""The property suite: one check per guarantee of the paper.

``jpminhash verify`` and the acceptance tests run the same checks.  Each
check takes its sizes and seeds as arguments: :func:`run_all` runs every
check at the small sizes behind ``jpminhash verify``, and
``tests/test_acceptance.py`` runs them at the acceptance sizes.  Every check
is deterministic (fixed seeds throughout) and returns a single pass/fail row
with a short diagnostic, so a clean build prints a clean table and any
regression points at the responsible property.  Statistical checks use
four-sigma binomial bands; with the seeds pinned they either always pass or
always fail.

The reference pair and the random generators the checks draw from are
shared with the unit tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dense, harness, minhash, similarity
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
    masses = np.maximum(rng.exponential(size=ids.shape[0]), 1e-12)  # draws of exactly 0 are void
    return normalize(SparseVector.from_arrays(ids, masses))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def rand_pair(
    rng: np.random.Generator, max_side: int = 30
) -> tuple[SparseDistribution, SparseDistribution]:
    """Random pair with overlap anywhere between disjoint and identical."""
    shared = int(rng.integers(0, max_side + 1))
    only_x = int(rng.integers(0 if shared else 1, max_side + 1))
    only_y = int(rng.integers(0 if shared else 1, max_side + 1))
    pool = rng.choice(1_000_000, size=shared + only_x + only_y, replace=False).astype(np.uint64)
    x = rand_dist(rng, pool[: shared + only_x])
    y = rand_dist(rng, np.concatenate([pool[:shared], pool[shared + only_x :]]))
    return x, y


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


def _pull(est: float, target: float, band: float) -> float:
    """Deviation in units of the band; the raw deviation when the band is 0."""
    return abs(est - target) / band if band else abs(est - target)


def check_oracle_equivalence(n_pairs: int, seed: int, max_side: int) -> CheckResult:
    """Fast jp equals the O(n^2) oracle, and the hand values on the reference pair."""
    rng = np.random.default_rng(seed)
    pairs = [rand_pair(rng, max_side) for _ in range(n_pairs)]
    worst = 0.0
    for x, y in pairs:
        worst = max(worst, abs(similarity.jp(x, y) - similarity.jp_naive(x, y)))
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


def check_collision_law(n_pairs: int, n_seeds: int, seed: int, base_seed: int) -> CheckResult:
    """Collision frequency over n_seeds seeds equals jp within four sigma.

    The pairs are the reference pair, a distribution with itself, a disjoint
    pair, then random pairs drawn from ``seed`` up to ``n_pairs`` in all.
    Pair i hashes under seeds derived from ``base_seed + i``.
    """
    rng = np.random.default_rng(seed)
    pairs = [(REF_X, REF_Y), (REF_X, REF_X), (uniform_on([0]), uniform_on([1]))]
    pairs.extend(rand_pair(rng, max_side=12) for _ in range(n_pairs - len(pairs)))
    worst_pull = 0.0
    ref_est = ref_band = 0.0
    for i, (x, y) in enumerate(pairs):
        p = similarity.jp(x, y)
        est = minhash.collision_estimate(x, y, base_seed + i, n_seeds)
        band = sigma_band(p, n_seeds)
        if i == 0:
            ref_est, ref_band = est, band
        worst_pull = max(worst_pull, _pull(est, p, band))
        if abs(est - p) > band:
            return CheckResult(
                "collision-law", False, f"pair {i}: {est:.6f} vs {p:.6f} band {band:.6f}"
            )
    return CheckResult(
        "collision-law",
        True,
        f"{len(pairs)} pairs, worst pull {worst_pull:.2f} sigma-units of 4; reference pair "
        f"estimate {ref_est:.6f} vs {REF_JP:.6f} (band {ref_band:.6f}, N={n_seeds})",
    )


def check_marginal_law(n_seeds: int, seed: int) -> CheckResult:
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


def check_dense_sparse(n_cases: int, seed: int) -> CheckResult:
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
    n_pairs: int,
    seed: int,
    max_side: int,
    construction_seed: int,
    sample: harness.PairSample,
) -> CheckResult:
    """jw <= jp <= 2jw/(1+jw) and jw = (1-tv)/(1+tv), plus both bound constructions.

    The sandwich is checked on random pairs and on the scores of ``sample``.
    The lower construction runs on the first tenth of the random pairs; the
    upper one on as many random shared bases drawn from ``construction_seed``.
    """
    rng = np.random.default_rng(seed)
    pairs = [rand_pair(rng, max_side) for _ in range(n_pairs)]
    worst_sandwich = 0.0
    worst_identity = 0.0
    for x, y in pairs:
        jp_v, jw_v = similarity.jp(x, y), similarity.jw(x, y)
        tv_v = similarity.total_variation(x, y)
        worst_sandwich = max(worst_sandwich, jw_v - jp_v, jp_v - 2.0 * jw_v / (1.0 + jw_v))
        worst_identity = max(worst_identity, abs(jw_v - (1.0 - tv_v) / (1.0 + tv_v)))
    for s in sample.scores:
        worst_sandwich = max(worst_sandwich, s.jw - s.jp, s.jp - 2.0 * s.jw / (1.0 + s.jw))
        worst_identity = max(worst_identity, abs(s.jw - (1.0 - s.tv) / (1.0 + s.tv)))
    n_constructions = n_pairs // 10
    worst_lower = 0.0
    for x, y in pairs[:n_constructions]:
        xl, yl = similarity.construct_lower_pair(x, y)
        worst_lower = max(worst_lower, abs(similarity.jp(xl, yl) - similarity.jw(x, y)))
    rng = np.random.default_rng(construction_seed)
    worst_upper = 0.0
    for _ in range(n_constructions):
        n = int(rng.integers(2, 12))
        p = float(rng.uniform(0.0, 0.95))
        masses = rng.exponential(size=n)
        masses = masses / masses.sum() * (1.0 - p)
        shared = SparseVector(tuple(zip(range(n), masses.tolist())))
        cut = int(rng.integers(1, n))
        split = Partition.of(range(cut), range(cut, n))
        xu, yu = similarity.construct_upper_pair(shared, p, split)
        worst_upper = max(worst_upper, abs(similarity.jp(xu, yu) - (1.0 - p)))
    worst = max(worst_sandwich, worst_identity, worst_lower, worst_upper)
    return CheckResult(
        "sandwich-and-constructions",
        worst <= 1e-9,
        f"sandwich slack {worst_sandwich:.3g}, identity {worst_identity:.3g}, "
        f"lower {worst_lower:.3g}, upper {worst_upper:.3g}",
    )


def check_uniform_reduction(n_cases: int, seed: int) -> CheckResult:
    """jp equals set Jaccard on pairs of uniform distributions.

    Also, on a fifth as many cases: for uniform distributions on ``big`` and
    ``small < big`` elements sharing ``overlap``, jw is overlap / (2 big - overlap).
    """
    rng = np.random.default_rng(seed)
    worst_reduction = 0.0
    for _ in range(n_cases):
        shared = int(rng.integers(0, 40))
        nx = int(rng.integers(0 if shared else 1, 40))
        ny = int(rng.integers(0 if shared else 1, 40))
        pool = rng.choice(100_000, size=shared + nx + ny, replace=False)
        x = uniform_on(pool[: shared + nx])
        y = uniform_on(np.concatenate([pool[:shared], pool[shared + nx :]]))
        worst_reduction = max(
            worst_reduction, abs(similarity.jp(x, y) - similarity.support_jaccard(x, y))
        )
    worst_indicator = 0.0
    for _ in range(n_cases // 5):
        big = int(rng.integers(2, 40))
        small = int(rng.integers(1, big))
        overlap = int(rng.integers(1, small + 1))
        pool = rng.choice(100_000, size=big + small - overlap, replace=False)
        x = uniform_on(pool[:big])
        y = uniform_on(np.concatenate([pool[:overlap], pool[big : big + small - overlap]]))
        expected = overlap / ((big - overlap) + big)
        worst_indicator = max(worst_indicator, abs(similarity.jw(x, y) - expected))
    return CheckResult(
        "uniform-reduction",
        worst_reduction <= 1e-12 and worst_indicator <= 1e-12,
        f"set-jaccard dev {worst_reduction:.3g}, indicator jw dev {worst_indicator:.3g}",
    )


def check_structural_properties(n_cases: int, seed: int) -> CheckResult:
    """Term caps and saturation, then (a fifth as many cases each) disjoint-block
    combination, adversarial dominance and coarsening monotonicity."""
    rng = np.random.default_rng(seed)

    def broken(detail: str) -> CheckResult:
        return CheckResult("structural-properties", False, detail)

    for i in range(n_cases):
        x, y = rand_pair(rng, max_side=8)
        terms = similarity.jp_terms(x, y)
        saturated = 0
        for eid, t in terms.terms:
            cap = min(x.mass_of(eid), y.mass_of(eid))
            if t > cap + 1e-12:
                return broken(f"term cap broken on pair {i}")
            if abs(t - cap) <= 1e-12:
                saturated += 1
        if len(terms.terms) >= 2 and saturated < 2:
            return broken(f"under-saturated pair {i}")
    for _ in range(n_cases // 5):
        m = int(rng.integers(2, 6))
        blocks = [
            rand_dist(rng, np.arange(100 * k, 100 * k + rng.integers(1, 5), dtype=np.uint64))
            for k in range(m)
        ]
        alpha = np.maximum(rng.exponential(size=m), 1e-9)
        beta = np.maximum(rng.exponential(size=m), 1e-9)
        alpha /= alpha.sum()
        beta /= beta.sum()
        x = normalize(SparseVector.from_pairs(
            (eid, alpha[k] * mass) for k, w in enumerate(blocks) for eid, mass in w.entries
        ))
        y = normalize(SparseVector.from_pairs(
            (eid, beta[k] * mass) for k, w in enumerate(blocks) for eid, mass in w.entries
        ))
        combo = similarity.jp(x, y)
        direct = similarity.jp(
            normalize(SparseVector.from_pairs(enumerate(alpha))),
            normalize(SparseVector.from_pairs(enumerate(beta))),
        )
        if abs(combo - direct) > 1e-9:
            return broken(f"disjoint combination off by {abs(combo - direct):.3g}")
    for _ in range(n_cases // 5):
        x, y = rand_pair(rng, max_side=6)
        base = similarity.jp(x, y)
        terms = similarity.jp_terms(x, y)
        for a in sorted(x.support & y.support):
            z = similarity.adversarial_z(x, y, a)
            if similarity.jp(x, z) < base - 1e-9 or similarity.jp(y, z) < base - 1e-9:
                return broken(f"dominance broken at element {a}")
            if abs(z.mass_of(a) - terms.term_of(a)) > 1e-12:
                return broken(f"z mass differs from the jp term at element {a}")
    for i in range(n_cases // 5):
        x, y = rand_pair(rng, max_side=8)
        union = sorted(x.support | y.support)
        labels = rng.integers(0, max(1, len(union) // 2), size=len(union))
        groups: dict[int, set[int]] = {}
        for eid, lab in zip(union, labels):
            groups.setdefault(int(lab), set()).add(eid)
        part = Partition(tuple(frozenset(g) for g in groups.values()))
        if similarity.jp(coarsen(x, part), coarsen(y, part)) < similarity.jp(x, y) - 1e-9:
            return broken(f"coarsening decreased jp on pair {i}")
    return CheckResult(
        "structural-properties",
        True,
        f"{n_cases} pairs: caps, saturation, combination, dominance, z mass, coarsening all held",
    )


def check_metric(n_triples: int, seed: int) -> CheckResult:
    """1 - jp satisfies the triangle inequality on random triples."""
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(n_triples):
        pool = rng.choice(100_000, size=15, replace=False).astype(np.uint64)
        picks = []
        for _ in range(3):
            mask = rng.random(15) < 0.7
            if not mask.any():
                mask[0] = True
            picks.append(pool[mask])
        x, y, z = (rand_dist(rng, p) for p in picks)
        d_xy, d_xz, d_yz = (1.0 - similarity.jp(*uv) for uv in ((x, y), (x, z), (y, z)))
        if d_xy > d_xz + d_yz + 1e-12:
            violations += 1
    return CheckResult(
        "metric-triangle", violations == 0, f"{n_triples} triples, {violations} violations"
    )


def check_tree_collision(n_cases: int, n_seeds: int, seed: int) -> CheckResult:
    """A tree that puts one element first makes pairs collide there with min-mass frequency.

    The cases are the reference pair, then random pairs drawn from ``seed``;
    case j hashes under the seeds ``j*n_seeds`` onwards.
    """
    rng = np.random.default_rng(seed)
    cases = [(REF_X, REF_Y)]
    for _ in range(n_cases - 1):
        ids = np.arange(int(rng.integers(3, 7)), dtype=np.uint64)
        cases.append((rand_dist(rng, ids), rand_dist(rng, ids)))
    worst_pull = 0.0
    for j, (x, y) in enumerate(cases):
        union = sorted(x.support | y.support)
        first = union[0]
        tree = minhash.WeightTree.from_nested((first, tuple(union[1:])))
        seeds = np.arange(j * n_seeds, (j + 1) * n_seeds, dtype=np.uint64)
        sx = minhash.tree_pminhash_many(tree, x, seeds)
        sy = minhash.tree_pminhash_many(tree, y, seeds)
        freq = float(np.mean((sx == first) & (sy == first)))
        target = min(x.mass_of(first), y.mass_of(first))
        band = sigma_band(target, n_seeds)
        worst_pull = max(worst_pull, _pull(freq, target, band))
        if abs(freq - target) > band:
            return CheckResult(
                "tree-generalization",
                False,
                f"case {j}: {freq:.5f} vs {target:.5f} (band {band:.5f})",
            )
    return CheckResult(
        "tree-generalization",
        True,
        f"{len(cases)} pairs, worst pull {worst_pull:.2f} sigma-units of 4",
    )


def check_amplification(replicates: int, seed: int, band_seed: int) -> CheckResult:
    """Banded collision frequency equals amplify(jp, a, o) within four sigma.

    Besides one exact value of ``amplify``, the cases are the reference pair
    at (2, 8) and two random pairs drawn from ``seed`` at (1, 3) and (3, 2);
    case j bands under ``band_seed + j``.
    """
    if harness.amplify(0.5, 2, 3) != 0.578125:
        return CheckResult("amplification", False, "amplify(0.5, 2, 3) != 0.578125")
    rng = np.random.default_rng(seed)
    cases = [
        (REF_X, REF_Y, 2, 8),
        (*rand_pair(rng, max_side=6), 1, 3),
        (*rand_pair(rng, max_side=6), 3, 2),
    ]
    worst_pull = 0.0
    for j, (x, y, a, o) in enumerate(cases):
        target = harness.amplify(similarity.jp(x, y), a, o)
        freq = harness.banded_collision_frequency(
            x, y, a, o, seed=band_seed + j, replicates=replicates
        )
        band = sigma_band(target, replicates)
        worst_pull = max(worst_pull, _pull(freq, target, band))
        if abs(freq - target) > band:
            return CheckResult(
                "amplification", False, f"case {j}: {freq:.5f} vs {target:.5f} (a={a}, o={o})"
            )
    return CheckResult(
        "amplification",
        True,
        f"exact value plus {len(cases)} cases, worst pull {worst_pull:.2f} sigma-units of 4",
    )


def check_retrieval_curves(sample: harness.PairSample, replicates: int, seed: int) -> CheckResult:
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
    task = harness.Task.parse("jsd<0.25")
    (jp_point,) = [
        p for p in harness.eval_curves(sample, [(2, 4)], task, mode="analytic") if p.method == "JP"
    ]
    runs = harness.empirical_retrieval_runs(sample, task, 2, 4, replicates=replicates, seed=seed)
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


def check_divergence_scatter(sample: harness.PairSample, steps: int) -> CheckResult:
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
    """Every check, at the small sizes and seeds of ``jpminhash verify``."""
    sample = harness.synth_pairs(400, seed=5)
    return [
        check_oracle_equivalence(300, seed=7, max_side=60),
        check_collision_law(5, n_seeds=200_000, seed=2, base_seed=101),
        check_marginal_law(40_000, seed=0),
        check_dense_sparse(200, seed=31),
        check_sandwich_and_constructions(
            300, seed=11, max_side=30, construction_seed=13, sample=sample
        ),
        check_uniform_reduction(200, seed=17),
        check_structural_properties(250, seed=19),
        check_metric(2000, seed=29),
        check_tree_collision(2, n_seeds=100_000, seed=37),
        check_amplification(5000, seed=41, band_seed=7),
        check_retrieval_curves(sample, replicates=10, seed=9),
        check_divergence_scatter(sample, steps=200),
    ]
