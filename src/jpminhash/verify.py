"""Self-contained oracle and property suite behind the ``verify`` command.

Each check is deterministic (fixed seeds throughout) and returns a single
pass/fail row with a short diagnostic, so a clean build prints a clean table
and any regression points at the responsible property.  Statistical checks
use four-sigma binomial bands; with the seeds pinned they either always pass
or always fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dense, harness, minhash, similarity
from .sparse import Partition, SparseDistribution, SparseVector, coarsen, normalize

__all__ = ["CheckResult", "run_all", "REFERENCE_PAIR"]

# x = (0.5, 0.4, 0.1), y = (0.2, 0.4, 0.4): the worked reference pair used
# across the suite; its jp is 1/5 + 4/13 + 1/10 = 79/130.
REFERENCE_PAIR = (
    SparseDistribution(((0, 0.5), (1, 0.4), (2, 0.1))),
    SparseDistribution(((0, 0.2), (1, 0.4), (2, 0.4))),
)
REFERENCE_JP = 79.0 / 130.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool | None  # None marks a report-only row
    detail: str


def _rand_pair(
    rng: np.random.Generator, max_side: int = 30
) -> tuple[SparseDistribution, SparseDistribution]:
    """Random overlapping pair; overlap ranges from disjoint to identical."""
    shared = int(rng.integers(0, max_side + 1))
    only_x = int(rng.integers(0 if shared else 1, max_side + 1))
    only_y = int(rng.integers(0 if shared else 1, max_side + 1))
    pool = rng.choice(1_000_000, size=shared + only_x + only_y, replace=False).astype(np.uint64)
    x = harness._exp_dist(rng, pool[: shared + only_x])
    y = harness._exp_dist(rng, np.concatenate([pool[:shared], pool[shared + only_x :]]))
    return x, y


def _sigma_band(p: float, n: int, sigmas: float = 4.0) -> float:
    return sigmas * math.sqrt(p * (1.0 - p) / n)


def check_oracle_equivalence(n_pairs: int = 300) -> CheckResult:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(n_pairs):
        x, y = _rand_pair(rng, max_side=60)
        worst = max(worst, abs(similarity.jp(x, y) - similarity.jp_naive(x, y)))
    return CheckResult(
        "oracle-equivalence", worst <= 1e-9, f"max |jp - jp_naive| = {worst:.3g} over {n_pairs} pairs"
    )


def check_reference_values() -> CheckResult:
    x, y = REFERENCE_PAIR
    jp_val = similarity.jp(x, y)
    jw_val = similarity.jw(x, y)
    tv_val = similarity.total_variation(x, y)
    terms = similarity.jp_terms(x, y)
    ok = (
        abs(jp_val - REFERENCE_JP) <= 1e-12
        and abs(jw_val - 7.0 / 13.0) <= 1e-12
        and abs(tv_val - 0.3) <= 1e-12
        and abs(terms.term_of(0) - 0.2) <= 1e-12
        and abs(terms.term_of(1) - 4.0 / 13.0) <= 1e-12
        and abs(terms.term_of(2) - 0.1) <= 1e-12
    )
    return CheckResult("reference-values", ok, f"jp={jp_val:.9f} jw={jw_val:.9f} tv={tv_val:.3f}")


def check_bounds_identity(n_pairs: int = 300) -> CheckResult:
    rng = np.random.default_rng(11)
    ok = True
    detail = ""
    for _ in range(n_pairs):
        x, y = _rand_pair(rng)
        jp_val = similarity.jp(x, y)
        jw_val = similarity.jw(x, y)
        tv_val = similarity.total_variation(x, y)
        if not (jw_val <= jp_val <= 2.0 * jw_val / (1.0 + jw_val) + 1e-9):
            ok, detail = False, f"sandwich broken: jw={jw_val} jp={jp_val}"
            break
        if abs(jw_val - (1.0 - tv_val) / (1.0 + tv_val)) > 1e-9:
            ok, detail = False, f"jw/tv identity broken: jw={jw_val} tv={tv_val}"
            break
    return CheckResult("bounds-and-identity", ok, detail or f"{n_pairs} pairs inside the sandwich")


def check_constructions(n_cases: int = 50) -> CheckResult:
    rng = np.random.default_rng(13)
    worst_low = 0.0
    worst_up = 0.0
    for _ in range(n_cases):
        x, y = _rand_pair(rng)
        jw_val = similarity.jw(x, y)
        xl, yl = similarity.construct_lower_pair(x, y)
        worst_low = max(worst_low, abs(similarity.jp(xl, yl) - jw_val))
        n_shared = int(rng.integers(2, 9))
        ids = list(range(n_shared))
        p = float(rng.uniform(0.0, 0.9))
        masses = np.maximum(rng.exponential(size=n_shared), 1e-12)
        masses = masses / masses.sum() * (1.0 - p)
        shared = SparseVector(tuple(zip(ids, masses.tolist())))
        cut = int(rng.integers(1, n_shared))
        split = Partition.of(ids[:cut], ids[cut:])
        xu, yu = similarity.construct_upper_pair(shared, p, split)
        worst_up = max(worst_up, abs(similarity.jp(xu, yu) - (1.0 - p)))
    ok = worst_low <= 1e-9 and worst_up <= 1e-9
    return CheckResult(
        "bound-constructions", ok, f"max|jp'-jw|={worst_low:.3g} max|jp''-(1-p)|={worst_up:.3g}"
    )


def check_uniform_reduction(n_cases: int = 200) -> CheckResult:
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(n_cases):
        x, y = _rand_pair(rng)
        ux = normalize(SparseVector(tuple((i, 1.0) for i, _ in x.entries)))
        uy = normalize(SparseVector(tuple((i, 1.0) for i, _ in y.entries)))
        worst = max(worst, abs(similarity.jp(ux, uy) - similarity.support_jaccard(ux, uy)))
    return CheckResult("uniform-reduction", worst <= 1e-12, f"max deviation {worst:.3g}")


def check_structural_properties(n_cases: int = 60) -> CheckResult:
    rng = np.random.default_rng(19)
    for _ in range(n_cases):
        x, y = _rand_pair(rng, max_side=10)
        terms = similarity.jp_terms(x, y)
        saturated = 0
        for eid, t in terms.terms:
            cap = min(x.mass_of(eid), y.mass_of(eid))
            if t > cap + 1e-12:
                return CheckResult("structural-properties", False, f"term above cap at {eid}")
            if abs(t - cap) <= 1e-12:
                saturated += 1
        if len(terms.terms) >= 2 and saturated < 2:
            return CheckResult("structural-properties", False, "fewer than two saturated terms")
        jp_xy = similarity.jp(x, y)
        inter = sorted(x.support & y.support)
        for a in inter[:4]:
            z = similarity.adversarial_z(x, y, a)
            if similarity.jp(x, z) < jp_xy - 1e-9 or similarity.jp(y, z) < jp_xy - 1e-9:
                return CheckResult("structural-properties", False, f"adversarial dominance broken at {a}")
            if abs(z.mass_of(a) - terms.term_of(a)) > 1e-12:
                return CheckResult("structural-properties", False, "z mass != per-element term")
    return CheckResult("structural-properties", True, f"{n_cases} pairs: caps, saturation, dominance")


def check_coarsening(n_cases: int = 50) -> CheckResult:
    rng = np.random.default_rng(23)
    for _ in range(n_cases):
        x, y = _rand_pair(rng, max_side=12)
        union = sorted(x.support | y.support)
        k = int(rng.integers(1, len(union) + 1))
        labels = rng.integers(0, k, size=len(union))
        groups: dict[int, set[int]] = {}
        for eid, lab in zip(union, labels):
            groups.setdefault(int(lab), set()).add(eid)
        part = Partition(tuple(frozenset(g) for g in groups.values()))
        before = similarity.jp(x, y)
        after = similarity.jp(coarsen(x, part), coarsen(y, part))
        if after < before - 1e-9:
            return CheckResult("coarsening-monotone", False, f"{after} < {before}")
    return CheckResult("coarsening-monotone", True, f"{n_cases} partitions never decreased jp")


def check_metric(n_triples: int = 2000) -> CheckResult:
    rng = np.random.default_rng(29)
    for _ in range(n_triples):
        pool = rng.choice(10_000, size=18, replace=False).astype(np.uint64)
        x = harness._exp_dist(rng, pool[rng.random(18) < 0.6])
        y = harness._exp_dist(rng, pool[rng.random(18) < 0.6])
        z = harness._exp_dist(rng, pool[rng.random(18) < 0.6])
        dxy = 1.0 - similarity.jp(x, y)
        dxz = 1.0 - similarity.jp(x, z)
        dyz = 1.0 - similarity.jp(y, z)
        if dxy > dxz + dyz + 1e-12:
            return CheckResult("metric-triangle", False, f"{dxy} > {dxz} + {dyz}")
    return CheckResult("metric-triangle", True, f"{n_triples} triples satisfied the triangle")


def check_collision_law(n_seeds: int = 200_000) -> CheckResult:
    x, y = REFERENCE_PAIR
    est = minhash.collision_estimate(x, y, 101, n_seeds)
    band = _sigma_band(REFERENCE_JP, n_seeds)
    ok = abs(est - REFERENCE_JP) <= band
    return CheckResult(
        "collision-law", ok, f"estimate {est:.6f} vs {REFERENCE_JP:.6f} (band {band:.6f}, N={n_seeds})"
    )


def check_marginal_law(n_seeds: int = 200_000) -> CheckResult:
    from scipy.stats import chisquare

    x = REFERENCE_PAIR[0]
    samples = minhash.pminhash_many(x, np.arange(n_seeds, dtype=np.uint64))
    counts = np.array([(samples == i).sum() for i in x.ids])
    expected = x.masses * n_seeds
    stat, pvalue = chisquare(counts, expected)
    return CheckResult("marginal-law", bool(pvalue > 0.001), f"chi2={stat:.2f} p={pvalue:.4f}")


def check_dense_sparse(n_cases: int = 200) -> CheckResult:
    rng = np.random.default_rng(31)
    for case in range(n_cases):
        n = int(rng.integers(2, 20))
        masses = np.maximum(rng.exponential(size=n), 1e-12)
        mu = dense.FiniteMeasure(tuple(masses.tolist()))
        lam = dense.FiniteMeasure(tuple([1.0] * n))
        seed = int(rng.integers(0, 2**63))
        res = dense.astar_pminhash(mu, lam, seed)
        full = dense.astar_pminhash(mu, lam, seed, early_termination=False)
        sparse_sample = minhash.pminhash(SparseVector.from_dense(masses.tolist()), seed)
        if res.sample != sparse_sample or res.sample != full.sample:
            return CheckResult("dense-sparse-agreement", False, f"mismatch in case {case}")
    return CheckResult("dense-sparse-agreement", True, f"{n_cases} cases matched exactly")


def check_tree_collision(n_seeds: int = 100_000) -> CheckResult:
    x, y = REFERENCE_PAIR
    tree = minhash.WeightTree.from_nested((0, (1, 2)))
    seeds = np.arange(n_seeds, dtype=np.uint64)
    sx = minhash.tree_pminhash_many(tree, x, seeds)
    sy = minhash.tree_pminhash_many(tree, y, seeds)
    freq = float(np.mean((sx == 0) & (sy == 0)))
    target = min(x.mass_of(0), y.mass_of(0))
    band = _sigma_band(target, n_seeds)
    ok = abs(freq - target) <= band
    return CheckResult("tree-collision", ok, f"freq {freq:.5f} vs min mass {target:.5f} (band {band:.5f})")


def check_amplification(replicates: int = 5000) -> CheckResult:
    x, y = REFERENCE_PAIR
    a, o = 2, 8
    freq = harness.banded_collision_frequency(x, y, a, o, seed=7, replicates=replicates)
    target = harness.amplify(REFERENCE_JP, a, o)
    band = _sigma_band(target, replicates)
    ok = abs(freq - target) <= band
    return CheckResult(
        "banded-amplification", ok, f"freq {freq:.5f} vs {target:.5f} (band {band:.5f}, a={a}, o={o})"
    )


def report_divergence_direction() -> list[CheckResult]:
    direction = harness.check_jsd_tv_direction(steps=200)
    rows = [
        CheckResult(
            "jsd-tv-direction",
            direction.lower_holds and direction.upper_holds,
            "verified d(tv) <= jsd <= tv on "
            f"{direction.grid_pairs} two-element pairs; transposed sandwich holds: "
            f"{direction.transposed_holds}",
        )
    ]
    pairs = harness.synth_pairs(1000, seed=3)
    summary = harness.divergence_summary(pairs)
    rows.append(
        CheckResult(
            "jsd-curve-violations",
            None,
            f"jsd below d(1-jp) on {summary.frac_jsd_below_jp_curve:.4f} of {summary.n} pairs "
            f"(max gap {summary.max_jsd_below_jp_curve:.4f}); exact bounds violated on "
            f"{summary.frac_jsd_below_d_of_tv:.4f} (lower) / {summary.frac_jsd_above_tv:.4f} (upper)",
        )
    )
    return rows


def check_eval_consistency() -> CheckResult:
    pairs = harness.synth_pairs(400, seed=5)
    task = harness.Task.parse("jsd<0.25")
    analytic = harness.eval_curves(pairs, grid=[(2, 4)], task=task, mode="analytic")
    jp_point = next(p for p in analytic if p.method == "JP")
    runs = harness.empirical_retrieval_runs(pairs, task, 2, 4, replicates=10, seed=9)
    recalls = np.array([r[1] for r in runs])
    se = float(recalls.std(ddof=1) / math.sqrt(len(runs)))
    diff = abs(float(recalls.mean()) - jp_point.recall)
    ok = diff <= 3.0 * se + 1e-6
    return CheckResult("eval-consistency", ok, f"recall diff {diff:.5f} vs 3*SE {3 * se:.5f}")


def run_all() -> list[CheckResult]:
    """Run every check; report-only rows have passed=None."""
    rows = [
        check_reference_values(),
        check_oracle_equivalence(),
        check_bounds_identity(),
        check_constructions(),
        check_uniform_reduction(),
        check_structural_properties(),
        check_coarsening(),
        check_metric(),
        check_collision_law(),
        check_marginal_law(),
        check_dense_sparse(),
        check_tree_collision(),
        check_amplification(),
        check_eval_consistency(),
    ]
    rows.extend(report_divergence_direction())
    return rows
