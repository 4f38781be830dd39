"""Bounded proposal-stream search: coupling, termination, continuous case."""

import numpy as np
import pytest

from jpminhash.dense import (
    AStarResult,
    FiniteMeasure,
    PiecewiseDensity,
    _astar_many_discrete,
    astar_collision,
    astar_pminhash,
    global_bound,
    proposal_stream,
    refine_breakpoints,
)
from jpminhash.hashing import derive_seed_vec
from jpminhash.minhash import pminhash
from jpminhash.similarity import jp
from jpminhash.sparse import SparseDistribution, SparseVector
from jpminhash.verify import REF_JP, sigma_band

UNIFORM3 = FiniteMeasure((1.0, 1.0, 1.0))
REF_MU = FiniteMeasure((0.5, 0.4, 0.1))
REF_NU = FiniteMeasure((0.2, 0.4, 0.4))


# --- types -------------------------------------------------------------------

def test_measure_validation():
    with pytest.raises(ValueError, match="positive total"):
        FiniteMeasure((0.0, 0.0))
    with pytest.raises(ValueError, match="nonnegative"):
        FiniteMeasure((1.0, -0.5))
    with pytest.raises(ValueError, match="nonnegative"):
        FiniteMeasure((1.0, float("nan")))
    with pytest.raises(ValueError, match="1-D"):
        FiniteMeasure([[0.5, 0.5]])
    assert FiniteMeasure((0.25, 0.75)).total == 1.0
    # positivity needs no sum: masses whose total overflows still form a measure
    assert len(FiniteMeasure((1e308, 1e308))) == 2
    m = FiniteMeasure([0.25, 0.75])
    assert m.masses.dtype == np.float64 and not m.masses.flags.writeable
    assert m.arr is m.masses


def test_piecewise_validation():
    with pytest.raises(ValueError, match="0.0 to 1.0"):
        PiecewiseDensity((0.0, 0.5), (1.0,))
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewiseDensity((0.0, 0.5, 0.5, 1.0), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewiseDensity((0.0, float("nan"), 1.0), (1.0, 1.0))
    with pytest.raises(ValueError, match="one density value per piece"):
        PiecewiseDensity((0.0, 1.0), (1.0, 2.0))
    with pytest.raises(ValueError, match="positive piece"):
        PiecewiseDensity((0.0, 1.0), (0.0,))
    d = PiecewiseDensity((0.0, 0.5, 1.0), (1.6, 0.4))
    assert d.total == pytest.approx(1.0)
    assert d.density_at(0.25) == 1.6
    assert d.density_at(0.75) == 0.4
    assert type(d.density_at(0.25)) is float
    for a in (d.breakpoints, d.values):
        assert a.dtype == np.float64 and not a.flags.writeable


# --- global bound ------------------------------------------------------------

def test_global_bound_values():
    assert global_bound(UNIFORM3, UNIFORM3) == 1.0
    assert global_bound(
        FiniteMeasure((0.9, 0.1)), FiniteMeasure((0.5, 0.5))
    ) == pytest.approx(1.8)
    with pytest.raises(ValueError, match="unbounded ratio"):
        global_bound(FiniteMeasure((0.5, 0.5)), FiniteMeasure((1.0, 0.0)))
    with pytest.raises(ValueError, match="different lengths"):
        global_bound(FiniteMeasure((1.0,)), UNIFORM3)
    with pytest.raises(ValueError, match="same kind"):
        global_bound(REF_MU, PiecewiseDensity((0.0, 1.0), (1.0,)))


def test_global_bound_piecewise_uses_common_refinement():
    mu = PiecewiseDensity((0.0, 0.25, 1.0), (2.0, 2.0 / 3.0))
    lam = PiecewiseDensity((0.0, 0.5, 1.0), (1.0, 1.0))
    assert global_bound(mu, lam) == pytest.approx(2.0)
    bp = refine_breakpoints(mu, lam)
    assert bp.tolist() == [0.0, 0.25, 0.5, 1.0]


# --- proposal stream -----------------------------------------------------------

def test_stream_is_ascending_and_deterministic():
    first = list(proposal_stream(UNIFORM3, 7))
    second = list(proposal_stream(UNIFORM3, 7))
    assert first == second
    keys = [e for _, e in first]
    assert keys == sorted(keys)
    assert sorted(c for c, _ in first) == [0, 1, 2]


def test_stream_never_reads_the_measure():
    # identical (proposal, seed) must give identical streams no matter which
    # measure is searched; the stream takes no measure at all
    lam = FiniteMeasure((0.5, 1.5, 1.0))
    assert list(proposal_stream(lam, 3)) == list(proposal_stream(lam, 3))


def test_stream_skips_zero_mass_elements():
    lam = FiniteMeasure((1.0, 0.0, 1.0))
    candidates = [c for c, _ in proposal_stream(lam, 5)]
    assert 1 not in candidates and sorted(candidates) == [0, 2]


def test_stream_first_position_uniformity():
    lam = FiniteMeasure((1.0,) * 8)
    counts = np.zeros(8)
    n = 20_000
    for s in range(n):
        first, _ = next(proposal_stream(lam, s))
        counts[first] += 1
    from scipy.stats import chisquare

    _, pvalue = chisquare(counts)
    assert pvalue > 0.001


def test_continuous_stream_keys_increase():
    lam = PiecewiseDensity((0.0, 0.5, 1.0), (0.5, 1.5))
    stream = proposal_stream(lam, 11)
    prev = 0.0
    for _ in range(50):
        point, e = next(stream)
        assert 0.0 <= point < 1.0
        assert e > prev
        prev = e


def test_continuous_stream_respects_zero_density_pieces():
    lam = PiecewiseDensity((0.0, 0.25, 0.75, 1.0), (1.0, 0.0, 3.0))
    stream = proposal_stream(lam, 13)
    for _ in range(200):
        point, _ = next(stream)
        assert not 0.25 <= point < 0.75


# --- search ------------------------------------------------------------------

def test_identical_measure_and_proposal_stops_immediately():
    for seed in range(30):
        res = astar_pminhash(REF_MU, REF_MU, seed)
        assert res.iterations == 1


def test_search_equals_sparse_sampler():
    # alpha scales measure and proposal to subnormal and near-overflow masses
    rng = np.random.default_rng(30)
    for alpha in (1.0, 1e-310, 1e300):
        for _ in range(300):
            n = int(rng.integers(2, 25))
            masses = np.maximum(rng.exponential(size=n), 1e-12) * alpha
            mu = FiniteMeasure(masses)
            lam = FiniteMeasure((alpha,) * n)
            seed = int(rng.integers(0, 2**63))
            res = astar_pminhash(mu, lam, seed)
            assert res.sample == pminhash(SparseVector.from_dense(masses.tolist()), seed)
            assert type(res.sample) is int and type(res.best_key) is float


def test_early_termination_sound():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 25))
        masses = np.maximum(rng.exponential(size=n), 1e-12)
        lam_masses = np.maximum(rng.exponential(size=n), 1e-12)
        mu = FiniteMeasure(tuple(masses.tolist()))
        lam = FiniteMeasure(tuple(lam_masses.tolist()))
        seed = int(rng.integers(0, 2**63))
        early = astar_pminhash(mu, lam, seed)
        full = astar_pminhash(mu, lam, seed, early_termination=False)
        assert early.sample == full.sample
        assert early.iterations <= full.iterations == n


def test_batch_search_matches_scalar():
    # 300 seeds over 3 elements fit one block; 70 seeds over 1000 span three;
    # alpha scales measure and proposal to subnormal and near-overflow masses
    wide = np.linspace(1.0, 3.0, 1000) / 2000.0
    cases = [
        (FiniteMeasure(REF_MU.masses * alpha), FiniteMeasure(UNIFORM3.masses * alpha), 300)
        for alpha in (1.0, 1e-310, 1e300)
    ] + [
        (FiniteMeasure(wide * alpha), FiniteMeasure(np.full(1000, alpha)), 70)
        for alpha in (1.0, 1e-310, 1e300)
    ]
    for mu, lam, count in cases:
        seeds = derive_seed_vec(99, np.arange(count))
        samples, iters = _astar_many_discrete(mu, lam, seeds)
        for i, s in enumerate(seeds):
            res = astar_pminhash(mu, lam, int(s))
            assert res.sample == int(samples[i])
            assert res.iterations == int(iters[i])


def test_search_marginal_law():
    from scipy.stats import chisquare

    seeds = derive_seed_vec(5, np.arange(100_000))
    samples, _ = _astar_many_discrete(REF_MU, UNIFORM3, seeds)
    counts = np.array([(samples == i).sum() for i in range(3)])
    _, pvalue = chisquare(counts, REF_MU.masses * 100_000)
    assert pvalue > 0.001


def test_concentrated_measure_mean_iterations_fixture():
    # regression fixture: mean visited prefix, frozen from a pinned run;
    # roughly half the stream instead of all 1000 elements
    n = 1000
    mu = FiniteMeasure((0.99,) + (0.01 / (n - 1),) * (n - 1))
    lam = FiniteMeasure((1.0,) * n)
    seeds = derive_seed_vec(2024, np.arange(2000))
    _, iters = _astar_many_discrete(mu, lam, seeds)
    assert float(iters.mean()) == 504.16
    assert iters.max() <= n


def test_collision_identical_measures():
    assert astar_collision(REF_MU, REF_MU, UNIFORM3, 0, 200) == 1.0


def test_collision_matches_jp_discrete():
    n = 200_000
    est = astar_collision(REF_MU, REF_NU, UNIFORM3, 17, n)
    assert abs(est - REF_JP) <= sigma_band(REF_JP, n)


def test_collision_piecewise_matches_piece_mass_jp():
    mu = PiecewiseDensity((0.0, 0.5, 1.0), (1.6, 0.4))
    nu = PiecewiseDensity((0.0, 0.5, 1.0), (0.4, 1.6))
    lam = PiecewiseDensity((0.0, 1.0), (1.0,))
    # per-piece masses (0.8, 0.2) vs (0.2, 0.8); two-element jp = 1 - tv = 0.4
    target = jp(
        SparseDistribution(((0, 0.8), (1, 0.2))), SparseDistribution(((0, 0.2), (1, 0.8)))
    )
    assert target == pytest.approx(0.4, abs=1e-12)
    n = 20_000
    est = astar_collision(mu, nu, lam, 23, n)
    assert abs(est - target) <= sigma_band(target, n)


def test_collision_invariant_under_breakpoint_refinement():
    # describing the same measures with finer pieces, or switching to another
    # dominating piecewise proposal, must not move the collision target: the
    # rate is pinned by the masses on the common breakpoint set
    mu = PiecewiseDensity((0.0, 0.5, 1.0), (1.6, 0.4))
    nu = PiecewiseDensity((0.0, 0.5, 1.0), (0.4, 1.6))
    mu_fine = PiecewiseDensity((0.0, 0.125, 0.5, 0.8, 1.0), (1.6, 1.6, 0.4, 0.4))
    nu_fine = PiecewiseDensity((0.0, 0.25, 0.5, 1.0), (0.4, 0.4, 1.6))
    lam_uniform = PiecewiseDensity((0.0, 1.0), (1.0,))
    lam_skewed = PiecewiseDensity((0.0, 0.5, 1.0), (0.8, 1.2))
    n = 20_000
    for seed, (m, v, lam) in enumerate(
        [
            (mu, nu, lam_uniform),
            (mu_fine, nu_fine, lam_uniform),
            (mu, nu, lam_skewed),
            (mu_fine, nu_fine, lam_skewed),
        ]
    ):
        est = astar_collision(m, v, lam, 29 + seed, n)
        assert abs(est - 0.4) <= sigma_band(0.4, n)


def test_continuous_search_marginal():
    mu = PiecewiseDensity((0.0, 0.5, 1.0), (1.6, 0.4))
    lam = PiecewiseDensity((0.0, 1.0), (1.0,))
    n = 20_000
    hits = 0
    for s in range(n):
        res = astar_pminhash(mu, lam, s)
        assert isinstance(res, AStarResult) and type(res.sample) is float
        if res.sample < 0.5:
            hits += 1
    assert abs(hits / n - 0.8) <= sigma_band(0.8, n)


def test_continuous_exhaustive_mode_rejected():
    lam = PiecewiseDensity((0.0, 1.0), (1.0,))
    with pytest.raises(ValueError, match="exhaust"):
        astar_pminhash(lam, lam, 0, early_termination=False)


def test_domination_violation_rejected():
    mu = FiniteMeasure((0.5, 0.5))
    lam = FiniteMeasure((1.0, 0.0))
    with pytest.raises(ValueError, match="unbounded ratio"):
        astar_pminhash(mu, lam, 0)
