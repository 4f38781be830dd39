"""Bounded proposal-stream search: coupling, termination, continuous case."""

import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpminhash import dense
from jpminhash.dense import (
    AStarResult,
    FiniteMeasure,
    PiecewiseDensity,
    _astar_many_discrete,
    _astar_many_piecewise,
    _stream_head,
    _visit,
    astar_collision,
    astar_pminhash,
    global_bound,
    proposal_stream,
    refine_breakpoints,
)
from jpminhash.hashing import TILE_CELLS, derive_seed_vec, uniform_hash_vec
from jpminhash.minhash import pminhash
from jpminhash.similarity import jp
from jpminhash.sparse import SparseDistribution, SparseVector
from jpminhash.verify import REF_JP, sigma_band

UNIFORM3 = FiniteMeasure((1.0, 1.0, 1.0))
REF_MU = FiniteMeasure((0.5, 0.4, 0.1))
REF_NU = FiniteMeasure((0.2, 0.4, 0.4))

# two piecewise densities described on coarse and on fine pieces, and two
# proposals that dominate them
PW_MU = PiecewiseDensity((0.0, 0.5, 1.0), (1.6, 0.4))
PW_NU = PiecewiseDensity((0.0, 0.5, 1.0), (0.4, 1.6))
PW_MU_FINE = PiecewiseDensity((0.0, 0.125, 0.5, 0.8, 1.0), (1.6, 1.6, 0.4, 0.4))
PW_NU_FINE = PiecewiseDensity((0.0, 0.25, 0.5, 1.0), (0.4, 0.4, 1.6))
PW_UNIFORM = PiecewiseDensity((0.0, 1.0), (1.0,))
PW_SKEWED = PiecewiseDensity((0.0, 0.5, 1.0), (0.8, 1.2))
# against PW_UNIFORM: a bound of 9, so searches run long, up to about 100 proposals
PW_SPIKE = PiecewiseDensity((0.0, 0.1, 1.0), (9.0, 0.1))


def _mixture(n: int, seed: int) -> tuple[FiniteMeasure, FiniteMeasure, FiniteMeasure]:
    """Two overlapping measures with zeros, and their normalized mixture plus a floor as proposal.

    A search against this proposal stops after a few proposals, so the
    batch search sorts only a short head of each stream.
    """
    rng = np.random.default_rng(seed)
    base = rng.exponential(size=n)
    mu, nu = (base * rng.uniform(0.5, 1.5, n) * (rng.random(n) >= 0.1) for _ in range(2))
    lam = 0.5 * (mu / mu.sum() + nu / nu.sum()) + 0.1 / n
    return FiniteMeasure(mu), FiniteMeasure(nu), FiniteMeasure(lam)


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


def test_piecewise_density_rejects_a_negative_value():
    with pytest.raises(ValueError, match="^density values must be finite and nonnegative$"):
        PiecewiseDensity((0.0, 0.5, 1.0), (1.0, -0.5))


def test_density_at_one_is_outside_the_unit_interval():
    with pytest.raises(ValueError, match=r"^point outside \[0, 1\)$"):
        PiecewiseDensity((0.0, 1.0), (1.0,)).density_at(1.0)


def test_astar_collision_needs_a_positive_seed_count():
    with pytest.raises(ValueError, match="^n must be positive$"):
        astar_collision(UNIFORM3, UNIFORM3, UNIFORM3, 0, n=0)


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


def test_subnormal_stream_orders_as_unit_masses():
    # keys of subnormal masses would overflow; the stream sorts scaled keys
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(20):
            tiny = list(proposal_stream(FiniteMeasure((1e-310, 2e-310)), seed))
            unit = list(proposal_stream(FiniteMeasure((1.0, 2.0)), seed))
            assert [c for c, _ in tiny] == [c for c, _ in unit]
            keys = [e for _, e in tiny]  # inf past the float range
            assert keys == sorted(keys) and all(type(e) is float for e in keys)


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
    # alpha scales measure and proposal to subnormal and near-overflow masses.
    # 40 seeds over the 2000-element mixture span three blocks, and there the
    # batch sorts only a head of each stream (a fallback test is below).
    wide = np.linspace(1.0, 3.0, 1000) / 2000.0
    mix, _, mix_lam = _mixture(2000, 7)
    cases = [
        (FiniteMeasure(REF_MU.masses * alpha), FiniteMeasure(UNIFORM3.masses * alpha), 300)
        for alpha in (1.0, 1e-310, 1e300)
    ] + [
        (FiniteMeasure(wide * alpha), FiniteMeasure(np.full(1000, alpha)), 70)
        for alpha in (1.0, 1e-310, 1e300)
    ] + [(mix, mix_lam, 40)]
    assert 40 > 2 * TILE_CELLS // 2000
    for mu, lam, count in cases:
        seeds = derive_seed_vec(99, np.arange(count))
        samples, iters = _astar_many_discrete((mu,), lam, seeds)
        for i, s in enumerate(seeds):
            res = astar_pminhash(mu, lam, int(s))
            assert res.sample == int(samples[i])
            assert res.iterations == int(iters[i])


def test_batch_search_matches_scalar_past_one_tile():
    # a support longer than a tile: each tile hashes one seed's row.  The
    # mixture's first round partitions a short head; the concentrated
    # measure's bound makes its first round the full sort, and its searches
    # visit a good part of the stream
    n = TILE_CELLS + 7000
    assert TILE_CELLS // n == 0
    mu, nu, lam = _mixture(n, 11)
    seeds = derive_seed_vec(12, np.arange(5))
    _searches((mu, nu), lam, seeds)
    concentrated = FiniteMeasure(np.r_[0.99, np.full(n - 1, 0.01 / (n - 1))])
    _, iters = _searches((concentrated,), FiniteMeasure(np.ones(n)), seeds[:3])
    assert (iters > 1000).all()


def test_stream_head_flags_a_tie_at_its_last_key():
    # columns: a tie at the 3rd key reaching past the head; a tie inside the
    # head; no tie; an infinite 3rd key, shared with every later arrival
    inf = math.inf
    keys = np.array([
        [3.0, 1.0, 6.0, inf],
        [1.0, 1.0, 5.0, 0.0],
        [2.0, 1.0, 4.0, inf],
        [2.0, 4.0, 3.0, inf],
        [5.0, 5.0, 2.0, 1.0],
        [2.0, 6.0, 1.0, inf],
    ])
    order, e, tied = _stream_head(keys.T, 3)
    assert tied.tolist() == [True, False, False, True]
    whole = np.argsort(keys, axis=0, kind="stable")
    assert np.array_equal(order[:, ~tied], whole[:3, ~tied])
    assert np.array_equal(e, np.take_along_axis(keys, whole[:3], axis=0))  # even at a tie
    # a search decided within an untied head is the search over the full sort
    ratio = np.array([1.0, 3.0, 0.5, 2.0, 1.0, 1.5])
    head = _visit(order, e, ratio[order], 2.0)
    full = _visit(whole, np.take_along_axis(keys, whole, axis=0), ratio[whole], 2.0)
    decided = head[2] & ~tied
    assert decided.sum() == 2
    for got, want in zip(head, full):
        assert np.array_equal(got[decided], want[decided])
    # a head as long as the stream, or longer, is its stable full sort, never tied
    for k in (6, 7):
        order, e, tied = _stream_head(keys.T, k)
        assert np.array_equal(order, whole) and not tied.any()
        assert np.array_equal(e, np.take_along_axis(keys, whole, axis=0))


def _searches(mus, lam, seeds):
    """``(samples, iters)`` of one batch search of every measure in ``mus``, one row per measure.

    Asserts that each row equals the batch search of its measure alone and
    the scalar search, seed by seed.  The batch is the finite or the
    piecewise one, after the kind of ``lam``.
    """
    batch = _astar_many_discrete if isinstance(lam, FiniteMeasure) else _astar_many_piecewise
    samples, iters = (a.reshape(len(mus), len(seeds)) for a in batch(mus, lam, seeds))
    for mu, got_samples, got_iters in zip(mus, samples, iters):
        alone = batch((mu,), lam, seeds)
        assert np.array_equal(got_samples, alone[0]) and np.array_equal(got_iters, alone[1])
        scalar = [astar_pminhash(mu, lam, int(s)) for s in seeds]
        assert got_samples.tolist() == [r.sample for r in scalar]
        assert got_iters.tolist() == [r.iterations for r in scalar]
    return samples, iters


def _stream_keys(lam: FiniteMeasure, seeds) -> np.ndarray:
    """Arrival keys of the stream of ``lam``, all of whose masses are positive, one column per seed.

    They are hashed through ``dense.uniform_hash_vec``, as the batch hashes
    them, and may overflow to inf, as there.
    """
    u = dense.uniform_hash_vec(np.arange(len(lam), dtype=np.uint64)[:, None], seeds[None])
    with np.errstate(over="ignore"):
        return -np.log(u) / lam._unit[0].masses[:, None]


def _force_head(monkeypatch, k):
    monkeypatch.setattr(dense, "_head_len", lambda b_hat, n: k)


def test_stream_prefix_fallbacks_equal_the_full_sort(monkeypatch):
    # a head of 2 arrivals: many searches do not stop within it and rerun
    # over the full sort, some for one measure of the pair only
    mu, nu, lam = _mixture(2000, 8)
    seeds = derive_seed_vec(5, np.arange(40))
    _force_head(monkeypatch, 2)
    _, iters = _searches((mu, nu), lam, seeds)
    assert (iters > 2).any(axis=0).sum() >= 10
    assert ((iters[0] <= 2) & (iters[1] > 2)).any()
    assert ((iters[1] <= 2) & (iters[0] > 2)).any()
    # subnormal proposal masses give infinite keys, all tied: a head of 3
    # holds the 2 finite ones and a tied infinite one
    mu = FiniteMeasure(np.linspace(1.0, 2.0, 8))
    lam = FiniteMeasure((1.0, 1.0) + (1e-320,) * 6)
    seeds = derive_seed_vec(6, np.arange(50))
    _force_head(monkeypatch, 3)
    keys = _stream_keys(lam, seeds)
    assert _stream_head(keys.T, 3)[2].all()
    _searches((mu, FiniteMeasure(mu.masses[::-1])), lam, seeds)
    monkeypatch.undo()
    # masses spanning more than 2**1022: the bound (first case) or a key
    # ratio (second) overflows to inf, still a valid one
    seeds = derive_seed_vec(3, np.arange(50))
    for mu, lam in [
        ((1.0, 1.0, 1.0, 1.0), (1.0, 1e-320, 1.0, 1.0)),
        ((1.0, 1e-310, 1.0), (1.0, 1e-200, 1.0)),
    ]:
        mu, lam = FiniteMeasure(mu), FiniteMeasure(lam)
        _searches((mu, mu), lam, seeds)
        assert astar_collision(mu, mu, lam, 3, 50) == 1.0


def test_pair_search_reruns_a_head_tied_at_its_last_key(monkeypatch):
    # uniforms rounded up to quarters make keys tie across rows, so a head
    # often ends in a tie with a later arrival and holds the wrong one of the
    # tied rows; the scalar stream hashes through the same function
    def coarse(ids, seeds):
        return np.ceil(uniform_hash_vec(ids, seeds) * 4.0) / 4.0

    monkeypatch.setattr(dense, "uniform_hash_vec", coarse)
    _force_head(monkeypatch, 3)
    mu, nu = FiniteMeasure(np.linspace(1.0, 3.0, 12)), FiniteMeasure(np.linspace(3.0, 1.0, 12))
    lam = FiniteMeasure(np.ones(12))
    seeds = derive_seed_vec(4, np.arange(200))
    _, iters = _searches((mu, nu), lam, seeds)
    keys = _stream_keys(lam, seeds)
    tied = _stream_head(keys.T, 3)[2]
    assert (tied & (iters <= 3).all(axis=0)).sum() >= 10


_MASS = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))


@st.composite
def _finite_pairs(draw):
    """Two measures with zeros, a proposal that dominates both, and a first head length."""
    n = draw(st.integers(1, 80))
    mu, nu = (draw(st.lists(_MASS, min_size=n, max_size=n).filter(any)) for _ in range(2))
    lam = [m + v + draw(_MASS) for m, v in zip(mu, nu)]
    return (FiniteMeasure(mu), FiniteMeasure(nu)), FiniteMeasure(lam), draw(st.integers(1, n))


@st.composite
def _piecewise_pairs(draw):
    """Two densities with zero pieces on their own eighths, and a proposal that dominates both.

    Every density holds at least 1/16 of mass and the proposal at most 6,
    so no search visits more than about a hundred proposals.
    """
    value = st.one_of(st.just(0.0), st.floats(0.5, 2.0))

    def density():
        cuts = draw(st.lists(st.integers(1, 7), max_size=4, unique=True))
        bp = [0.0, *sorted(c / 8 for c in cuts), 1.0]
        vals = draw(st.lists(value, min_size=len(bp) - 1, max_size=len(bp) - 1).filter(any))
        return PiecewiseDensity(bp, vals)

    mu, nu = density(), density()
    bp = refine_breakpoints(mu, nu)
    extra = [draw(value) for _ in range(len(bp) - 1)]
    lam = PiecewiseDensity(bp, dense.piece_values_on(mu, bp) + dense.piece_values_on(nu, bp) + extra)
    return (mu, nu), lam, None


@settings(max_examples=60, deadline=None)
@given(st.one_of(_finite_pairs(), _piecewise_pairs()), st.integers(0, 2**32))
def test_batch_loop_equals_the_scalar_search(case, base):
    # a finite first head of any length, tied or not, doubles up to the
    # whole stream; a piecewise one doubles until every density stops
    mus, lam, k = case
    seeds = derive_seed_vec(base, np.arange(30))
    if k is None:
        _searches(mus, lam, seeds)
    else:
        with mock.patch.object(dense, "_head_len", lambda b_hat, n: k):
            _searches(mus, lam, seeds)


def test_pair_search_on_benchmark_measures(monkeypatch):
    # the benchmark's finite pairs: a head per seed at support 2000, the
    # whole stream at support 300, where K >= n as for UNIFORM3
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import inputs

    seeds = derive_seed_vec(12, np.arange(120))
    for support, seed in ((2000, 7), (300, 7), (300, 5)):
        mu, nu, lam = inputs.make_finite_measures(seed, support)
        _searches((mu, nu), lam, seeds)
    _searches((REF_MU, REF_NU), UNIFORM3, derive_seed_vec(7, np.arange(300)))


def _count_calls(monkeypatch, batch: str) -> dict:
    """Counts, from here on, of the calls to ``dense.<batch>`` and to ``global_bound``."""
    calls = {"search": 0, "bound": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(dense, batch, counted("search", getattr(dense, batch)))
    monkeypatch.setattr(dense, "global_bound", counted("bound", global_bound))
    return calls


def test_collision_shares_one_stream_head(monkeypatch):
    # astar_collision searches both measures in one call over one head of
    # the proposal stream, and takes each measure's bound once
    mu, nu, lam = _mixture(2000, 9)
    n = 300
    seeds = derive_seed_vec(11, np.arange(n))
    a, _ = _astar_many_discrete((mu,), lam, seeds)
    b, _ = _astar_many_discrete((nu,), lam, seeds)
    calls = _count_calls(monkeypatch, "_astar_many_discrete")
    assert astar_collision(mu, nu, lam, 11, n) == float(np.mean(a == b))
    assert calls == {"search": 1, "bound": 2}


def test_searches_raise_where_the_measure_has_no_candidate():
    # mu weighs only elements whose arrival keys may overflow to inf; on 4 of
    # these seeds the scalar search stops at an infinite arrival before any
    # candidate of mu and raises, and so do the batches
    mu, lam = FiniteMeasure((0, 0, 1, 1, 1)), FiniteMeasure((1, 1, 6e-309, 6e-309, 6e-309))
    seeds = derive_seed_vec(1, np.arange(40))
    raised = 0
    for s in seeds.tolist():
        try:
            astar_pminhash(mu, lam, s)
        except ValueError as err:
            assert str(err) == "measure has no mass on the proposal support"
            raised += 1
    assert raised == 4
    with pytest.raises(ValueError, match="no mass on the proposal support"):
        _astar_many_discrete((mu,), lam, seeds)
    with pytest.raises(ValueError, match="no mass on the proposal support"):
        astar_collision(mu, mu, lam, 1, 40)


def test_search_marginal_law():
    from scipy.stats import chisquare

    seeds = derive_seed_vec(5, np.arange(100_000))
    samples, _ = _astar_many_discrete((REF_MU,), UNIFORM3, seeds)
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
    _, iters = _astar_many_discrete((mu,), lam, seeds)
    assert float(iters.mean()) == 504.16
    assert iters.max() <= n


def test_collision_identical_measures():
    assert astar_collision(REF_MU, REF_MU, UNIFORM3, 0, 200) == 1.0


def test_collision_matches_jp_discrete():
    n = 200_000
    est = astar_collision(REF_MU, REF_NU, UNIFORM3, 17, n)
    assert abs(est - REF_JP) <= sigma_band(REF_JP, n)


def test_collision_piecewise_matches_piece_mass_jp():
    mu, nu, lam = PW_MU, PW_NU, PW_UNIFORM
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
    n = 20_000
    for seed, (m, v, lam) in enumerate(
        [
            (PW_MU, PW_NU, PW_UNIFORM),
            (PW_MU_FINE, PW_NU_FINE, PW_UNIFORM),
            (PW_MU, PW_NU, PW_SKEWED),
            (PW_MU_FINE, PW_NU_FINE, PW_SKEWED),
        ]
    ):
        est = astar_collision(m, v, lam, 29 + seed, n)
        assert abs(est - 0.4) <= sigma_band(0.4, n)


def test_piecewise_batch_matches_scalar():
    # equal samples and equal iteration counts, seed for seed, for each
    # density alone and for a pair searched in one call.  The first round
    # hashes TILE_CELLS // 4 seeds per tile: the first case spans two tiles.
    # Pairs on different breakpoints look their ratios up in the common
    # refinement.  Zero pieces in the measure and in the proposal, and a
    # bound of 9 (long searches), are covered too.
    tile = TILE_CELLS // 4
    gap = PiecewiseDensity((0.0, 0.25, 0.75, 1.0), (3.0, 0.0, 1.0))
    gap_flat = PiecewiseDensity((0.0, 0.25, 0.75, 1.0), (1.0, 0.0, 1.0))
    gap_lam = PiecewiseDensity((0.0, 0.25, 0.75, 1.0), (1.0, 0.0, 3.0))
    cases = [
        ((PW_MU, PW_NU), PW_UNIFORM, tile + 300),
        ((PW_MU_FINE, PW_NU_FINE), PW_UNIFORM, 300),
        ((PW_NU, PW_MU_FINE), PW_SKEWED, 300),
        ((PW_NU_FINE, PW_MU), PW_SKEWED, 300),
        ((gap, gap_flat), gap_lam, 1000),
        ((PW_SPIKE, PW_MU_FINE), PW_UNIFORM, 1000),
    ]
    for mus, lam, count in cases:
        _, iters = _searches(mus, lam, derive_seed_vec(41, np.arange(count)))
    assert iters[0].max() > 4 * 4  # the spike needs several doublings
    with pytest.raises(ValueError, match="same kind"):
        astar_collision(PW_MU, REF_MU, PW_UNIFORM, 0, 10)
    with pytest.raises(ValueError, match="same kind"):
        astar_collision(REF_MU, REF_NU, PW_UNIFORM, 0, 10)


def test_piecewise_pair_doubles_the_head_for_either_density():
    # the uniform density stops at its first proposal, the spike needs
    # several doublings of the head: its seeds are searched again whichever
    # place it takes in the pair
    seeds = derive_seed_vec(47, np.arange(500))
    for mus in ((PW_UNIFORM, PW_SPIKE), (PW_SPIKE, PW_UNIFORM)):
        _, iters = _searches(mus, PW_UNIFORM, seeds)
        assert (iters[mus.index(PW_UNIFORM)] == 1).all()
        assert iters[mus.index(PW_SPIKE)].max() > 4 * 8


def test_piecewise_pair_shares_one_stream(monkeypatch):
    # on the benchmark's piecewise densities a pair hashes fewer cells than
    # its two single searches together, and a collision is one batch call
    # with one bound per density
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import inputs

    mu, nu, lam = inputs.make_piecewise_densities(1501, 64)
    seeds = derive_seed_vec(1501, np.arange(600))
    samples, _ = _searches((mu, nu), lam, seeds)
    cells = []

    def counted(ids, seeds):
        u = uniform_hash_vec(ids, seeds)
        cells[-1] += u.size
        return u

    monkeypatch.setattr(dense, "uniform_hash_vec", counted)
    for mus in ((mu,), (nu,), (mu, nu)):
        cells.append(0)
        _astar_many_piecewise(mus, lam, seeds)
    assert cells[2] < cells[0] + cells[1]
    calls = _count_calls(monkeypatch, "_astar_many_piecewise")
    assert astar_collision(mu, nu, lam, 1501, 600) == float(np.mean(samples[0] == samples[1]))
    assert calls == {"search": 1, "bound": 2}


def _pw_scaled(d: PiecewiseDensity, factor: float) -> PiecewiseDensity:
    return PiecewiseDensity(d.breakpoints, d.values * factor)


def test_piecewise_searches_rescale():
    # the searches run on copies scaled by powers of two, so a pair whose
    # bound underflows (or overflows) searches as its unit-scale pair does
    tiny, huge = PiecewiseDensity((0.0, 1.0), (1e-300,)), PiecewiseDensity((0.0, 1.0), (1e300,))
    assert global_bound(tiny, huge) == 0.0
    unit = (
        PiecewiseDensity((0.0, 1.0), (math.frexp(1e-300)[0],)),
        PiecewiseDensity((0.0, 1.0), (math.frexp(1e300)[0],)),
    )
    cases = [(tiny, huge, *unit, math.ldexp(1.0, math.frexp(1e-300)[1]))]
    for mu, lam in ((PW_MU, PW_SKEWED), (PW_NU_FINE, PW_UNIFORM), (PW_MU_FINE, PW_SKEWED)):
        for s in (2.0**900, 2.0**-900):
            # keys scale by 1/s whether lam scales with mu or against it
            cases.append((_pw_scaled(mu, s), _pw_scaled(lam, s), mu, lam, s))
            cases.append((_pw_scaled(mu, s), _pw_scaled(lam, 1 / s), mu, lam, s))
    seeds = derive_seed_vec(43, np.arange(300))
    for mu, lam, mu1, lam1, s in cases:
        samples, iters = _astar_many_piecewise((mu,), lam, seeds)
        samples1, iters1 = _astar_many_piecewise((mu1,), lam1, seeds)
        assert np.array_equal(samples, samples1) and np.array_equal(iters, iters1)
        for seed in seeds[:30].tolist():
            res, res1 = astar_pminhash(mu, lam, seed), astar_pminhash(mu1, lam1, seed)
            assert (res.sample, res.iterations) == (res1.sample, res1.iterations)
            assert res.best_key == res1.best_key / s  # in the units of mu
    assert astar_collision(tiny, tiny, huge, 0, 100) == 1.0


def test_continuous_search_marginal():
    mu, lam = PW_MU, PW_UNIFORM
    n = 20_000
    hits = 0
    for s in range(n):
        res = astar_pminhash(mu, lam, s)
        assert isinstance(res, AStarResult) and type(res.sample) is float
        if res.sample < 0.5:
            hits += 1
    assert abs(hits / n - 0.8) <= sigma_band(0.8, n)


def test_piecewise_searches_raise_on_an_infinite_bound():
    # the bound overflows, so no arrival of the endless stream could stop
    # either search; a finite stream ends, so there the bound stays valid
    mu, lam = PiecewiseDensity((0, 0.5, 1), (1, 1)), PiecewiseDensity((0, 0.5, 1), (1, 1e-310))
    assert global_bound(mu._unit[0], lam._unit[0]) == math.inf
    with pytest.raises(ValueError, match="unbounded ratio"):
        astar_pminhash(mu, lam, 0)
    with pytest.raises(ValueError, match="unbounded ratio"):
        _astar_many_piecewise((mu,), lam, derive_seed_vec(1, np.arange(10)))
    finite_mu, finite_lam = FiniteMeasure((1, 1)), FiniteMeasure((1, 1e-310))
    assert global_bound(finite_mu._unit[0], finite_lam._unit[0]) == math.inf
    _searches((finite_mu,), finite_lam, derive_seed_vec(1, np.arange(50)))


def test_batches_take_a_ratio_past_the_float_range_as_massless():
    # the proposal over a subnormal mass or density overflows to inf without
    # a warning, as the scalar search's float division does, and the batches
    # equal the scalar search seed for seed
    seeds = derive_seed_vec(1, np.arange(200))
    tiny = FiniteMeasure((1, 1e-310))
    _searches((tiny, tiny), FiniteMeasure((1, 1)), seeds)
    assert astar_collision(tiny, tiny, FiniteMeasure((1, 1)), 1, 200) == 1.0
    pw_tiny = PiecewiseDensity((0, 0.5, 1), (1, 1e-310))
    _searches((pw_tiny, pw_tiny), PiecewiseDensity((0, 0.5, 1), (1, 1)), seeds)
    assert astar_collision(pw_tiny, pw_tiny, PiecewiseDensity((0, 0.5, 1), (1, 1)), 1, 200) == 1.0


def test_continuous_exhaustive_mode_rejected():
    lam = PiecewiseDensity((0.0, 1.0), (1.0,))
    with pytest.raises(ValueError, match="exhaust"):
        astar_pminhash(lam, lam, 0, early_termination=False)


def test_domination_violation_rejected():
    mu = FiniteMeasure((0.5, 0.5))
    lam = FiniteMeasure((1.0, 0.0))
    with pytest.raises(ValueError, match="unbounded ratio"):
        astar_pminhash(mu, lam, 0)
