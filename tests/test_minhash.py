"""Sampler determinism, collision and marginal laws, signatures, trees."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from jpminhash.hashing import derive_seed
from jpminhash.minhash import (
    Signature,
    WeightTree,
    batch_signatures,
    collision_estimate,
    pminhash,
    pminhash_many,
    signature,
    tree_pminhash,
    tree_pminhash_many,
)
from jpminhash.similarity import jp
from jpminhash.sparse import SparseDistribution, SparseVector
from jpminhash.verify import REF_JP, REF_X, REF_Y, rand_dist, sigma_band


def test_single_element_always_wins():
    d = SparseDistribution(((42, 1.0),))
    for seed in range(20):
        assert pminhash(d, seed) == 42


def test_empty_vector_rejected():
    with pytest.raises(ValueError, match="empty"):
        pminhash(SparseVector(()), 0)


def test_determinism_and_vector_agreement():
    rng = np.random.default_rng(20)
    for _ in range(20):
        d = rand_dist(rng, rng.choice(1000, size=8, replace=False))
        seeds = rng.integers(0, 2**64, size=30, dtype=np.uint64)
        vec = pminhash_many(d, seeds)
        for s, v in zip(seeds, vec):
            assert pminhash(d, int(s)) == int(v)
    # more seeds than one tile holds: the vector is raced in blocks of seeds
    d = rand_dist(rng, rng.choice(1000, size=3, replace=False))
    seeds = rng.integers(0, 2**64, size=(1 << 15) + 300, dtype=np.uint64)
    assert pminhash_many(d, seeds).tolist() == [pminhash(d, s) for s in seeds.tolist()]


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from([0.25, 3.0, 1e6, 1e-6, 1e-310, 1e300]),
)
@settings(max_examples=40, deadline=None)
def test_scale_invariance_exact(seed, alpha):
    scaled = SparseVector(tuple((i, alpha * m) for i, m in REF_X.entries))
    assert pminhash(scaled, seed) == pminhash(REF_X, seed)
    seeds = [derive_seed(seed, j) for j in range(4)]
    want = pminhash_many(REF_X, seeds).tolist()
    assert pminhash_many(scaled, seeds).tolist() == want
    assert batch_signatures([scaled, REF_X], seed, 4).tolist() == [want, want]


def test_permutation_invariance():
    # keys depend on element ids, never on entry positions
    pairs = ((3, 0.2), (11, 0.5), (90, 0.3))
    a = SparseVector(pairs)
    b = SparseVector.from_pairs(reversed(pairs))
    assert a.entries == b.entries
    for seed in range(50):
        assert pminhash(a, seed) == pminhash(b, seed)


def test_marginal_frequencies_within_binomial_band():
    n = 200_000
    samples = pminhash_many(REF_X, np.arange(n, dtype=np.uint64))
    for eid, mass in REF_X.entries:
        freq = float(np.mean(samples == eid))
        assert abs(freq - mass) <= sigma_band(mass, n)


def test_marginal_chi_square():
    n = 200_000
    samples = pminhash_many(REF_Y, np.arange(n, dtype=np.uint64))
    counts = np.array([(samples == eid).sum() for eid, _ in REF_Y.entries])
    _, pvalue = chisquare(counts, REF_Y.masses * n)
    assert pvalue > 0.001


def test_signature_definition_and_determinism():
    sig = signature(REF_X, base_seed=5, k=10, doc_id="d")
    assert sig.k == 10 and len(sig.samples) == 10
    assert sig.samples == signature(REF_X, 5, 10).samples
    assert sig.samples[0] == pminhash(REF_X, derive_seed(5, 0))
    assert sig.samples[7] == pminhash(REF_X, derive_seed(5, 7))
    with pytest.raises(ValueError, match="positive"):
        signature(REF_X, 5, 0)
    with pytest.raises(ValueError):
        Signature("d", (1, 2), base_seed=0, k=3)


def test_identical_inputs_identical_signatures():
    a = signature(REF_X, 99, 64)
    b = signature(SparseDistribution(REF_X.entries), 99, 64)
    assert a.samples == b.samples


def test_signature_match_rate_tracks_jp():
    k = 10_000
    sx = signature(REF_X, 7, k).samples
    sy = signature(REF_Y, 7, k).samples
    rate = sum(a == b for a, b in zip(sx, sy)) / k
    assert abs(rate - REF_JP) <= sigma_band(REF_JP, k)


def test_batch_signatures_match_single():
    rng = np.random.default_rng(21)
    vecs = [rand_dist(rng, rng.choice(500, size=int(rng.integers(1, 9)), replace=False)) for _ in range(17)]
    mat = batch_signatures(vecs, base_seed=3, k=6)
    for r, v in enumerate(vecs):
        assert tuple(int(s) for s in mat[r]) == signature(v, 3, 6).samples
    # at k=64 the short rows share tiles and the 700- and 1000-element rows
    # are each raced alone, in blocks of seeds
    vecs += [rand_dist(rng, rng.choice(5000, size=n, replace=False)) for n in (1, 1000, 3, 700, 1, 40)]
    mat = batch_signatures(vecs, base_seed=4, k=64)
    for r, v in enumerate(vecs):
        assert tuple(int(s) for s in mat[r]) == signature(v, 4, 64).samples
    assert mat[-5].tolist() == [pminhash(vecs[-5], derive_seed(4, j)) for j in range(64)]


def test_batch_signatures_table_of_repeated_ids():
    # ids repeat across rows, so the batch hashes each distinct id once; 3,000
    # distinct ids at k=64 split the seeds into two table blocks, and the
    # 3,000- and 1,800-element rows are raced alone in sub-blocks of each
    rng = np.random.default_rng(22)
    sizes = (1, 3000, 7, 1800, 1, 300)
    vecs = [rand_dist(rng, np.sort(rng.choice(3000, size=n, replace=False)).astype(np.uint64)) for n in sizes]
    assert len(set().union(*(v.support for v in vecs))) == 3000
    mat = batch_signatures(vecs, base_seed=5, k=64)
    for r, v in enumerate(vecs):
        assert tuple(int(s) for s in mat[r]) == signature(v, 5, 64).samples  # a row alone repeats no id


def test_batch_signatures_empty_inputs():
    empty = batch_signatures([], base_seed=0, k=4)
    assert empty.shape == (0, 4) and empty.dtype == np.uint64
    for batch in ([REF_X, SparseVector(()), REF_Y], [REF_X, SparseVector(())]):
        with pytest.raises(ValueError, match="empty"):
            batch_signatures(batch, base_seed=0, k=4)


def test_race_of_masses_spanning_the_float_range_warns_of_nothing():
    # a mass below 2**-1022 of its row's largest gives an infinite key, as
    # the scalar key is, which never wins; pytest turns a numpy warning into
    # an error.  The second batch repeats ids, so it races from a table.
    wide = SparseVector(((1, 1e-320), (2, 1.0)))
    seeds = [derive_seed(8, j) for j in range(64)]
    assert pminhash_many(wide, seeds).tolist() == [pminhash(wide, s) for s in seeds]
    for vecs in ([wide, REF_X], [wide, SparseVector(((1, 1.0), (2, 1e-320), (3, 2.0)))]):
        mat = batch_signatures(vecs, base_seed=8, k=64)
        for r, v in enumerate(vecs):
            assert mat[r].tolist() == [pminhash(v, s) for s in seeds]


def test_collision_estimate_endpoints():
    assert collision_estimate(REF_X, REF_X, 0, 500) == 1.0
    a = SparseDistribution(((0, 1.0),))
    b = SparseDistribution(((1, 1.0),))
    assert collision_estimate(a, b, 0, 500) == 0.0
    with pytest.raises(ValueError):
        collision_estimate(a, b, 0, 0)


def test_collision_estimate_tracks_jp():
    n = 50_000
    est = collision_estimate(REF_X, REF_Y, 42, n)
    assert abs(est - REF_JP) <= sigma_band(REF_JP, n)


def test_collision_estimate_random_pairs():
    rng = np.random.default_rng(22)
    n = 50_000
    from jpminhash.verify import rand_pair

    for trial in range(3):
        x, y = rand_pair(rng, max_side=10)
        p = jp(x, y)
        assert abs(collision_estimate(x, y, 1000 + trial, n) - p) <= sigma_band(p, n)


# --- weight trees ------------------------------------------------------------

def test_tree_single_leaf():
    tree = WeightTree.from_nested(5)
    d = SparseDistribution(((5, 1.0),))
    assert tree_pminhash(tree, d, 0) == 5


def test_tree_duplicate_leaf_rejected():
    with pytest.raises(ValueError, match="more than one leaf"):
        WeightTree.from_nested((1, (1, 2)))


def test_tree_support_not_covered():
    tree = WeightTree.from_nested((0, 1))
    with pytest.raises(ValueError, match="cover"):
        tree_pminhash(tree, REF_X, 0)


def test_tree_scalar_vector_agreement():
    tree = WeightTree.from_nested(((0, 1), (2,)))
    seeds = np.arange(300, dtype=np.uint64)
    vec = tree_pminhash_many(tree, REF_X, seeds)
    for s in range(300):
        assert tree_pminhash(tree, REF_X, s) == int(vec[s])


def test_flat_tree_marginal_matches_distribution():
    tree = WeightTree.from_nested((0, 1, 2))
    n = 200_000
    samples = tree_pminhash_many(tree, REF_X, np.arange(n, dtype=np.uint64))
    counts = np.array([(samples == eid).sum() for eid, _ in REF_X.entries])
    _, pvalue = chisquare(counts, REF_X.masses * n)
    assert pvalue > 0.001


def test_nested_tree_marginal_matches_distribution():
    tree = WeightTree.from_nested((0, (1, 2)))
    n = 200_000
    samples = tree_pminhash_many(tree, REF_X, np.arange(n, dtype=np.uint64))
    counts = np.array([(samples == eid).sum() for eid, _ in REF_X.entries])
    _, pvalue = chisquare(counts, REF_X.masses * n)
    assert pvalue > 0.001


def test_prioritized_leaf_collides_at_min_mass():
    # tree (i, (rest)): collision probability on i becomes min(x_i, y_i)
    tree = WeightTree.from_nested((0, (1, 2)))
    n = 200_000
    seeds = np.arange(n, dtype=np.uint64)
    sx = tree_pminhash_many(tree, REF_X, seeds)
    sy = tree_pminhash_many(tree, REF_Y, seeds)
    target = min(REF_X.mass_of(0), REF_Y.mass_of(0))
    freq = float(np.mean((sx == 0) & (sy == 0)))
    assert abs(freq - target) <= sigma_band(target, n)


def test_tree_with_uncovered_extra_leaves():
    # leaves may mention elements the distribution lacks; they never win
    tree = WeightTree.from_nested((0, 1, 2, 77))
    samples = tree_pminhash_many(tree, REF_X, np.arange(2000, dtype=np.uint64))
    assert not np.any(samples == 77)


@pytest.mark.parametrize("leaf", [-1, 2**64])
def test_tree_leaf_outside_64_bits_rejected(leaf):
    with pytest.raises(ValueError, match=f"element id {leaf} outside unsigned 64-bit range"):
        WeightTree.from_nested((1, (2, leaf)))


# --- one rule for the key of a scaled mass -----------------------------------

def test_masses_spanning_more_than_the_float_range_sample_the_large_mass():
    # scaled into [0.5, 1), 1e-300 flushes to 0: it must lose the race, with
    # no division by zero in the scalar sampler and no warning in the batch
    x = SparseVector.from_pairs([(1, 1e300), (2, 1e-300)])
    seeds = [derive_seed(3, j) for j in range(64)]
    assert [pminhash(x, s) for s in seeds] == [1] * 64
    assert pminhash_many(x, seeds).tolist() == [1] * 64
    assert batch_signatures([x, REF_X], 3, 64)[0].tolist() == [1] * 64
    assert collision_estimate(x, x, 3, 64) == 1.0


def test_tree_of_subnormal_masses_samples_as_at_scale_one():
    tree = WeightTree.from_nested(((1, 2), (3, 4)))
    want = [1, 4, 3, 3, 2, 3, 3, 1]
    for scale in (1.0, 1e-310):
        x = SparseVector.from_pairs([(1, 1 * scale), (2, 2 * scale), (3, 3 * scale), (4, 0.5 * scale)])
        assert [tree_pminhash(tree, x, s) for s in range(8)] == want
        assert tree_pminhash_many(tree, x, np.arange(8, dtype=np.uint64)).tolist() == want


def test_tree_of_masses_near_the_float_max_samples_as_at_scale_one():
    # the node over leaves 1 and 2 would weigh 2e308, past the largest float,
    # unless the leaves are scaled first
    tree = WeightTree.from_nested(((1, 2), 3))
    seeds = np.arange(64, dtype=np.uint64)
    want = tree_pminhash_many(tree, SparseVector.from_dense((0.0, 1.0, 1.0, 1.0)), seeds).tolist()
    x = SparseVector.from_dense((0.0, 1e308, 1e308, 1e308))
    assert tree_pminhash_many(tree, x, seeds).tolist() == want
    assert [tree_pminhash(tree, x, s) for s in range(64)] == want
    assert len(set(want)) == 3


_IDS = st.sampled_from([0, 1, 2**64 - 2, 2**64 - 1]) | st.integers(0, 2**64 - 1)


def _nested(draw, ids, depth):
    """A random tree over ``ids``, at most ``depth`` levels below its root."""
    if len(ids) == 1 and draw(st.booleans()):
        return ids[0]
    if depth == 0 or len(ids) == 1:
        return tuple(ids)
    cuts = sorted(draw(st.sets(st.integers(1, len(ids) - 1), max_size=3)))
    ends = [0, *cuts, len(ids)]
    return tuple(_nested(draw, ids[a:b], depth - 1) for a, b in zip(ends, ends[1:]))


@st.composite
def _sampler_cases(draw):
    """Cases ``(ids, top, exp, low, tree, seeds)`` of the sampler property.

    ``ids[:len(top)]`` carry the integer masses ``top``, below 2**10, and the
    next ``len(low)`` ids the ``low`` masses.  Next to the integer masses
    times ``2**exp``, every low mass is at least 2**1034 below the smallest,
    and it may flush to 0 when the largest is scaled into [0.5, 1); the
    masses of one vector span up to 2**1100.  The tree holds every id,
    including those without a mass.
    """
    ids = draw(st.lists(_IDS, min_size=1, max_size=10, unique=True))
    n_top = draw(st.integers(1, len(ids)))
    n_low = draw(st.integers(0, len(ids) - n_top))
    top = draw(st.lists(st.integers(1, 2**10 - 1), min_size=n_top, max_size=n_top))
    low = draw(st.lists(st.integers(1, 2**10 - 1), min_size=n_low, max_size=n_low))
    exp = draw(st.integers(10, 1014))  # of the integer masses, in the wide vector
    low_exps = draw(st.lists(st.integers(max(0, exp - 16), exp + 30), min_size=n_low, max_size=n_low))
    tree = WeightTree.from_nested(_nested(draw, draw(st.permutations(ids)), 3))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6))
    return ids, top, exp, [math.ldexp(m, e - 1074) for m, e in zip(low, low_exps)], tree, seeds


def _every_sampler(tree, x, seeds):
    """The samples of x under every sparse sampler, after checking that scalar and batch agree."""
    many = pminhash_many(x, seeds).tolist()
    assert many == [pminhash(x, s) for s in seeds]
    batch = batch_signatures([x, REF_X], seeds[0], 4)[0].tolist()
    assert batch == [pminhash(x, derive_seed(seeds[0], j)) for j in range(4)]
    tree_many = tree_pminhash_many(tree, x, np.array(seeds, dtype=np.uint64)).tolist()
    assert tree_many == [tree_pminhash(tree, x, s) for s in seeds]
    return many, batch, tree_many


@given(_sampler_cases(), st.lists(st.integers(-1064, 1000), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_sparse_sampler_is_scale_invariant_and_agrees_with_its_batch(case, scalings):
    # every power-of-two scaling of integer masses below 2**10 is exact, so
    # every sample must be the same; a mass 2**1034 or more below every other
    # keys to inf or above 2**982 and never wins, so it changes no sample
    ids, top, exp, low, tree, seeds = case
    top_ids = ids[: len(top)]
    want = _every_sampler(tree, SparseVector.from_pairs(zip(top_ids, map(float, top))), seeds)
    for s in scalings:
        scaled = SparseVector.from_pairs((i, math.ldexp(m, s)) for i, m in zip(top_ids, top))
        assert _every_sampler(tree, scaled, seeds) == want
    wide = [(i, math.ldexp(m, exp)) for i, m in zip(top_ids, top)] + list(zip(ids[len(top):], low))
    assert _every_sampler(tree, SparseVector.from_pairs(wide), seeds) == want
