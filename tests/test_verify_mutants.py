"""Wrong samplers and folds that the property suite must reject.

Each test swaps one test-local mutant into the package with ``monkeypatch``
and runs the check it breaks at its default sizes, those of ``jpminhash
verify``.  A check that no mutant can fail could lose its power through a
later edit (fewer pairs, a wider band) and nothing would notice.

The two ICWS mutants are the weighted MinHash schemes the paper argues
against: Ioffe's Improved Consistent Weighted Sampling (ICDM 2010), whose
``(k, t)`` samples collide with probability ``jw``, and its "0-bit" variant
(Li, KDD 2015), which keeps only ``k``.  Both sample each element with
probability equal to its mass, so only a collision law can tell them from
P-MinHash.
"""

import math
import re

import numpy as np

from jpminhash import dense, harness, minhash, similarity, verify
from jpminhash.hashing import derive_seed_vec, uniform_hash_vec
from jpminhash.sparse import SparseDistribution

_pminhash_many = minhash.pminhash_many
_band_hits = harness._band_hits
_ICWS_SEEDS_AT_ONCE = 25_000  # keeps each (element, seed) array of the race small


def _icws(x, seeds):
    """ICWS samples ``(k, t)`` of ``x`` under each seed, as two arrays.

    Element i draws ``r, c ~ Gamma(2, 1)`` and ``beta ~ U(0, 1)`` from five
    salted uniforms of (i, seed); ``t = floor(ln x_i / r + beta)`` and the
    winner minimizes ``c / (exp(r (t - beta)) exp(r))``.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    ks, ts = [], []
    for lo in range(0, seeds.shape[0], _ICWS_SEEDS_AT_ONCE):
        chunk = seeds[lo : lo + _ICWS_SEEDS_AT_ONCE]
        u = [uniform_hash_vec(x.ids[:, None], derive_seed_vec(chunk, salt)) for salt in range(5)]
        r, c, beta = -np.log(u[0] * u[1]), -np.log(u[2] * u[3]), u[4]
        t = np.floor(np.log(x.masses)[:, None] / r + beta)
        win = np.argmin(np.log(c) - r * (t - beta) - r, axis=0)
        ks.append(x.ids[win])
        ts.append(t[win, np.arange(chunk.shape[0])])
    return np.concatenate(ks), np.concatenate(ts)


def _keyed_sampler(key):
    """A sampler whose sample under each seed is the element of least ``key(-log u, mass)``."""
    def sample(x, seeds):
        u = uniform_hash_vec(x.ids[:, None], np.asarray(seeds, dtype=np.uint64)[None, :])
        return x.ids[np.argmin(key(-np.log(u), x.masses[:, None]), axis=0)]

    return sample


def test_a_key_with_the_mass_inverted_fails_the_marginal_law(monkeypatch):
    monkeypatch.setattr(minhash, "pminhash_many", _keyed_sampler(lambda e, m: e * m))
    result = verify.check_marginal_law()
    assert not result.passed
    assert result.detail == "5 distributions, min chi-square p 0.0000"


def test_a_mass_blind_minhash_fails_the_marginal_law(monkeypatch):
    monkeypatch.setattr(minhash, "pminhash_many", _keyed_sampler(lambda e, m: e))
    result = verify.check_marginal_law()
    assert not result.passed
    assert result.detail == "5 distributions, min chi-square p 0.0000"


def test_icws_collides_at_jw_and_fails_the_collision_law_on_the_reference_pair(monkeypatch):
    def icws_collision(x, y, base_seed, n):
        seeds = derive_seed_vec(base_seed, np.arange(n))
        (kx, tx), (ky, ty) = _icws(x, seeds), _icws(y, seeds)
        return float(np.mean((kx == ky) & (tx == ty)))

    monkeypatch.setattr(minhash, "collision_estimate", icws_collision)
    result = verify.check_collision_law()
    assert not result.passed
    assert result.detail.startswith("pair 0:")


def test_zero_bit_icws_passes_the_marginal_law_and_fails_on_a_random_pair(monkeypatch):
    monkeypatch.setattr(minhash, "pminhash_many", lambda x, seeds: _icws(x, seeds)[0])
    assert verify.check_marginal_law().passed  # its samples follow x: the marginal law alone cannot tell
    result = verify.check_collision_law()
    assert not result.passed
    assert result.detail.startswith("pair 3:")  # the reference, identical and disjoint pairs pass


def test_independent_seeds_for_x_and_y_fail_the_collision_law(monkeypatch):
    def independent(x, y, base_seed, n):
        sx = _pminhash_many(x, derive_seed_vec(base_seed, np.arange(n)))
        sy = _pminhash_many(y, derive_seed_vec(base_seed, np.arange(n, 2 * n)))
        return float(np.mean(sx == sy))  # collides with probability sum_i x_i y_i

    monkeypatch.setattr(minhash, "collision_estimate", independent)
    result = verify.check_collision_law()
    assert not result.passed
    assert result.detail.startswith("pair 0:")


def test_a_tree_walk_that_flattens_the_tree_fails_tree_generalization(monkeypatch):
    monkeypatch.setattr(minhash, "tree_pminhash_many", lambda tree, x, seeds: _pminhash_many(x, seeds))
    result = verify.check_tree_collision()
    assert not result.passed
    # on the reference pair the first element's jp term is its smaller mass, so case 0 passes
    assert result.detail.startswith("case 1")


def test_a_band_fold_over_one_band_too_few_fails_amplification(monkeypatch):
    def fewer_bands(packed, grid, rep_seeds):
        return _band_hits(packed, [(a, o - 1) for a, o in grid], rep_seeds)

    monkeypatch.setattr(harness, "_band_hits", fewer_bands)
    result = verify.check_amplification()
    assert not result.passed
    assert result.detail.startswith("case 0") and "a=2, o=8" in result.detail


def test_amplify_with_a_and_o_swapped_fails_the_exact_value(monkeypatch):
    monkeypatch.setattr(harness, "amplify", lambda p, a, o: 1.0 - (1.0 - p**o) ** a)
    result = verify.check_amplification()
    assert not result.passed
    assert result.detail == "amplify(0.5, 2, 3) != 0.578125"


def test_an_adversarial_z_built_with_min_fails_structural_properties(monkeypatch):
    def z_from_min(x, y, a):
        ids, ux, uy = similarity._aligned(x, y)
        w = np.minimum(ux / x.mass_of(a), uy / y.mass_of(a))
        return SparseDistribution.from_arrays(ids, w / w.sum())

    monkeypatch.setattr(similarity, "adversarial_z", z_from_min)
    result = verify.check_structural_properties()
    assert not result.passed
    assert re.fullmatch(r"(dominance broken|z mass differs from the jp term) at element \d+", result.detail)


def test_a_search_that_drops_the_candidate_firing_the_stop_rule_fails_dense_sparse(monkeypatch):
    def drops_last(mu, lam, seed, *, early_termination=True):
        (mu, _), (lam, _) = mu._unit, lam._unit
        b = dense.global_bound(mu, lam)
        best, best_sample, iters = math.inf, None, 0
        for cand, e in dense.proposal_stream(lam, seed):
            iters += 1
            m_val = mu.masses.item(cand)
            key = e * (lam.masses.item(cand) / m_val) if m_val > 0.0 else math.inf
            if early_termination and min(best, key) <= e / b:
                break  # the candidate that fires the rule is never kept
            if key < best:
                best, best_sample = key, cand
        return dense.AStarResult(sample=best_sample, best_key=best, iterations=iters)

    monkeypatch.setattr(dense, "astar_pminhash", drops_last)
    result = verify.check_dense_sparse()
    assert not result.passed
    mismatches, early = map(int, re.fullmatch(
        r"200 cases, (\d+) mismatches, (\d+) early-stop diffs", result.detail
    ).groups())
    assert mismatches > 0 and early > 0
