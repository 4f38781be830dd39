"""Seeded exponential-race sampling over sparse distributions.

``pminhash`` draws, for every support element, an exponential key
``-log(u_i) / x_i`` from a shared seeded uniform and returns the argmin.
Because the uniforms depend only on (element id, seed), two distributions
hashed with the same seed collide with probability equal to their ``jp``
similarity, and the marginal law of the sample is the distribution itself.

All vectorized sparse sampling runs through one kernel, :func:`_race`.  It
takes a packed batch (the rows' ids and masses end to end, plus each row's
length) and races it in tiles of about ``TILE_CELLS`` (element, seed)
cells, so its temporaries stay in cache whatever the batch size or seed
count.  :func:`pminhash_many` races one row and :func:`batch_signatures` a
whole batch; the scalar :func:`pminhash` is the loop form the tests compare
against.

Also provided: k-hash signatures with derived per-position seeds, a
tree-structured sampler that trades collision mass between elements, and a
collision-frequency estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hashing import TILE_CELLS, derive_seed, derive_seed_vec, uniform_hash, uniform_hash_vec
from .sparse import MAX_ID, SparseVector

__all__ = [
    "Signature",
    "WeightTree",
    "pminhash",
    "pminhash_many",
    "signature",
    "batch_signatures",
    "collision_estimate",
    "tree_pminhash",
    "tree_pminhash_many",
]


def _key_masses(masses: np.ndarray, starts, row_len) -> np.ndarray:
    """Each row's masses scaled by the power of two that brings its largest into [0.5, 1).

    Row r is ``masses[starts[r]:starts[r] + row_len[r]]``; no row may be
    empty.  Keys ``-log(u) / mass`` then stay finite for subnormal masses and
    normal for huge ones.  Scaling by a power of two is exact while the
    scaled masses stay normal floats, and it scales every key of a row by
    that same power, so the keys keep their order and every sample is that
    of the unscaled masses.
    """
    exps = np.frexp(np.maximum.reduceat(masses, starts))[1]
    return np.ldexp(masses, -np.repeat(exps, row_len))


def pminhash(x: SparseVector, seed: int) -> int:
    """Sample one element id: argmin of per-element exponential keys.

    Deterministic in (x, seed); invariant under positive scaling of the
    masses; exact key ties go to the smallest element id.
    """
    if not len(x):
        raise ValueError("cannot hash an empty vector")
    best_key = math.inf
    best_id = -1
    for eid, mass in zip(x.ids.tolist(), _key_masses(x.masses, [0], [len(x)]).tolist()):
        key = -math.log(uniform_hash(eid, seed)) / mass
        if key < best_key:  # strict: first (= smallest) id wins ties
            best_key = key
            best_id = eid
    return best_id


def _race(ids: np.ndarray, masses: np.ndarray, row_len, seeds) -> np.ndarray:
    """(n_rows, n_seeds) matrix: the :func:`pminhash` sample of every row under every seed.

    ``ids`` and ``masses`` hold the rows end to end, row r taking the next
    ``row_len[r]`` entries with its ids strictly increasing.  Consecutive
    rows are raced together while their lengths sum to at most
    ``TILE_CELLS // n_seeds``; a row longer than that alone is raced in
    blocks of ``TILE_CELLS // row_len`` seeds.
    """
    row_len = np.asarray(row_len, dtype=np.intp)
    # reduceat would give an empty row the next row's element, with no error
    if (row_len == 0).any():
        raise ValueError("cannot hash an empty vector")
    seeds = np.asarray(seeds, dtype=np.uint64)
    n_rows, n_seeds = row_len.shape[0], seeds.shape[0]
    starts = np.zeros(n_rows + 1, dtype=np.intp)
    np.cumsum(row_len, out=starts[1:])
    neg_masses = -_key_masses(masses, starts[:-1], row_len)
    out = np.empty((n_rows, n_seeds), dtype=np.uint64)
    fit = TILE_CELLS // max(n_seeds, 1)  # elements a tile holds at full seed width
    r = 0
    while r < n_rows:
        lo = starts[r]
        if row_len[r] > fit:
            hi = starts[r + 1]
            step = max(1, TILE_CELLS // int(row_len[r]))
            for s in range(0, n_seeds, step):
                out[r, s : s + step] = _race_tile(
                    ids[lo:hi], neg_masses[lo:hi], starts[:1], row_len[r : r + 1], seeds[s : s + step]
                )
            r += 1
        else:
            end = int(np.searchsorted(starts, lo + fit, side="right")) - 1
            hi = starts[end]
            out[r:end] = _race_tile(
                ids[lo:hi], neg_masses[lo:hi], starts[r:end] - lo, row_len[r:end], seeds
            )
            r = end
    return out


# No id exceeds it, and an id equal to it is still that row's winner.
_NO_ID = np.uint64(MAX_ID)


def _race_tile(
    ids: np.ndarray, neg_masses: np.ndarray, offsets: np.ndarray, lens: np.ndarray, seeds: np.ndarray
) -> np.ndarray:
    """Winners of the rows of one tile; row r starts at ``offsets[r]`` and has ``lens[r]`` entries.

    Keys are ``log(u) / -mass``, bit for bit ``-log(u) / mass``.  A row's
    winner is its smallest id whose key equals the row minimum: ids increase
    along a row, so that is the first such position, as with ``np.argmin``.
    """
    keys = np.log(uniform_hash_vec(ids[:, None], seeds[None, :]))
    keys /= neg_masses[:, None]
    lows = np.minimum.reduceat(keys, offsets, axis=0)
    lows = np.repeat(lows, lens, axis=0)
    return np.minimum.reduceat(np.where(keys == lows, ids[:, None], _NO_ID), offsets, axis=0)


def pminhash_many(x: SparseVector, seeds) -> np.ndarray:
    """Vectorized :func:`pminhash` over an array of seeds."""
    return _race(x.ids, x.masses, [len(x)], seeds)[0]


@dataclass(frozen=True)
class Signature:
    """k samples of one document under seeds derived from a base seed."""

    doc_id: str
    samples: tuple[int, ...]
    base_seed: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if len(self.samples) != self.k:
            raise ValueError("sample count does not match k")


def signature(x: SparseVector, base_seed: int, k: int, doc_id: str = "") -> Signature:
    """Signature with samples[j] = pminhash(x, derive_seed(base_seed, j))."""
    if k < 1:
        raise ValueError("k must be positive")
    samples = pminhash_many(x, derive_seed_vec(base_seed, np.arange(k)))
    return Signature(doc_id=doc_id, samples=tuple(int(s) for s in samples), base_seed=base_seed, k=k)


class _PackedVectors:
    """The vectors of one batch end to end, as :func:`_race` takes them.

    ``perfbench/tracer.py`` counts hashes through ``sample`` and ``row_len``.
    """

    def __init__(self, vecs: Sequence[SparseVector]):
        self.ids = np.concatenate([v.ids for v in vecs])
        self.masses = np.concatenate([v.masses for v in vecs])
        self.row_len = np.array([len(v) for v in vecs], dtype=np.intp)

    def sample(self, seeds) -> np.ndarray:
        """(n_vectors, n_seeds) matrix of sampled element ids."""
        return _race(self.ids, self.masses, self.row_len, seeds)


def batch_signatures(vecs: Sequence[SparseVector], base_seed: int, k: int) -> np.ndarray:
    """(n_vectors, k) sample matrix; row r equals signature(vecs[r], base_seed, k)."""
    if k < 1:
        raise ValueError("k must be positive")
    if not len(vecs):
        return np.empty((0, k), dtype=np.uint64)
    return _PackedVectors(vecs).sample(derive_seed_vec(base_seed, np.arange(k)))


def collision_estimate(x: SparseVector, y: SparseVector, base_seed: int, n: int) -> float:
    """Fraction of n derived seeds on which x and y sample the same element."""
    if n < 1:
        raise ValueError("n must be positive")
    seeds = derive_seed_vec(base_seed, np.arange(n))
    return int((pminhash_many(x, seeds) == pminhash_many(y, seeds)).sum()) / n


@dataclass(frozen=True)
class WeightTree:
    """Rooted tree whose leaves carry element ids.

    Selection walks from the root: among the children of the current node,
    pick the argmin of ``-log(u_child) / weight_child`` where a node's weight
    is the total mass of the leaves below it and its uniform comes from a
    stable hash of the root-to-node child-index path.  Flat trees reproduce
    the plain sampler's statistics; nesting redistributes collision mass.
    """

    children: tuple[tuple[int, ...], ...]
    leaf_element: tuple[int | None, ...]
    node_ids: tuple[int, ...]

    @classmethod
    def from_nested(cls, nested) -> "WeightTree":
        """Build from nested tuples of element ids, e.g. ``(7, (1, 2, 3))``."""
        children: list[tuple[int, ...]] = []
        leaves: list[int | None] = []
        node_ids: list[int] = []

        def build(node, path_id: int) -> int:
            idx = len(children)
            children.append(())
            leaves.append(None)
            node_ids.append(path_id)
            if isinstance(node, (int, np.integer)):
                leaves[idx] = int(node)
            else:
                kids = tuple(node)
                if not kids:
                    raise ValueError("internal node needs at least one child")
                children[idx] = tuple(
                    build(ch, derive_seed(path_id, j + 1)) for j, ch in enumerate(kids)
                )
            return idx

        build(nested, 0)
        elems = [e for e in leaves if e is not None]
        if len(set(elems)) != len(elems):
            raise ValueError("element appears in more than one leaf")
        return cls(tuple(children), tuple(leaves), tuple(node_ids))

    @property
    def n_nodes(self) -> int:
        return len(self.children)


def _node_weights(tree: WeightTree, x: SparseVector) -> np.ndarray:
    leaf_pos = {e: i for i, e in enumerate(tree.leaf_element) if e is not None}
    pos = [leaf_pos.get(eid, -1) for eid in x.ids.tolist()]
    if -1 in pos:
        raise ValueError(f"tree leaves do not cover support element {x.ids[pos.index(-1)]}")
    w = np.zeros(tree.n_nodes)
    w[pos] = x.masses
    # children always follow their parent in the preorder layout
    for idx in range(tree.n_nodes - 1, -1, -1):
        kids = tree.children[idx]
        if kids:
            w[idx] = w[list(kids)].sum()
    return w


def tree_pminhash(tree: WeightTree, x: SparseVector, seed: int) -> int:
    """Sample one element id through the tree; marginal law is x itself."""
    if not len(x):
        raise ValueError("cannot hash an empty vector")
    w = _node_weights(tree, x)
    idx = 0
    while tree.children[idx]:
        best_key = math.inf
        nxt = -1
        for c in tree.children[idx]:
            if w[c] <= 0.0:
                continue
            key = -math.log(uniform_hash(tree.node_ids[c], seed)) / w[c]
            if key < best_key:
                best_key = key
                nxt = c
        idx = nxt
    elem = tree.leaf_element[idx]
    assert elem is not None
    return elem


def tree_pminhash_many(tree: WeightTree, x: SparseVector, seeds) -> np.ndarray:
    """Vectorized :func:`tree_pminhash` over an array of seeds."""
    if not len(x):
        raise ValueError("cannot hash an empty vector")
    w = _node_weights(tree, x)
    seeds = np.asarray(seeds, dtype=np.uint64)
    node_ids = np.array(tree.node_ids, dtype=np.uint64)
    is_leaf = np.array([e is not None for e in tree.leaf_element])
    leaf_elems = np.zeros(tree.n_nodes, dtype=np.uint64)
    for i, e in enumerate(tree.leaf_element):
        if e is not None:
            leaf_elems[i] = e
    cur = np.zeros(seeds.shape[0], dtype=np.int64)
    while True:
        active = ~is_leaf[cur]
        if not active.any():
            break
        for u_node in np.unique(cur[active]):
            mask = cur == u_node
            kids = np.array(tree.children[u_node], dtype=np.int64)
            kids = kids[w[kids] > 0.0]
            u = uniform_hash_vec(node_ids[kids][:, None], seeds[mask][None, :])
            keys = -np.log(u) / w[kids][:, None]
            cur[mask] = kids[np.argmin(keys, axis=0)]
    return leaf_elems[cur]
