"""Seeded exponential-race sampling over sparse distributions.

``pminhash`` draws, for every support element, an exponential key
``-log(u_i) / x_i`` from a shared seeded uniform and returns the argmin.
Because the uniforms depend only on (element id, seed), two distributions
hashed with the same seed collide with probability equal to their ``jp``
similarity, and the marginal law of the sample is the distribution itself.

Also provided: k-hash signatures with derived per-position seeds, a batched
signature sampler over many vectors at once, a tree-structured sampler that
trades collision mass between elements, and a collision-frequency estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hashing import derive_seed, derive_seed_vec, uniform_hash, uniform_hash_vec
from .sparse import SparseVector

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

# Seeds per chunk when estimating collision frequencies, bounds peak memory.
_SEED_CHUNK = 65536


def _key_masses(masses: np.ndarray) -> np.ndarray:
    """Masses scaled by the power of two that brings the largest into [0.5, 1).

    Keys ``-log(u) / mass`` then stay finite for subnormal masses and normal
    for huge ones.  Scaling by a power of two is exact while the scaled masses
    stay normal floats, and it scales every key by that same power, so the
    keys keep their order and every sample is that of the unscaled masses.
    A matrix is scaled row by row.
    """
    _, exp = np.frexp(masses.max(axis=-1, keepdims=True))
    return np.ldexp(masses, -exp)


def pminhash(x: SparseVector, seed: int) -> int:
    """Sample one element id: argmin of per-element exponential keys.

    Deterministic in (x, seed); invariant under positive scaling of the
    masses; exact key ties go to the smallest element id.
    """
    if not x.entries:
        raise ValueError("cannot hash an empty vector")
    best_key = math.inf
    best_id = -1
    for eid, mass in zip(x.ids.tolist(), _key_masses(x.masses).tolist()):
        key = -math.log(uniform_hash(eid, seed)) / mass
        if key < best_key:  # strict: first (= smallest) id wins ties
            best_key = key
            best_id = eid
    return best_id


def pminhash_many(x: SparseVector, seeds) -> np.ndarray:
    """Vectorized :func:`pminhash` over an array of seeds."""
    if not x.entries:
        raise ValueError("cannot hash an empty vector")
    seeds = np.asarray(seeds, dtype=np.uint64)
    u = uniform_hash_vec(x.ids[:, None], seeds[None, :])
    keys = -np.log(u) / _key_masses(x.masses)[:, None]
    return x.ids[np.argmin(keys, axis=0)]


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
    """Padded id/mass matrices for sampling many vectors in one shot.

    Short rows are padded with copies of their own first entry.  A copy draws
    the same key as the entry it copies and, coming later, loses the argmin
    tie to it, so padding never changes a sample.
    """

    def __init__(self, vecs: Sequence[SparseVector]):
        if not vecs:
            raise ValueError("no vectors to pack")
        if any(not v.entries for v in vecs):
            raise ValueError("cannot hash an empty vector")
        n = len(vecs)
        self.row_len = np.array([len(v.entries) for v in vecs])
        width = int(self.row_len.max())
        self.ids = np.empty((n, width), dtype=np.uint64)
        self.masses = np.empty((n, width))
        for r, v in enumerate(vecs):
            w = len(v.entries)
            self.ids[r, :w] = v.ids
            self.ids[r, w:] = v.ids[0]
            self.masses[r, :w] = v.masses
            self.masses[r, w:] = v.masses[0]
        self.masses = _key_masses(self.masses)

    def sample(self, seeds, chunk: int = 512) -> np.ndarray:
        """(n_vectors, n_seeds) matrix of sampled element ids."""
        seeds = np.asarray(seeds, dtype=np.uint64)
        n = self.ids.shape[0]
        out = np.empty((n, seeds.shape[0]), dtype=np.uint64)
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            w = int(self.row_len[lo:hi].max())  # skip padding shared by the chunk
            u = uniform_hash_vec(self.ids[lo:hi, :w, None], seeds[None, None, :])
            pos = np.argmin(-np.log(u) / self.masses[lo:hi, :w, None], axis=1)
            out[lo:hi] = np.take_along_axis(self.ids[lo:hi], pos, axis=1)
        return out


def batch_signatures(vecs: Sequence[SparseVector], base_seed: int, k: int) -> np.ndarray:
    """(n_vectors, k) sample matrix; row r equals signature(vecs[r], base_seed, k)."""
    if k < 1:
        raise ValueError("k must be positive")
    return _PackedVectors(vecs).sample(derive_seed_vec(base_seed, np.arange(k)))


def collision_estimate(x: SparseVector, y: SparseVector, base_seed: int, n: int) -> float:
    """Fraction of n derived seeds on which x and y sample the same element."""
    if n < 1:
        raise ValueError("n must be positive")
    matches = 0
    for lo in range(0, n, _SEED_CHUNK):
        js = np.arange(lo, min(lo + _SEED_CHUNK, n))
        seeds = derive_seed_vec(base_seed, js)
        matches += int((pminhash_many(x, seeds) == pminhash_many(y, seeds)).sum())
    return matches / n


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
    w = np.zeros(tree.n_nodes)
    for eid, m in x.entries:
        i = leaf_pos.get(eid)
        if i is None:
            raise ValueError(f"tree leaves do not cover support element {eid}")
        w[i] = m
    # children always follow their parent in the preorder layout
    for idx in range(tree.n_nodes - 1, -1, -1):
        kids = tree.children[idx]
        if kids:
            w[idx] = w[list(kids)].sum()
    return w


def tree_pminhash(tree: WeightTree, x: SparseVector, seed: int) -> int:
    """Sample one element id through the tree; marginal law is x itself."""
    if not x.entries:
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
    if not x.entries:
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
