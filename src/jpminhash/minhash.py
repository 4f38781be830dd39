"""Seeded exponential-race sampling over sparse distributions.

``pminhash`` draws, for every support element, an exponential key
``-log(u_i) / x_i`` from a shared seeded uniform and returns the argmin.
Because the uniforms depend only on (element id, seed), two distributions
hashed with the same seed collide with probability equal to their ``jp``
similarity, and the marginal law of the sample is the distribution itself.

All vectorized sparse sampling runs through one kernel, :func:`_race`, over
one packed form, :class:`_PackedVectors`: the rows' ids and masses end to
end, their bounds, and each id's index among the batch's distinct ids when
ids repeat.  A batch is packed once and raced in tiles of ``TILE_CELLS``
(element, seed) cells, which stay in cache.  :func:`pminhash_many` races
one row, :func:`batch_signatures` a batch, and the tree samplers, which
trade collision mass between elements, each step's children; the scalar
:func:`pminhash` is the form the tests compare against.  Every sampler keys
masses as :func:`_scaled_masses` gives them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hashing import TILE_CELLS, derive_seed, derive_seed_vec, uniform_hash, uniform_hash_vec
from .sparse import MAX_ID, SparseVector, _id_array, _scale_rows

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


def _scaled_masses(masses: np.ndarray, bounds) -> np.ndarray:
    """Masses scaled by :func:`_scale_rows`, each that flushed to 0 raised to 5e-324, in a new array.

    A row's largest scaled mass lies in [0.5, 1), so its key is at most
    73.5; a raised mass keys to inf, or to at least 2**1021, and loses as
    its true key does, but for ``u == 1``, where both keys are 0.  Samples
    thus equal those of the unscaled row, and no key divides by zero.
    """
    scaled = _scale_rows(masses, bounds)
    return np.maximum(scaled, 5e-324, out=scaled)


def pminhash(x: SparseVector, seed: int) -> int:
    """Sample one element id: argmin of per-element exponential keys.

    Deterministic in (x, seed); invariant under positive scaling of the
    masses; exact key ties go to the smallest element id.
    """
    if not len(x):
        raise ValueError("cannot hash an empty vector")
    ids = x.ids.tolist()
    masses = _scaled_masses(x.masses, [0, len(x)]).tolist()
    keys = [-math.log(uniform_hash(eid, seed)) / mass for eid, mass in zip(ids, masses)]
    return ids[keys.index(min(keys))]  # the first, that is the smallest, id wins a tie


# Cells of (distinct id, seed) log(u) that _race keeps at a time when ids repeat.
_TABLE_CELLS = 4 * TILE_CELLS


def _race(packed: "_PackedVectors", seeds) -> np.ndarray:
    """(n_rows, n_seeds) matrix: the :func:`pminhash` sample of every row under every seed.

    The batch is raced in tiles of about ``TILE_CELLS`` (element, seed)
    cells.  A tile's rows are consecutive rows whose lengths sum to at most
    ``TILE_CELLS // width`` at the full seed width, or one longer row alone,
    which is raced in steps of ``TILE_CELLS // row_len`` seeds.

    When an id occurs more than once in the batch (``packed.inv`` is set),
    each distinct id is hashed once per seed: ``log(u)`` of (distinct id,
    seed) is tabled for a block of at most ``_TABLE_CELLS // n_distinct``
    seeds at a time, and the tiles of that block gather their rows from the
    table.  Otherwise each tile hashes its own cells.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    ids, bounds, inv = packed.ids, packed.bounds, packed.inv
    n_rows, n_seeds = packed.row_len.shape[0], seeds.shape[0]
    out = np.empty((n_rows, n_seeds), dtype=np.uint64)
    width = max(1, n_seeds if inv is None else min(n_seeds, _TABLE_CELLS // packed.distinct.shape[0]))
    fit = TILE_CELLS // width  # elements a tile holds at full width
    tiles = []  # (first row, end row, seed step) of each row group
    r = 0
    while r < n_rows:
        end = max(r + 1, int(np.searchsorted(bounds, bounds[r] + fit, side="right")) - 1)
        tiles.append((r, end, min(width, max(1, TILE_CELLS // int(bounds[end] - bounds[r])))))
        r = end
    # a key past the float range is inf, which loses the race as the scalar key does
    with np.errstate(over="ignore"):
        for s0 in range(0, n_seeds, width):
            s1 = min(s0 + width, n_seeds)
            if inv is not None:
                table = np.log(uniform_hash_vec(packed.distinct[:, None], seeds[None, s0:s1]))
            for r, end, step in tiles:
                lo, hi = bounds[r], bounds[end]
                for s in range(s0, s1, step):
                    e = min(s + step, s1)
                    if inv is None:
                        keys = np.log(uniform_hash_vec(ids[lo:hi, None], seeds[None, s:e]))
                    else:
                        keys = np.take(table[:, s - s0 : e - s0], inv[lo:hi], axis=0)
                    out[r:end, s:e] = _race_tile(
                        ids[lo:hi], packed.neg_masses[lo:hi], bounds[r:end] - lo,
                        packed.row_len[r:end], keys,
                    )
    return out


# No id exceeds it, and an id equal to it is still that row's winner.
_NO_ID = np.uint64(MAX_ID)


def _race_tile(
    ids: np.ndarray, neg_masses: np.ndarray, offsets: np.ndarray, lens: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """Winners of the rows of one tile; row r starts at ``offsets[r]`` and has ``lens[r]`` entries.

    ``keys`` holds ``log(u)`` of every (element, seed) cell of the tile and
    becomes the keys ``log(u) / -mass``, bit for bit ``-log(u) / mass``.  A
    row's winner is its smallest id whose key equals the row minimum: ids
    increase along a row, so that is the first such position, as with
    ``np.argmin``.
    """
    keys /= neg_masses[:, None]
    lows = np.minimum.reduceat(keys, offsets, axis=0)
    lows = np.repeat(lows, lens, axis=0)
    return np.minimum.reduceat(np.where(keys == lows, ids[:, None], _NO_ID), offsets, axis=0)


def pminhash_many(x: SparseVector, seeds) -> np.ndarray:
    """Vectorized :func:`pminhash` over an array of seeds."""
    return _race(_PackedVectors([x]), seeds)[0]


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
    """The vectors of one batch end to end, in the form :func:`_race` reads.

    A batch is packed once and can be raced under any number of seeds.  Row
    r is entries ``bounds[r]:bounds[r + 1]`` of ``ids`` and ``neg_masses``,
    the masses of :func:`_scaled_masses` negated.  When an id occurs
    more than once in the batch, ``distinct`` holds the sorted distinct ids
    and ``inv`` each entry's index into them; otherwise ``inv`` is None.

    ``perfbench/tracer.py`` counts hashes through ``sample`` and ``row_len``.
    """

    def __init__(self, vecs: Sequence[SparseVector]):
        self.row_len = np.array([len(v) for v in vecs], dtype=np.intp)
        # reduceat would give an empty row the next row's element, with no error
        if (self.row_len == 0).any():
            raise ValueError("cannot hash an empty vector")
        self.bounds = np.zeros(self.row_len.shape[0] + 1, dtype=np.intp)
        np.cumsum(self.row_len, out=self.bounds[1:])
        self.ids = np.concatenate([v.ids for v in vecs])
        masses = _scaled_masses(np.concatenate([v.masses for v in vecs]), self.bounds)
        self.neg_masses = np.negative(masses, out=masses)
        self.distinct = self.inv = None
        if len(vecs) > 1:  # a single vector's ids are strictly increasing
            ordered = np.sort(self.ids)  # np.unique's hash path is slower on these ids
            repeats = ordered[1:] == ordered[:-1]
            if repeats.any():
                self.distinct = ordered[np.insert(~repeats, 0, True)]
                self.inv = np.searchsorted(self.distinct, self.ids)

    def sample(self, seeds) -> np.ndarray:
        """(n_vectors, n_seeds) matrix of sampled element ids."""
        return _race(self, seeds)


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

    Selection walks from the root: each step is a :func:`pminhash` race
    among the current node's children, over their node ids, stable hashes of
    the root-to-node child-index paths, weighted by the total mass of the
    leaves below each.  Flat trees reproduce the plain sampler's statistics;
    nesting redistributes collision mass.
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
                children[idx] = tuple(build(ch, derive_seed(path_id, j + 1)) for j, ch in enumerate(kids))
            return idx

        build(nested, 0)
        elems = [e for e in leaves if e is not None]
        _id_array(elems)  # raises for an id outside 64 bits
        if len(set(elems)) != len(elems):
            raise ValueError("element appears in more than one leaf")
        return cls(tuple(children), tuple(leaves), tuple(node_ids))

    @property
    def n_nodes(self) -> int:
        return len(self.children)


def _node_weights(tree: WeightTree, x: SparseVector) -> np.ndarray:
    """Each node's total of x's :func:`_scaled_masses` on the leaves below it.

    The largest leaf is in [0.5, 1), so no sum overflows, no positive leaf is
    0, and every power-of-two scaling of x gives the same weights.
    """
    if not len(x):
        raise ValueError("cannot hash an empty vector")
    leaf_pos = {e: i for i, e in enumerate(tree.leaf_element) if e is not None}
    pos = [leaf_pos.get(eid, -1) for eid in x.ids.tolist()]
    if -1 in pos:
        raise ValueError(f"tree leaves do not cover support element {x.ids[pos.index(-1)]}")
    w = np.zeros(tree.n_nodes)
    w[pos] = _scaled_masses(x.masses, [0, len(x)])
    # children always follow their parent in the preorder layout
    for idx in range(tree.n_nodes - 1, -1, -1):
        kids = tree.children[idx]
        if kids:
            w[idx] = w[list(kids)].sum()
    return w


def _children_race(tree: WeightTree, w: np.ndarray, idx: int) -> tuple[np.ndarray, SparseVector]:
    """Node idx's positive-weight children in node-id order, and the race among them.

    The race is a vector over the children's node ids, which ``fin64`` keeps
    distinct, weighted by ``w``.
    """
    kids = np.array(tree.children[idx], dtype=np.intp)
    kids = kids[w[kids] > 0.0]
    ids = np.array(tree.node_ids, dtype=np.uint64)[kids]
    order = np.argsort(ids)
    return kids[order], SparseVector.from_arrays(ids[order], w[kids[order]])


def tree_pminhash(tree: WeightTree, x: SparseVector, seed: int) -> int:
    """Sample one element id through the tree; marginal law is x itself."""
    w = _node_weights(tree, x)
    idx = 0
    while tree.children[idx]:
        kids, race = _children_race(tree, w, idx)
        idx = int(kids[np.searchsorted(race.ids, pminhash(race, seed))])
    return tree.leaf_element[idx]


def tree_pminhash_many(tree: WeightTree, x: SparseVector, seeds) -> np.ndarray:
    """Vectorized :func:`tree_pminhash` over an array of seeds."""
    w = _node_weights(tree, x)
    seeds = np.asarray(seeds, dtype=np.uint64)
    cur = np.zeros(seeds.shape[0], dtype=np.intp)
    # children follow their parent, so one pass moves every seed down to its leaf
    for idx, kids in enumerate(tree.children):
        at = np.flatnonzero(cur == idx) if kids else ()
        if len(at):
            kids, race = _children_race(tree, w, idx)
            cur[at] = kids[np.searchsorted(race.ids, pminhash_many(race, seeds[at]))]
    return np.array([e or 0 for e in tree.leaf_element], dtype=np.uint64)[cur]
