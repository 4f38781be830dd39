"""Output checks that hold for any seed.

Each function reads artifacts the CLI wrote (or results a library call
returned) and reports every violation through ``ops.check``, so a failed
check counts against ``error_rate`` like a failed operation.  The checks
parse the files themselves and recompute reference values from the
generator's own tokens and with the package's oracles (``pminhash``,
``jp_naive``), not with the code paths being timed.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from jpminhash import harness, minhash, similarity
from jpminhash.hashing import derive_seed
from jpminhash.sparse import SparseVector, normalize

# Rows / positions re-derived with the slow oracles per check.
ORACLE_DOCS = 12
ORACLE_POSITIONS = 4
ORACLE_PAIRS = 12


def _sample_rows(rng: np.random.Generator, n: int, count: int) -> list[int]:
    return sorted(rng.choice(n, size=min(n, count), replace=False).tolist())


def _token_counts(tokens: list[str]) -> SparseVector:
    """A doc's term counts from the generator's own tokens, not from the program's ingest."""
    return SparseVector.from_pairs((harness.token_element_id(t.lower()), 1.0) for t in tokens)


def signatures(ops, sig_path: Path, corpus, seed: int, k: int) -> None:
    """The program ingests each doc to the generator's support; every sample lies in it;
    a sampled subset matches pminhash."""
    rows = [json.loads(line) for line in sig_path.read_text(encoding="utf-8").splitlines()]
    nonempty = corpus.nonempty
    docs = [corpus.records[i] for i in nonempty]
    counts = [_token_counts(corpus.tokens[i]) for i in nonempty]
    ops.check(len(rows) == len(docs), f"{sig_path.name}: {len(rows)} signatures for {len(docs)} docs")
    ingested, _ = harness.corpus_from_records(docs)
    ops.check(len(ingested) == len(docs), f"ingest kept {len(ingested)} of {len(docs)} docs")
    for doc, want in zip(ingested, counts):
        ok = set(doc.dist.ids.tolist()) == set(want.ids.tolist())
        ops.check(ok, f"ingest of {doc.doc_id}: support differs from the generator's tokens")
    for rec, row, want in zip(docs, rows, counts):
        support = set(want.ids.tolist())
        ok = row["id"] == rec["id"] and row["k"] == k and len(row["samples"]) == k
        ok = ok and all(int(s) in support for s in row["samples"])
        ops.check(ok, f"{sig_path.name}: signature of {rec['id']} leaves its support")
    rng = np.random.default_rng(seed)
    for r in _sample_rows(rng, min(len(rows), len(docs)), ORACLE_DOCS):
        for j in _sample_rows(rng, k, ORACLE_POSITIONS):
            want = minhash.pminhash(counts[r], derive_seed(seed, j))  # scale-invariant
            got = int(rows[r]["samples"][j])
            ops.check(got == want, f"{sig_path.name}: {docs[r]['id']}[{j}] = {got}, pminhash says {want}")


def index_postings(ops, index_path: Path, corpus, o: int) -> None:
    """Every indexed doc is posted in exactly o buckets, one per band."""
    lines = index_path.read_text(encoding="utf-8").splitlines()
    meta = json.loads(lines[0])
    ops.check(meta.get("o") == o, f"{index_path.name}: header says o={meta.get('o')}")
    per_band: Counter = Counter()
    per_doc: Counter = Counter()
    for line in lines[1:]:
        row = json.loads(line)
        for did in row["docs"]:
            per_band[(did, row["band"])] += 1
            per_doc[did] += 1
    expected = {corpus.records[i]["id"] for i in corpus.nonempty}
    ops.check(set(per_doc) == expected, f"{index_path.name}: indexed docs differ from the corpus")
    bad = [d for d, n in per_doc.items() if n != o]
    bad += [d for (d, _), n in per_band.items() if n != 1]
    ops.check(not bad, f"{index_path.name}: {len(bad)} docs not posted once in each of {o} bands")


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in body[1:]]


def _rounded_close(csv_value: float, exact: float, tol: float) -> bool:
    # CSV floats carry 9 significant digits: allow their rounding on top of tol.
    return abs(csv_value - exact) <= tol + 5e-9 * abs(exact)


def sim_rows(ops, csv_path: Path, count: int, seed: int) -> None:
    """jw <= jp <= 2jw/(1+jw) on every row; sampled rows match jp_naive within 1e-9."""
    rows = _csv_rows(csv_path)
    ops.check(len(rows) == count, f"{csv_path.name}: {len(rows)} rows, expected {count}")
    bad = 0
    for row in rows:
        jp_v, jw_v = float(row[2]), float(row[3])
        if not (jw_v <= jp_v + 1e-8 and jp_v <= 2 * jw_v / (1 + jw_v) + 1e-8):
            bad += 1
    ops.check(bad == 0, f"{csv_path.name}: {bad} rows break jw <= jp <= 2jw/(1+jw)")
    pairs = harness.synth_pairs(count, seed=seed)
    for r in _sample_rows(np.random.default_rng(seed), len(rows), ORACLE_PAIRS):
        s = pairs.scores[r]
        want = similarity.jp_naive(pairs.dists[s.id_a], pairs.dists[s.id_b])
        ok = rows[r][:2] == [s.id_a, s.id_b] and _rounded_close(float(rows[r][2]), want, 1e-9)
        ops.check(ok, f"{csv_path.name}: row {r} jp {rows[r][2]} vs jp_naive {want!r}")


def pr_rows(ops, csv_path: Path, n_points: int) -> None:
    """Every precision and recall lies in [0, 1]."""
    rows = _csv_rows(csv_path)
    ops.check(len(rows) == n_points, f"{csv_path.name}: {len(rows)} points, expected {n_points}")
    for row in rows:
        p, r = float(row[4]), float(row[5])
        ops.check(0.0 <= p <= 1.0 and 0.0 <= r <= 1.0, f"{csv_path.name}: P={p} R={r} outside [0, 1]")


def _as_sparse(measure) -> SparseVector:
    arr = measure.arr
    ids = np.nonzero(arr)[0]
    return SparseVector(tuple(zip(ids.tolist(), arr[ids].tolist())))


def dense_finite(ops, mu, nu, single: dict[int, int], estimate: float, n_seeds: int) -> None:
    """astar_pminhash equals pminhash seed for seed; the collision estimate lies within 4 sigma of jp."""
    x = _as_sparse(mu)
    for seed, sample in single.items():
        want = minhash.pminhash(x, seed)
        ops.check(sample == want, f"astar_pminhash seed {seed}: {sample}, pminhash says {want}")
    p = similarity.jp(normalize(x), normalize(_as_sparse(nu)))
    band = 4.0 * math.sqrt(p * (1.0 - p) / n_seeds) + 1.0 / n_seeds
    ops.check(abs(estimate - p) <= band, f"finite collision {estimate} vs jp {p} (band {band:.4f})")
