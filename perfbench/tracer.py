"""Spans and counters recorded from outside the program.

While a :class:`Tracer` is active, each public function listed in ``SPANS``
is replaced, at every name its callers look it up by, with a wrapper that
records a span (name, start, end, parent, operation id).  ``COUNTERS`` wrap
functions only to count the work they do, without a span, so they do not
move time out of their caller's self time.  Spans stay in memory and are
written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from jpminhash import cli, dense, harness, hashing, io, minhash, similarity, sparse
from jpminhash.sparse import SparseVector


class Tracer:
    """Span recorder plus the per-layer counters the benchmark reports."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.stack: list[int] = []
        self.op_id = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.active = False
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op_id)
                tracer.counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(tracer.counts, args, result, end - start)
            return result

        return wrapper

    def counter(self, fn, on_result):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            on_result(tracer.counts, args, result, perf_counter() - start)
            return result

        return wrapper

    def operation(self, name: str | None, fn, *args):
        """Run one benchmark operation under a fresh operation id, as a root span if named."""
        if not self.active:
            return fn(*args)
        self.op_id += 1
        return self.span(name, fn)(*args) if name else fn(*args)

    def count(self, name: str, amount: float) -> None:
        if self.active:
            self.counts[name] += amount

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        for name, fn, owners, hook in SPANS:
            wrapped = self.span(name, fn, hook)
            for owner in owners:
                self._patch(owner, fn.__name__, wrapped)
        for fn, owners, hook in COUNTERS:
            wrapped = self.counter(fn, hook)
            for owner in owners:
                self._patch(owner, fn.__name__, wrapped)
        from_pairs = SparseVector.__dict__["from_pairs"].__func__
        self._patch(
            SparseVector, "from_pairs", classmethod(self.span("sparse.from_pairs", from_pairs))
        )
        sample = minhash._PackedVectors.sample
        self._patch(minhash._PackedVectors, "sample", self.counter(sample, _count_padded_hashes))
        self.active = True
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self.active = False

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus time covered by children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[i]
        return totals

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                f.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")


# -- hooks: (counts, args, result, elapsed) ----------------------------------


def _count_ingest(counts, args, result, _elapsed) -> None:
    corpus, skipped = result
    counts["harness.docs_ingested"] += len(corpus)
    counts["harness.docs_skipped"] += skipped


def _count_tokens(counts, args, result, _elapsed) -> None:
    counts["harness.tokens"] += len(result)


def _count_index(counts, args, result, _elapsed) -> None:
    """Largest index built or read in the round: its buckets and biggest bucket."""
    counts["harness.buckets"] = max(counts["harness.buckets"], len(result.buckets))
    biggest = max(len(docs) for docs in result.buckets.values())
    counts["harness.bucket_size_max"] = max(counts["harness.bucket_size_max"], biggest)


def _count_index_file(counts, args, result, _elapsed) -> None:
    counts["io.index_bytes"] = max(counts["io.index_bytes"], os.path.getsize(args[0]))


def _count_index_read(counts, args, result, elapsed) -> None:
    _count_index_file(counts, args, result, elapsed)
    _count_index(counts, args, result, elapsed)


def _count_query(counts, args, result, _elapsed) -> None:
    counts["harness.candidates"] += len(result)


def _count_signature(counts, args, result, elapsed) -> None:
    counts["minhash.hashes"] += len(args[0]) * result.k
    counts["minhash.hash_s"] += elapsed


def _count_padded_hashes(counts, args, result, elapsed) -> None:
    packed, seeds = args[0], args[1]
    counts["minhash.hashes"] += int(packed.row_len.sum()) * len(seeds)
    counts["minhash.hash_s"] += elapsed


def _count_hash_elements(counts, args, result, _elapsed) -> None:
    counts["hashing.uniform_hash_vec.elements"] += result.size


def _count_astar(counts, args, result, _elapsed) -> None:
    counts["dense.samples"] += 1
    counts["dense.iterations"] += result.iterations
    lam = args[1]
    if isinstance(lam, dense.FiniteMeasure):
        counts["dense.finite_iterations"] += result.iterations
        counts["dense.finite_support"] += int((lam.arr > 0.0).sum())


def _count_astar_batch(counts, args, result, _elapsed) -> None:
    _, iterations = result
    support = int((args[1].arr > 0.0).sum())
    counts["dense.samples"] += iterations.shape[0]
    counts["dense.iterations"] += int(iterations.sum())
    counts["dense.finite_iterations"] += int(iterations.sum())
    counts["dense.finite_support"] += support * iterations.shape[0]


# (metric prefix, original function, modules whose global name callers use, hook)
SPANS = [
    ("io.read_corpus_jsonl", io.read_corpus_jsonl, [io], None),
    ("io.write_signatures_jsonl", io.write_signatures_jsonl, [io], None),
    ("io.write_index_jsonl", io.write_index_jsonl, [io], _count_index_file),
    ("io.read_index_jsonl", io.read_index_jsonl, [io], _count_index_read),
    ("io.write_pair_csv", io.write_pair_csv, [io], None),
    ("io.write_pr_csv", io.write_pr_csv, [io], None),
    ("harness.corpus_from_records", harness.corpus_from_records, [harness], _count_ingest),
    ("harness.index_build", harness.index_build, [harness], _count_index),
    ("harness.query", harness.query, [harness], _count_query),
    ("harness.synth_pairs", harness.synth_pairs, [harness], None),
    ("harness.empirical_retrieval_runs", harness.empirical_retrieval_runs, [harness], None),
    ("sparse.normalize", sparse.normalize, [sparse, harness], None),
    ("minhash.signature", minhash.signature, [minhash, harness, cli], _count_signature),
    ("minhash.batch_signatures", minhash.batch_signatures, [minhash, harness], None),
    (
        "hashing.uniform_hash_vec",
        hashing.uniform_hash_vec,
        [hashing, minhash, dense],
        _count_hash_elements,
    ),
    ("hashing.fin64_vec", hashing.fin64_vec, [hashing, harness], None),
    ("similarity.similarity_report", similarity.similarity_report, [similarity, harness], None),
    ("dense.astar_pminhash", dense.astar_pminhash, [dense], _count_astar),
    ("dense.astar_collision", dense.astar_collision, [dense], None),
    ("dense.global_bound", dense.global_bound, [dense], None),
]

# (original function, modules whose global name callers use, hook)
COUNTERS = [
    (harness._tokenize, [harness], _count_tokens),
    (dense._astar_many_discrete, [dense], _count_astar_batch),
]
