"""The benchmark's tracer still finds every function it wraps."""

import json
from pathlib import Path

from jpminhash import cli, minhash
from jpminhash.harness import corpus_from_records
from jpminhash.verify import REF_X, REF_Y

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_its_hooks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    sample = minhash._PackedVectors.sample
    with tracer.Tracer() as t:
        assert minhash._PackedVectors.sample is not sample
        minhash.batch_signatures([REF_X, REF_Y], 0, 4)
    assert minhash._PackedVectors.sample is sample
    assert t.counts["minhash.hashes"] == (len(REF_X) + len(REF_Y)) * 4


def test_tracer_counts_each_hash_once(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    records = [
        {"id": "a", "text": "x y z x"},
        {"id": "b", "text": "y w"},
        {"id": "c", "weights": {"p": 1, "q": 2, "r": 0.5}},
    ]
    corpus, query = tmp_path / "corpus.jsonl", tmp_path / "query.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
    query.write_text(json.dumps({"id": "q", "text": "x y v"}) + "\n")
    docs = corpus_from_records(records)[0]
    entries = sum(len(d.dist) for d in docs)
    distinct = len(set().union(*(d.dist.support for d in docs)))
    assert (entries, distinct) == (8, 7)  # "y" is in two documents
    sigs, index = tmp_path / "sigs.jsonl", tmp_path / "index.jsonl"
    assert cli.run(["index", "--corpus", str(corpus), "--a", "2", "--o", "3", "--out", str(index)]) == 0
    # the sampler counts every (entry, seed) cell; an id in two rows is hashed once
    for argv, hashes, hashed in (
        (["hash", "--corpus", str(corpus), "--k", "8", "--out", str(sigs)], entries * 8, distinct * 8),
        (["query", "--index", str(index), "--doc", str(query)], 3 * 6, 3 * 6),
    ):
        with tracer.Tracer() as t:
            assert cli.run(argv) == 0
        assert t.counts["minhash.hashes"] == hashes
        assert t.counts["hashing.uniform_hash_vec.elements"] == hashed


def test_tracer_counts_the_buckets_of_a_read_index(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    corpus, query = tmp_path / "corpus.jsonl", tmp_path / "query.jsonl"
    corpus.write_text("".join(json.dumps({"id": f"d{i}", "text": "x y z"[: 1 + i % 5]}) + "\n"
                              for i in range(12)))
    query.write_text(json.dumps({"id": "q", "text": "x y"}) + "\n")
    index = tmp_path / "index.jsonl"
    assert cli.run(["index", "--corpus", str(corpus), "--a", "1", "--o", "4", "--out", str(index)]) == 0
    sizes = [len(json.loads(line)["docs"]) for line in index.read_text().splitlines()[1:]]
    with tracer.Tracer() as t:
        assert cli.run(["query", "--index", str(index), "--doc", str(query)]) == 0
    assert t.counts["harness.buckets"] == len(sizes)
    assert t.counts["harness.bucket_size_max"] == max(sizes) > 1
    assert t.counts["io.index_bytes"] == index.stat().st_size
