"""File formats round-trip and the CLI contract (exit codes, determinism)."""

import json

import pytest

from jpminhash import io as jio
from jpminhash.cli import run
from jpminhash.harness import BandingScheme, PairSample, PairScore, index_build, ingest_text
from jpminhash.minhash import signature
from jpminhash.verify import REF_X, REF_Y


# --- io round-trips -------------------------------------------------------------

def test_pair_csv_roundtrip(tmp_path):
    pairs = PairSample(
        (
            PairScore("a", "b", 0.607692308, 0.538461538, 0.1, 0.3, 0.5, 1.0),
            PairScore("c", "d", 0.0, 0.0, 1.0, 1.0, 0.0, 2.5),
        )
    )
    path = tmp_path / "pairs.csv"
    jio.write_pair_csv(path, pairs, comments=["seed=0"])
    text = path.read_text()
    assert text.startswith("# jpminhash-v1\n")
    assert "idA,idB,jp,jw,jsd,tv,jaccard,weight" in text
    back = jio.read_pair_csv(path)
    assert back.scores == pairs.scores
    # a second write of the parsed data is byte-identical
    jio.write_pair_csv(tmp_path / "again.csv", back, comments=["seed=0"])
    assert (tmp_path / "again.csv").read_text() == text


def test_pair_csv_malformed_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# jpminhash-v1\nidA,idB,jp,jw,jsd,tv,jaccard,weight\na,b,1,2\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3"):
        jio.read_pair_csv(path)


def test_pr_csv_roundtrip(tmp_path):
    from jpminhash.harness import PRPoint

    points = [
        PRPoint("JP", 2, 4, 4, 0.75, 0.9, "analytic"),
        PRPoint("JW", 2, 4, 4, 0.7, 0.85, "analytic"),
    ]
    path = tmp_path / "pr.csv"
    jio.write_pr_csv(path, points)
    assert jio.read_pr_csv(path) == points


def test_signatures_jsonl_roundtrip(tmp_path):
    sigs = [signature(REF_X, 5, 4, doc_id="x"), signature(REF_Y, 5, 4, doc_id="y")]
    path = tmp_path / "sigs.jsonl"
    jio.write_signatures_jsonl(path, sigs)
    first = json.loads(path.read_text().splitlines()[0])
    assert first["v"] == 1
    assert isinstance(first["seed"], str) and isinstance(first["samples"][0], str)
    assert jio.read_signatures_jsonl(path) == sigs


@pytest.mark.parametrize(
    "reader,text",
    [
        (jio.read_signatures_jsonl, '{"v": 1, "id": "a", "seed": "0", "k": 1, "samples": 5}'),
    ],
    ids=["samples-number"],
)
def test_jsonl_readers_reject_scalar_lists_with_path_and_line(tmp_path, reader, text):
    path = tmp_path / "bad.jsonl"
    path.write_text("# comment\n" + text + "\n")
    with pytest.raises(ValueError, match=r"bad\.jsonl:2: "):
        reader(path)


def test_index_jsonl_roundtrip(tmp_path):
    corpus, _ = ingest_text([("d1", "alpha beta gamma"), ("d2", "alpha beta delta")])
    index = index_build(corpus, BandingScheme(2, 3, base_seed=7))
    path = tmp_path / "index.jsonl"
    jio.write_index_jsonl(path, index)
    back = jio.read_index_jsonl(path)
    assert back.scheme == index.scheme
    assert back.buckets == index.buckets


def test_corpus_jsonl_errors(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "hi"}\n{oops\n')
    with pytest.raises(ValueError, match=r"corpus\.jsonl:2"):
        jio.read_corpus_jsonl(path)
    path.write_text('{"id": "a"}\n')
    with pytest.raises(ValueError, match="text"):
        jio.read_corpus_jsonl(path)


# --- cli ------------------------------------------------------------------------

def _write_corpus(path, docs):
    path.write_text("\n".join(json.dumps(d) for d in docs) + "\n")


def test_cli_unknown_flag_is_validation_error(capsys):
    assert run(["sim", "--nope"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_missing_file_is_validation_error(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run(["sim", "--pairs", str(tmp_path / "missing.jsonl"), "--out", str(out)]) == 1


def test_cli_overflowing_weights_name_the_corpus(tmp_path, capsys):
    corpus = tmp_path / "huge.jsonl"
    _write_corpus(corpus, [{"id": "a", "weights": {"u": 1e308, "v": 1e308}}])
    out = tmp_path / "sigs.jsonl"
    assert run(["hash", "--corpus", str(corpus), "--k", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "huge.jsonl" in err
    assert not out.exists()


def test_cli_sim_identical_vectors(tmp_path):
    corpus = tmp_path / "pairs.jsonl"
    _write_corpus(corpus, [{"id": "a", "text": "x y"}, {"id": "b", "text": "x y"}])
    out = tmp_path / "sim.csv"
    assert run(["sim", "--pairs", str(corpus), "--out", str(out)]) == 0
    (score,) = jio.read_pair_csv(out).scores
    assert score.jp == 1.0 and score.jw == 1.0 and score.jsd == 0.0


def test_cli_sim_odd_pair_file_rejected(tmp_path):
    corpus = tmp_path / "pairs.jsonl"
    _write_corpus(corpus, [{"id": "a", "text": "x"}])
    assert run(["sim", "--pairs", str(corpus), "--out", str(tmp_path / "o.csv")]) == 1


def test_cli_byte_identical_reruns(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(["sim", "--synthetic", "30", "--seed", "9", "--out", str(out1)]) == 0
    assert run(["sim", "--synthetic", "30", "--seed", "0x9", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_hash_and_signatures(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    _write_corpus(corpus, [{"id": "a", "text": "u v w"}, {"id": "b", "weights": {"u": 2.0, "q": 1.0}}])
    out = tmp_path / "sigs.jsonl"
    assert run(["hash", "--corpus", str(corpus), "--k", "8", "--seed", "4", "--out", str(out)]) == 0
    sigs = jio.read_signatures_jsonl(out)
    assert [s.doc_id for s in sigs] == ["a", "b"]  # input order preserved
    assert all(s.k == 8 and s.base_seed == 4 for s in sigs)


def test_cli_index_and_query(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    _write_corpus(
        corpus,
        [
            {"id": "d1", "text": "apple banana cherry"},
            {"id": "d2", "text": "apple banana date"},
            {"id": "d3", "text": "xylem phloem"},
        ],
    )
    index_path = tmp_path / "index.jsonl"
    assert run([
        "index", "--corpus", str(corpus), "--a", "2", "--o", "4", "--seed", "3",
        "--out", str(index_path),
    ]) == 0
    doc = tmp_path / "query.jsonl"
    _write_corpus(doc, [{"id": "q", "text": "apple banana cherry"}])
    assert run(["query", "--index", str(index_path), "--doc", str(doc)]) == 0
    out = capsys.readouterr().out.split()
    assert "d1" in out


def test_cli_query_requires_single_doc(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    _write_corpus(corpus, [{"id": "d1", "text": "a b"}])
    index_path = tmp_path / "index.jsonl"
    run(["index", "--corpus", str(corpus), "--a", "1", "--o", "1", "--out", str(index_path)])
    two = tmp_path / "two.jsonl"
    _write_corpus(two, [{"id": "q1", "text": "a"}, {"id": "q2", "text": "b"}])
    assert run(["query", "--index", str(index_path), "--doc", str(two)]) == 1


def test_cli_eval_analytic(tmp_path):
    out = tmp_path / "pr.csv"
    assert run([
        "eval", "--synthetic", "200", "--task", "jsd<0.25", "--mode", "analytic",
        "--seed", "2", "--out", str(out),
    ]) == 0
    points = jio.read_pr_csv(out)
    # one row per (method, a, o) over the default grid
    assert len(points) == 2 * 48
    assert {p.method for p in points} == {"JP", "JW"}
    assert all(p.cost == p.o for p in points)


def test_cli_eval_grid_and_task_flags(tmp_path):
    out = tmp_path / "pr.csv"
    assert run([
        "eval", "--synthetic", "100", "--task", "jw>0.5", "--grid", "1x1,2x4",
        "--seed", "2", "--out", str(out),
    ]) == 0
    points = jio.read_pr_csv(out)
    assert {(p.a, p.o) for p in points} == {(1, 1), (2, 4)}


def test_cli_eval_empirical_requires_synthetic(tmp_path):
    pairs = tmp_path / "pairs.csv"
    jio.write_pair_csv(pairs, PairSample((PairScore("a", "b", 0.5, 0.4, 0.1, 0.2, 0.5),)))
    assert run([
        "eval", "--pairs", str(pairs), "--mode", "empirical", "--out", str(tmp_path / "o.csv"),
    ]) == 1


def test_cli_eval_empirical_smoke(tmp_path):
    out = tmp_path / "pr.csv"
    assert run([
        "eval", "--synthetic", "60", "--grid", "1x2", "--mode", "empirical",
        "--replicates", "4", "--seed", "5", "--out", str(out),
    ]) == 0
    (point,) = jio.read_pr_csv(out)
    assert point.mode == "empirical"
    assert "replicate_seeds=" in out.read_text()


@pytest.mark.parametrize(
    "flags",
    [["--grid", "0x1"], ["--mode", "empirical", "--replicates", "0"]],
    ids=["grid-0x1", "replicates-0"],
)
def test_cli_eval_rejects_degenerate_flags(tmp_path, capsys, flags):
    out = tmp_path / "pr.csv"
    assert run(["eval", "--synthetic", "20", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


_OK = '{"id": "a", "text": "ok"}\n'
_HEADER = '{"v": 1, "kind": "index", "a": 1, "o": 2, "seed": "0"}\n'

# (case, file role, file text, line the error must name)
MALFORMED = [
    ("weights-list", "corpus", '{"id": "a", "weights": [1, 2]}', 1),
    ("text-number", "corpus", '{"id": "a", "text": 5}', 1),
    ("id-number", "corpus", _OK + '{"id": 7, "text": "ok"}', 2),
    ("weight-negative", "corpus", _OK + '{"id": "b", "weights": {"u": -1.0}}', 2),
    ("weight-nan", "corpus", '{"id": "a", "weights": {"u": NaN}}', 1),
    ("weight-list", "corpus", '{"id": "a", "weights": {"u": [1]}}', 1),
    ("weight-huge-int", "corpus", '{"id": "a", "weights": {"u": 1%s}}' % ("0" * 400), 1),
    ("docs-number", "index", _HEADER + '{"band": 0, "key": "1", "docs": 5}', 2),
    ("docs-mixed", "index", _HEADER + '{"band": 0, "key": "1", "docs": [1, "b"]}', 2),
    ("band-text", "index", _HEADER + '{"band": "x", "key": "1", "docs": ["a"]}', 2),
    ("key-missing", "index", _HEADER + '{"band": 0, "docs": ["a"]}', 2),
    ("seed-negative", "index", '{"v": 1, "kind": "index", "a": 1, "o": 2, "seed": "-1"}', 1),
    ("a-zero", "index", '{"v": 1, "kind": "index", "a": 0, "o": 2, "seed": "0"}', 1),
    ("o-infinite", "index", '{"v": 1, "kind": "index", "a": 1, "o": Infinity, "seed": "0"}', 1),
    ("a-fraction", "index", '{"v": 1, "kind": "index", "a": 1.9, "o": 2, "seed": "0"}', 1),
    ("band-out-of-range", "index", _HEADER + '{"band": 99, "key": "1", "docs": ["a"]}', 2),
    ("band-bool", "index", _HEADER + '{"band": true, "key": "1", "docs": ["a"]}', 2),
    ("band-fraction", "index", _HEADER + '{"band": 1.7, "key": "1", "docs": ["a"]}', 2),
    ("key-above-64-bits", "index", _HEADER + '{"band": 0, "key": "%d", "docs": ["a"]}' % 2**64, 2),
    ("key-negative", "index", _HEADER + '{"band": 0, "key": "-1", "docs": ["a"]}', 2),
    ("bucket-repeated", "index", _HEADER + '{"band": 0, "key": "1", "docs": ["a"]}\n' * 2, 3),
]


@pytest.mark.parametrize(
    "role,text,line", [c[1:] for c in MALFORMED], ids=[c[0] for c in MALFORMED]
)
def test_cli_malformed_records_name_path_and_line(tmp_path, capsys, role, text, line):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(text + "\n")
    if role == "corpus":
        argv = ["hash", "--corpus", str(bad), "--k", "2", "--out", str(tmp_path / "sigs.jsonl")]
    else:
        doc = tmp_path / "doc.jsonl"
        _write_corpus(doc, [{"id": "q", "text": "apple"}])
        argv = ["query", "--index", str(bad), "--doc", str(doc)]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}:{line}: ")


@pytest.mark.parametrize("line", ["abc", '{"a": 1} x', "{", '{"a": 1,}', '{"a": [1, 2}'])
def test_jsonl_malformed_json_names_the_json_error(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(_OK + line + "\n")
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(line)
    with pytest.raises(ValueError) as got:
        jio.read_corpus_jsonl(path)
    assert str(got.value) == f"{path}:2: malformed JSON ({want.value.msg})"


def test_cli_bad_seed_rejected(tmp_path):
    assert run(["sim", "--synthetic", "5", "--seed", "zz", "--out", str(tmp_path / "o.csv")]) == 1
    assert run(["sim", "--synthetic", "5", "--seed", str(2**64), "--out", str(tmp_path / "o.csv")]) == 1


def test_cli_verify_clean_build(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    collision_line = next(l for l in out.splitlines() if "collision-law" in l)
    assert collision_line.startswith("PASS") and "0.607692" in collision_line


def test_cli_verify_failure_exits_2(monkeypatch, capsys):
    from jpminhash import verify as _verify
    from jpminhash.verify import CheckResult

    monkeypatch.setattr(
        _verify, "run_all", lambda: [CheckResult("broken-check", False, "synthetic failure")]
    )
    assert run(["verify"]) == 2
    assert "FAIL" in capsys.readouterr().out
