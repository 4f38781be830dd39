"""File formats round-trip and the CLI contract (exit codes, determinism)."""

import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpminhash import io as jio
from jpminhash.cli import run
from jpminhash.harness import (
    BandingScheme,
    InvertedIndex,
    PairSample,
    PairScore,
    index_build,
    ingest_text,
)
from jpminhash.minhash import signature
from jpminhash.sparse import MAX_ID
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


def test_pair_csv_ids_that_read_back_roundtrip(tmp_path):
    # only idA starts a line, so idB may start with '#' or whitespace
    pairs = PairSample((PairScore("a#", "#b", 1.0, 1.0, 0.0, 0.0, 1.0), PairScore("", " c\t", 0, 0, 1, 1, 0)))
    path = tmp_path / "pairs.csv"
    jio.write_pair_csv(path, pairs)
    assert jio.read_pair_csv(path).scores == pairs.scores


@pytest.mark.parametrize(
    "id_a,id_b,bad",
    [
        ("c,1", "b", "c,1"),
        ("a", "c,1", "c,1"),
        ("#a", "b", "#a"),
        (" a", "b", " a"),
        ("\ta", "b", "\ta"),
        ("a", "b\nc", "b\nc"),
        ("a\r", "b", "a\r"),
        ("a", "b\x0bc", "b\x0bc"),
        ("a\x1cb", "b", "a\x1cb"),
        ("a", "b\u2028", "b\u2028"),
    ],
)
def test_pair_csv_refuses_ids_that_do_not_read_back(tmp_path, id_a, id_b, bad):
    path = tmp_path / "pairs.csv"
    pairs = PairSample((PairScore("ok", "ok", 1.0, 1.0, 0.0, 0.0, 1.0), PairScore(id_a, id_b, 0, 0, 1, 1, 0)))
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        jio.write_pair_csv(path, pairs)
    assert not path.exists()


@pytest.mark.parametrize("doc_id", ["#a", "c,1"])
def test_cli_sim_refuses_pair_ids_that_do_not_read_back(tmp_path, capsys, doc_id):
    corpus, out = tmp_path / "pairs.jsonl", tmp_path / "sim.csv"
    _write_corpus(corpus, [{"id": doc_id, "text": "x y"}, {"id": "b", "text": "x z"}])
    assert run(["sim", "--pairs", str(corpus), "--out", str(out)]) == 1
    assert repr(doc_id) in capsys.readouterr().err
    assert not out.exists()


def test_pr_csv_roundtrip(tmp_path):
    from jpminhash.harness import PRPoint

    points = [
        PRPoint("JP", 2, 4, 4, 0.75, 0.9, "analytic"),
        PRPoint("JW", 2, 4, 4, 0.7, 0.85, "analytic"),
    ]
    path = tmp_path / "pr.csv"
    jio.write_pr_csv(path, points)
    assert jio.read_pr_csv(path) == points


_PR_HEADER = "# jpminhash-v1\nmethod,a,o,cost,precision,recall,mode\n"


@pytest.mark.parametrize(
    "text,message",
    [
        ("# jpminhash-v1\nmethod,a,o,cost,precision,recall\n",
         ": expected PR CSV columns 'method,a,o,cost,precision,recall,mode'"),
        (_PR_HEADER + "JP,2,4,4,0.5,0.5,analytic\nJP,2,4,4,0.5,0.5\n", ":4: expected 7 fields, got 6"),
        (_PR_HEADER + "JP,two,4,4,0.5,0.5,analytic\n", ":3: invalid literal for int() with base 10: 'two'"),
    ],
    ids=["header", "six-fields", "a-not-integer"],
)
def test_pr_csv_malformed(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        jio.read_pr_csv(path)
    assert str(exc.value) == f"{path}{message}"


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
        (jio.read_signatures_jsonl, '{"v": 1, "id": "a", "seed": "0", "k": 3, "samples": "123"}'),
        (jio.read_signatures_jsonl, '{"v": 1, "id": "a", "seed": "-5", "k": 1, "samples": ["1"]}'),
        (jio.read_signatures_jsonl, '{"v": 1, "id": "a", "seed": "18446744073709551616", "k": 1, "samples": ["1"]}'),
        (jio.read_signatures_jsonl, '{"v": 1, "id": "a", "seed": "0", "k": 1, "samples": ["-1"]}'),
        (jio.read_signatures_jsonl, '{"v": 1, "id": "a", "seed": "0", "k": 1, "samples": ["99999999999999999999999"]}'),
        (jio.read_signatures_jsonl, '{"v": 1, "id": 7, "seed": "0", "k": 1, "samples": ["1"]}'),
        (jio.read_signatures_jsonl, '{"v": 1, "id": "a", "seed": "0", "k": true, "samples": ["1"]}'),
        (jio.read_signatures_jsonl, '{"v": 1, "id": "a", "seed": "0", "k": 1.9, "samples": ["1"]}'),
        (jio.read_signatures_jsonl, '{"v": 1, "id": "a", "seed": "1_000", "k": 1, "samples": ["1"]}'),
        (jio.read_signatures_jsonl, '{"v": 1, "id": "a", "seed": "0", "k": 1, "samples": [" 12 "]}'),
        (jio.read_signatures_jsonl, '{"v": 1, "id": "a", "seed": "0", "k": 1, "samples": [3.7]}'),
    ],
    ids=[
        "samples-number", "samples-string", "seed-negative", "seed-above-64-bits", "sample-negative",
        "sample-above-64-bits", "id-number", "k-bool", "k-fraction", "seed-underscore", "sample-spaces",
        "sample-fraction",
    ],
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


# doc ids that stress the canonical form: JSON escapes, control characters,
# line breaks that str.splitlines knows, non-ASCII and lone surrogates
_DOC_IDS = st.text(
    st.sampled_from(['"', "\\", "/", "\x00", "\x01", "\x1f", "\x7f", "\x85", "\u2028", "\ud800",
                     "\udfff", "\xe9", "a", " "])
    | st.characters(exclude_categories=()),
    max_size=6,
)


@st.composite
def _indexes(draw):
    o = draw(st.integers(1, 4))
    scheme = BandingScheme(draw(st.integers(1, 3)), o, draw(st.integers(0, MAX_ID)))
    key = st.sampled_from([0, 1, 9, 10, MAX_ID - 1, MAX_ID]) | st.integers(0, MAX_ID)
    buckets = draw(st.dictionaries(
        st.tuples(st.integers(0, o - 1), key), st.lists(_DOC_IDS, max_size=4).map(tuple), max_size=10
    ))
    return InvertedIndex(buckets, scheme)


def _index_text(index):
    """The index file as one ``json.dumps`` of each bucket's docs wrote it."""
    s = index.scheme
    lines = [json.dumps({"v": 1, "kind": "index", "a": s.a, "o": s.o, "seed": str(s.base_seed)})]
    for (band, key), docs in sorted(index.buckets.items()):
        lines.append('{"band": %d, "key": "%d", "docs": %s}' % (band, key, json.dumps(docs)))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_indexes())
def test_index_fast_path_agrees_with_json_path(index):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.jsonl"
        jio.write_index_jsonl(path, index)
        assert path.read_bytes() == _index_text(index).encode("utf-8")
        fast, json_path = jio.read_index_jsonl(path), jio._read_index_json(path)
    assert isinstance(fast.buckets, jio._LazyBuckets)  # what the writer writes is canonical
    assert fast.scheme == json_path.scheme == index.scheme
    # not always index.buckets: JSON reads a written pair of lone surrogates as one character
    assert dict(fast.buckets) == json_path.buckets


def test_canonical_index_fast_path_reads_the_largest_band_and_key(tmp_path):
    index = InvertedIndex({(0, 0): ("a",), (9, MAX_ID): ("b", "c")}, BandingScheme(1, 10, MAX_ID))
    path = tmp_path / "index.jsonl"
    jio.write_index_jsonl(path, index)
    got = jio.read_index_jsonl(path)
    assert isinstance(got.buckets, jio._LazyBuckets)
    assert got.scheme == index.scheme and dict(got.buckets) == index.buckets
    assert got.buckets[(9, MAX_ID)] == ("b", "c")
    for absent in ((10, MAX_ID), (9, MAX_ID + 1), (-1, 0), (10**5000, 0), (0, "0"), (0,), None):
        assert absent not in got.buckets


_POWERS = [10**e + d for e in range(21) for d in (-1, 0, 1)]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, MAX_ID) | st.sampled_from([p for p in _POWERS if 0 <= p <= MAX_ID] + [MAX_ID]),
    st.data(),
)
def test_int_range_pattern_is_integer_comparison(n, data):
    value = data.draw(
        st.integers(max(0, n - 3), n + 3) | st.sampled_from(_POWERS) | st.integers(0, 2 * MAX_ID)
    )
    zeros = data.draw(st.integers(0, 2))
    text = "0" * zeros + str(value)
    assert bool(re.fullmatch(jio._int_range(n), text)) == (value <= n and (zeros == 0 or text == "0"))


def test_canonical_index_patterns_use_python_310_syntax():
    # possessive quantifiers and atomic groups need Python 3.11's re; the package supports 3.10
    buckets = [jio._canonical_bucket(o) for o in (1, 2, 9, 10, 16, 9999999999)]
    for pattern in (re.compile(jio._CANONICAL_HEADER), *buckets):
        assert not re.search(r"[*+?}]\+|\(\?>", pattern.pattern)


def test_noncanonical_index_files_read_back_equal(tmp_path):
    corpus, _ = ingest_text([("d1", "alpha beta gamma"), ("d2", "alpha beta delta"), ("d3", "zeta")])
    index = index_build(corpus, BandingScheme(2, 3, base_seed=7))
    path = tmp_path / "index.jsonl"
    jio.write_index_jsonl(path, index)
    text = path.read_text(encoding="utf-8")
    header, *rows = text.splitlines()
    variants = {
        "comment-and-blank": header + "\n# a comment\n\n" + "\n".join(rows) + "\n",
        "crlf": text.replace("\n", "\r\n"),
        "key-leading-zeros": text.replace('"key": "', '"key": "00', 1),
        "extra-spaces": text.replace('"docs": ', '"docs" :  ').replace("{", "{ "),
        "unsorted": header + "\n" + "\n".join(reversed(rows)) + "\n",
        "no-final-newline": text[:-1],
        "non-ascii-comment": "# ind\xe9x\n" + text,
    }
    assert len(set(variants.values())) == len(variants)
    for name, variant in variants.items():
        path = tmp_path / f"{name}.jsonl"
        path.write_bytes(variant.encode("utf-8"))
        back = jio.read_index_jsonl(path)
        assert back.scheme == index.scheme, name
        assert dict(back.buckets) == index.buckets, name


def test_index_buckets_decode_on_lookup(tmp_path):
    corpus, _ = ingest_text([("d1", "alpha beta"), ("d\u2028\"2", "alpha gamma")])
    index = index_build(corpus, BandingScheme(1, 2, base_seed=3))
    path = tmp_path / "index.jsonl"
    jio.write_index_jsonl(path, index)
    back = jio.read_index_jsonl(path).buckets
    assert list(back) == sorted(index.buckets)
    band, key = bucket = max(index.buckets)  # in band 1
    assert band == 1 and bucket in back
    assert back[bucket] == back.get(bucket) == index.buckets[bucket]
    for absent in ((5, 0), (0, 1 << 64 | key), (-1, key), (1.0, key), ("1", key), (1,), None):
        assert absent not in back and back.get(absent, ()) == ()
    with pytest.raises(TypeError):
        back[bucket] = ("x",)  # read-only


def test_corpus_jsonl_errors(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "hi"}\n{oops\n')
    with pytest.raises(ValueError, match=r"corpus\.jsonl:2"):
        jio.read_corpus_jsonl(path)
    path.write_text('{"id": "a"}\n')
    with pytest.raises(ValueError, match="text"):
        jio.read_corpus_jsonl(path)


def test_corpus_jsonl_records_end_only_at_newline(tmp_path, capsys):
    # JSON allows U+2028, U+2029 and U+0085 raw in a string; str.splitlines breaks at each
    docs = [{"id": f"d{i}", "text": f"x{c}y z"} for i, c in enumerate("\u2028\u2029\x85")]
    text = "".join(json.dumps(d, ensure_ascii=False) + "\n" for d in docs)
    assert all(c in text for c in "\u2028\u2029\x85")
    path = tmp_path / "corpus.jsonl"
    for ending in ("\n", "\r\n"):
        path.write_bytes(text.replace("\n", ending).encode("utf-8"))
        assert jio.read_corpus_jsonl(path) == docs
        assert run(["hash", "--corpus", str(path), "--k", "2", "--out", str(tmp_path / "sigs.jsonl")]) == 0
    path.write_bytes((text + "{oops\n").encode("utf-8"))
    assert run(["hash", "--corpus", str(path), "--k", "2", "--out", str(tmp_path / "sigs.jsonl")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:4: malformed JSON")


# --- cli ------------------------------------------------------------------------

def _write_corpus(path, docs):
    path.write_text("\n".join(json.dumps(d) for d in docs) + "\n")


def test_cli_unknown_flag_is_validation_error(capsys):
    assert run(["sim", "--nope"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_missing_file_is_validation_error(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run(["sim", "--pairs", str(tmp_path / "missing.jsonl"), "--out", str(out)]) == 1


def test_cli_overflowing_weights_name_the_corpus(tmp_path):
    # weights near 1e308 are scaled before they are summed, as normalize does
    sigs = []
    for scale in (1e308, 1.0):
        corpus = tmp_path / f"corpus-{scale}.jsonl"
        _write_corpus(corpus, [{"id": "a", "weights": {"x": 1.0 * scale, "y": 1.5 * scale}}])
        out = tmp_path / f"sigs-{scale}.jsonl"
        assert run(["hash", "--corpus", str(corpus), "--k", "16", "--out", str(out)]) == 0
        sigs.append(jio.read_signatures_jsonl(out))
    assert sigs[0] == sigs[1]


@pytest.mark.parametrize(
    "command", [["hash", "--k", "2"], ["index", "--a", "1", "--o", "2"]], ids=["hash", "index"]
)
def test_cli_surrogate_weight_key_names_path_and_line(tmp_path, capsys, command):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(_OK + '{"id": "b", "weights": {"ok": 1.0, "\\ud800": 2.0}}\n')
    argv = [*command, "--corpus", str(corpus), "--out", str(tmp_path / "out.jsonl")]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {corpus}:2: weight key '\\ud800' is not valid UTF-8\n"


def test_cli_sim_pair_apart_by_a_subnormal_mass_has_no_divergence(tmp_path):
    # the mean of 5e-324 and 0 underflows to 0; jsd must not read that as maximal
    corpus, out = tmp_path / "pairs.jsonl", tmp_path / "sim.csv"
    _write_corpus(corpus, [{"id": "x", "weights": {"a": 1, "b": 1, "c": 1e-323}},
                           {"id": "y", "weights": {"a": 1, "b": 1}}])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["sim", "--pairs", str(corpus), "--out", str(out)]) == 0
    (score,) = jio.read_pair_csv(out).scores
    assert score.jsd == 0.0


@pytest.mark.parametrize("weight", ["true", '"1.5"', '"  2 "'])
@pytest.mark.parametrize("command", [["hash", "--k", "2", "--corpus"], ["sim", "--pairs"]], ids=["hash", "sim"])
def test_cli_corpus_weights_must_be_json_numbers(tmp_path, capsys, command, weight):
    corpus = tmp_path / "pairs.jsonl"
    corpus.write_text(_OK + '{"id": "b", "weights": {"u": 1, "v": %s}}\n' % weight)
    assert run([*command, str(corpus), "--out", str(tmp_path / "out")]) == 1
    got = repr(json.loads(weight))
    assert capsys.readouterr().err == (
        f"error: {corpus}:2: weight of 'v' must be a finite non-negative number, got {got}\n"
    )


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


def test_cli_rejects_flags_and_files_with_nothing_to_read(tmp_path, capsys):
    doc, empty, blank = tmp_path / "doc.jsonl", tmp_path / "empty.jsonl", tmp_path / "blank.jsonl"
    _write_corpus(doc, [{"id": "q", "text": "apple"}])
    empty.write_text("")
    _write_corpus(blank, [{"id": "a", "text": ""}, {"id": "b", "text": "!!"}])
    out = tmp_path / "out"
    for argv, err in [
        (["query", "--index", str(empty), "--doc", str(doc)], f"error: {empty}: empty index file\n"),
        (["hash", "--corpus", str(blank), "--k", "2", "--out", str(out)],
         f"warning: skipped 2 empty document(s)\nerror: {blank}: no usable documents\n"),
        (["hash", "--corpus", str(doc), "--k", "0", "--out", str(out)], "error: --k must be positive\n"),
        (["eval", "--synthetic", "20", "--grid", "2y4", "--out", str(out)],
         "error: argument --grid: invalid grid entry '2y4'; expected AxO\n"),
    ]:
        assert run(argv) == 1
        assert capsys.readouterr().err == err
        assert not out.exists()


_OK = '{"id": "a", "text": "ok"}\n'
_HEADER = '{"v": 1, "kind": "index", "a": 1, "o": 2, "seed": "0"}\n'

_BUCKET = '{"band": %d, "key": "%d", "docs": ["%s"]}'
_AFTER_2000 = _HEADER + "".join(_BUCKET % (i % 2, i, "d%d" % i) + "\n" for i in range(2000))
# index files that are canonical but for one line, which the query does not hit
_CANONICAL_INDEX_ROWS = [
    ("bad-line-after-2000", "index", _AFTER_2000 + '{"band": 1, "key": "7", "docs": ["a"]', 2002),
    ("bucket-repeated-apart", "index",
     _HEADER + "\n".join((_BUCKET % (0, 1, "a"), _BUCKET % (1, 1, "b"), _BUCKET % (0, 1, "c"))), 4),
    ("doc-raw-control", "index", _HEADER + _BUCKET % (0, 1, "a\x01b"), 2),
    ("doc-bad-escape", "index", _HEADER + _BUCKET % (0, 1, "a\\xb"), 2),
    ("doc-raw-u2028", "index", _HEADER + _BUCKET % (0, 1, "a\u2028b"), 2),
    ("band-leading-zero", "index", _HEADER + '{"band": 01, "key": "1", "docs": ["a"]}', 2),
    ("band-out-of-range-after-2000", "index", _AFTER_2000 + _BUCKET % (2, 7, "a"), 2002),
    ("seed-above-64-bits", "index",
     '{"v": 1, "kind": "index", "a": 1, "o": 2, "seed": "%d"}\n' % 2**64 + _BUCKET % (0, 1, "a"), 1),
    ("key-twenty-nines", "index", _HEADER + _BUCKET % (0, 10**20 - 1, "a"), 2),
    ("band-ten-of-o-ten", "index",
     _HEADER.replace('"o": 2', '"o": 10') + _BUCKET % (9, 1, "a") + "\n" + _BUCKET % (10, 1, "b"), 3),
]

_PAIR_HEADER = "# jpminhash-v1\nidA,idB,jp,jw,jsd,tv,jaccard,weight\n"

# (case, file role, file text, line the error must name)
MALFORMED = [
    ("weights-list", "corpus", '{"id": "a", "weights": [1, 2]}', 1),
    ("record-list", "corpus", "[1, 2]", 1),
    ("id-missing", "corpus", '{"text": "x"}', 1),
    ("text-number", "corpus", '{"id": "a", "text": 5}', 1),
    ("id-number", "corpus", _OK + '{"id": 7, "text": "ok"}', 2),
    ("weight-negative", "corpus", _OK + '{"id": "b", "weights": {"u": -1.0}}', 2),
    ("weight-nan", "corpus", '{"id": "a", "weights": {"u": NaN}}', 1),
    ("weight-list", "corpus", '{"id": "a", "weights": {"u": [1]}}', 1),
    ("weight-huge-int", "corpus", '{"id": "a", "weights": {"u": 1%s}}' % ("0" * 400), 1),
    ("weight-bool", "corpus", '{"id": "a", "weights": {"u": true}}', 1),
    ("weight-string", "corpus", _OK + '{"id": "b", "weights": {"u": "1.5"}}', 2),
    ("docs-number", "index", _HEADER + '{"band": 0, "key": "1", "docs": 5}', 2),
    ("docs-mixed", "index", _HEADER + '{"band": 0, "key": "1", "docs": [1, "b"]}', 2),
    ("band-text", "index", _HEADER + '{"band": "x", "key": "1", "docs": ["a"]}', 2),
    ("key-missing", "index", _HEADER + '{"band": 0, "docs": ["a"]}', 2),
    ("header-kind-sigs", "index", '{"v": 1, "kind": "sigs"}', 1),
    ("header-o-missing", "index", '{"v": 1, "kind": "index", "a": 1, "seed": "0"}', 1),
    ("seed-negative", "index", '{"v": 1, "kind": "index", "a": 1, "o": 2, "seed": "-1"}', 1),
    ("a-zero", "index", '{"v": 1, "kind": "index", "a": 0, "o": 2, "seed": "0"}', 1),
    ("o-infinite", "index", '{"v": 1, "kind": "index", "a": 1, "o": Infinity, "seed": "0"}', 1),
    ("a-fraction", "index", '{"v": 1, "kind": "index", "a": 1.9, "o": 2, "seed": "0"}', 1),
    ("band-out-of-range", "index", _HEADER + '{"band": 99, "key": "1", "docs": ["a"]}', 2),
    ("band-bool", "index", _HEADER + '{"band": true, "key": "1", "docs": ["a"]}', 2),
    ("band-fraction", "index", _HEADER + '{"band": 1.7, "key": "1", "docs": ["a"]}', 2),
    ("key-above-64-bits", "index", _HEADER + '{"band": 0, "key": "%d", "docs": ["a"]}' % 2**64, 2),
    ("key-negative", "index", _HEADER + '{"band": 0, "key": "-1", "docs": ["a"]}', 2),
    ("key-5000-digits", "index", _HEADER + '{"band": 0, "key": "%s", "docs": ["a"]}' % ("9" * 5000), 2),
    ("bucket-repeated", "index", _HEADER + '{"band": 0, "key": "1", "docs": ["a"]}\n' * 2, 3),
    *_CANONICAL_INDEX_ROWS,
    ("pair-jp-above-one", "pair", _PAIR_HEADER + "a,b,1.5,0.4,0.1,0.2,0.5,1", 3),
    ("pair-jsd-nan", "pair", _PAIR_HEADER + "a,b,0.5,0.4,nan,0.2,0.5,1", 3),
    ("pair-tv-negative", "pair", _PAIR_HEADER + "a,b,0.5,0.4,0.1,-0.2,0.5,1", 3),
    ("pair-weight-negative", "pair", _PAIR_HEADER + "a,b,0.5,0.4,0.1,0.2,0.5,-1", 3),
    ("pair-weight-nan", "pair", _PAIR_HEADER + "a,b,0.5,0.4,0.1,0.2,0.5,nan", 3),
    ("pair-weight-infinite", "pair", _PAIR_HEADER + "c,d,0.1,0.05,0.6,0.7,0.2,1\na,b,0.5,0.4,0.1,0.2,0.5,inf", 4),
]


@pytest.mark.parametrize(
    "role,text,line", [c[1:] for c in MALFORMED], ids=[c[0] for c in MALFORMED]
)
def test_cli_malformed_records_name_path_and_line(tmp_path, capsys, role, text, line):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(text + "\n", encoding="utf-8")
    if role == "corpus":
        argv = ["hash", "--corpus", str(bad), "--k", "2", "--out", str(tmp_path / "sigs.jsonl")]
    elif role == "pair":
        argv = ["eval", "--pairs", str(bad), "--out", str(tmp_path / "pr.csv")]
    else:
        doc = tmp_path / "doc.jsonl"
        _write_corpus(doc, [{"id": "q", "text": "apple"}])
        argv = ["query", "--index", str(bad), "--doc", str(doc)]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}:{line}: ")


def _role_argv(role, path, tmp_path):
    """A command that reads ``path`` as a file of the given role."""
    if role == "corpus":
        return ["hash", "--corpus", str(path), "--k", "2", "--out", str(tmp_path / "sigs.jsonl")]
    if role == "pair":
        return ["eval", "--pairs", str(path), "--out", str(tmp_path / "pr.csv")]
    doc = tmp_path / "doc.jsonl"
    _write_corpus(doc, [{"id": "q", "text": "apple"}])
    return ["query", "--index", str(path), "--doc", str(doc)]


@pytest.mark.parametrize(
    "role,text",
    [
        ("corpus", _OK * 3),
        ("index", _HEADER + "".join(_BUCKET % (0, i, "d%d" % i) + "\n" for i in range(3))),
        ("pair", _PAIR_HEADER + "a,b,0.5,0.4,0.1,0.2,0.5,1\n" * 3),
    ],
    ids=["corpus", "index", "pair"],
)
def test_cli_invalid_utf8_names_path_and_line(tmp_path, capsys, role, text):
    # the bad byte is on line 3 of the text; a file past read_text's first
    # decoded chunk puts it there, too, after 5,000 more lines of CRLF
    path = tmp_path / "bad"
    lines = text.splitlines(keepends=True)
    for filler, line in (("", 3), (lines[-1].replace("\n", "\r\n") * 5000, 5003)):
        path.write_bytes(("".join(lines[:2]) + filler + lines[2][:12]).encode() + b"\xff" + lines[2][12:].encode())
        assert run(_role_argv(role, path, tmp_path)) == 1
        assert capsys.readouterr().err == f"error: {path}:{line}: not valid UTF-8\n"


def test_cli_eval_pairs_whose_positives_carry_no_weight(tmp_path, capsys):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(_PAIR_HEADER + "a,b,0.5,0.4,0.1,0.2,0.5,0\nc,d,0.1,0.05,0.6,0.7,0.2,1\n")
    out = tmp_path / "pr.csv"
    assert run(["eval", "--pairs", str(pairs), "--task", "jsd<0.25", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: the positive pairs carry no weight, so recall is undefined\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text,line", [c[2:] for c in _CANONICAL_INDEX_ROWS], ids=[c[0] for c in _CANONICAL_INDEX_ROWS]
)
def test_index_errors_are_those_of_the_json_path(tmp_path, text, line):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as want:
        jio._read_index_json(bad)
    with pytest.raises(ValueError) as got:
        jio.read_index_jsonl(bad)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"{bad}:{line}: ")


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


@pytest.mark.parametrize("module", ["jpminhash", "jpminhash.cli"])
def test_cli_runs_as_a_module(module):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    ok = subprocess.run([sys.executable, "-m", module, "verify"], capture_output=True, text=True, env=env)
    assert ok.returncode == 0
    assert "checks passed" in ok.stdout and "FAIL" not in ok.stdout
    bad = subprocess.run([sys.executable, "-m", module, "--nope"], capture_output=True, text=True, env=env)
    assert bad.returncode == 1 and bad.stderr.startswith("error: ")


def test_cli_runs_in_one_process_as_each_runs_alone(tmp_path, capsys):
    from jpminhash import cli

    corpus, doc, index = tmp_path / "corpus.jsonl", tmp_path / "doc.jsonl", tmp_path / "index.jsonl"
    _write_corpus(corpus, [{"id": "d1", "text": "apple banana"}, {"id": "d2", "text": "apple cherry"}])
    _write_corpus(doc, [{"id": "q", "text": "apple banana"}])
    assert run(["index", "--corpus", str(corpus), "--a", "1", "--o", "4", "--out", str(index)]) == 0
    capsys.readouterr()

    def argvs(tag):
        return [
            ["sim", "--synthetic", "3", "--seed", "5", "--out", str(tmp_path / f"sim-{tag}.csv")],
            ["eval", "--synthetic", "3", "--grid", "2x", "--out", str(tmp_path / f"eval-{tag}.csv")],
            ["query", "--index", str(index), "--doc", str(doc)],
        ]

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    alone = []
    for argv in argvs("alone"):
        done = subprocess.run([sys.executable, "-m", "jpminhash", *argv], capture_output=True, text=True, env=env)
        alone.append((done.returncode, done.stdout, done.stderr))
    together = []
    for argv in argvs("together"):
        code = run(argv)
        together.append((code, *capsys.readouterr()))
    assert together == alone
    assert [c for c, _, _ in alone] == [0, 1, 0] and "d1" in alone[2][1]
    assert (tmp_path / "sim-together.csv").read_bytes() == (tmp_path / "sim-alone.csv").read_bytes()
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize(
    "message, err",
    [
        ("Unable to allocate 74.5 GiB for an array", "error: Unable to allocate 74.5 GiB for an array\n"),
        ("", "error: out of memory\n"),
    ],
)
def test_cli_allocation_failure_exits_1_with_a_message(tmp_path, capsys, monkeypatch, message, err):
    from jpminhash import harness

    def too_big(*args, **kwargs):  # never a real huge allocation: under overcommit one can succeed
        raise MemoryError(message)

    monkeypatch.setattr(harness, "synth_pairs", too_big)
    assert run(["sim", "--synthetic", "3", "--out", str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr() == ("", err)


def test_cli_hash_weights_summing_past_the_float_range(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    _write_corpus(corpus, [{"id": "a", "weights": {"x": 1.7e308, "y": 1.7e308, "z": 1e308}}])
    assert run(["hash", "--corpus", str(corpus), "--k", "4", "--out", str(tmp_path / "sigs.jsonl")]) == 0
    assert capsys.readouterr().err == ""


def test_cli_hash_masses_spanning_the_float_range_warns_of_nothing(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    _write_corpus(corpus, [{"id": "a", "weights": {"x": 1e-320, "y": 1.0}}, {"id": "b", "text": "x y"}])
    assert run(["hash", "--corpus", str(corpus), "--k", "64", "--out", str(tmp_path / "sigs.jsonl")]) == 0
    assert capsys.readouterr().err == ""


def test_cli_verify_failure_exits_2(monkeypatch, capsys):
    from jpminhash import verify as _verify
    from jpminhash.verify import CheckResult

    monkeypatch.setattr(
        _verify, "run_all", lambda: [CheckResult("broken-check", False, "synthetic failure")]
    )
    assert run(["verify"]) == 2
    assert "FAIL" in capsys.readouterr().out
