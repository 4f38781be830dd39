"""Golden artifacts: sha256 of every CLI subcommand's output, on a fixed tiny input if it reads one.

Sampling, banding, scoring and the file formats all feed these digests, so a
refactor that must leave behaviour unchanged has to leave every one of them
unchanged too.  A deliberate change of output updates the table below.
"""

import hashlib
import json

import pytest

from jpminhash.cli import run

CORPUS = [
    {"id": "d1", "text": "apple banana cherry apple"},
    {"id": "d2", "text": "Apple banana date, banana!"},
    {"id": "d3", "text": "xylem phloem root root root"},
    {"id": "d4", "weights": {"apple": 3.0, "cherry": 0.5, "fig": 1.25}},
    {"id": "d5", "text": "Zürich café naïve apple"},
    {"id": "d6", "weights": {"root": 2.0, "stem": 2.0, "leaf": 0.0}},
]
QUERY_DOC = [{"id": "q", "text": "apple banana cherry"}]
# sim --pairs scores consecutive documents: shared, tied, disjoint and identical
# supports, and weights near the ends of the float range
PAIRS = [
    {"id": "p1a", "text": "apple banana cherry apple"},
    {"id": "p1b", "text": "Apple banana date, banana!"},
    {"id": "p2a", "weights": {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}},
    {"id": "p2b", "weights": {"b": 4.0, "c": 3.0, "d": 2.0, "e": 1.0}},
    {"id": "p3a", "weights": {"x": 1e-300, "y": 3e-300}},
    {"id": "p3b", "weights": {"y": 1e-300, "x": 2e-300, "z": 5e-301}},
    {"id": "p4a", "text": "the quick brown fox jumps over the lazy dog"},
    {"id": "p4b", "text": "the lazy dog sleeps under the quick brown tree"},
    {"id": "p5a", "weights": {"m": 1e300, "n": 1e300, "o": 5e299}},
    {"id": "p5b", "weights": {"n": 2.0, "o": 2.0, "m": 1.0}},
    {"id": "p6a", "text": "Zürich café naïve"},
    {"id": "p6b", "text": "naïve café Zürich"},
    {"id": "p7a", "text": "xylem phloem"},
    {"id": "p7b", "text": "root stem leaf"},
]

GOLDEN = {
    "sim": "958918d4443e11d49b6c696a16b51283cbfa8314232b0f6d498b1c8c7e20dae0",
    "sim-pairs": "553aa04e270f67c3325451de04bf77f359f9d2353acd0e064674b380e1b03b4a",
    "hash": "c2f30b4adba579c2fb6a6da7a58de19f4c9ffd5adac4df1bab2abc59ac85c761",
    "index": "c969daea974dad427f3c12ca3dfef210ba19341d7ea2843c444055df07c93aba",
    "query": "e227ef77b6332a77c091dbb47ba9fc23b677388e739cf61a965e81bbece544e2",
    "eval-analytic": "e4fd5806c50cb3ae38d7323733e962d104358dafa27da6e43f6910958b95fd1c",
    "eval-empirical": "ad921f8b702790a4d6a8ce4749135cee48e9f8ea2fe55579633e7ad4eb2646ad",
    # the property suite's table: every check's detail at its default sizes
    "verify": "87e66b4d5f6b0b2c822c8aa137c7f38f74be75e062a603b0b830e76e315f7021",
}


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def _artifact(name, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    _write_jsonl(corpus, CORPUS)
    pairs = tmp_path / "pairs.jsonl"
    _write_jsonl(pairs, PAIRS)
    out = tmp_path / "out"
    argv = {
        "sim": ["sim", "--synthetic", "25", "--seed", "3"],
        "sim-pairs": ["sim", "--pairs", str(pairs)],
        "hash": ["hash", "--corpus", str(corpus), "--k", "8", "--seed", "5"],
        "index": ["index", "--corpus", str(corpus), "--a", "2", "--o", "4", "--seed", "7"],
        "eval-analytic": [
            "eval", "--synthetic", "40", "--grid", "1x1,2x4,3x8", "--seed", "2",
        ],
        "eval-empirical": [
            "eval", "--synthetic", "40", "--grid", "1x2,2x4", "--mode", "empirical",
            "--replicates", "3", "--seed", "2",
        ],
    }
    if name == "verify":
        assert run(["verify"]) == 0
        return capsys.readouterr().out.encode("utf-8")
    if name == "query":
        index = tmp_path / "index.jsonl"
        doc = tmp_path / "doc.jsonl"
        _write_jsonl(doc, QUERY_DOC)
        assert run(["index", "--corpus", str(corpus), "--a", "1", "--o", "4", "--seed", "9",
                    "--out", str(index)]) == 0
        capsys.readouterr()
        assert run(["query", "--index", str(index), "--doc", str(doc)]) == 0
        return capsys.readouterr().out.encode("utf-8")
    assert run(argv[name] + ["--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_artifact_digest(name, tmp_path, capsys):
    digest = hashlib.sha256(_artifact(name, tmp_path, capsys)).hexdigest()
    assert digest == GOLDEN[name]
