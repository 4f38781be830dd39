"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its seed: the same seed writes the
same bytes.  The program under test only ever sees the files (or the
measure objects) these functions produce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from jpminhash.dense import FiniteMeasure, PiecewiseDensity

VOCAB_SIZE = 20_000
ZIPF_EXPONENT = 1.1
# Pareto tail of document lengths, capped so the padded batch sampler keeps
# the padded width of every 512-doc chunk near the cap whatever the seed.
LENGTH_SHAPE = 1.3
LENGTH_SCALE = 15
MAX_TOKENS = 400
EMPTY_DOC_SHARE = 0.005
_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
_PUNCT = (" ", " ", " ", " ", " ", ", ", ". ", "; ", " - ")


def _vocabulary(rng: np.random.Generator) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < VOCAB_SIZE:
        lengths = rng.integers(2, 10, size=VOCAB_SIZE)
        letters = _LETTERS[rng.integers(0, 26, size=(VOCAB_SIZE, 9))]
        for row, length in zip(letters.tolist(), lengths.tolist()):
            w = "".join(row[:length])
            if w not in seen and len(words) < VOCAB_SIZE:
                seen.add(w)
                words.append(w)
    return words


@dataclass(frozen=True)
class TextModel:
    """Zipf-distributed vocabulary shared by a corpus and its queries."""

    words: list[str]
    cdf: np.ndarray

    @classmethod
    def build(cls, rng: np.random.Generator) -> "TextModel":
        ranks = np.arange(1, VOCAB_SIZE + 1, dtype=np.float64)
        p = ranks**-ZIPF_EXPONENT
        return cls(_vocabulary(rng), np.cumsum(p / p.sum()))

    def tokens(self, rng: np.random.Generator, n: int) -> list[str]:
        idx = np.searchsorted(self.cdf, rng.random(n), side="right")
        return [self.words[min(int(i), VOCAB_SIZE - 1)] for i in idx]

    def text(self, rng: np.random.Generator, tokens: list[str]) -> str:
        seps = rng.integers(0, len(_PUNCT), size=len(tokens))
        parts = []
        for tok, s in zip(tokens, seps):
            parts.append(tok.capitalize() if s >= 6 else tok)
            parts.append(_PUNCT[s])
        return "".join(parts).strip()


def _doc_length(rng: np.random.Generator) -> int:
    return int(min(MAX_TOKENS, LENGTH_SCALE * (1.0 + rng.pareto(LENGTH_SHAPE))))


def write_jsonl(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


@dataclass(frozen=True)
class Corpus:
    """Corpus records plus what the output checks need to know about them."""

    records: list[dict]
    tokens: list[list[str]]  # per record; empty for the deliberately empty docs

    @property
    def nonempty(self) -> list[int]:
        return [i for i, t in enumerate(self.tokens) if t]


def make_corpus(seed: int, n_docs: int, prefix: str = "d") -> tuple[TextModel, Corpus]:
    """Zipf-vocabulary text corpus with heavy-tailed lengths and a few empty docs."""
    rng = np.random.default_rng([seed, 1])
    model = TextModel.build(rng)
    records, tokens = [], []
    for i in range(n_docs):
        if rng.random() < EMPTY_DOC_SHARE:
            records.append({"id": f"{prefix}{i}", "text": " -- ... !! "})
            tokens.append([])
            continue
        toks = model.tokens(rng, _doc_length(rng))
        records.append({"id": f"{prefix}{i}", "text": model.text(rng, toks)})
        tokens.append(toks)
    return model, Corpus(records, tokens)


@dataclass(frozen=True)
class QueryDoc:
    kind: str  # "exact", "near" or "fresh"
    source: str | None  # id of the indexed doc an exact copy was made from
    path: Path


def make_queries(
    seed: int, model: TextModel, corpus: Corpus, n: int, out_dir: Path
) -> list[QueryDoc]:
    """Equal thirds of exact copies, perturbed near-duplicates and fresh docs."""
    rng = np.random.default_rng([seed, 2])
    candidates = corpus.nonempty
    queries = []
    for q in range(n):
        kind = ("exact", "near", "fresh")[q % 3]
        source = None
        if kind == "fresh":
            text = model.text(rng, model.tokens(rng, _doc_length(rng)))
        else:
            i = candidates[int(rng.integers(0, len(candidates)))]
            if kind == "exact":
                source = corpus.records[i]["id"]
                text = corpus.records[i]["text"]
            else:
                toks = list(corpus.tokens[i])
                swap = rng.random(len(toks)) < 0.1
                fresh = model.tokens(rng, int(swap.sum()))
                for pos, tok in zip(np.nonzero(swap)[0], fresh):
                    toks[int(pos)] = tok
                text = model.text(rng, toks)
        path = out_dir / f"q{q}.jsonl"
        write_jsonl(path, [{"id": f"q{q}", "text": text}])
        queries.append(QueryDoc(kind, source, path))
    return queries


def make_finite_measures(seed: int, support: int):
    """(mu, nu, lam): overlapping finite measures and a proposal covering both."""
    rng = np.random.default_rng([seed, 3])
    base = rng.exponential(size=support)
    mu = base * rng.uniform(0.5, 1.5, size=support)
    nu = base * rng.uniform(0.5, 1.5, size=support)
    mu[rng.random(support) < 0.1] = 0.0
    nu[rng.random(support) < 0.1] = 0.0
    lam = 0.5 * (mu / mu.sum() + nu / nu.sum()) + 0.1 / support
    return FiniteMeasure(tuple(mu)), FiniteMeasure(tuple(nu)), FiniteMeasure(tuple(lam))


def make_piecewise_densities(seed: int, pieces: int):
    """(mu, nu, lam): overlapping densities on [0, 1) over shared pieces, and a proposal.

    As for the finite measures, the proposal is the mixture of the two
    normalized densities plus a floor, so the global bound and the number of
    proposals a search visits barely depend on the seed.
    """
    rng = np.random.default_rng([seed, 4])
    cuts = np.sort(rng.uniform(0.0, 1.0, size=pieces - 1))
    breakpoints = (0.0, *cuts.tolist(), 1.0)
    widths = np.diff(breakpoints)
    base = rng.exponential(size=pieces)
    mu = base * rng.uniform(0.5, 1.5, size=pieces)
    nu = base * rng.uniform(0.5, 1.5, size=pieces)
    lam = 0.5 * (mu / (mu * widths).sum() + nu / (nu * widths).sum()) + 0.1
    return tuple(PiecewiseDensity(breakpoints, tuple(v)) for v in (mu, nu, lam))
