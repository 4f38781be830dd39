"""Command-line interface: hashing, similarity, indexing, evaluation, verify.

All subcommands are deterministic given their seed flags, so identical
invocations produce byte-identical artifacts.  Exit codes: 0 success, 1
validation error (bad flags, missing or malformed files), 2 property-suite
failure from ``verify``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import harness, io, minhash
from .minhash import Signature, signature  # noqa: F401  perfbench/tracer.py patches cli.signature

__all__ = ["run", "main"]


class CliError(Exception):
    """Validation failure; maps to exit code 1."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


def _parse_seed(text: str) -> int:
    try:
        value = int(text, 16) if text.lower().startswith("0x") else int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _parse_grid(text: str) -> list[tuple[int, int]]:
    grid = []
    for part in text.split(","):
        a, _, o = part.strip().partition("x")
        try:
            grid.append((int(a), int(o)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid grid entry {part!r}; expected AxO") from None
    return grid


@functools.cache  # parsing keeps no state in the parser, and every default is immutable
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="jpminhash", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("sim", help="score pairs with all five measures")
    src = p_sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--pairs", type=Path, help="corpus JSONL; consecutive lines form pairs")
    src.add_argument("--synthetic", type=int, help="generate N synthetic pairs")
    p_sim.add_argument("--seed", type=_parse_seed, default=0)
    p_sim.add_argument("--out", type=Path, required=True)

    p_hash = sub.add_parser("hash", help="emit signatures for a corpus")
    p_hash.add_argument("--corpus", type=Path, required=True)
    p_hash.add_argument("--k", type=int, required=True)
    p_hash.add_argument("--seed", type=_parse_seed, default=0)
    p_hash.add_argument("--out", type=Path, required=True)

    p_index = sub.add_parser("index", help="build a banded inverted index")
    p_index.add_argument("--corpus", type=Path, required=True)
    p_index.add_argument("--a", type=int, required=True)
    p_index.add_argument("--o", type=int, required=True)
    p_index.add_argument("--seed", type=_parse_seed, default=0)
    p_index.add_argument("--out", type=Path, required=True)

    p_query = sub.add_parser("query", help="look up one document in an index")
    p_query.add_argument("--index", type=Path, required=True)
    p_query.add_argument("--doc", type=Path, required=True)

    p_eval = sub.add_parser("eval", help="precision/recall curves over a banding grid")
    esrc = p_eval.add_mutually_exclusive_group(required=True)
    esrc.add_argument("--pairs", type=Path, help="pair-sample CSV")
    esrc.add_argument("--synthetic", type=int, help="generate N synthetic pairs")
    p_eval.add_argument("--grid", type=_parse_grid, default=harness.DEFAULT_GRID)
    p_eval.add_argument("--task", default="jsd<0.25")
    p_eval.add_argument("--mode", choices=("analytic", "empirical"), default="analytic")
    p_eval.add_argument("--replicates", type=int, default=50)
    p_eval.add_argument("--seed", type=_parse_seed, default=0)
    p_eval.add_argument("--out", type=Path, required=True)

    sub.add_parser("verify", help="run the oracle/property suite")
    return parser


def _load_corpus(path: Path) -> list[harness.Document]:
    corpus, skipped = harness.corpus_from_records(io.read_corpus_jsonl(path))
    if skipped:
        print(f"warning: skipped {skipped} empty document(s)", file=sys.stderr)
    if not corpus:
        raise CliError(f"{path}: no usable documents")
    return corpus


def _cmd_sim(args) -> int:
    if args.synthetic is not None:
        pairs = harness.synth_pairs(args.synthetic, seed=args.seed)
        comments = [f"seed={args.seed}", f"synthetic={args.synthetic}"]
    else:
        corpus = _load_corpus(args.pairs)
        if len(corpus) % 2 != 0:
            raise CliError(f"{args.pairs}: pair file needs an even number of documents")
        firsts, seconds = corpus[0::2], corpus[1::2]
        pairs = harness.PairSample(harness.score_pairs(
            [(a.doc_id, b.doc_id) for a, b in zip(firsts, seconds)],
            [a.dist for a in firsts],
            [b.dist for b in seconds],
        ))
        comments = [f"pairs={args.pairs.name}"]
    io.write_pair_csv(args.out, pairs, comments=comments)
    return 0


def _cmd_hash(args) -> int:
    if args.k < 1:
        raise CliError("--k must be positive")
    corpus = _load_corpus(args.corpus)
    samples = minhash.batch_signatures([d.dist for d in corpus], args.seed, args.k)
    sigs = [
        Signature(doc_id=d.doc_id, samples=tuple(row), base_seed=args.seed, k=args.k)
        for d, row in zip(corpus, samples.tolist())
    ]
    io.write_signatures_jsonl(args.out, sigs)
    return 0


def _cmd_index(args) -> int:
    corpus = _load_corpus(args.corpus)
    scheme = harness.BandingScheme(args.a, args.o, base_seed=args.seed)
    io.write_index_jsonl(args.out, harness.index_build(corpus, scheme))
    return 0


def _cmd_query(args) -> int:
    index = io.read_index_jsonl(args.index)
    docs = _load_corpus(args.doc)
    if len(docs) != 1:
        raise CliError(f"{args.doc}: expected exactly one document")
    for doc_id in sorted(harness.query(index, docs[0].dist)):
        print(doc_id)
    return 0


def _cmd_eval(args) -> int:
    if args.synthetic is not None:
        pairs = harness.synth_pairs(args.synthetic, seed=args.seed)
    else:
        if args.mode == "empirical":
            raise CliError("empirical mode needs --synthetic pairs (CSVs carry no distributions)")
        pairs = io.read_pair_csv(args.pairs)
    points = harness.eval_curves(
        pairs, grid=args.grid, task=args.task, mode=args.mode,
        replicates=args.replicates, seed=args.seed,
    )
    comments = [f"task={args.task}", f"mode={args.mode}", f"seed={args.seed}"]
    if args.mode == "empirical":
        from .hashing import derive_seed

        reps = ",".join(str(derive_seed(args.seed, r)) for r in range(args.replicates))
        comments.append(f"replicate_seeds={reps}")
    io.write_pr_csv(args.out, points, comments=comments)
    return 0


def _cmd_verify(_args) -> int:
    from . import verify  # the property suite; no other command needs to load it

    rows = verify.run_all()
    width = max(len(r.name) for r in rows)
    failures = sum(1 for r in rows if not r.passed)
    for r in rows:
        print(f"{'PASS' if r.passed else 'FAIL':<4} {r.name:<{width}}  {r.detail}")
    print(f"{len(rows) - failures}/{len(rows)} checks passed")
    return 2 if failures else 0


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    handler = {
        "sim": _cmd_sim,
        "hash": _cmd_hash,
        "index": _cmd_index,
        "query": _cmd_query,
        "eval": _cmd_eval,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the allocation that failed
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
