#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and keep every result.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent HEAD~1 --workload corpus \\
        --seeds 101-110 --seconds 45 --out BENCH_8.json

The parent side is the tree of ``--parent``, exported with ``git archive``
into a directory under ``--workdir``, where later runs reuse it (by default
a temporary directory, removed at the end); the change side is the working
tree.  For each seed it runs ``perfbench/run.py`` once on each side, one
after the other, and swaps which side goes first from one seed to the next.
Each run's result becomes one line of the ``--out`` JSON list, ``{"side",
"workload", "seed", "seconds", "trace", "result"}``, where ``result`` is the
last stdout line of ``perfbench/run.py``.  Lines already in ``--out`` are
kept, and the file is rewritten after every run.

At the end it prints, for each end-to-end metric of ``BENCHMARK.json``, both
sides' quartiles over this invocation's runs, how many of its pairs the
change won in the metric's ``better`` direction (a tie counts for neither
side), and whether a gain may be claimed: ``claim holds`` when the change
won at least 9/10 of the pairs and its median beats the parent's by more
than the parent's interquartile range, else ``claim not met``.  It exits
with status 1, naming the seed and side of each, if any run of this
invocation reported ``correct: false`` or ``failed > 0``.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    """``"101-105"`` or ``"3,5,9"`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _export(rev: str, workdir: Path) -> Path:
    """The tree of ``rev``, written under ``workdir``.

    The tree is extracted into a temporary sibling and renamed into place
    when complete, so a directory left by an earlier run is reused only if
    whole.
    """
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    dest = workdir / f"parent-{sha[:12]}"
    if not dest.is_dir():
        archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        partial = Path(tempfile.mkdtemp(prefix=dest.name + ".partial-", dir=workdir))
        try:
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(partial)
            partial.rename(dest)
        finally:
            shutil.rmtree(partial, ignore_errors=True)
    return dest


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {' '.join(argv)} in {checkout} failed:\n{proc.stderr}")
    return json.loads(lines[-1])


def _write(path: Path, rows: list[dict]) -> None:
    path.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help='e.g. "101-110" or "3,5"')
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<pr>.json to append to")
    parser.add_argument("--workdir", type=Path, help="where the parent tree is written")
    args = parser.parse_args(argv)

    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
        return _pairs(args, args.workdir)
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as workdir:
        return _pairs(args, Path(workdir))


def _pairs(args: argparse.Namespace, workdir: Path) -> int:
    """Run the pairs with the parent tree under ``workdir``; print their summary; 1 if a run failed."""
    sides = {"parent": _export(args.parent, workdir), "change": ROOT}
    rows = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else []
    seconds = int(args.seconds) if args.seconds.is_integer() else args.seconds
    bad_runs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = _run(sides[side], args.workload, seed, args.seconds, args.trace)
            rows.append({"side": side, "workload": args.workload, "seed": seed,
                         "seconds": seconds, "trace": args.trace, "result": result})
            _write(args.out, rows)
            print(f"seed {seed} {side}: correct={result['correct']} failed={result['failed']}",
                  flush=True)
            if not result["correct"] or result["failed"] > 0:
                bad_runs.append(f"seed {seed} {side}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    better = {m["name"]: m["better"] for m in declared}
    for line in summarize(rows[len(rows) - 2 * len(args.seeds):], better):
        quartiles = ["/".join(f"{v:.6g}" for v in line[side]) for side in ("parent", "change")]
        verdict = "claim holds" if claim_holds(line) else "claim not met"
        print(f"{line['metric']:<28} {quartiles[0]:>28} -> {quartiles[1]:<28} "
              f"won {line['won']}/{line['pairs']} ({line['better']} is better), {verdict}")
    if bad_runs:
        print(f"bench_pairs: incorrect or failed runs: {', '.join(bad_runs)}", file=sys.stderr)
        return 1
    return 0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between the sorted values."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(rows: list[dict], better: dict[str, str]) -> list[dict]:
    """Per metric of ``better``: both sides' quartiles and the pairs the change won.

    ``rows`` are ``--out`` lines; a pair is a parent run and a change run of
    one workload and seed, matched in the order they appear.  ``better``
    maps a metric name to ``"higher"`` or ``"lower"``.  Each line is
    ``{"metric", "better", "pairs", "won", "parent", "change"}``, where
    ``parent`` and ``change`` are quartile triples; an equal pair counts as
    won by neither side, and a metric no pair reports is left out.
    """
    runs: dict[tuple, dict[str, list[dict]]] = {}
    for row in rows:
        sides = runs.setdefault((row["workload"], row["seed"]), {"parent": [], "change": []})
        sides[row["side"]].append(row["result"]["metrics"])
    pairs = [pair for sides in runs.values() for pair in zip(sides["parent"], sides["change"])]
    lines = []
    for name, direction in better.items():
        values = [(p[name]["value"], c[name]["value"]) for p, c in pairs if name in p and name in c]
        if not values:
            continue
        sign = 1.0 if direction == "higher" else -1.0
        lines.append({
            "metric": name,
            "better": direction,
            "pairs": len(values),
            "won": sum(sign * (c - p) > 0.0 for p, c in values),
            "parent": _quartiles([p for p, _ in values]),
            "change": _quartiles([c for _, c in values]),
        })
    return lines


def claim_holds(line: dict) -> bool:
    """Whether a :func:`summarize` line supports claiming a gain in its metric.

    The change must have won at least nine tenths of the pairs, and its
    median must beat the parent's by more than the parent's interquartile
    range.
    """
    sign = 1.0 if line["better"] == "higher" else -1.0
    (q1, median, q3), change = line["parent"], line["change"][1]
    return 10 * line["won"] >= 9 * line["pairs"] and sign * (change - median) > q3 - q1


if __name__ == "__main__":
    sys.exit(main())
