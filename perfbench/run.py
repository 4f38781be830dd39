#!/usr/bin/env python3
"""Layered benchmark of jpminhash: CLI end-to-end rates, per-module spans.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --write-golden

Every pass runs in this one process, with no extra threads and the
numpy/BLAS pools pinned to one thread.  The run imports the package from
``src/`` and sets up the workload's inputs three times.  ``setup_s`` is the
median set-up plus the median time a fresh interpreter (started five times
for that alone) takes to import the package.  It then sets up and runs the
reference pass once, untimed (see ``workloads.py``), to warm every code
path, and measures rounds for ``--seconds`` seconds.

With ``--trace 0`` a round is one pass of the workload plus one reference
pass, which supplies the end-to-end metrics the workload does not measure
itself; each metric is reduced over rounds by ``_typical``.  With
``--trace 1`` a round is one pass of the workload alone, and rounds
alternate untraced and traced: the traced ones give the per-layer metrics
(per traced round) and the tracing overhead is the traced minus the
untraced round time.  The spans are written to
``.perfbench_work/trace-<workload>.csv``.

Outputs are checked after timing (``checks.py``) and against the golden
digests in ``golden.json``.  The metrics printed are exactly those that
``BENCHMARK.json`` declares; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
IMPORT_REPEATS = 5  # a fresh interpreter is cheap; its import time is the noisier part
MIN_ROUNDS = 4
MIN_QUERY_SAMPLES = 100  # so that at least 10 latencies lie beyond p90
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import jpminhash.cli; print(time.perf_counter() - t)")


def _import_package() -> None:
    """Import jpminhash from this checkout's src/."""
    if not (SRC / "jpminhash" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'jpminhash'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import jpminhash

    if Path(jpminhash.__file__).resolve().parent != SRC / "jpminhash":
        sys.exit(f"perfbench: imported jpminhash from {jpminhash.__file__}, not {SRC}")


def _import_seconds() -> float:
    """Median time a fresh interpreter takes to import the package and its CLI."""
    times = []
    for _ in range(IMPORT_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True,
                               capture_output=True, text=True, timeout=60)
        times.append(float(probe.stdout))
    return statistics.median(times)


def _percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples strictly above it."""
    ordered = sorted(samples)
    value = ordered[max(0, -(-len(ordered) * q // 100) - 1)]
    return value, sum(1 for s in ordered if s > value)


def _query_samples(rounds) -> int:
    return sum(len(r[source].get("query_ms", ())) for r in rounds if not r["traced"]
               for source in ("workload", "reference"))


def _typical(values: list[float], better: str) -> float:
    """The value three passes in four reach or beat: the lower quartile of a
    rate, the upper quartile of a time.

    On a shared 2-vCPU VM whose speed changed by up to 2x for seconds at a
    time, the median and the best pass both moved with how a run's passes
    happened to fall between fast and slow spells.  Nearly every run of
    ``run_seconds`` spent a quarter of its passes in slow spells, and this
    quartile moved least between runs.
    """
    return statistics.quantiles(values, n=4)[0 if better == "higher" else 2]


def end_to_end(rounds, setup_s: float, spec) -> tuple[dict[str, float], list[str]]:
    """Each metric reduced over the untraced rounds; the workload's figure wins.

    A pass's query latency is the median of its queries; ``query_p50_ms``
    reduces those medians over passes like any other figure.  ``query_p90_ms``
    is the p90 of all query samples pooled.
    """
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    untraced = [r for r in rounds if not r["traced"]]
    values: dict[str, float] = {"setup_s": setup_s}
    notes = []
    for source in ("reference", "workload"):
        for name in untraced[0][source]:
            per_pass = [r[source][name] for r in untraced]
            if name == "query_ms":
                medians = [statistics.median(ms) for ms in per_pass]
                values["query_p50_ms"] = _typical(medians, better["query_p50_ms"])
                samples = [ms for pass_ms in per_pass for ms in pass_ms]
                values["query_p90_ms"], beyond = _percentile(samples, 90)
                notes = [f"query latency from the {source} pass: {len(per_pass)} passes, "
                         f"{len(samples)} samples, {beyond} beyond p90"]
            else:
                values[name] = _typical(per_pass, better[name])
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values, notes


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(tracer, rounds) -> dict[str, float]:
    """Self times and counts per traced round; a layer the workload never entered reads 0."""
    traced = [r["seconds"] for r in rounds if r["traced"]]
    untraced = [r["seconds"] for r in rounds if not r["traced"]]
    n = len(traced)
    c = tracer.counts
    values: dict[str, float] = defaultdict(float)
    values.update({f"{name}.s": t / n for name, t in tracer.self_times().items()})
    for key, count in c.items():
        values[key] = count / n
    values.update({
        "io.index_bytes": c["io.index_bytes"],
        "harness.buckets": c["harness.buckets"],
        "harness.bucket_size_max": c["harness.bucket_size_max"],
        "harness.candidates_per_query": _ratio(c["harness.candidates"], c["harness.query.calls"]),
        "harness.self_hit_rate": _ratio(c["harness.self_hits"], c["harness.exact_queries"]),
        "minhash.hashes_per_s": _ratio(c["minhash.hashes"], c["minhash.hash_s"]),
        "dense.iterations_per_sample": _ratio(c["dense.iterations"], c["dense.samples"]),
        "dense.visited_fraction": _ratio(c["dense.finite_iterations"], c["dense.finite_support"]),
    })
    overhead = statistics.median(traced) - statistics.median(untraced)
    values["trace.overhead_s"] = overhead
    values["trace.overhead_pct"] = 100.0 * overhead / statistics.median(untraced)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="record the reference pass's artifact digests in golden.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _import_package()
    from tracer import Tracer
    from workloads import WORKLOADS, Ops, Reference, workload as make_workload

    if not args.write_golden and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    golden = {} if args.write_golden else json.loads(GOLDEN.read_text(encoding="utf-8"))

    work = WORK / f"{args.workload or 'golden'}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = Tracer()
    ops = Ops(tracer)
    try:
        workload = None if args.write_golden else make_workload(args.workload, args.seed, work / "run")
        setup_times: list[float] = []
        for _ in range(SETUP_REPEATS if workload is not None else 0):
            start = perf_counter()
            workload.setup(ops)
            setup_times.append(perf_counter() - start)
        # After the workload, so that its largest temporaries meet the allocator
        # as they would in a fresh process, as in a CLI call.
        reference = Reference(work / "reference")
        reference.setup(ops)  # untimed: the reference pass is not part of any workload

        reference.run_pass(ops)  # warm-up: every code path, untimed and untraced
        if args.write_golden:
            reference.check_golden(ops, reference.digests())
            GOLDEN.write_text(json.dumps(reference.digests(), indent=2, sort_keys=True) + "\n")
            print("\n".join(ops.failures) or f"wrote {GOLDEN}")
            return 1 if ops.failed else 0
        setup_s = _import_seconds() + statistics.median(setup_times)

        rounds = []
        deadline = perf_counter() + args.seconds
        while (len(rounds) < MIN_ROUNDS or perf_counter() < deadline
               or (not args.trace and _query_samples(rounds) < MIN_QUERY_SAMPLES)):
            traced = bool(args.trace) and len(rounds) % 2 == 1
            start = perf_counter()
            with tracer if traced else nullcontext():
                figures = {"workload": workload.run_pass(ops)}
            seconds = perf_counter() - start
            if not args.trace:  # the other workloads' end-to-end metrics, at reference size
                figures["reference"] = reference.run_pass(ops, skip=WORKLOADS[args.workload])
            rounds.append({"traced": traced, "seconds": seconds, **figures})

        workload.check(ops)
        reference.check_golden(ops, golden)
        if args.trace:
            tracer.write(WORK / f"trace-{args.workload}.csv")
            values, notes = per_layer(tracer, rounds), []
            declared = spec["per_layer"]
        else:
            values, notes = end_to_end(rounds, setup_s, spec)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for m in declared:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<40} {value:>16.6g} {m['unit']}")
    error_rate = ops.failed / ops.attempted
    print(f"{'error_rate':<40} {error_rate:>16.6g} failed/attempted")
    print(f"rounds: {len(rounds)} ({sum(r['traced'] for r in rounds)} traced)")
    for line in notes + ops.failures[:20]:
        print(line)
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
