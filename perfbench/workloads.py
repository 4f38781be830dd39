"""The two workloads, their four parts, and the reference pass.

A part has ``setup(ops)``, ``run_pass(ops)``, ``digests()`` and ``check(ops)``.
``run_pass`` returns the end-to-end figures it measured in that pass; a
figure is a number, or a list of latency samples.  Every CLI call goes
through ``cli.run(argv)`` in this process.  A workload (``Mix``) runs two
parts back to back: ``corpus`` is the write path (``corpus-index``) and
the read path (``corpus-query``) over seeded text corpora; ``sweep-dense``
is the paper's precision/recall sweep (``sweep-eval``) and the A* samplers
(``dense-astar``).

The reference pass runs the four parts at small fixed sizes on seed 7,
whatever ``--seed`` says.  Its artifacts are pinned by the golden digests,
its first pass warms every code path before timing, and in the untraced
timed rounds it gives each end-to-end metric a value on the workload that
does not exercise it (it skips the parts the workload itself runs).  It
never runs while the tracer is on, so the per-layer metrics are the
workload's alone.
"""

from __future__ import annotations

import hashlib
import io as stdio
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import inputs

from jpminhash import cli, dense
from jpminhash.harness import DEFAULT_GRID
from jpminhash.hashing import derive_seed

DEFAULT_SEED = 7
K_HASH = 64
BAND_A, BAND_O = 2, 16
EVAL_GRID = "2x4,2x8"
EVAL_TASK = "jsd<0.25"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Ops:
    """Runs operations, counts attempts and failures, keeps failure messages."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)
        return ok

    def cli(self, *argv: str) -> tuple[float, str]:
        """One ``jpminhash`` invocation: (seconds, captured stdout)."""
        out, err = stdio.StringIO(), stdio.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.tracer.operation("cli.run", cli.run, list(argv))
        except Exception as exc:  # counted as a failed operation, never fatal
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        self.check(code == 0, f"jpminhash {' '.join(argv)}: exit {code} {err.getvalue()[-300:]}")
        return elapsed, out.getvalue()

    def call(self, fn, *args):
        """One library call: (seconds, result or None on an exception)."""
        start = perf_counter()
        try:
            result = self.tracer.operation(None, fn, *args)
        except Exception as exc:  # counted as a failed operation, never fatal
            result = None
            self.check(False, f"{fn.__name__}: {type(exc).__name__}: {exc}")
        else:
            self.check(True, "")
        return perf_counter() - start, result

    def checked(self, check, *args) -> None:
        """Run an output check; an exception in it (say, a missing artifact) fails it."""
        try:
            check(*args)
        except Exception as exc:  # counted as a failed check, never fatal
            self.check(False, f"{check.__qualname__}: {type(exc).__name__}: {exc}")


def _file_digests(paths: dict[str, Path]) -> dict[str, str]:
    return {name: sha256(p.read_bytes()) if p.is_file() else "missing"
            for name, p in paths.items()}


class Part:
    """Base: a part's artifacts must be byte-identical on every pass."""

    def __init__(self, seed: int, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.seed, self.work = seed, work
        self._first: dict[str, str] | None = None

    def setup(self, ops: Ops) -> None:
        pass

    def digests(self) -> dict[str, str]:
        return {}

    def _same_as_first(self, ops: Ops) -> None:
        digests = self.digests()
        if self._first is None:
            self._first = digests
        for name, digest in digests.items():
            ops.check(digest == self._first[name], f"{name}: bytes differ from the first pass")


class CorpusIndex(Part):
    """Write path: ``hash`` then ``index`` over a Zipf text corpus."""

    def __init__(self, seed: int, work: Path, n_docs: int = 1000) -> None:
        super().__init__(seed, work)
        self.n_docs = n_docs
        self.corpus_path = work / "corpus.jsonl"
        self.sigs, self.index = work / "sigs.jsonl", work / "index.jsonl"

    def setup(self, ops: Ops) -> None:
        _, self.corpus = inputs.make_corpus(self.seed, self.n_docs)
        inputs.write_jsonl(self.corpus_path, self.corpus.records)

    def run_pass(self, ops: Ops) -> dict:
        corpus, seed = str(self.corpus_path), str(self.seed)
        t_hash, _ = ops.cli("hash", "--corpus", corpus, "--k", str(K_HASH), "--seed", seed,
                            "--out", str(self.sigs))
        t_index, _ = ops.cli("index", "--corpus", corpus, "--a", str(BAND_A), "--o", str(BAND_O),
                             "--seed", seed, "--out", str(self.index))
        self._same_as_first(ops)
        return {"hash_docs_per_s": self.n_docs / t_hash, "index_docs_per_s": self.n_docs / t_index}

    def digests(self) -> dict[str, str]:
        return _file_digests({"hash.jsonl": self.sigs, "index.jsonl": self.index})

    def check(self, ops: Ops) -> None:
        checks.signatures(ops, self.sigs, self.corpus, self.seed, K_HASH)
        checks.index_postings(ops, self.index, self.corpus, BAND_O)


class CorpusQuery(Part):
    """Read path: a closed loop of one client issuing single-document queries."""

    def __init__(self, seed: int, work: Path, n_docs: int = 1500, n_queries: int = 90,
                 per_pass: int = 12) -> None:
        super().__init__(seed, work)
        self.n_docs, self.n_queries, self.per_pass = n_docs, n_queries, per_pass
        self.corpus_path, self.index = work / "corpus.jsonl", work / "index.jsonl"
        self.next_query = 0
        self.answers: dict[int, str] = {}

    def setup(self, ops: Ops) -> None:
        model, self.corpus = inputs.make_corpus(self.seed, self.n_docs)
        inputs.write_jsonl(self.corpus_path, self.corpus.records)
        self.queries = inputs.make_queries(self.seed, model, self.corpus, self.n_queries, self.work)
        ops.cli("index", "--corpus", str(self.corpus_path), "--a", str(BAND_A), "--o", str(BAND_O),
                "--seed", str(self.seed), "--out", str(self.index))

    def run_pass(self, ops: Ops) -> dict:
        latencies = []
        for _ in range(self.per_pass):
            q = self.next_query % len(self.queries)
            self.next_query += 1
            query = self.queries[q]
            elapsed, out = ops.cli("query", "--index", str(self.index), "--doc", str(query.path))
            latencies.append(elapsed * 1e3)
            if query.kind == "exact":
                hit = query.source in out.split()
                ops.check(hit, f"exact copy of {query.source} not retrieved")
                ops.tracer.count("harness.self_hits", hit)
                ops.tracer.count("harness.exact_queries", 1)
            ops.check(self.answers.setdefault(q, out) == out, f"query {q}: answer changed")
        return {"query_ms": latencies}

    def digests(self) -> dict[str, str]:
        answers = "".join(self.answers[q] for q in sorted(self.answers))
        return {"query.stdout": sha256(answers.encode())}

    def check(self, ops: Ops) -> None:
        checks.index_postings(ops, self.index, self.corpus, BAND_O)


class SweepEval(Part):
    """The paper's precision/recall experiment on synthetic sweep pairs."""

    def __init__(self, seed: int, work: Path, n_pairs: int = 200, replicates: int = 3) -> None:
        super().__init__(seed, work)
        self.n_pairs, self.replicates = n_pairs, replicates
        self.sim = work / "sim.csv"
        self.pr_empirical, self.pr_analytic = work / "pr_empirical.csv", work / "pr_analytic.csv"

    def run_pass(self, ops: Ops) -> dict:
        n, seed = str(self.n_pairs), str(self.seed)
        t_sim, _ = ops.cli("sim", "--synthetic", n, "--seed", seed, "--out", str(self.sim))
        ops.cli("eval", "--pairs", str(self.sim), "--task", EVAL_TASK, "--mode", "analytic",
                "--out", str(self.pr_analytic))
        t_eval, _ = ops.cli("eval", "--synthetic", n, "--task", EVAL_TASK, "--mode", "empirical",
                            "--grid", EVAL_GRID, "--replicates", str(self.replicates),
                            "--seed", seed, "--out", str(self.pr_empirical))
        self._same_as_first(ops)
        work = self.n_pairs * self.replicates * len(EVAL_GRID.split(","))
        return {"sim_pairs_per_s": self.n_pairs / t_sim, "eval_empirical_pairs_per_s": work / t_eval}

    def digests(self) -> dict[str, str]:
        return _file_digests({"sim.csv": self.sim, "eval.analytic.csv": self.pr_analytic,
                              "eval.empirical.csv": self.pr_empirical})

    def check(self, ops: Ops) -> None:
        checks.sim_rows(ops, self.sim, self.n_pairs, self.seed)
        checks.pr_rows(ops, self.pr_analytic, 2 * len(DEFAULT_GRID))  # JP and JW
        checks.pr_rows(ops, self.pr_empirical, len(EVAL_GRID.split(",")))


class DenseAstar(Part):
    """A* search on finite measures (batched path) and piecewise densities (per seed)."""

    PIECES = 64
    SINGLE_CALLS = 4

    def __init__(self, seed: int, work: Path, support: int = 2000, finite_seeds: int = 600,
                 piecewise_seeds: int = 3000) -> None:
        super().__init__(seed, work)
        self.support = support
        self.finite_seeds, self.piecewise_seeds = finite_seeds, piecewise_seeds
        self.base_seed = derive_seed(seed, 1)

    def setup(self, ops: Ops) -> None:
        self.finite = inputs.make_finite_measures(self.seed, self.support)
        self.piecewise = inputs.make_piecewise_densities(self.seed, self.PIECES)

    def run_pass(self, ops: Ops) -> dict:
        mu, nu, lam = self.finite
        t_fin, self.estimate = ops.call(dense.astar_collision, mu, nu, lam, self.base_seed,
                                        self.finite_seeds)
        pmu, pnu, plam = self.piecewise
        t_pw, pw_estimate = ops.call(dense.astar_collision, pmu, pnu, plam, self.base_seed,
                                     self.piecewise_seeds)
        self.single, pw_single = {}, []
        for j in range(self.SINGLE_CALLS):
            s = derive_seed(self.base_seed, self.finite_seeds + j)
            _, res = ops.call(dense.astar_pminhash, mu, lam, s)
            self.single[s] = res and res.sample
            _, res = ops.call(dense.astar_pminhash, pmu, plam, s)
            pw_single.append(res and res.sample)
        self.outcome = repr((self.estimate, pw_estimate, self.single, pw_single))
        self._same_as_first(ops)
        return {
            "astar_finite_seeds_per_s": self.finite_seeds / t_fin,
            "astar_piecewise_seeds_per_s": self.piecewise_seeds / t_pw,
        }

    def digests(self) -> dict[str, str]:
        return {"dense.samples": sha256(self.outcome.encode())}

    def check(self, ops: Ops) -> None:
        checks.dense_finite(ops, self.finite[0], self.finite[1], self.single, self.estimate,
                            self.finite_seeds)


PARTS = {
    "corpus-index": CorpusIndex,
    "corpus-query": CorpusQuery,
    "sweep-eval": SweepEval,
    "dense-astar": DenseAstar,
}

# Each workload runs two parts back to back, so that two workloads cover all
# four and a run can be long enough to be steady (see run.py).
WORKLOADS = {
    "corpus": ("corpus-index", "corpus-query"),
    "sweep-dense": ("sweep-eval", "dense-astar"),
}


class Mix:
    """Parts run one after another as one workload."""

    def __init__(self, parts: dict[str, Part]) -> None:
        self.parts = parts

    def setup(self, ops: Ops) -> None:
        for part in self.parts.values():
            part.setup(ops)

    def run_pass(self, ops: Ops, skip=()) -> dict:
        """Run every part not named in ``skip``; their figures together."""
        figures = {}
        for name, part in self.parts.items():
            if name not in skip:
                figures.update(part.run_pass(ops))
        return figures

    def digests(self) -> dict[str, str]:
        return {f"{name}/{artifact}": digest for name, part in self.parts.items()
                for artifact, digest in part.digests().items()}

    def check(self, ops: Ops) -> None:
        for part in self.parts.values():
            ops.checked(part.check, ops)


def workload(name: str, seed: int, work: Path) -> Mix:
    return Mix({part: PARTS[part](seed, work / part) for part in WORKLOADS[name]})


class Reference(Mix):
    """All four parts at small fixed sizes on the default seed."""

    SIZES = {
        "corpus-index": {"n_docs": 300},
        "corpus-query": {"n_docs": 150, "n_queries": 12, "per_pass": 12},
        "sweep-eval": {"n_pairs": 100, "replicates": 2},
        "dense-astar": {"support": 300, "finite_seeds": 800, "piecewise_seeds": 300},
    }

    def __init__(self, work: Path) -> None:
        super().__init__({name: PARTS[name](DEFAULT_SEED, work / name, **sizes)
                          for name, sizes in self.SIZES.items()})

    def check_golden(self, ops: Ops, golden: dict[str, str]) -> None:
        digests = self.digests()
        ops.check(set(digests) == set(golden), "golden.json names other artifacts")
        for name, digest in digests.items():
            ops.check(golden.get(name) == digest, f"golden digest of {name} changed")
        self.check(ops)
