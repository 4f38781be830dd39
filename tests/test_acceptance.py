"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each criterion runs one check of the property suite in ``jpminhash.verify``
at the criterion's own sizes and seeds; ``jpminhash verify`` runs the same
checks at smaller sizes.  Every statistical check uses fixed seeds, so each
criterion is deterministic: the binomial four-sigma bands were verified to
contain the pinned estimates.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.  Two more tests pin the chi-square tail of
criterion 03, which the package computes without scipy.
"""

import inspect
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import jpminhash
from jpminhash import harness, verify


def _report(
    num: int, result: verify.CheckResult, time_limit: float | None = None, start: float = 0.0
) -> None:
    """Print the criterion's line and assert it; with a limit, the time since start counts too."""
    ok, detail = result.passed, result.detail
    if time_limit is not None:
        elapsed = time.perf_counter() - start
        ok = ok and elapsed < time_limit
        detail = f"{detail}; {elapsed:.2f}s of {time_limit:g}s allowed"
    print(f"ACCEPTANCE {num:02d} {result.name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({result.name}): {detail}"


@pytest.fixture(scope="module")
def synth5000():
    return harness.synth_pairs(5000, seed=3)


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    _report(1, verify.check_oracle_equivalence(1000, seed=1001, max_side=100), 5.0, start)


def test_criterion_02_collision_law():
    start = time.perf_counter()
    result = verify.check_collision_law(20, n_seeds=200_000, seed=2002, base_seed=7000)
    _report(2, result, 60.0, start)


def test_criterion_03_marginal_law():
    _report(3, verify.check_marginal_law(200_000, seed=0))


def test_chi2_sf_matches_scipy():
    from scipy.stats import chi2

    xs = np.concatenate(([0.0, 1e-8, 1e-3], np.linspace(0.05, 60.0, 240), [100.0, 300.0]))
    for df in range(1, 12):
        for x in xs:
            assert verify.chi2_sf(float(x), df) == pytest.approx(chi2.sf(x, df), rel=1e-12, abs=1e-300)


def test_marginal_law_imports_no_scipy():
    code = (
        "import sys\n"
        "from jpminhash import verify\n"
        "assert verify.check_marginal_law(2000, seed=0).passed\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(jpminhash.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_criterion_04_dense_sparse_agreement():
    _report(4, verify.check_dense_sparse(1000, seed=4004))


def test_criterion_05_sandwich_and_constructions(synth5000):
    _report(5, verify.check_sandwich_and_constructions(
        1000, seed=1001, max_side=100, construction_seed=5005, sample=synth5000
    ))


def test_criterion_06_uniform_reduction():
    _report(6, verify.check_uniform_reduction(1000, seed=6006))


def test_criterion_07_structural_properties():
    _report(7, verify.check_structural_properties(1000, seed=7007))


def test_criterion_08_metric_triangle():
    _report(8, verify.check_metric(10_000, seed=8008))


def test_criterion_09_tree_generalization():
    _report(9, verify.check_tree_collision(5, n_seeds=200_000, seed=9009))


def test_criterion_10_amplification():
    _report(10, verify.check_amplification(10_000, seed=1010, band_seed=600))


def test_criterion_11_retrieval_curves(synth5000):
    _report(11, verify.check_retrieval_curves(synth5000, replicates=50, seed=5))


def test_criterion_12_divergence_scatter(synth5000):
    _report(12, verify.check_divergence_scatter(synth5000, steps=400))


def _checks_called(run) -> set[str]:
    """Names of the verify checks ``run`` calls, each replaced by a passing stub."""
    called: set[str] = set()

    def stub(name):
        def check(*args, **kwargs):
            called.add(name)
            return verify.CheckResult(name, True, "")

        return check

    with pytest.MonkeyPatch.context() as m:
        for name, _ in inspect.getmembers(verify, inspect.isfunction):
            if name.startswith("check_"):
                m.setattr(verify, name, stub(name))
        m.setattr(harness, "synth_pairs", lambda *args, **kwargs: None)
        run()
    return called


def test_verify_and_acceptance_run_the_same_checks(capsys):
    """A check that only one of ``jpminhash verify`` and the criteria runs fails here."""
    criteria = [f for name, f in globals().items() if name.startswith("test_criterion_")]
    assert len(criteria) == 12

    def run_criteria():
        for f in criteria:
            f(**dict.fromkeys(inspect.signature(f).parameters))

    by_verify = _checks_called(verify.run_all)
    by_acceptance = _checks_called(run_criteria)
    capsys.readouterr()  # the stubs' PASS lines are not acceptance results
    assert by_verify == by_acceptance
    assert len(by_verify) == 12
