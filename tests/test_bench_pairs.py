"""The pair summary of ``tools/bench_pairs.py``, on handcrafted result rows."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row(side, seed, **metrics):
    return {"side": side, "workload": "w", "seed": seed, "seconds": 45, "trace": 0,
            "result": {"correct": True, "failed": 0,
                       "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}}


def test_summary_counts_pairs_won_in_each_direction():
    rows = []
    # alternating run order; seed 4 ties on both metrics
    for seed, (rate_p, rate_c), (ms_p, ms_c) in [
        (1, (10.0, 12.0), (5.0, 4.0)),
        (2, (11.0, 10.0), (6.0, 3.0)),
        (3, (9.0, 15.0), (4.0, 5.0)),
        (4, (10.0, 10.0), (5.0, 5.0)),
        (5, (12.0, 14.0), (7.0, 2.0)),
    ]:
        sides = [("parent", rate_p, ms_p), ("change", rate_c, ms_c)]
        for side, rate, ms in sides if seed % 2 else sides[::-1]:
            rows.append(_row(side, seed, rate=rate, ms=ms, unlisted=1.0))
    rows.append(_row("parent", 6, rate=100.0, ms=100.0))  # no change run: no pair
    lines = _tool().summarize(rows, {"rate": "higher", "ms": "lower", "absent": "lower"})
    assert lines == [
        {"metric": "rate", "better": "higher", "pairs": 5, "won": 3,
         "parent": (10.0, 10.0, 11.0), "change": (10.0, 12.0, 14.0)},
        {"metric": "ms", "better": "lower", "pairs": 5, "won": 3,
         "parent": (5.0, 5.0, 6.0), "change": (3.0, 4.0, 5.0)},
    ]


def test_summary_of_one_pair_and_of_repeated_seeds():
    rows = [_row("parent", 1, ms=2.0), _row("change", 1, ms=1.0),
            _row("change", 1, ms=3.0), _row("parent", 1, ms=2.5)]
    (line,) = _tool().summarize(rows, {"ms": "lower"})
    assert (line["pairs"], line["won"]) == (2, 1)
    (line,) = _tool().summarize(rows[:2], {"ms": "lower"})
    assert line["parent"] == (2.0, 2.0, 2.0) and line["change"] == (1.0, 1.0, 1.0)


def test_exit_status_names_the_incorrect_and_failed_runs(tmp_path, monkeypatch, capsys):
    tool = _tool()
    outcomes = {(1, "parent"): (True, 0), (1, "change"): (False, 0),
                (2, "parent"): (True, 3), (2, "change"): (True, 0)}
    sides = {tmp_path / "parent": "parent", tool.ROOT: "change"}

    def run(checkout, workload, seed, seconds, trace):
        correct, failed = outcomes[seed, sides[checkout]]
        return {"correct": correct, "failed": failed, "metrics": {}}

    monkeypatch.setattr(tool, "_export", lambda rev, workdir: tmp_path / "parent")
    monkeypatch.setattr(tool, "_run", run)
    argv = ["--parent", "HEAD", "--workload", "w", "--out", str(tmp_path / "bench.json")]
    assert tool.main(argv + ["--seeds", "1-2"]) == 1
    assert capsys.readouterr().err == "bench_pairs: incorrect or failed runs: seed 1 change, seed 2 parent\n"
    outcomes.update({(1, "change"): (True, 0), (2, "parent"): (True, 0)})
    assert tool.main(argv + ["--seeds", "1-2"]) == 0
    assert len(json.loads((tmp_path / "bench.json").read_text())) == 8  # failed runs are kept too


def _line(better, won, pairs, parent, change):
    return {"metric": "m", "better": better, "pairs": pairs, "won": won,
            "parent": parent, "change": change}


def test_claim_needs_nine_tenths_of_the_pairs_and_medians_apart_by_the_parent_spread():
    claim_holds = _tool().claim_holds
    parent = (10.0, 11.0, 12.0)  # interquartile range 2
    assert claim_holds(_line("higher", 9, 10, parent, (12.0, 13.5, 14.0)))
    assert not claim_holds(_line("higher", 8, 10, parent, (12.0, 13.5, 14.0)))  # 8/10
    assert not claim_holds(_line("higher", 9, 10, parent, (12.0, 13.0, 14.0)))  # apart by 2, not more
    assert claim_holds(_line("higher", 18, 20, parent, (12.0, 13.5, 14.0)))
    assert not claim_holds(_line("higher", 17, 19, parent, (12.0, 13.5, 14.0)))  # below 9/10
    assert claim_holds(_line("lower", 10, 10, parent, (7.0, 8.5, 9.0)))
    assert not claim_holds(_line("lower", 10, 10, parent, (12.0, 13.5, 14.0)))  # the wrong way
    assert not claim_holds(_line("lower", 1, 1, (5.0, 5.0, 5.0), (5.0, 5.0, 5.0)))


def test_summary_lines_print_the_claim(tmp_path, monkeypatch, capsys):
    tool = _tool()
    # ten pairs: the change is faster in nine, and by far more than the parent's spread
    values = {(seed, side): (50.0 + seed if side == "parent" else 100.0 + seed if seed < 10 else 10.0)
              for seed in range(1, 11) for side in ("parent", "change")}
    sides = {tmp_path / "parent": "parent", tool.ROOT: "change"}

    def run(checkout, workload, seed, seconds, trace):
        rate = values[seed, sides[checkout]]
        return {"correct": True, "failed": 0,
                "metrics": {"eval_empirical_pairs_per_s": {"value": rate, "unit": "u"},
                            "sim_pairs_per_s": {"value": 1.0, "unit": "u"}}}

    monkeypatch.setattr(tool, "_export", lambda rev, workdir: tmp_path / "parent")
    monkeypatch.setattr(tool, "_run", run)
    argv = ["--parent", "HEAD", "--workload", "w", "--seeds", "1-10", "--out", str(tmp_path / "b.json")]
    assert tool.main(argv) == 0
    summary = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()
               if not line.startswith("seed ")}
    assert summary["eval_empirical_pairs_per_s"].endswith("won 9/10 (higher is better), claim holds")
    assert summary["sim_pairs_per_s"].endswith("won 0/10 (higher is better), claim not met")
