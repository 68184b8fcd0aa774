"""``tools/bench_compare.py`` applies BENCHMARK.json's bounds to runs on two trees."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"
spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)


def _write_runs(run_dir: Path, runs) -> Path:
    """One file per run, its last line the run's JSON result; ``runs`` holds
    (correct, {workload/metric: value}) pairs."""
    run_dir.mkdir(parents=True)
    for n, (correct, values) in enumerate(runs):
        result = {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
                  "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}
        (run_dir / f"run_{n:02d}.json").write_text(f"env {{}}\n{json.dumps(result)}\n",
                                                   encoding="utf-8")
    return run_dir


def _compare(tmp_path, capsys, parent, change):
    """Exit code and the table row of each metric."""
    dirs = [_write_runs(tmp_path / side, [(True, v) if isinstance(v, dict) else v for v in runs])
            for side, runs in (("parent", parent), ("change", change))]
    code = bench_compare.main([str(d) for d in dirs])
    out = capsys.readouterr().out
    rows = {line.split()[0]: line for line in out.splitlines()[1:] if not line.startswith("FAIL")}
    return code, rows, out


def _runs_of(key, values):
    return [{key: v} for v in values]


@pytest.mark.parametrize("change_median, code, verdict", [
    (2.194 * 1.224, 0, "ok"),      # +22.4%, inside the 25% bound
    (2.194 * 1.253, 1, "BREACH"),  # +25.3%, past it
])
def test_a_lower_is_better_metric_breaches_past_its_bound(tmp_path, capsys, change_median,
                                                          code, verdict):
    key = "meta_only_export/setup_s"
    parent = _runs_of(key, [2.19, 2.194, 2.20])
    change = _runs_of(key, [change_median - 0.01, change_median, change_median + 0.01])
    got, rows, out = _compare(tmp_path, capsys, parent, change)
    assert got == code
    assert rows[key].split()[-2:] == ["0/3", verdict]
    assert ("FAIL meta_only_export/setup_s" in out) == (code == 1)


def test_a_change_inside_every_bound_passes_and_counts_its_wins(tmp_path, capsys):
    parent = [{"wide_suite/wall_s": w, "wide_suite/cold_mae": 0.8} for w in (1.0, 1.1, 1.2)]
    change = [{"wide_suite/wall_s": w, "wide_suite/cold_mae": 0.8} for w in (0.9, 1.2, 1.1)]
    code, rows, _ = _compare(tmp_path, capsys, parent, change)
    assert code == 0
    assert rows["wide_suite/wall_s"].split()[-3:] == ["+0.0%", "2/3", "ok"]
    assert rows["wide_suite/cold_mae"].split()[-2:] == ["0/3", "ok"]  # a tie is no win


@pytest.mark.parametrize("change_value, code, wins, verdict", [
    (0.97, 1, "0/2", "BREACH"),  # -2% on a higher-is-better metric bounded at 1%
    (0.985, 0, "0/2", "ok"),
    (1.0, 0, "2/2", "ok"),
])
def test_a_higher_is_better_metric_is_worse_when_it_falls(tmp_path, capsys, change_value, code,
                                                          wins, verdict):
    key = "ptupcdr_bridge/ok_frac"
    code_got, rows, _ = _compare(tmp_path, capsys, _runs_of(key, [0.99, 0.99]),
                                 _runs_of(key, [change_value] * 2))
    assert code_got == code
    assert rows[key].split()[-2:] == [wins, verdict]


@pytest.mark.parametrize("change_values, verdict", [
    ([0.95] * 4, "unresolved"),
    ([0.5, 0.55, 0.58, 0.59], "ok"),  # every change run beats every parent run
])
def test_a_wide_parent_spread_is_unresolved(tmp_path, capsys, change_values, verdict):
    key = "wide_suite/setup_s"
    code, rows, _ = _compare(tmp_path, capsys, _runs_of(key, [0.6, 0.9, 1.0, 1.3]),
                             _runs_of(key, change_values))
    assert code == 0
    assert rows[key].split()[-1] == verdict


def test_a_failed_run_or_unequal_counts_fail_the_comparison(tmp_path, capsys):
    key = "wide_suite/wall_s"
    code, _, out = _compare(tmp_path / "failed", capsys, _runs_of(key, [1.0, 1.0]),
                            [(True, {key: 1.0}), (False, {key: 1.0})])
    assert code == 1 and "FAIL change run 2 is not correct" in out
    code, _, out = _compare(tmp_path / "counts", capsys, _runs_of(key, [1.0, 1.0]),
                            _runs_of(key, [1.0]))
    assert code == 1 and "FAIL unequal run counts: 2 parent, 1 change" in out


def test_an_empty_run_file_or_side_fails_the_comparison(tmp_path, capsys):
    key = "wide_suite/wall_s"
    parent = _write_runs(tmp_path / "parent", [(True, {key: 1.0})] * 2)
    change = _write_runs(tmp_path / "change", [(True, {key: 1.0})])
    (change / "run_01.json").write_text("", encoding="utf-8")
    assert bench_compare.main([str(parent), str(change)]) == 1
    assert f"FAIL {change / 'run_01.json'} has no result line" in capsys.readouterr().out
    empty = tmp_path / "empty"
    empty.mkdir()
    assert bench_compare.main([str(parent), str(empty)]) == 1
    assert "FAIL no runs: 2 parent, 0 change" in capsys.readouterr().out


def test_metrics_outside_the_end_to_end_list_are_ignored(tmp_path, capsys):
    parent = [{"wide_suite/wall_s": 1.0, "wide_suite/data.load_domain.s": 0.1}]
    change = [{"wide_suite/wall_s": 1.0, "wide_suite/data.load_domain.s": 9.0}]
    code, rows, _ = _compare(tmp_path, capsys, parent, change)
    assert code == 0 and list(rows) == ["wide_suite/wall_s"]
