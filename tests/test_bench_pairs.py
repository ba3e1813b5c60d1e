"""The summary that scripts/bench_pairs.py writes, on fabricated result lines."""

import importlib.util
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _line(op_ms, ops, failed=0, attempted=100):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {"op_p50_ms": {"value": op_ms, "unit": "ms"},
                    "ops_per_s": {"value": ops, "unit": "1/s"}},
    }


def _pairs():
    parent_ms = [6.0, 6.2, 5.8, 6.4, 6.1]
    change_ms = [4.2, 4.0, 6.0, 4.4, 4.1]  # worse than its parent in pair 2
    return [
        {"seed": 900 + i, "first": "parent" if i % 2 == 0 else "change",
         "parent": _line(p, 1000 / p, failed=1 if i == 3 else 0),
         "change": _line(c, 1000 / c, attempted=120)}
        for i, (p, c) in enumerate(zip(parent_ms, change_ms))
    ]


def test_summary_per_metric():
    summary = bench_pairs.summarize(_pairs(), METRICS)
    op = summary["op_p50_ms"]
    assert op["parent_median"] == 6.1 and op["change_median"] == 4.2
    # the exclusive quartiles of 5.8 6.0 6.1 6.2 6.4 are 5.9 and 6.3
    assert op["parent_iqr"] == pytest.approx(0.4)
    assert op["change_better_pairs"] == 4
    assert op["change_over_parent"] == pytest.approx(4.2 / 6.1)
    # higher is better for a rate: the same pairs win
    ops = summary["ops_per_s"]
    assert ops["change_better_pairs"] == 4
    assert ops["parent_median"] == pytest.approx(1000 / 6.1)
    assert ops["change_over_parent"] == pytest.approx(6.1 / 4.2)
    values = [1000 / p for p in (6.0, 6.2, 5.8, 6.4, 6.1)]
    quartiles = statistics.quantiles(values, n=4)
    assert ops["parent_iqr"] == pytest.approx(quartiles[2] - quartiles[0])


def test_summary_counts_failures_and_ties():
    pairs = _pairs()
    pairs[0]["change"] = _line(6.0, 1000 / 6.0, failed=2, attempted=120)  # a tie is no win
    summary = bench_pairs.summarize(pairs, METRICS)
    assert summary["op_p50_ms"]["change_better_pairs"] == 3
    assert summary["failed"] == {
        "parent": 1, "change": 2, "attempted_parent": 500, "attempted_change": 600,
        "runs_parent": 0, "runs_change": 0}


def test_summary_needs_each_declared_metric():
    with pytest.raises(KeyError):
        bench_pairs.summarize(_pairs(), METRICS + [{"name": "peak_rss_mb", "better": "lower"}])


def test_summary_leaves_failed_runs_out_of_the_medians():
    pairs = _pairs()
    pairs[1]["change"] = bench_pairs._failed_run("exit status 1", "Traceback\nBoom\n")
    summary = bench_pairs.summarize(pairs, METRICS)
    assert summary["complete_pairs"] == 4
    # pair 1 (6.2 against 4.0) is gone from both sides
    assert summary["op_p50_ms"]["parent_median"] == pytest.approx((6.0 + 6.1) / 2)
    assert summary["op_p50_ms"]["change_better_pairs"] == 3
    assert summary["failed"]["runs_change"] == 1 and summary["failed"]["runs_parent"] == 0
    assert summary["failed"]["attempted_parent"] == 400


def test_summary_without_two_complete_pairs_has_no_metrics():
    pairs = _pairs()[:2]
    pairs[0]["parent"] = bench_pairs._failed_run("timed out after 600 s", "")
    summary = bench_pairs.summarize(pairs, METRICS)
    assert summary["complete_pairs"] == 1
    assert "op_p50_ms" not in summary and summary["failed"]["runs_parent"] == 1


def _fake_checkout(tmp_path, body):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(body)
    return tmp_path


@pytest.mark.parametrize("body, reason", [
    ("import sys\nprint('env: x')\nprint('bad input', file=sys.stderr)\nsys.exit(1)\n",
     "exit status 1"),
    ("print('env: x')\n", "no result line on stdout"),
    ("import time\ntime.sleep(30)\n", "timed out after 0.5 s"),
])
def test_run_once_records_a_failed_run(tmp_path, monkeypatch, body, reason):
    monkeypatch.setattr(bench_pairs, "RUN_TIMEOUT_S", 0.5)
    result, env = bench_pairs.run_once(_fake_checkout(tmp_path, body), "requests", 1, 1, False)
    assert env == ""
    assert result["correct"] is False and result["run_failed"] == reason
    if reason == "exit status 1":
        assert result["stderr_tail"] == ["bad input"]


def test_run_once_reads_the_result_line(tmp_path):
    line = _line(4.0, 250.0)
    body = f"import json\nprint('env: python x')\nprint(json.dumps({line!r}))\n"
    result, env = bench_pairs.run_once(_fake_checkout(tmp_path, body), "requests", 1, 1, False)
    assert result == line and env == "env: python x"
