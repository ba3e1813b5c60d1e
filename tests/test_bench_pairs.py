"""The summary that scripts/bench_pairs.py writes, on fabricated result lines."""

import hashlib
import importlib.util
import statistics
import sys
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


def _fake_cli(tmp_path, body):
    package = tmp_path / "src" / "gouldhopper"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(body)
    return tmp_path


def test_run_large_grid_times_the_audit_and_hashes_its_stdout(tmp_path):
    body = "def main(argv):\n    print(' '.join(argv))\n    return 0\n"
    result = bench_pairs.run_cli(_fake_cli(tmp_path, body),
                                 (*bench_pairs.LARGE_GRID, "--jobs", "2"))
    stdout = "audit --nmax 10 --mmax 10 --jobs 2\n".encode()
    assert result["stdout_sha256"] == hashlib.sha256(stdout).hexdigest()
    assert result["correct"] is True and (result["attempted"], result["failed"]) == (1, 0)
    assert set(result["metrics"]) == {"wall_s", "peak_rss_mb"}
    assert result["metrics"]["wall_s"]["value"] > 0
    assert result["metrics"]["peak_rss_mb"]["value"] > 1


def test_run_cli_makes_each_command_in_one_interpreter(tmp_path):
    # the commands run in turn in one process, and stop at the first that fails
    body = ("import os\ndef main(argv):\n    print(os.getpid(), ' '.join(argv))\n"
            "    return argv == ['fail']\n")
    checkout = _fake_cli(tmp_path, body)
    script = bench_pairs._CLI_WITH_PEAK_RSS
    done = bench_pairs._run([sys.executable, "-c", script, "a", "1", ";", "b", ";", "c"], checkout)
    pids, commands = zip(*(line.split(" ", 1) for line in done.stdout.decode().splitlines()))
    assert commands == ("a 1", "b", "c") and len(set(pids)) == 1
    failed = bench_pairs._run([sys.executable, "-c", script, "a", ";", "fail", ";", "c"], checkout)
    assert failed["run_failed"] == "exit status 1"
    result = bench_pairs.run_cli(checkout, bench_pairs.LARGE_COMPUTE["genfun_thin_boxes"])
    assert result["correct"] is True and result["metrics"]["peak_rss_mb"]["value"] > 1


@pytest.mark.parametrize("body, reason", [
    ("def main(argv):\n    return 1\n", "exit status 1"),
    ("import os\ndef main(argv):\n    os._exit(0)\n", "no peak RSS line on stderr"),
])
def test_run_large_grid_records_a_failed_run(tmp_path, body, reason):
    result = bench_pairs.run_cli(_fake_cli(tmp_path, body),
                                 (*bench_pairs.LARGE_GRID, "--jobs", "1"))
    assert result["correct"] is False and result["run_failed"] == reason


def _grid_record(wall, stdout):
    return {"correct": True, "attempted": 1, "failed": 0, "stdout_sha256": stdout,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": 100.0, "unit": "MB"}}}


def test_large_grid_pair_fails_a_change_whose_stdout_differs():
    calls = []

    def run(side):
        calls.append(side)
        return _grid_record(9.0 if side == "change" else 10.0, "a" if side == "parent" else "b")

    differing = bench_pairs.large_grid_pair(run, "change")
    assert calls == ["change", "parent"] and differing["first"] == "change"
    assert differing["change"]["failed"] == 1 and differing["change"]["correct"] is False
    assert differing["parent"]["failed"] == 0
    same = bench_pairs.large_grid_pair(lambda side: _grid_record(9.5, "a"), "parent")
    assert same["change"]["failed"] == 0
    summary = bench_pairs.summarize([differing, same], bench_pairs.LARGE_GRID_METRICS)
    assert summary["failed"]["change"] == 1 and summary["failed"]["parent"] == 0
    assert summary["wall_s"]["change_better_pairs"] == 1


def test_large_compute_times_a_thin_box_each_way_and_every_strategy():
    fixed = ("compute", "--p", "1", "--q", "1")
    assert bench_pairs.LARGE_COMPUTE == {
        "genfun_300_2": (*fixed, "--n", "300", "--m", "2", "--strategy", "genfun"),
        "genfun_2_300": (*fixed, "--n", "2", "--m", "300", "--strategy", "genfun"),
        "genfun_thin_boxes": (*fixed, "--n", "300", "--m", "2", "--strategy", "genfun", ";",
                              *fixed, "--n", "2", "--m", "300", "--strategy", "genfun", ";",
                              *fixed, "--n", "4", "--m", "300", "--strategy", "genfun", ";",
                              *fixed, "--n", "3", "--m", "3", "--strategy", "genfun"),
        "genfun_then_gen_full": (*fixed, "--n", "40", "--m", "40", "--strategy", "genfun", ";",
                                 "verify", "--tag", "GEN_FULL", "--pq", "1,1", "--order", "80",
                                 "--format", "json"),
        "all_60_60": (*fixed, "--n", "60", "--m", "60", "--strategy", "all"),
        "heat_json_60": ("heat", "--p", "1", "--q", "1", "--c", "3/7",
                         "--initial", "(1/3*z-2/7*w+1)^60", "--format", "json"),
        "pochhammer_g_large": ("verify", "--tag", "GEN_POCHHAMMER_G", "--jk-max", "5",
                               "--order", "14", "--format", "json"),
        "startup_compute": (*fixed, "--n", "2", "--m", "2"),
        "startup_verify_junit": ("verify", "--tag", "PARAM_REC", "--nmax", "1", "--mmax", "1",
                                 "--format", "junit"),
    }


def test_cli_pairs_record_whether_every_pair_gave_the_same_stdout(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    echo = "def main(argv):\n    print(' '.join(argv))\n    return 0\n"
    sides = {"parent": _fake_cli(tmp_path / "parent", echo),
             "change": _fake_cli(tmp_path / "change", echo)}
    args = bench_pairs.LARGE_COMPUTE["genfun_300_2"]
    same = bench_pairs.cli_pairs(sides, args, "same")
    assert same["stdout_identical"] is True
    assert [pair["first"] for pair in same["pairs"]] == ["parent", "change"]
    assert same["summary"]["complete_pairs"] == 2 and same["summary"]["failed"]["change"] == 0
    assert set(same["summary"]) >= {"wall_s", "peak_rss_mb"}
    other = "def main(argv):\n    print('x')\n    return 0\n"
    sides["change"] = _fake_cli(tmp_path / "other", other)
    differing = bench_pairs.cli_pairs(sides, args, "differing")
    assert differing["stdout_identical"] is False
    assert differing["summary"]["failed"]["change"] == 2
    sides["change"] = _fake_cli(tmp_path / "failing", "def main(argv):\n    return 1\n")
    failing = bench_pairs.cli_pairs(sides, args, "failing")
    assert failing["stdout_identical"] is False
    assert failing["summary"]["failed"]["runs_change"] == 2


def test_cli_pairs_time_cached_bytecode_after_one_untimed_run_per_side(tmp_path, monkeypatch):
    # the caller's PYTHONDONTWRITEBYTECODE does not reach the runs, and each
    # side runs the command once before its timed pairs
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    body = ("import os, sys\ndef main(argv):\n"
            "    with open(os.path.join(os.path.dirname(__file__), 'runs'), 'a') as runs:\n"
            "        runs.write(f'{sys.dont_write_bytecode}\\n')\n"
            "    return 0\n")
    sides = {side: _fake_cli(tmp_path / side, body) for side in ("parent", "change")}
    result = bench_pairs.cli_pairs(sides, ("compute",), "bytecode")
    assert result["summary"]["complete_pairs"] == 2
    for path in sides.values():
        package = path / "src" / "gouldhopper"
        assert (package / "runs").read_text() == "False\n" * 3
        assert list((package / "__pycache__").glob("cli.*.pyc"))


def _shifted_pairs(scale):
    # the change's op_p50_ms is the parent's times `scale` in every pair
    return [{"seed": i, "first": "parent", "parent": _line(p, 1000 / p),
             "change": _line(p * scale, 1000 / (p * scale))}
            for i, p in enumerate([6.0, 6.2, 5.8, 6.4, 6.1, 6.3, 5.9, 6.0, 6.2, 6.1])]


def test_claimable_needs_nine_of_ten_wins_and_a_gain_past_the_iqr():
    summary = bench_pairs.summarize(_shifted_pairs(0.8), METRICS)
    assert summary["op_p50_ms"]["claimable"] and summary["ops_per_s"]["claimable"]
    # 4 of 5 wins is not 9 of 10
    assert not bench_pairs.summarize(_pairs(), METRICS)["op_p50_ms"]["claimable"]
    # 9 of 10 wins is, 8 of 10 is not
    pairs = _shifted_pairs(0.8)
    pairs[0]["change"] = _line(7.0, 1000 / 7.0)
    assert bench_pairs.summarize(pairs, METRICS)["op_p50_ms"]["claimable"]
    pairs[1]["change"] = _line(7.0, 1000 / 7.0)
    assert not bench_pairs.summarize(pairs, METRICS)["op_p50_ms"]["claimable"]
    # winning every pair by less than the parent's IQR claims nothing
    small = bench_pairs.summarize(_shifted_pairs(0.99), METRICS)["op_p50_ms"]
    assert small["change_better_pairs"] == 10
    assert small["parent_median"] - small["change_median"] < small["parent_iqr"]
    assert not small["claimable"]
    # a loss is never claimable
    assert not bench_pairs.summarize(_shifted_pairs(1.2), METRICS)["op_p50_ms"]["claimable"]


@pytest.mark.parametrize("scale, op_within, ops_within", [
    (0.5, True, True),     # better on both
    (1.2, True, True),     # 20 % slower: 1/1.2 of the rate, 17 % lower
    (1.3, False, True),    # 30 % slower: the rate falls by 23 %
    (1.4, False, False),   # the rate falls by 29 %
])
def test_within_bound_reads_each_metrics_bound(scale, op_within, ops_within):
    summary = bench_pairs.summarize(_shifted_pairs(scale), METRICS)
    assert summary["op_p50_ms"]["within_bound"] is op_within
    assert summary["ops_per_s"]["within_bound"] is ops_within
    # the bound is read from the metric, not fixed in the script
    loose = [dict(spec, bound=1.0) for spec in METRICS]
    assert bench_pairs.summarize(_shifted_pairs(scale), loose)["op_p50_ms"]["within_bound"]


def test_metrics_without_a_bound_get_no_within_bound():
    summary = bench_pairs.summarize(
        [{"first": "parent", "parent": _grid_record(10.0 + i, "a"),
          "change": _grid_record(5.0 + i, "a")} for i in range(3)],
        bench_pairs.LARGE_GRID_METRICS)
    assert "within_bound" not in summary["wall_s"]
    assert summary["wall_s"]["claimable"] is True


_ECHO_CLI = "def main(argv):\n    print(' '.join(argv))\n    return 0\n"


def test_request_stream_compares_each_requests_exit_code_and_stdout(tmp_path):
    bodies = {
        "echo": _ECHO_CLI,
        "same": _ECHO_CLI,
        "exit-code": _ECHO_CLI.replace("return 0", "return 2 if argv[0] == 'heat' else 0"),
        "stdout": _ECHO_CLI.replace("' '.join", "','.join"),
        "raises": "def main(argv):\n    raise RuntimeError('boom')\n",
    }
    runs = {name: bench_pairs.run_request_stream(_fake_cli(tmp_path / name, body), 1, 40)
            for name, body in bodies.items()}
    assert runs["echo"]["requests"] == 40
    assert bench_pairs.same_request_stdout(runs["echo"], runs["same"])
    assert not bench_pairs.same_request_stdout(runs["echo"], runs["exit-code"])
    assert not bench_pairs.same_request_stdout(runs["echo"], runs["stdout"])
    assert runs["raises"]["run_failed"] == "exit status 1"
    assert not bench_pairs.same_request_stdout(runs["raises"], runs["raises"])


def test_request_streams_are_compared_per_seed(monkeypatch):
    # a change whose stdout differs on one seed only is caught on that seed
    def fake_run(checkout, seed, count):
        differs = checkout.name == "change" and seed == 1001
        return {"requests": count, "stdout_sha256": f"{seed}{'x' * differs}"}

    monkeypatch.setattr(bench_pairs, "run_request_stream", fake_run)
    sides = {"parent": Path("parent"), "change": Path("change")}
    streams = bench_pairs.compare_request_streams(sides)
    assert list(streams) == [str(seed) for seed, _ in bench_pairs.REQUEST_STREAMS]
    assert {seed for seed, entry in streams.items() if not entry["identical"]} == {"1001"}
    assert streams["1"]["parent"] == {"requests": 250, "stdout_sha256": "1"}
    # several seeds, together holding more heat requests than seed 1's first 200
    assert len(bench_pairs.REQUEST_STREAMS) >= 4
    assert sum(count for _, count in bench_pairs.REQUEST_STREAMS) >= 1000


def test_run_once_keeps_the_request_kind_notes(tmp_path):
    line = _line(4.0, 250.0)
    body = ("import json\nprint('env: python x')\nprint('requests passes = 3')\n"
            "print('requests compute_p50_ms = 1.25')\nprint('requests heat_p50_ms = 3.5')\n"
            "print('requests heat_p90_ms = None')\n"
            f"print(json.dumps({line!r}))\n")
    checkout = _fake_checkout(tmp_path, body)
    result, _ = bench_pairs.run_once(checkout, "requests", 1, 1, False)
    assert result == {**line, "notes": {"compute_p50_ms": 1.25, "heat_p50_ms": 3.5}}
    # another workload's lines are not its own
    assert bench_pairs.run_once(checkout, "audit_serial", 1, 1, False)[0] == line


def test_summarize_notes_takes_medians_over_pairs_that_carry_them():
    pairs = _pairs()
    for i, pair in enumerate(pairs):
        pair["parent"]["notes"] = {"heat_p50_ms": 4.0 + i, "compute_p50_ms": 1.0}
        pair["change"]["notes"] = {"heat_p50_ms": 3.0 + i, "compute_p50_ms": None if i else 1.0}
    del pairs[4]["change"]["notes"]
    notes = bench_pairs.summarize_notes(pairs)
    assert notes["heat_p50_ms"] == {"pairs": 4, "parent_median": 5.5, "change_median": 4.5}
    assert notes["compute_p50_ms"] == {"pairs": 1, "parent_median": 1.0, "change_median": 1.0}
    assert bench_pairs.summarize_notes(_pairs()) == {}


def test_src_lines_sums_numstat():
    numstat = ("3\t23\tsrc/gouldhopper/ghcore.py\n"
               "13\t16\tsrc/gouldhopper/identity/checks.py\n"
               "-\t-\tsrc/gouldhopper/logo.png\n")
    assert bench_pairs.src_lines(numstat) == {"added": 16, "deleted": 39, "net": -23}
    assert bench_pairs.src_lines("") == {"added": 0, "deleted": 0, "net": 0}


def test_import_cumulative_us_reads_the_modules_line():
    importtime = ("import time: self [us] | cumulative | imported package\n"
                  "import time:       120 |        300 |     gouldhopper.cli.extra\n"
                  "import time:      2508 |      19461 |   gouldhopper\n"
                  "import time:     28974 |     174378 | gouldhopper.cli\n")
    assert bench_pairs.import_cumulative_us(importtime) == 174378
    assert bench_pairs.import_cumulative_us(importtime, "gouldhopper") == 19461
    with pytest.raises(ValueError, match="no import of gouldhopper.ghcore"):
        bench_pairs.import_cumulative_us(importtime, "gouldhopper.ghcore")


def test_import_profile_times_the_cli_import_and_names_the_modules_it_adds(tmp_path):
    # colorsys stands for a module only the CLI loads; the package's own
    # modules are left out
    checkout = _fake_cli(tmp_path, "import colorsys\nimport gouldhopper.extra\n")
    (checkout / "src" / "gouldhopper" / "extra.py").write_text("")
    profile = bench_pairs.import_profile(checkout)
    assert profile["modules_added"] == ["colorsys"]
    readings = profile["cumulative_us"]
    assert len(readings) == bench_pairs.IMPORT_PROFILE_RUNS and min(readings) > 0
    assert profile["cumulative_us_median"] == statistics.median(readings)
    # the untimed first run wrote the bytecode cache the readings use
    assert list((checkout / "src" / "gouldhopper" / "__pycache__").glob("cli.*.pyc"))


def test_import_profile_records_a_failed_import(tmp_path):
    profile = bench_pairs.import_profile(_fake_cli(tmp_path, "raise ImportError('boom')\n"))
    assert profile["correct"] is False and profile["run_failed"] == "exit status 1"
    assert profile["stderr_tail"][-1] == "ImportError: boom"
