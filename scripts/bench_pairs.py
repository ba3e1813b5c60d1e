"""Benchmark a change against its parent revision and write BENCH_<N>.json.

    python3 scripts/bench_pairs.py --parent REV --number N [--first-seed S]
        [--trace-seed T]

Run from the root of a checkout.  The working tree is the change; the
parent revision is exported with ``git archive`` into a temporary
directory, so the repository's ``.git`` is left as it was even when a run
is interrupted.  For each workload of BENCHMARK.json the script runs
``perfbench/run.py --trace 0`` for the benchmark's ``run_seconds`` in
ten pairs, one run per side on the seeds
``first-seed``, ``first-seed + 1``, ...; the parent runs first on even
pair indices and the change on odd ones, so a drift of the machine during
the runs weighs on both sides alike.  With ``--trace-seed`` each side
also makes one ``--trace 1`` run per workload, whose per-layer counts go
into the file as ``traced_<workload>``.

The large grid, ``gouldhopper audit --nmax 10 --mmax 10`` at ``--jobs 1``
and ``--jobs 2``, is timed in the same way: ten alternating pairs per
``--jobs`` value, each run a fresh interpreter whose wall time and peak
RSS (the CLI process's own, in MB) go under ``large_grid``.  A change run
whose stdout differs from its parent's in the same pair counts as failed.

The file keeps every result line (the last stdout line of
``perfbench/run.py``: correct, attempted, failed, metrics) and, per
end-to-end metric of BENCHMARK.json, the medians of both sides, the
parent's interquartile range, in how many pairs the change was better and
the ratio of the medians.  A run that exits non-zero, prints no result line
or outlasts ``RUN_TIMEOUT_S`` is kept in its pair as ``{"correct": false,
"run_failed": reason, "stderr_tail": [...]}``, counted in the summary and
left out of the medians; the file is written all the same and the script
then exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600
PAIRS = 10  # a gain is claimed only when the change wins at least 9 of 10 pairs

LARGE_GRID = ("audit", "--nmax", "10", "--mmax", "10")
LARGE_GRID_JOBS = (1, 2)
LARGE_GRID_METRICS = [{"name": "wall_s", "better": "lower"},
                      {"name": "peak_rss_mb", "better": "lower"}]
# runs the CLI in the checkout's src/ and, last on stderr, its own peak RSS
_CLI_WITH_PEAK_RSS = (
    "import resource, sys\n"
    "from gouldhopper.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def export_revision(rev: str, into: Path) -> None:
    """Write the files of `rev` under `into`, without touching the repository."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter refuses links and paths that leave `into`
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: bool) -> tuple[dict, str]:
    """(result line, env line) of one perfbench run in `checkout`.

    A run that fails gives a record with ``run_failed`` in place of the
    result line, and an empty env line.
    """
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    try:
        done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        stderr = exc.stderr or ""  # bytes here even with text=True
        if isinstance(stderr, bytes):
            stderr = stderr.decode(errors="replace")
        return _failed_run(f"timed out after {RUN_TIMEOUT_S} s", stderr), ""
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0:
        return _failed_run(f"exit status {done.returncode}", done.stderr), ""
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return _failed_run("no result line on stdout", done.stderr), ""
    return result, next((line for line in lines if line.startswith("env: ")), "")


def run_large_grid(checkout: Path, jobs: int) -> dict:
    """Result record of one large-grid audit in a fresh interpreter in `checkout`.

    It has the shape of a perfbench result line, one operation, with the
    metrics wall_s and peak_rss_mb and the SHA-256 of stdout; a run that
    fails gives a record with ``run_failed``, as in run_once.
    """
    argv = [sys.executable, "-c", _CLI_WITH_PEAK_RSS, *LARGE_GRID, "--jobs", str(jobs)]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return _failed_run(f"timed out after {RUN_TIMEOUT_S} s",
                           (exc.stderr or b"").decode(errors="replace"))
    wall = time.perf_counter() - start
    stderr = done.stderr.decode(errors="replace")
    if done.returncode != 0:
        return _failed_run(f"exit status {done.returncode}", stderr)
    try:
        peak = float(stderr.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return _failed_run("no peak RSS line on stderr", stderr)
    return {"correct": True, "attempted": 1, "failed": 0,
            "stdout_sha256": hashlib.sha256(done.stdout).hexdigest(),
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": peak, "unit": "MB"}}}


def large_grid_pair(run: Callable[[str], dict], first: str) -> dict:
    """One pair of large-grid records, `first` side first.

    A change whose stdout differs from its parent's counts as a failed
    operation, so the summary shows it.
    """
    order = ("parent", "change") if first == "parent" else ("change", "parent")
    pair = {"first": first, **{side: run(side) for side in order}}
    parent, change = pair["parent"], pair["change"]
    if "run_failed" not in parent and "run_failed" not in change:
        if change["stdout_sha256"] != parent["stdout_sha256"]:
            change.update(correct=False, failed=1)
    return pair


def _failed_run(reason: str, stderr: str) -> dict:
    return {"correct": False, "run_failed": reason,
            "stderr_tail": stderr.strip().splitlines()[-5:]}


def _better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric medians, parent IQR and pair wins, plus the failure counts.

    `pairs` holds {"seed", "first", "parent", "change"} entries whose sides
    are perfbench result lines or failed-run records; `metrics` the
    BENCHMARK.json entries (name and "better") to summarize.  The metrics
    are taken over the complete pairs, those where neither run failed, and
    are left out when fewer than two pairs are complete.
    """
    complete = [pair for pair in pairs
                if "run_failed" not in pair["parent"] and "run_failed" not in pair["change"]]
    summary = {"complete_pairs": len(complete)}
    for spec in metrics if len(complete) >= 2 else ():
        name = spec["name"]
        parent = [pair["parent"]["metrics"][name]["value"] for pair in complete]
        change = [pair["change"]["metrics"][name]["value"] for pair in complete]
        quartiles = statistics.quantiles(parent, n=4)
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        summary[name] = {
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_iqr": quartiles[2] - quartiles[0],
            "change_better_pairs": sum(
                _better(c, p, spec["better"]) for p, c in zip(parent, change)),
            "change_over_parent": change_median / parent_median,
        }
    summary["failed"] = {
        "parent": sum(pair["parent"]["failed"] for pair in complete),
        "change": sum(pair["change"]["failed"] for pair in complete),
        "attempted_parent": sum(pair["parent"]["attempted"] for pair in complete),
        "attempted_change": sum(pair["change"]["attempted"] for pair in complete),
        "runs_parent": sum("run_failed" in pair["parent"] for pair in pairs),
        "runs_change": sum("run_failed" in pair["change"] for pair in pairs),
    }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--number", required=True, help="the N of the BENCH_<N>.json to write")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="also make one traced run per side and workload on this seed")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    parent_rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()
    command = "python3 perfbench/run.py --workload W --seed S --seconds {:g} --trace {}"
    document = {
        "what": (
            "perfbench result lines (the last stdout line of perfbench/run.py) for the parent "
            f"commit and this change, {PAIRS} alternating pairs per workload; the side that "
            "ran first alternates, parent first on even pair indices"
        ),
        "command": command.format(seconds, 0),
        "parent": parent_rev,
        "host": f"{os.cpu_count()}-CPU {platform.system()}, Python {platform.python_version()}",
        "env_line": "",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        sides = {"parent": Path(tmp), "change": ROOT}
        export_revision(parent_rev, sides["parent"])
        for workload in workloads:
            pairs = []
            for index in range(PAIRS):
                seed = args.first_seed + index
                order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side], env = run_once(sides[side], workload, seed, seconds, False)
                    document["env_line"] = env or document["env_line"]
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(pair[side].get('metrics', pair[side]))}",
                          file=sys.stderr)
                pairs.append(pair)
            document["workloads"][workload] = {
                "summary": summarize(pairs, declared["end_to_end"]), "pairs": pairs}
        if args.trace_seed is not None:
            for workload in workloads:
                document[f"traced_{workload}"] = {
                    "command": (f"python3 perfbench/run.py --workload {workload} "
                                f"--seed {args.trace_seed} --seconds {seconds:g} --trace 1"),
                    **{side: run_once(path, workload, args.trace_seed, seconds, True)[0]
                       for side, path in sides.items()},
                }
        document["large_grid"] = {
            "command": f"gouldhopper {' '.join(LARGE_GRID)} --jobs J",
            "what": (
                "wall seconds of a fresh interpreter running the CLI with stdout captured, and "
                f"the CLI process's own peak RSS; {PAIRS} alternating pairs per --jobs value, "
                "parent first on even pair indices; a change run whose stdout differs from "
                "its parent's counts as failed"
            ),
        }
        for jobs in LARGE_GRID_JOBS:
            pairs = []
            for index in range(PAIRS):
                first = "parent" if index % 2 == 0 else "change"
                pair = large_grid_pair(lambda side: run_large_grid(sides[side], jobs), first)
                print(f"large grid --jobs {jobs} pair {index}: "
                      f"{json.dumps({side: pair[side].get('metrics', pair[side]) for side in sides})}",
                      file=sys.stderr)
                pairs.append(pair)
            document["large_grid"][f"jobs_{jobs}"] = {
                "summary": summarize(pairs, LARGE_GRID_METRICS), "pairs": pairs}
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    failed_runs = sum(entry["summary"]["failed"]["runs_parent"]
                      + entry["summary"]["failed"]["runs_change"]
                      for entry in document["workloads"].values())
    failed_runs += sum("run_failed" in document[key][side]
                       for key in document if key.startswith("traced_")
                       for side in ("parent", "change"))
    large = [document["large_grid"][f"jobs_{jobs}"]["summary"] for jobs in LARGE_GRID_JOBS]
    failed_runs += sum(summary["failed"]["runs_parent"] + summary["failed"]["runs_change"]
                       + summary["failed"]["change"] for summary in large)
    if failed_runs:
        print(f"{failed_runs} run(s) failed or changed the large grid's stdout; "
              f"see run_failed and failed in {out.name}", file=sys.stderr)
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
