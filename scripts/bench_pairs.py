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
``compute`` at large degree, a ``heat`` request with a large JSON
document, ``verify`` of GEN_POCHHAMMER_G's series at large weights and
order, and two commands that are mostly start-up (a small ``compute`` and
a ``verify --format junit``), are timed the same way, ten pairs per
command of ``LARGE_COMPUTE``, under ``large_compute``, each with
``stdout_identical``: whether both sides ran and gave the same stdout in
every pair.  Two entries run several commands in one interpreter,
commands apart at ``COMMAND_SEPARATOR``, so that they time a store of the
package across commands: ``genfun_thin_boxes`` makes four genfun
requests, and ``genfun_then_gen_full`` a genfun request and then a
``verify`` of GEN_FULL, which read the same generating-series
coefficients.  Before the pairs of each command, each side runs it once
untimed, and every run may write bytecode (``PYTHONDONTWRITEBYTECODE`` is
dropped from its environment), so no timed run compiles the package: the
parent's export starts with no bytecode cache.

Outside the timed pairs, each side runs, for each ``(seed, count)`` of
``REQUEST_STREAMS``, the first ``count`` requests of perfbench's seeded
``requests`` stream (taken from the working tree's ``perfbench/inputs.py``
for both sides) once, in a fresh interpreter per stream.  The file
records per seed, under ``requests_stdout``, whether both sides gave the
same stdout and exit code for every request, and under
``requests_stdout_identical`` whether they did on every seed.

The file keeps every result line (the last stdout line of
``perfbench/run.py``: correct, attempted, failed, metrics), with the run's
``NOTES`` note lines (the medians per request kind of a ``requests`` run)
under ``notes`` and their medians per side in the workload's
``notes_summary``, and, per
end-to-end metric of BENCHMARK.json, the medians of both sides, the
parent's interquartile range, in how many pairs the change was better,
the ratio of the medians, and two verdicts: ``claimable`` (a gain won in
at least 9 of 10 pairs and larger than the parent's IQR) and
``within_bound`` (no worse than the metric's BENCHMARK.json bound).  A
run that exits non-zero, prints no result line or outlasts
``RUN_TIMEOUT_S`` is kept in its pair as ``{"correct": false,
"run_failed": reason, "stderr_tail": [...]}``, counted in the summary and
left out of the medians; the file is written all the same and the script
then exits 1, as it does when the request streams' stdout differs.

The file also records, as ``src_lines``, the lines added, deleted and
net under ``src/`` from the parent revision to the working tree, read
off ``git diff --numstat``, in all and per file under ``by_file``, and,
as ``import_profile``, what ``import gouldhopper.cli`` costs on each
side: the median, over ``IMPORT_PROFILE_RUNS`` fresh interpreters after
one untimed run that writes the bytecode cache, of the cumulative
microseconds ``python -X importtime`` reports for it, and the sorted
modules outside the package that the import adds to a bare interpreter.
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
PAIRS = 10
# a gain is claimable when the change wins at least CLAIM_WINS of every
# PAIRS complete pairs and its median beats the parent's by more than the
# parent's interquartile range
CLAIM_WINS = 9

LARGE_GRID = ("audit", "--nmax", "10", "--mmax", "10")
LARGE_GRID_JOBS = (1, 2)
LARGE_GRID_METRICS = [{"name": "wall_s", "better": "lower"},
                      {"name": "peak_rss_mb", "better": "lower"}]
# the separator of the commands one run of the CLI makes in turn
COMMAND_SEPARATOR = ";"


def _genfun(n: int, m: int) -> tuple[str, ...]:
    return ("compute", "--p", "1", "--q", "1", "--n", str(n), "--m", str(m),
            "--strategy", "genfun")


# compute at large degree: a thin box each way, then every strategy; the
# thin boxes and a small one in one interpreter, so that they share the
# generating-series coefficients held for (1, 1), and a genfun request and
# a GEN_FULL check that share them the same way; a heat request whose
# time goes mostly to writing its JSON (about 6 MB); and two commands
# whose time goes mostly to starting the CLI
LARGE_COMPUTE = {
    "genfun_300_2": _genfun(300, 2),
    "genfun_2_300": _genfun(2, 300),
    "genfun_thin_boxes": (*_genfun(300, 2), COMMAND_SEPARATOR, *_genfun(2, 300),
                          COMMAND_SEPARATOR, *_genfun(4, 300), COMMAND_SEPARATOR,
                          *_genfun(3, 3)),
    "genfun_then_gen_full": (*_genfun(40, 40), COMMAND_SEPARATOR, "verify", "--tag", "GEN_FULL",
                             "--pq", "1,1", "--order", "80", "--format", "json"),
    "all_60_60": ("compute", "--p", "1", "--q", "1", "--n", "60", "--m", "60",
                  "--strategy", "all"),
    "heat_json_60": ("heat", "--p", "1", "--q", "1", "--c", "3/7",
                     "--initial", "(1/3*z-2/7*w+1)^60", "--format", "json"),
    "pochhammer_g_large": ("verify", "--tag", "GEN_POCHHAMMER_G", "--jk-max", "5",
                           "--order", "14", "--format", "json"),
    # start-up: a compute that is nearly all import, and a verify whose
    # JUnit writer loads on use
    "startup_compute": ("compute", "--p", "1", "--q", "1", "--n", "2", "--m", "2"),
    "startup_verify_junit": ("verify", "--tag", "PARAM_REC", "--nmax", "1", "--mmax", "1",
                             "--format", "junit"),
}
# runs the CLI in the checkout's src/ on each command of its arguments in
# turn, the commands split at COMMAND_SEPARATOR, until one exits non-zero,
# and prints, last on stderr, its own peak RSS in MB: Linux's VmHWM, since
# ru_maxrss keeps across exec the peak of the process that started it and
# so never reads below this script's own RSS
_CLI_WITH_PEAK_RSS = (
    "import itertools, sys\n"
    "from gouldhopper.cli import main\n"
    "code = 0\n"
    f"for apart, args in itertools.groupby(sys.argv[1:], {COMMAND_SEPARATOR!r}.__eq__):\n"
    "    if not (apart or code):\n"
    "        code = main(list(args))\n"
    "with open('/proc/self/status') as status:\n"
    "    peak = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
    "print(int(peak) / 1024, file=sys.stderr)\n"
    "sys.exit(code)\n"
)
# the note lines of perfbench/run.py kept next to a run's result line:
# they show which kind of request a change of op_p50_ms comes from
NOTES = ("compute_p50_ms", "heat_p50_ms")
# (seed, count) of each request stream whose stdout both sides must give
# alike: 1,000 requests, 500 of them heat
REQUEST_STREAMS = ((1, 250), (1000, 250), (1001, 250), (1002, 250))
# runs the CLI in the checkout's src/ on the first `count` requests of the
# stream in perfbench/inputs.py under argv[1], and prints each one's exit
# code and the SHA-256 of its stdout
_CLI_ON_REQUEST_STREAM = (
    "import contextlib, hashlib, io, itertools, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import inputs\n"
    "from gouldhopper.cli import main\n"
    "stream = inputs.requests(int(sys.argv[2]), inputs.FULL)\n"
    "for request in itertools.islice(stream, int(sys.argv[3])):\n"
    "    out = io.StringIO()\n"
    "    with contextlib.redirect_stdout(out):\n"
    "        code = main(request.argv)\n"
    "    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
)


# fresh interpreters whose -X importtime reading of the CLI import_profile takes
IMPORT_PROFILE_RUNS = 10
# imports the CLI in a bare interpreter and prints, one a line, the modules
# outside the package that the import added
_CLI_IMPORT_ADDS = (
    "import sys\n"
    "bare = set(sys.modules)\n"
    "import gouldhopper.cli\n"
    "print('\\n'.join(sorted(name for name in set(sys.modules) - bare\n"
    "                        if name.partition('.')[0] != 'gouldhopper')))\n"
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

    The run's NOTES lines, ``<workload> <name> = <value>``, go into the
    result line as ``notes``.  A run that fails gives a record with
    ``run_failed`` in place of the result line, and an empty env line.
    """
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    done = _run(argv, checkout)
    if isinstance(done, dict):
        return done, ""
    lines = done.stdout.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return _failed_run("no result line on stdout", done.stderr.decode(errors="replace")), ""
    notes = {}
    for line in lines:
        name, sep, value = line.removeprefix(f"{workload} ").partition(" = ")
        if sep and name in NOTES:
            notes[name] = None if value == "None" else float(value)
    if notes:
        result["notes"] = notes
    return result, next((line for line in lines if line.startswith("env: ")), "")


def run_cli(checkout: Path, args: tuple[str, ...]) -> dict:
    """Result record of the CLI on `args` in a fresh interpreter in `checkout`.

    It has the shape of a perfbench result line, one operation, with the
    metrics wall_s and peak_rss_mb and the SHA-256 of stdout; a run that
    fails gives a record with ``run_failed``, as in run_once.
    """
    argv = [sys.executable, "-c", _CLI_WITH_PEAK_RSS, *args]
    start = time.perf_counter()
    done = _run(argv, checkout)
    if isinstance(done, dict):
        return done
    wall = time.perf_counter() - start
    stderr = done.stderr.decode(errors="replace")
    try:
        peak = float(stderr.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return _failed_run("no peak RSS line on stderr", stderr)
    return {"correct": True, "attempted": 1, "failed": 0,
            "stdout_sha256": hashlib.sha256(done.stdout).hexdigest(),
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": peak, "unit": "MB"}}}


def run_request_stream(checkout: Path, seed: int, count: int) -> dict:
    """Record of the first `count` requests of stream `seed` run by the CLI in
    `checkout`, in one interpreter.

    It holds how many requests ran and the SHA-256 of their exit codes and
    stdout digests; a run that fails gives a record with ``run_failed``,
    as in run_once.
    """
    argv = [sys.executable, "-c", _CLI_ON_REQUEST_STREAM, str(ROOT / "perfbench"),
            str(seed), str(count)]
    done = _run(argv, checkout)
    if isinstance(done, dict):
        return done
    return {"requests": len(done.stdout.splitlines()),
            "stdout_sha256": hashlib.sha256(done.stdout).hexdigest()}


def same_request_stdout(parent: dict, change: dict) -> bool:
    """Whether two run_request_stream records both ran and agree."""
    return "run_failed" not in parent and parent == change


def compare_request_streams(sides: dict[str, Path]) -> dict:
    """Per seed of REQUEST_STREAMS, both sides' run_request_stream records
    and whether they agree."""
    streams = {}
    for seed, count in REQUEST_STREAMS:
        runs = {side: run_request_stream(path, seed, count) for side, path in sides.items()}
        streams[str(seed)] = {**runs, "identical": same_request_stdout(**runs)}
    return streams


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


def cli_pairs(sides: dict[str, Path], args: tuple[str, ...], label: str) -> dict:
    """PAIRS alternating large_grid_pair runs of the CLI on `args`, parent
    first on even pair indices, with their summary and whether every pair
    ran on both sides and gave the same stdout.

    One untimed run per side comes first: it writes the side's bytecode
    cache, as an installed package has one, so no timed run compiles.
    """
    for path in sides.values():
        run_cli(path, args)
    pairs = []
    for index in range(PAIRS):
        first = "parent" if index % 2 == 0 else "change"
        pair = large_grid_pair(lambda side: run_cli(sides[side], args), first)
        print(f"{label} pair {index}: "
              f"{json.dumps({side: pair[side].get('metrics', pair[side]) for side in sides})}",
              file=sys.stderr)
        pairs.append(pair)
    identical = all("run_failed" not in pair["parent"] and "run_failed" not in pair["change"]
                    and pair["parent"]["stdout_sha256"] == pair["change"]["stdout_sha256"]
                    for pair in pairs)
    return {"summary": summarize(pairs, LARGE_GRID_METRICS), "stdout_identical": identical,
            "pairs": pairs}


def import_cumulative_us(importtime: str, module: str = "gouldhopper.cli") -> int:
    """The cumulative microseconds of `module` in ``-X importtime`` output."""
    for line in importtime.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[2].strip() == module:
            return int(fields[1])
    raise ValueError(f"-X importtime reports no import of {module}")


def import_profile(checkout: Path) -> dict:
    """What ``import gouldhopper.cli`` costs in `checkout`.

    The record holds the median and each reading of the cumulative
    microseconds of IMPORT_PROFILE_RUNS fresh interpreters under ``-X
    importtime``, after one untimed run that writes the bytecode cache, and
    ``modules_added``, the sorted modules outside the package that the
    import adds to a bare interpreter; a run that fails gives a record with
    ``run_failed``, as in run_once.
    """
    readings = []
    for _ in range(IMPORT_PROFILE_RUNS + 1):
        done = _run([sys.executable, "-X", "importtime", "-c", "import gouldhopper.cli"], checkout)
        if isinstance(done, dict):
            return done
        readings.append(import_cumulative_us(done.stderr.decode(errors="replace")))
    added = _run([sys.executable, "-c", _CLI_IMPORT_ADDS], checkout)
    if isinstance(added, dict):
        return added
    return {"cumulative_us_median": statistics.median(readings[1:]),
            "cumulative_us": readings[1:],
            "modules_added": added.stdout.decode().split()}


def src_lines(numstat: str) -> dict:
    """{added, deleted, net} summed over the lines of `git diff --numstat`,
    and under ``by_file`` the same three per path; a binary file's ``-``
    counts as 0."""
    by_file = {}
    for line in numstat.splitlines():
        plus, minus, path = line.split("\t", 2)
        added, deleted = (int(n) if n != "-" else 0 for n in (plus, minus))
        by_file[path] = {"added": added, "deleted": deleted, "net": added - deleted}
    added = sum(lines["added"] for lines in by_file.values())
    deleted = sum(lines["deleted"] for lines in by_file.values())
    return {"added": added, "deleted": deleted, "net": added - deleted, "by_file": by_file}


def _run(argv: list[str], checkout: Path) -> subprocess.CompletedProcess | dict:
    """The completed process of `argv` run in `checkout` with its ``src`` on
    PYTHONPATH, output in bytes, or the ``run_failed`` record of a timeout
    or a non-zero exit status.

    The run may write bytecode whatever the caller's environment says, as
    perfbench/run.py lets its runs do.
    """
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        reason, stderr = f"timed out after {RUN_TIMEOUT_S} s", exc.stderr or b""
    else:
        if done.returncode == 0:
            return done
        reason, stderr = f"exit status {done.returncode}", done.stderr
    return _failed_run(reason, stderr.decode(errors="replace"))


def _failed_run(reason: str, stderr: str) -> dict:
    return {"correct": False, "run_failed": reason,
            "stderr_tail": stderr.strip().splitlines()[-5:]}


def _better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric medians, parent IQR, pair wins and verdicts, plus the failure counts.

    `pairs` holds {"seed", "first", "parent", "change"} entries whose sides
    are perfbench result lines or failed-run records; `metrics` the
    BENCHMARK.json entries (name, "better" and, optionally, "bound") to
    summarize.  The metrics are taken over the complete pairs, those where
    neither run failed, and are left out when fewer than two pairs are
    complete.  Each metric's ``claimable`` says whether the change won at
    least CLAIM_WINS of every PAIRS complete pairs and its median beats the
    parent's by more than the parent's IQR.  A metric with a bound also gets
    ``within_bound``: whether the change's median is worse than the
    parent's by at most that fraction of the parent's median.
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
        parent_iqr = quartiles[2] - quartiles[0]
        better_pairs = sum(_better(c, p, spec["better"]) for p, c in zip(parent, change))
        # how much better the change's median is, in the metric's unit
        gain = (parent_median - change_median if spec["better"] == "lower"
                else change_median - parent_median)
        summary[name] = {
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_iqr": parent_iqr,
            "change_better_pairs": better_pairs,
            "change_over_parent": change_median / parent_median,
            "claimable": (better_pairs * PAIRS >= CLAIM_WINS * len(complete)
                          and gain > parent_iqr),
        }
        if "bound" in spec:
            summary[name]["within_bound"] = -gain <= spec["bound"] * parent_median
    summary["failed"] = {
        "parent": sum(pair["parent"]["failed"] for pair in complete),
        "change": sum(pair["change"]["failed"] for pair in complete),
        "attempted_parent": sum(pair["parent"]["attempted"] for pair in complete),
        "attempted_change": sum(pair["change"]["attempted"] for pair in complete),
        "runs_parent": sum("run_failed" in pair["parent"] for pair in pairs),
        "runs_change": sum("run_failed" in pair["change"] for pair in pairs),
    }
    return summary


def summarize_notes(pairs: list[dict]) -> dict:
    """Each NOTES value's median per side, over the complete pairs whose runs both carry it."""
    summary = {}
    for name in NOTES:
        both = [(pair["parent"]["notes"][name], pair["change"]["notes"][name]) for pair in pairs
                if all(pair[side].get("notes", {}).get(name) is not None
                       for side in ("parent", "change"))]
        if both:
            summary[name] = {"pairs": len(both),
                             "parent_median": statistics.median(p for p, _ in both),
                             "change_median": statistics.median(c for _, c in both)}
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
    numstat = subprocess.run(["git", "diff", "--numstat", parent_rev, "--", "src"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout
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
        "src_lines": src_lines(numstat),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        sides = {"parent": Path(tmp), "change": ROOT}
        export_revision(parent_rev, sides["parent"])
        document["import_profile"] = {
            "what": (
                "import gouldhopper.cli: the median over fresh interpreters, with cached "
                "bytecode, of its cumulative microseconds under python -X importtime, and the "
                "sorted modules outside the package it adds to a bare interpreter"
            ),
            **{side: import_profile(path) for side, path in sides.items()},
        }
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
            notes = summarize_notes(pairs)
            if notes:
                document["workloads"][workload]["notes_summary"] = notes
        if args.trace_seed is not None:
            for workload in workloads:
                document[f"traced_{workload}"] = {
                    "command": (f"python3 perfbench/run.py --workload {workload} "
                                f"--seed {args.trace_seed} --seconds {seconds:g} --trace 1"),
                    **{side: run_once(path, workload, args.trace_seed, seconds, True)[0]
                       for side, path in sides.items()},
                }
        streams = compare_request_streams(sides)
        document["requests_stdout"] = {
            "what": ("exit code and stdout of the first `requests` requests of perfbench's "
                     "requests stream, per seed, one interpreter per side and seed"),
            "seeds": streams,
        }
        document["requests_stdout_identical"] = all(
            entry["identical"] for entry in streams.values())
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
            document["large_grid"][f"jobs_{jobs}"] = cli_pairs(
                sides, (*LARGE_GRID, "--jobs", str(jobs)), f"large grid --jobs {jobs}")
        document["large_compute"] = {
            "what": (
                "wall seconds and the CLI process's own peak RSS of `gouldhopper <command>` in "
                f"a fresh interpreter, {PAIRS} alternating pairs per command, as for the large "
                "grid; stdout_identical says whether every pair ran and gave the same stdout"
            ),
            **{name: {"command": f"gouldhopper {' '.join(args)}",
                      **cli_pairs(sides, args, f"large compute {name}")}
               for name, args in LARGE_COMPUTE.items()},
        }
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
    large += [document["large_compute"][name]["summary"] for name in LARGE_COMPUTE]
    failed_runs += sum(summary["failed"]["runs_parent"] + summary["failed"]["runs_change"]
                       + summary["failed"]["change"] for summary in large)
    failed_runs += not document["requests_stdout_identical"]
    failed_runs += sum("run_failed" in document["import_profile"][side]
                       for side in ("parent", "change"))
    if failed_runs:
        print(f"{failed_runs} run(s) failed or changed the stdout of the large grid, a large "
              f"compute or the request stream; see run_failed, failed and "
              f"requests_stdout_identical in {out.name}", file=sys.stderr)
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
