"""Benchmark of the gouldhopper package; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package runs from ``src`` without
being installed.  Every measured operation runs in a fresh interpreter
(child.py) and its output is checked; a failed check counts as a failed
operation.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  The
lines before it repeat the numbers for a reader.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gates
import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170  # every run ends well inside the 180 s a run may take


class ChildError(RuntimeError):
    """A child process crashed, timed out or printed no measurements."""


def spawn(job: dict, deadline: float) -> tuple[dict, bytes]:
    """Run child.py on one job; (measurements, rest of stdout).

    The measurements gain setup_s: from just before the interpreter starts
    until it has imported gouldhopper.cli.  Every child reports a
    speed_factor (speed.py) that scales its times to the reference speed.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # cache bytecode, as an installed package does, so set-up is not compiling
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env,
        start_new_session=True,  # so a timeout can stop pool workers too
    )
    try:
        out, _ = proc.communicate(json.dumps(job).encode(), timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildError(f"{job['job']} job timed out") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise ChildError(f"{job['job']} job exited with {proc.returncode}")
    line, _, rest = out.partition(b"\n")
    try:
        meta = json.loads(line)
    except ValueError:
        raise ChildError(f"{job['job']} job printed no measurements") from None
    meta["setup_s"] = meta["ready"] - start
    return meta, rest


def probe_setups(scale: inputs.Scale, deadline: float) -> list[dict]:
    """Measurements of scale.probes fresh interpreters, after one warm-up.

    The warm-up writes the bytecode cache, as an installed package has one.
    """
    spawn({"job": "probe"}, deadline)
    return [spawn({"job": "probe"}, deadline)[0] for _ in range(scale.probes)]


def scaled(values: list[tuple[float, float]]) -> list[float]:
    return [value * factor for value, factor in values]


def setup_metrics(children: list[dict]) -> tuple[float, float]:
    """(scaled, raw) median set-up time of the children."""
    pairs = [(child["setup_s"], child["setup_factor"]) for child in children]
    return statistics.median(scaled(pairs)), statistics.median(value for value, _ in pairs)


class Tally:
    """Attempted and failed operations; each failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)


def load_digests(grid: inputs.Grid) -> dict:
    table = json.loads((HERE / "digests.json").read_text())[grid.label]
    if table["flags"] != list(grid.flags):
        raise SystemExit(f"digests.json was made for other {grid.label} flags; rerun make_digests.py")
    return table


def more(start: float, seconds: float, done: list, deadline: float) -> bool:
    """Whether to start another operation: at least one, then until `seconds`."""
    now = time.monotonic()
    return now < deadline and (not done or now - start < seconds)


def audit_workload(jobs: int, seed: int, seconds: float, trace: bool,
                   scale: inputs.Scale, deadline: float, tally: Tally) -> tuple[dict, dict]:
    table = load_digests(scale.grid)
    slot = seed % len(table["digests"])
    argv = inputs.audit_argv(scale.grid, jobs, slot)

    def one(traced: bool):
        try:
            meta, stdout = spawn({"job": "audit", "argv": argv, "trace": traced}, deadline)
        except ChildError as exc:
            tally.add(" ".join(argv), [str(exc)])
            return None, b""
        problems = gates.audit_problems(stdout, meta["rc"], table["reports"], table["digests"][slot])
        tally.add(" ".join(argv), problems)
        return meta, stdout

    if trace:
        plain, _ = one(False)
        meta, stdout = one(True)
        if plain is None or meta is None:
            raise SystemExit("the traced pair of audits did not complete")
        spans = meta["spans"]
        grid_s = spans["rows"].get("audit.audit_grid", [0, 0.0, 0.0, 0])[tracer.TOTAL_S]
        extra = {
            "audit.cells": meta["cells"],
            "audit.reports": len(json.loads(stdout)["reports"]),
            "audit.nielsen_repeat_share": meta["nielsen_repeat_share"],
            "audit.worker_cpu_s": meta["worker_cpu_s"],
            "audit.worker_busy_frac": meta["worker_cpu_s"] / (jobs * grid_s) if jobs > 1 and grid_s else 0.0,
            "trace.overhead": meta["wall_s"] * meta["speed_factor"] / (plain["wall_s"] * plain["speed_factor"]),
        }
        return layer_metrics(meta, extra), {"traced_s": meta["wall_s"], "untraced_s": plain["wall_s"]}

    children = probe_setups(scale, deadline)
    audits = []
    start = time.monotonic()
    while more(start, seconds, audits, deadline):
        meta, _ = one(False)
        if meta is not None:
            audits.append(meta)
    if not audits:
        raise SystemExit("no audit completed")
    walls = scaled([(meta["wall_s"], meta["speed_factor"]) for meta in audits])
    setup_s, raw_setup_s = setup_metrics(children + audits)
    metrics = {
        "setup_s": setup_s,
        "op_p50_ms": 1000 * statistics.median(walls),
        "ops_per_s": len(walls) / sum(walls),
        # the pool's workers end before the audit returns; jobs * the
        # largest worker bounds their combined peak from above
        "peak_rss_mb": statistics.median(
            (meta["maxrss_kb"] + jobs * meta["worker_maxrss_kb"]) / 1024 for meta in audits),
    }
    return metrics, {"audits": len(audits), "audit_s": statistics.median(walls),
                     "raw_audit_s": statistics.median(meta["wall_s"] for meta in audits),
                     "raw_setup_s": raw_setup_s}


def requests_workload(seed: int, seconds: float, trace: bool,
                      scale: inputs.Scale, deadline: float, tally: Tally) -> tuple[dict, dict]:
    """Passes of scale.requests requests, each pass in one fresh process.

    A pass has a fixed size so that how much its requests share (and so
    how warm the package's caches get) depends on the inputs alone, not on
    how many requests a faster program fits into the run.
    """

    def one(pass_index: int, traced: bool = False) -> dict | None:
        job = {"job": "requests", "seed": seed * 1000 + pass_index, "count": scale.requests,
               "tiny": scale is inputs.TINY, "trace": traced}
        try:
            meta, _ = spawn(job, deadline)
        except ChildError as exc:
            tally.add(f"requests pass {pass_index}", [str(exc)])
            return None
        for kind, _, problems, _ in meta["latencies"]:
            tally.add(kind, [problems] if problems else [])
        return meta

    if trace:
        plain, meta = one(0), one(0, traced=True)
        if plain is None or meta is None:
            raise SystemExit("the traced pair of passes did not complete")
        untraced_s = sum(lat * factor for _, lat, _, factor in plain["latencies"])
        traced_s = sum(lat * factor for _, lat, _, factor in meta["latencies"])
        extra = {
            "requests.genseries_reuse_share": meta["genseries_reuse_share"],
            "trace.overhead": traced_s / untraced_s,
        }
        return layer_metrics(meta, extra), {"traced_s": traced_s, "untraced_s": untraced_s}

    children = probe_setups(scale, deadline)
    passes, tried = [], 0
    start = time.monotonic()
    while more(start, seconds, passes, deadline):
        meta = one(tried)
        tried += 1
        if meta is not None:
            passes.append(meta)
    if not passes:
        raise SystemExit("no requests pass completed")
    entries = [entry for meta in passes for entry in meta["latencies"]]
    latencies = scaled([(lat, factor) for _, lat, _, factor in entries])
    setup_s, raw_setup_s = setup_metrics(children + passes)
    metrics = {
        "setup_s": setup_s,
        "op_p50_ms": 1000 * statistics.median(latencies),
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": statistics.median(meta["maxrss_kb"] for meta in passes) / 1024,
    }
    notes = {"passes": len(passes), "requests_per_s": metrics["ops_per_s"],
             "raw_op_p50_ms": 1000 * statistics.median(lat for _, lat, _, _ in entries),
             "raw_setup_s": raw_setup_s,
             "genseries_reuse_share": statistics.median(meta["genseries_reuse_share"] for meta in passes)}
    for kind in ("compute", "heat"):
        times = [1000 * lat for (k, *_), lat in zip(entries, latencies) if k == kind]
        notes[f"{kind}_p50_ms"] = statistics.median(times) if times else None
        # p90 only where at least ten samples lie beyond it
        notes[f"{kind}_p90_ms"] = statistics.quantiles(times, n=10)[-1] if len(times) >= 100 else None
        notes[f"{kind}_n"] = len(times)
    return metrics, notes


WORKLOADS = {
    "audit_serial": lambda *args: audit_workload(1, *args),
    "audit_jobs2": lambda *args: audit_workload(2, *args),
    "requests": requests_workload,
}

# per-layer names ending in these read a column of the span row before it
_SUFFIX_COLUMNS = {".calls": tracer.CALLS, ".s": tracer.TOTAL_S, ".self_s": tracer.SELF_S,
                   ".terms_out": tracer.TERMS}


def layer_metrics(meta: dict, extra: dict) -> dict:
    """Every per-layer metric from one traced child; a layer never entered reads 0."""
    spans = meta["spans"]
    cache = meta["explicit_poly"]
    calls = cache["hits"] + cache["misses"]
    values = {
        "exactalg.Poly.mul.term_pairs": spans["term_pairs"],
        "exactalg.peak_terms": spans["peak_terms"],
        "checks.corrected_runs": spans["corrected_runs"],
        "ghcore.explicit_poly.hits": cache["hits"],
        "ghcore.explicit_poly.misses": cache["misses"],
        "ghcore.explicit_poly.hit_share": cache["hits"] / calls if calls else 0.0,
        "audit.cells": 0,
        "audit.reports": 0,
        "audit.nielsen_repeat_share": 0.0,
        "audit.worker_cpu_s": 0.0,
        "audit.worker_busy_frac": 0.0,
        "requests.genseries_reuse_share": 0.0,
        **extra,
    }
    for spec in declared("per_layer"):
        name = spec["name"]
        if name in values:
            continue
        for suffix, column in _SUFFIX_COLUMNS.items():
            if name.endswith(suffix):
                values[name] = spans["rows"].get(name[: -len(suffix)], [0, 0.0, 0.0, 0])[column]
                break
        else:
            raise SystemExit(f"no rule gives per-layer metric {name}")
    return values


def declared(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: inputs.Scale = inputs.FULL) -> tuple[dict, dict]:
    """(result object, notes for the reader) of one benchmark run."""
    deadline = time.monotonic() + BUDGET_S
    tally = Tally()
    values, notes = WORKLOADS[workload](seed, seconds, trace, scale, deadline, tally)
    specs = declared("per_layer" if trace else "end_to_end")
    if set(values) != {spec["name"] for spec in specs}:
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in specs},
    }
    notes["failed_frac"] = tally.failed / tally.attempted
    return result, notes


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gouldhopper" / "cli.py").is_file():
        raise SystemExit(f"no gouldhopper sources under {ROOT / 'src'}; run from a checkout")
    result, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"env: python {platform.python_version()}, multiprocessing start method "
          f"{multiprocessing.get_start_method()}, {os.cpu_count()} cpus")
    for name, value in notes.items():
        print(f"{args.workload} {name} = {value}")
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']} {metric['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
