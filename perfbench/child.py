"""The measured process: one fresh interpreter running the package.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  It
imports ``gouldhopper.cli`` first, so the time from interpreter start to
READY is the set-up a CLI user pays, then reads one job as JSON on stdin:

  {"job": "probe"}                         report READY and exit
  {"job": "audit", "argv": [...]}          one audit through cli.main
  {"job": "requests", "seed": s, "count": k}
                                           closed loop over the first k
                                           requests of the seeded stream

With "trace": true the package's layers are traced (tracer.py).  The first
stdout line is a JSON object of measurements; an audit job follows it with
the audit document exactly as cli.main printed it.  Outputs are checked
after each timed call, outside the timed region.
"""

import sys
import time

from gouldhopper import cli

READY = time.monotonic()

import contextlib  # noqa: E402  (imports after READY are not set-up)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import gates  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from gouldhopper.ghcore import explicit_poly  # noqa: E402
from gouldhopper.identity import CHECKS, GridRanges, IdentityTag, cells_for  # noqa: E402

# audit flags that set a GridRanges field; the rest keep GridRanges defaults,
# which are the CLI defaults
GRID_FLAGS = {"--nmax": "n_max", "--mmax": "m_max", "--aux-max": "aux_max", "--jk-max": "jk_max"}


def timed_main(argv: list[str], sampler: speed.Sampler):
    """(seconds, exit code, stdout text, sample range) of one cli.main call.

    The seconds leave out the sampler's own time; the sample range is the
    first and last index of the speed samples taken while the call ran.
    """
    out = io.StringIO()
    first, spent = len(sampler.samples), sampler.spent
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except Exception:  # an internal error is a failed operation, not a crash
        traceback.print_exc()
        rc = "exception"
    elapsed = time.perf_counter() - start - (sampler.spent - spent)
    return elapsed, rc, out.getvalue(), (first, len(sampler.samples) - 1)


def checked(gate, *args) -> list[str]:
    try:
        return gate(*args)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]


def span_table(spans) -> dict:
    return {
        "rows": spans.rows,
        "term_pairs": spans.term_pairs,
        "peak_terms": spans.peak_terms,
        "corrected_runs": spans.corrected_runs,
    }


def explicit_poly_cache() -> dict:
    info = explicit_poly.cache_info()
    return {"hits": info.hits, "misses": info.misses}


def rss_and_workers() -> dict:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "maxrss_kb": own.ru_maxrss,
        "worker_maxrss_kb": workers.ru_maxrss,
        "worker_cpu_s": workers.ru_utime + workers.ru_stime,
    }


def audit_grid_facts(argv: list[str]) -> dict:
    """Cells of the audited grid and the NIELSEN_FULL repeat share."""
    ranges = GridRanges(**{
        GRID_FLAGS[flag]: int(value)
        for flag, value in zip(argv[1::2], argv[2::2])
        if flag in GRID_FLAGS
    })
    cells = sum(len(cells_for(tag, ranges)) for tag in CHECKS)
    nielsen = cells_for(IdentityTag.NIELSEN_FULL, ranges)
    distinct = {(c["p"], c["q"], c["n"] + c["np"], c["m"] + c["mp"]) for c in nielsen}
    return {
        "cells": cells,
        "nielsen_repeat_share": 1 - len(distinct) / len(nielsen) if nielsen else 0.0,
    }


def audit_job(job: dict, spans, sampler: speed.Sampler) -> str:
    seconds, rc, text, samples = timed_main(job["argv"], sampler)
    meta = {"ready": READY, "setup_factor": sampler.factor(0, 0),
            "wall_s": seconds, "speed_factor": sampler.factor(*samples),
            "rc": rc, **rss_and_workers(),
            "explicit_poly": explicit_poly_cache(), **audit_grid_facts(job["argv"])}
    if spans is not None:
        meta["spans"] = span_table(spans)
    return json.dumps(meta) + "\n" + text


def requests_job(job: dict, spans, sampler: speed.Sampler, scale) -> str:
    stream = inputs.requests(job["seed"], scale)
    done, latencies = [], []
    for _ in range(job["count"]):
        request = next(stream)
        elapsed, rc, text, samples = timed_main(request.argv, sampler)
        if request.kind == "compute":
            found = checked(gates.compute_problems, text, rc, *request.nm)
        else:
            found = checked(gates.heat_problems, text, rc, request.datum)
        done.append(request)
        # [kind, seconds, problems, speed factor]; problems is "" when correct
        latencies.append([request.kind, elapsed, "; ".join(found), samples])
    # a request is shorter than the sampling period: use the samples around it
    for entry in latencies:
        entry[3] = sampler.factor(*entry[3])
    meta = {"ready": READY, "setup_factor": sampler.factor(0, 0), "latencies": latencies,
            "genseries_reuse_share": inputs.genseries_reuse_share(done),
            "explicit_poly": explicit_poly_cache(), **rss_and_workers()}
    if spans is not None:
        meta["spans"] = span_table(spans)
    return json.dumps(meta) + "\n"


def main() -> None:
    job = json.loads(sys.stdin.read())
    if job["job"] == "probe":
        factor = speed.REFERENCE_S / statistics.median(speed.calibrate() for _ in range(5))
        sys.stdout.write(json.dumps({"ready": READY, "setup_factor": factor}) + "\n")
        return
    spans = tracer.install() if job.get("trace") else None
    with speed.Sampler() as sampler:
        if job["job"] == "audit":
            out = audit_job(job, spans, sampler)
        else:
            out = requests_job(job, spans, sampler, inputs.TINY if job.get("tiny") else inputs.FULL)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
