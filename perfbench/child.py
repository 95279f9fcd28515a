"""Run one benchmark job cold, in this fresh interpreter, and print one JSON line.

    python3 perfbench/child.py WORKLOAD JOB SEED TRACE

The parent (`run.py`) starts one of these per job and sets PYTHONPATH to
the checkout's `src`.  Timing starts just after `import nonassoc` and
stops when the job's report is built; the oracle check, the trace
summary and the output line come after it.  With TRACE 0 the job runs
with every traced function in its original state, which is asserted
before and after the job.
"""

import hashlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import jobs  # noqa: E402
import tracer  # noqa: E402

import nonassoc  # noqa: E402,F401
import nonassoc.cli  # noqa: E402,F401

READY = time.monotonic()


def main() -> None:
    workload, name, seed, traced = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
    job = next(j for j in jobs.WORKLOADS[workload] if j.name == name)
    trace = tracer.Tracer() if traced else None
    if trace is None:
        tracer.assert_pristine()
    else:
        trace.install()
    started = time.monotonic()
    try:
        exit_code, text = job.run(seed) if trace is None else trace.run(job.run, seed)
    finally:
        done = time.monotonic()
        if trace is not None:
            trace.uninstall()
    if trace is None:
        tracer.assert_pristine()
    out = {
        "ready": READY,
        "job_s": done - started,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "problems": job.check(exit_code, text, seed),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }
    if trace is not None:
        out["layers"] = trace.summary()
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
