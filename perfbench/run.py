"""Cold-job benchmark of `nonassoc`: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload solve|brackets|linearized \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A pass runs every job of the workload
once, each cold in its own fresh interpreter and one at a time, with the
reference probe run in this process before each job.  Passes repeat until
the next one would end more than half a pass after `--seconds`; at least
one always runs.

With `--trace 0` the end-to-end metrics are the medians over the passes
of each pass's:
- wall_s: the sum of the job times, each timed inside its child from just
  after `import nonassoc` until its report is built (printed, not in the
  JSON line);
- wall_norm: wall_s over the mean time of the reference probe in the run;
- setup_s: interpreter start plus `import nonassoc`, summed over the jobs;
- peak_rss_mb: the largest `ru_maxrss` of any job process.
With `--trace 1` untraced and traced passes alternate, and the per-layer
metrics are the medians over the traced passes (see `tracer.py`).

Every job's output is checked against its oracle (`jobs.py`); a wrong
output, an exception or a timeout counts as a failed job and the run goes
on.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The seed reaches only the
sampled `verify-identity --mode bialgebra` jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import tracer  # noqa: E402

JOB_TIMEOUT_S = 60
RUN_LIMIT_S = 150  # jobs not started by then count as failed, so a run ends within 180 s
# On the 2-vCPU VM described in README.md, each vCPU flips between two
# speeds about once a second, independently of the other, and drifts over
# minutes.  So the benchmark and its jobs share one CPU, and wall_norm
# divides by the mean of many short probes spread through the run: their
# median would jump between the two speeds, the mean tracks the share of
# time spent at each, as the jobs' time does.
PROBES_PER_PASS = 16

# The JSON line carries these.  Raw wall_s drifts by up to a fifth between
# runs on that VM, so it is printed in the table but carries no bound.
END_TO_END = {"wall_norm": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def probe() -> float:
    """Seconds taken by a fixed amount of pure-Python Fraction and dict work.

    The dict grows to thousands of tuple keys, as the library's memos do,
    so the probe feels the same cache pressure as the jobs.
    """
    start = time.perf_counter()
    acc: dict[tuple[int, int, int], Fraction] = {}
    for i in range(1, 8001):
        half = (i // 2, i // 2 % 7, i // 2 % 11)
        acc[(i, i % 7, i % 11)] = acc.get(half, Fraction(0)) + Fraction(i % 13 + 1, i % 17 + 1)
    if sum(acc.values(), Fraction(0)) <= 0:
        raise AssertionError("reference probe computed a wrong sum")
    return time.perf_counter() - start


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "NONASSOC_"))}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"  # the same set and dict orders, so the same work, every run
    return env


def run_job(workload: str, job: jobs.Job, seed: int, traced: bool, timeout: float) -> dict:
    """One job in a fresh interpreter; `ok` is False on any failure."""
    if timeout <= 0:
        return {"ok": False, "problems": [f"not started: the run passed {RUN_LIMIT_S}s"]}
    argv = [sys.executable, os.path.join(HERE, "child.py"), workload, job.name, str(seed),
            "1" if traced else "0"]
    spawned = time.monotonic()
    with subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"ok": False, "problems": [f"timed out after {timeout:.0f}s"]}
        except BaseException:  # interrupted or terminated: leave no job behind
            proc.kill()
            proc.wait()
            raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or [f"exit status {proc.returncode}"]
        return {"ok": False, "problems": tail}
    out = json.loads(lines[-1])
    out["setup_s"] = out.pop("ready") - spawned
    out["ok"] = not out["problems"]
    return out


def run_pass(workload: str, seed: int, traced: bool, deadline: float, log) -> dict:
    records, probes = [], []
    workload_jobs = jobs.WORKLOADS[workload]
    for job in workload_jobs:
        probes += [probe() for _ in range(-(-PROBES_PER_PASS // len(workload_jobs)))]
        timeout = min(JOB_TIMEOUT_S, deadline - time.monotonic())
        record = run_job(workload, job, seed, traced, timeout)
        if not record["ok"]:
            log(f"FAILED {workload}/{job.name}: {'; '.join(record['problems'])}")
        records.append(record)
    done = [r for r in records if "job_s" in r]
    wall = sum(r["job_s"] for r in done)
    result = {
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "wall_s": wall,
        "probes": probes,
        "setup_s": sum(r["setup_s"] for r in done),
        "peak_rss_mb": max((r["rss_kb"] for r in done), default=0) / 1024,
    }
    if traced:
        totals: dict[str, float] = {}
        for r in done:
            for key, value in r["layers"].items():
                totals[key] = totals.get(key, 0.0) + value
        result["layers"] = tracer.derive(totals)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def warm_up() -> None:
    """Compile the package's bytecode once, so no job's set-up pays for it."""
    subprocess.run([sys.executable, "-c", "import nonassoc, nonassoc.cli"], cwd=ROOT,
                   env=child_env(), check=True, timeout=JOB_TIMEOUT_S)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nonassoc", "__init__.py")):
        print(f"error: no nonassoc package under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so run_job can stop its job
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # inherited by every job
    warm_up()
    started = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        round_start = time.monotonic()
        deadline = started + RUN_LIMIT_S
        plain.append(run_pass(args.workload, args.seed, False, deadline, log))
        if args.trace:
            traced.append(run_pass(args.workload, args.seed, True, deadline, log))
        now = time.monotonic()
        if now - started > args.seconds - (now - round_start) / 2:
            break  # the next round would end more than half a round late

    passes = plain + traced
    probe_s = statistics.fmean(t for p in passes for t in p["probes"])
    for p in plain:
        p["wall_norm"] = p["wall_s"] / probe_s
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced passes"
          + (f", {len(traced)} traced passes" if traced else "")
          + f", {len(jobs.WORKLOADS[args.workload])} jobs per pass")
    print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12}  unit")
    for name, unit in {"wall_s": "s", **END_TO_END}.items():
        q1, med, q3 = quartiles([p[name] for p in plain])
        print(f"{name:<36} {med:>12.4f} {q1:>12.4f} {q3:>12.4f}  {unit}")
    print(f"{'failed_frac':<36} {failed / attempted:>12.4f} {'':>12} {'':>12}  ratio"
          f"  ({failed} of {attempted} jobs)")

    if args.trace:
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in tracer.METRICS}
        untraced_wall = statistics.median(p["wall_s"] for p in plain)
        layers["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced) / untraced_wall - 1)
        for name, unit in tracer.METRICS.items():
            print(f"{name:<36} {layers[name]:>12.6g} {'':>12} {'':>12}  {unit}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracer.METRICS.items()}
    else:
        metrics = {name: {"value": statistics.median(p[name] for p in plain), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
