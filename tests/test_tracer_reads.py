"""The benchmark tracer's per-layer counts must stay live.

`perfbench/tracer.py` wraps library functions by name and reads memo
attributes by name.  If a method becomes a class-level alias of a wrapped
function, or a memo is renamed, its metric silently reads 0; this test
makes either mistake fail the suite.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import jobs  # noqa: E402
import tracer  # noqa: E402

# the tracer patches the modules already imported, so import the CLI first,
# as the benchmark's child process does
import nonassoc.cli  # noqa: E402,F401

LIVE_COUNTS = {
    ("brackets", "brackets-nonlinear-f-5-a1"): [
        "dist.product_mono.calls",
        "dist.ldiv_mono.calls",
        "dist.prod_memo.entries",
        "dist.ldiv_memo.entries",
        "su_ops.p_operation.calls",
        "connection.field_cache.entries",
    ],
    ("brackets", "install-round-trip"): ["dist.psi.s", "maps.compose.calls"],
    ("solve", "moufang-octonion-loop-3"): ["maps.compose.calls", "maps.prolong_cache.entries"],
    ("linearized", "left-division-jordan-5"): [
        "dist.product_mono.calls",
        "dist.ldiv_mono.calls",
        "dist.ldiv_memo.entries",
        "dist.linearized.memo_entries",
    ],
}


def test_traced_jobs_count_every_memo_and_wrapped_call():
    for (workload, name), metrics in LIVE_COUNTS.items():
        job = next(j for j in jobs.WORKLOADS[workload] if j.name == name)
        trace = tracer.Tracer()
        trace.install()
        try:
            code, text = trace.run(job.run, 0)
        finally:
            trace.uninstall()
        assert job.check(code, text, 0) == [], name
        counts = trace.summary()
        for metric in metrics:
            assert counts.get(metric, 0) > 0, (name, metric)
