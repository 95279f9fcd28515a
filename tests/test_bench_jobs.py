"""Every benchmark job passes its own oracle.

`perfbench/jobs.py` pins each unseeded CLI report by its sha256 and each
library job by its expected fields.  Running every job here, in process at
seed 0, makes a change to any report's bytes fail the suite rather than only
the benchmark.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import jobs  # noqa: E402

JOBS = [job for workload in jobs.WORKLOADS.values() for job in workload]


@pytest.mark.parametrize("job", JOBS, ids=[job.name for job in JOBS])
def test_bench_job_passes_its_oracle(job):
    code, text = job.run(0)
    assert job.check(code, text, 0) == []
