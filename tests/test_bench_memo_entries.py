"""The linearized evaluator's memo size on the benchmark's `linearized` jobs.

The evaluator stores the values of the subwords below a word's root and
never a root's value; a root comes back at every swept tuple and is
compared once.  These counts, at seed 0 (12,838 in all), pin that: storing
the roots again, or any other value no later step reads, raises them.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import jobs  # noqa: E402

ENTRIES = {
    "moufang-octonion-bialgebra-3": 5832,
    "right-division-octonion-4": 4845,
    "left-division-octonion-3": 969,
    "right-division-jordan-5": 462,
    "left-division-jordan-5": 462,
    "associativity-jordan-4": 268,
}


@pytest.mark.parametrize("job", jobs.WORKLOADS["linearized"], ids=lambda job: job.name)
def test_linearized_job_fills_the_pinned_evaluator_entries(evaluators, job):
    code, text = job.run(0)
    assert job.check(code, text, 0) == []
    assert [len(ev._memo) for ev in evaluators] == [ENTRIES[job.name]]
