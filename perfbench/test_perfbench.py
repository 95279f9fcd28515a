"""Tests of the benchmark itself: oracles, failure counting and the tracer.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def job_named(workload: str, name: str) -> jobs.Job:
    return next(j for j in jobs.WORKLOADS[workload] if j.name == name)


def test_every_unseeded_cli_job_has_a_recorded_report_hash():
    for workload in jobs.WORKLOADS.values():
        for job in workload:
            if job.name in jobs.REPORT_SHA256:
                assert job.sha256 == jobs.REPORT_SHA256[job.name]


def test_corrupted_report_fails_its_oracle():
    job = job_named("solve", "bernoulli-9")
    code, text = job.run(0)
    assert job.check(code, text, 0) == []
    report = json.loads(text)
    report["result"]["rows"][0]["sum"] = "2"
    corrupted = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert any("sha256" in p for p in job.check(code, corrupted, 0))
    assert job.check(1, text, 0) == ["exit code 1, expected 0"]
    assert job.check(code, "not json", 0)


def test_two_route_verdict_and_seed_are_checked():
    brackets = job_named("brackets", "brackets-nonlinear-f-5-a0")
    code, text = brackets.run(0)
    assert brackets.check(code, text, 0) == []
    assert "result.equal = False, expected True" in brackets.check(
        code, text.replace('"equal": true', '"equal": false'), 0)
    seeded = job_named("linearized", "associativity-jordan-4")
    code, text = seeded.run(5)
    assert seeded.check(code, text, 5) == []
    assert seeded.check(code, text, 6) == ["config.seed = 5, expected 6"]


def test_failed_job_is_counted_and_the_pass_goes_on(monkeypatch):
    workload = jobs.WORKLOADS["linearized"]

    def fake_run_job(workload_name, job, seed, traced, timeout):
        ok = job is not workload[0]
        return {"ok": ok, "problems": [] if ok else ["report sha256 x, expected y"],
                "job_s": 1.0, "setup_s": 0.1, "rss_kb": 1024}

    monkeypatch.setattr(run, "run_job", fake_run_job)
    monkeypatch.setattr(run, "probe", lambda: 0.5)
    result = run.run_pass("linearized", 0, False, float("inf"), lambda line: None)
    assert result["attempted"] == len(workload)
    assert result["failed"] == 1
    assert result["wall_s"] == len(workload)
    assert len(result["probes"]) >= run.PROBES_PER_PASS


def test_targets_are_defined_in_their_layer():
    for layer, qualname, owner, attr in tracer._targets():
        raw = tracer._raw(owner, attr)
        func = getattr(raw, "__func__", raw)
        assert func.__module__ == f"nonassoc.{layer}", qualname


def test_tracer_restores_every_attribute_it_patched():
    modules = tracer._nonassoc_modules()
    before = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    classes = {v for m in modules for v in vars(m).values() if isinstance(v, type)}
    class_before = {(id(c), k): v for c in classes for k, v in vars(c).items()}

    trace = tracer.Tracer()
    trace.install()
    try:
        with pytest.raises(AssertionError):
            tracer.assert_pristine()
        assert trace._patched
        code, text = trace.run(job_named("brackets", "brackets-nonlinear-f-5-a1").run, 0)
    finally:
        trace.uninstall()

    tracer.assert_pristine()
    assert {(id(m), k): v for m in modules for k, v in vars(m).items()} == before
    assert {(id(c), k): v for c in classes for k, v in vars(c).items()} == class_before
    assert code == 0
    layers = trace.summary()
    assert layers["connection.ms_brackets.s"] > 0
    assert layers["dist.su_bracket_table.s"] > 0
    assert layers["catalog.loops_built"] == 1
    job_span = trace.spans[-1]
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert 0 < self_total <= job_span[3] - job_span[2]
