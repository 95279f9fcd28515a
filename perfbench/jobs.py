"""The benchmark's jobs: what each workload runs and how its output is checked.

A job is one `nonassoc` CLI call (`cli.main(argv)`) or one library call
taken from an acceptance criterion of `tests/test_acceptance.py`.  It
returns its exit code and its report text; `check` compares both with the
job's oracle and returns the list of mismatches, empty when the output is
right.  A mismatch is counted as a failed job, never raised.

Oracles:
- unseeded CLI jobs: the exit code and the sha256 of the JSON report,
  recorded when the benchmark was written, plus the CLI's own two-route
  verdicts (`equal`, `inversion_agrees`, `exp_log_check`);
- seeded CLI jobs (`verify-identity --mode bialgebra`): the exit code,
  `result.holds`, the witness kind where a witness is expected, and
  `config.seed`.  These hold for every seed;
- library jobs: their verdicts, as a JSON object.

Only the sampled bialgebra-mode jobs depend on the seed.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

MOUFANG = "(x1*(x2*(x1*x3)))=(((x1*x2)*x1)*x3)"
RIGHT_DIVISION = "((x2/x1)*x1)=x2"
LEFT_DIVISION = "(x1\\(x1*x2))=x2"
ASSOCIATIVITY = "((x1*x2)*x3)=(x1*(x2*x3))"


@dataclass(frozen=True)
class Job:
    name: str
    criteria: tuple[int, ...]
    run: Callable[[int], tuple[int, str]]  # seed -> (exit code, report text)
    expect_exit: int = 0
    sha256: str | None = None  # of the report text, for unseeded CLI jobs
    fields: dict = field(default_factory=dict)  # dotted report path -> value
    seeded: bool = False  # the report's config.seed must be the run's seed

    def check(self, exit_code: int, text: str, seed: int) -> list[str]:
        """Mismatches between this output and the oracle; empty when right."""
        problems = []
        if exit_code != self.expect_exit:
            problems.append(f"exit code {exit_code}, expected {self.expect_exit}")
        if self.sha256 is not None:
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digest != self.sha256:
                problems.append(f"report sha256 {digest}, expected {self.sha256}")
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return problems + [f"report is not JSON: {exc}"]
        expected = dict(self.fields)
        if self.seeded:
            expected["config.seed"] = seed
        for path, want in expected.items():
            got = report
            for key in path.split("."):
                got = got.get(key) if isinstance(got, dict) else None
            if got != want:
                problems.append(f"{path} = {got!r}, expected {want!r}")
        return problems


def _cli(argv: list[str]) -> tuple[int, str]:
    from nonassoc import cli

    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv + ["--format", "json"])
    return code, out.getvalue()


def cli_job(name, criteria, argv, expect_exit=0, fields=None, seeded=False) -> Job:
    if seeded:
        return Job(name, criteria, lambda seed: _cli(argv + ["--seed", str(seed)]),
                   expect_exit, None, fields or {}, True)
    return Job(name, criteria, lambda seed: _cli(argv), expect_exit, REPORT_SHA256[name],
               fields or {})


def lib_job(name, criteria, fn, expected: dict, seeded=False) -> Job:
    """A library call whose verdicts, a JSON object, must equal `expected`."""
    def run(seed):
        return 0, json.dumps(fn(seed) if seeded else fn(), sort_keys=True)

    return Job(name, criteria, run, fields=expected)


# sha256 of each unseeded CLI job's JSON report, as the CLI printed it when the
# benchmark was written; a later change that alters a report fails its job
REPORT_SHA256 = {
    "moufang-octonion-loop-3": "9ab4f622efece0a3789ba0580d968f4c8e34c3b3eae2a2fcfdea0b7b231194e9",
    "raltify-jordan-5": "f6d4fcdbcb89aa7768e4b57dd6a107c0c119c842b9c8cd970994bd359dfcfee0",
    "raltify-xsqy-6": "7694f2e560749059233f9bdbf7c47a759107964e3bc401142a8824648c05348e",
    "explog-8": "a267e4c0b46e2c29c6c994d0745a497f79b36b4fd989aa66a26190b4ed2231fe",
    "multioperator-6-2-4": "3e8efb71e0d012d6cc4c3144c1c9b20bdf7db4af352179cf370205ad91b72ae1",
    "bernoulli-9": "d85bac59bfe77bbe9e46f890362feb6a8d8dabeb44d3b24bdc8e631655808e30",
    "brackets-split-octonion-4-a0": "4230b873fecb7251e10a52d282734c41df0f83183ea8aab6d39875ecd4073d6e",
    "brackets-split-octonion-4-a1": "f81dfc71ff9af8dbd8633b5570aba99cdcdd61af8e4a7d6aa0f21986dfa6fd1b",
    "brackets-jordan-k3-5-a0": "7f80480d60441dba5cfd601a0bdac92a86ff0b066680330e8327968903274d59",
    "brackets-jordan-k3-5-a1": "e377e5bf75951d99420c3bad7e6bac7e91d53c4aeacfd77c6b1732e5ca2985c9",
    "brackets-jordan-k3-5-a2": "25a850da73f9d1db905b15638a28840ec2c4afb2defddf802b03607430b8d6e7",
    "brackets-jordan-k3-5-a3": "9b2c6de6dbd861549f6ebd46a56785e8044bd691300b753a099be3a3b9442cf5",
    "brackets-jordan-spin-6-a2": "69a38e69f182205645a835195e24117571eb1eb2dfa8911bcded5b0b818b6361",
    "brackets-jordan-spin-6-a3": "ef5485f39ca54ba13ddf06a7838c9501fe908888b7d2bc7eba02cc0c593c399c",
    "brackets-nonlinear-f-5-a0": "0ba3f1028f0d89773c877598b52eec8d063638c0aa2057ab3f6d19308718e9ba",
    "brackets-nonlinear-f-5-a1": "260278e49fd0c46db6b7b2e148cedacff537725bfa968412e50ed63555badf75",
    "brackets-nonlinear-f-5-a2": "12e1cc48ecf6c860493086eca5fed806b60a2d5d14ec497af49925373b060a6f",
    "brackets-nonlinear-f-5-a3": "1334053814da0e8c6055b8c51972ee42ee3bc5af89ad12f9a0e57a522f790a2e",
}


# -- library jobs ----------------------------------------------------------------------


def quotient_homomorphism() -> dict:
    from nonassoc.catalog import (
        builtin_algebra, check_homomorphism, loop_from_algebra, nonlinear_loop_F, phi_G_to_F,
    )

    source = loop_from_algebra(builtin_algebra("jordan-k3"), 6)
    verdict = check_homomorphism(phi_G_to_F(6), source, nonlinear_loop_F(6))
    return {"holds": verdict.holds}


def raltify_similarity() -> dict:
    from nonassoc.catalog import builtin_loop
    from nonassoc.maps import right_alt_modify, similarity_between

    loop = builtin_loop("jordan-k3-loop", 4)
    modified = right_alt_modify(loop).modified
    return {"changed": modified != loop, "similar": similarity_between(modified, loop).similar}


def install_round_trip() -> dict:
    from nonassoc.catalog import builtin_loop
    from nonassoc.dist import (
        DistBialgebra, make_similar_product, su_bracket_table, su_multioperator_tables,
    )
    from nonassoc.symalg import monomials_up_to

    bialgebra = DistBialgebra.from_loop(builtin_loop("jordan-k3-loop", 4))
    rebuilt = make_similar_product(bialgebra, su_multioperator_tables(bialgebra))
    pairs = [(m1, m2) for m1 in monomials_up_to(3, 4) for m2 in monomials_up_to(3, 4)
             if sum(m1) + sum(m2) <= 4]
    reproduces = all(rebuilt.product_mono(*p) == bialgebra.product_mono(*p) for p in pairs)
    zero = make_similar_product(bialgebra, {})
    keeps = all(su_bracket_table(zero, a) == su_bracket_table(bialgebra, a) for a in range(3))
    return {
        "reproduces_products": reproduces,
        "zero_tables_empty": su_multioperator_tables(zero) == {},
        "zero_keeps_brackets": keeps,
    }


def pbw_jordan() -> dict:
    from nonassoc.catalog import builtin_loop
    from nonassoc.dist import DistBialgebra, pbw_span_check

    verdict = pbw_span_check(DistBialgebra.from_loop(builtin_loop("jordan-k3-loop", 5)), 5)
    return {"holds": verdict.holds}


def tanh_law_associative(seed: int) -> dict:
    """F = (x+y)/(1+xy) is associative, so every linearized check must hold."""
    from fractions import Fraction

    from nonassoc.dist import DistBialgebra, check_linearized_identity
    from nonassoc.maps import FormalLoop, FormalMap
    from nonassoc.words import parse_identity

    N = 4
    series = {}  # (x + y) * sum_k (-xy)^k
    for k in range(N):
        series[((k + 1,), (k,))] = (Fraction((-1) ** k),)
        series[((k,), (k + 1,))] = (Fraction((-1) ** k),)
    loop = FormalLoop.from_map(FormalMap.from_series((1, 1), 1, N, series))
    verdict = check_linearized_identity(
        parse_identity(ASSOCIATIVITY, 3), DistBialgebra.from_loop(loop), samples=25, seed=seed
    )
    return {"holds": verdict.holds}


# -- workloads ---------------------------------------------------------------------------

OCTONION = "builtin:split-octonion-loop"
JORDAN = "builtin:jordan-k3-loop"


def bialgebra_job(name, criteria, loop, identity, degree, samples, holds=True) -> Job:
    """`verify-identity --mode bialgebra`, seeded; a failure must come from the sweep."""
    fields = {"result.holds": holds}
    if not holds:
        fields["result.witness.kind"] = "monomials"
    return cli_job(name, criteria,
                   ["verify-identity", "--loop", loop, "--identity", identity, "--degree",
                    str(degree), "--mode", "bialgebra", "--samples", str(samples)],
                   expect_exit=0 if holds else 1, fields=fields, seeded=True)


def brackets_job(loop: str, degree: int, arity: int) -> Job:
    """`brackets --method both`: every entry is computed by both routes, su == ms."""
    name = f"brackets-{loop.split(':')[1].removesuffix('-loop')}-{degree}-a{arity}"
    return cli_job(name, (3,), ["brackets", "--loop", loop, "--degree", str(degree),
                                "--arity", str(arity), "--method", "both"],
                   fields={"result.equal": True})


WORKLOADS: dict[str, list[Job]] = {
    "solve": [
        cli_job("moufang-octonion-loop-3", (5,),
                ["verify-identity", "--loop", OCTONION, "--identity", MOUFANG, "--degree", "3"],
                fields={"result.holds": True}),
        cli_job("raltify-jordan-5", (6,), ["raltify", "--loop", JORDAN, "--degree", "5"]),
        cli_job("raltify-xsqy-6", (6,),
                ["raltify", "--loop", "builtin:x-squared-y-loop", "--degree", "6"]),
        cli_job("explog-8", (1, 2), ["explog", "--degree", "8", "--check"],
                fields={"result.exp_log_check": True, "result.inversion_agrees": True}),
        cli_job("multioperator-6-2-4", (7,),
                ["multioperator", "--degree", "6", "--bidegree", "2", "4", "--method", "both"],
                fields={"result.equal": False}),
        cli_job("bernoulli-9", (1,), ["bernoulli", "--max-degree", "9"],
                fields={"result.all_pass": True}),
        lib_job("quotient-homomorphism", (9,), quotient_homomorphism, {"holds": True}),
        lib_job("raltify-similarity", (8,), raltify_similarity,
                {"changed": True, "similar": True}),
    ],
    "brackets": [
        *[brackets_job(OCTONION, 4, a) for a in (0, 1)],
        *[brackets_job(JORDAN, 5, a) for a in range(4)],
        *[brackets_job("builtin:jordan-spin-loop", 6, a) for a in (2, 3)],
        *[brackets_job("builtin:nonlinear-f-loop", 5, a) for a in range(4)],
        lib_job("install-round-trip", (8,), install_round_trip,
                {"reproduces_products": True, "zero_tables_empty": True,
                 "zero_keeps_brackets": True}),
        lib_job("pbw-jordan-5", (10,), pbw_jordan, {"holds": True}),
    ],
    "linearized": [
        bialgebra_job("moufang-octonion-bialgebra-3", (5,), OCTONION, MOUFANG, 3, 3),
        bialgebra_job("right-division-octonion-4", (10,), OCTONION, RIGHT_DIVISION, 4, 25),
        bialgebra_job("left-division-octonion-3", (10,), OCTONION, LEFT_DIVISION, 3, 25),
        bialgebra_job("right-division-jordan-5", (10,), JORDAN, RIGHT_DIVISION, 5, 25),
        bialgebra_job("left-division-jordan-5", (10,), JORDAN, LEFT_DIVISION, 5, 25),
        bialgebra_job("associativity-jordan-4", (10,), JORDAN, ASSOCIATIVITY, 4, 25,
                      holds=False),
    ],
    "known-defects": [
        lib_job("tanh-law-associativity", (10,), tanh_law_associative, {"holds": True},
                seeded=True),
    ],
}
