import json

import pytest

from nonassoc import dist, maps
from nonassoc.catalog import builtin_algebra, nonlinear_loop_F, x_squared_y_loop
from nonassoc.cli import EXIT_FAIL, EXIT_INVARIANT, EXIT_PASS, EXIT_USAGE, build_parser, main

ASSOC = "((x1 * x2) * x3) = (x1 * (x2 * x3))"
MOUFANG = "(x1*(x2*(x1*x3)))=(((x1*x2)*x1)*x3)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_identity_pass(capsys):
    code, out, _ = run(
        capsys,
        "verify-identity",
        "--loop", "builtin:dual-numbers-loop",
        "--identity", ASSOC,
        "--degree", "4",
    )
    assert code == EXIT_PASS
    assert "holds to degree 4: yes" in out


def test_verify_identity_fail_with_witness(capsys):
    code, out, _ = run(
        capsys,
        "verify-identity",
        "--loop", "builtin:jordan-k3-loop",
        "--identity", MOUFANG,
        "--degree", "4",
        "--format", "json",
    )
    assert code == EXIT_FAIL
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["result"]["holds"] is False
    witness = report["result"]["witness"]
    assert {"multidegree", "monomials", "difference", "series_difference"} <= set(witness)


def test_verify_identity_bialgebra_mode(capsys):
    code, out, _ = run(
        capsys,
        "verify-identity",
        "--loop", "builtin:dual-numbers-loop",
        "--identity", ASSOC,
        "--mode", "bialgebra",
        "--degree", "4",
        "--samples", "5",
        "--seed", "11",
        "--format", "json",
    )
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report["result"]["seed"] == 11


def test_verify_identity_syntax_error(capsys):
    code, _, err = run(
        capsys,
        "verify-identity",
        "--loop", "builtin:jordan-k3-loop",
        "--identity", "(x1 * )",
    )
    assert code == EXIT_USAGE
    assert "offset 6" in err


def test_unknown_loop_is_usage_error(capsys):
    code, _, err = run(
        capsys, "verify-identity", "--loop", "builtin:missing", "--identity", ASSOC
    )
    assert code == EXIT_USAGE
    assert "unknown builtin loop" in err


def test_memory_cap_exceeded_is_usage_error(capsys):
    code, _, err = run(
        capsys,
        "verify-identity",
        "--loop", "builtin:split-octonion-loop",
        "--identity", ASSOC,
        "--degree", "5",
    )
    assert code == EXIT_USAGE
    assert "cap" in err


@pytest.mark.parametrize(
    "flag, env, named",
    [
        (["--memory-cap", "-5"], None, "--memory-cap"),
        ([], "abc", "NONASSOC_MEMORY_CAP"),
        ([], "-3", "NONASSOC_MEMORY_CAP"),
    ],
    ids=["negative-flag", "env-not-an-int", "env-negative"],
)
def test_a_memory_cap_that_is_not_a_count_is_refused_by_its_source(capsys, monkeypatch, flag, env, named):
    if env is not None:
        monkeypatch.setenv(maps.MEMORY_CAP_ENV, env)
    code, out, err = run(capsys, "brackets", "--loop", "builtin:jordan-k3-loop", *flag)
    assert code == EXIT_USAGE
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and named in errors[0] and "over the cap" not in errors[0], err


def test_brackets_both_methods(capsys):
    code, out, _ = run(
        capsys,
        "brackets",
        "--loop", "builtin:jordan-k3-loop",
        "--arity", "1",
        "--degree", "4",
        "--format", "json",
    )
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report["result"]["arity"] == 3
    assert report["result"]["equal"] is True
    assert len(report["result"]["entries"]) == 27


def test_brackets_arity_overflow(capsys):
    code, _, err = run(
        capsys, "brackets", "--loop", "builtin:jordan-k3-loop", "--arity", "5",
        "--degree", "4",
    )
    assert code == EXIT_USAGE


def test_brackets_su_only_on_associative_loop(capsys):
    code, out, _ = run(
        capsys,
        "brackets",
        "--loop", "builtin:dual-numbers-loop",
        "--arity", "1",
        "--method", "su",
        "--degree", "4",
        "--format", "json",
    )
    assert code == EXIT_PASS
    report = json.loads(out)
    assert all(set(e["value"]) == {"0"} for e in report["result"]["entries"])


def test_invariant_failure_has_its_own_exit_code(capsys, monkeypatch):
    # a bracket whose value is the product y z, which has a degree-2 term and is not primitive
    monkeypatch.setattr(dist.su_ops, "bracket", lambda alg, xs, y, z: alg.mul(y, z))
    code, out, err = run(
        capsys,
        "brackets",
        "--loop", "builtin:dual-numbers-loop",
        "--method", "su",
        "--degree", "2",
    )
    assert code == EXIT_INVARIANT
    assert out == ""
    assert "bracket value is not primitive" in err


def test_bernoulli_rows(capsys):
    code, out, _ = run(capsys, "bernoulli", "--max-degree", "6", "--format", "json")
    assert code == EXIT_PASS
    report = json.loads(out)
    rows = report["result"]["rows"]
    assert len(rows) == 6
    assert all(row["pass"] for row in rows)
    assert rows[5]["sum"] == "-1/6"


def test_explog_coefficients_and_check(capsys):
    code, out, _ = run(capsys, "explog", "--degree", "3", "--format", "json")
    assert code == EXIT_PASS
    report = json.loads(out)
    coeffs = {item["tree"]: item["coeff"] for item in report["result"]["coefficients"]}
    assert coeffs["(xx)"] == "-1/2"
    assert coeffs["((xx)x)"] == "1/12"
    assert coeffs["(x(xx))"] == "1/4"
    code, out, _ = run(capsys, "explog", "--degree", "8", "--check")
    assert code == EXIT_PASS
    assert "exp(log(1+x)) = 1+x: OK" in out


def test_raltify_reports_q2(capsys, tmp_path):
    spec = {"type": "components", **x_squared_y_loop(5).to_json()}
    path = tmp_path / "xsqy.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(
        capsys, "raltify", "--loop", f"file:{path}", "--degree", "5", "--format", "json"
    )
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report["result"]["changed"] is True
    modified = report["result"]["modified_loop"]
    entries = {
        tuple(comp["multidegree"]): comp["entries"] for comp in modified["components"]
    }
    # q2 = x y^2 + x^3 y^2 in the series view means 2 and 12 in the tables
    assert entries[(1, 2)][0]["value"] == ["2"]
    assert entries[(3, 2)][0]["value"] == ["12"]


def test_multioperator_report(capsys):
    code, out, _ = run(
        capsys, "multioperator", "--degree", "4", "--bidegree", "1", "3",
        "--method", "both", "--format", "json",
    )
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report["result"]["equal"] is False  # geodesic and symmetrized differ
    code, out, _ = run(
        capsys, "multioperator", "--degree", "4", "--bidegree", "1", "2",
        "--method", "su",
    )
    assert code == EXIT_PASS
    assert "1/2" in out


def test_multioperator_bidegree_overflow(capsys):
    code, _, err = run(
        capsys, "multioperator", "--degree", "3", "--bidegree", "2", "3"
    )
    assert code == EXIT_USAGE


def test_reports_are_deterministic(capsys):
    argv = [
        "brackets", "--loop", "builtin:jordan-k3-loop", "--arity", "0",
        "--degree", "4", "--format", "json",
    ]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_config_file_provides_defaults(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"degree": 5, "format": "json"}))
    code, out, _ = run(
        capsys, "bernoulli", "--config", str(config), "--max-degree", "4"
    )
    assert code == EXIT_PASS
    report = json.loads(out)  # format came from the config file
    assert len(report["result"]["rows"]) == 4


def run_exit(capsys, *argv):
    """`run`, reading argparse's own exit (status 2 on a bad flag value) as the return code."""
    try:
        return run(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["bernoulli", "--degree", "9"],
        ["bernoulli", "--memory-cap", "5"],
        ["explog", "--degree", "3", "--memory-cap", "5"],
        ["multioperator", "--degree", "4", "--bidegree", "1", "3", "--memory-cap", "5"],
    ],
    ids=["bernoulli-degree", "bernoulli-memory-cap", "explog-memory-cap", "multioperator-memory-cap"],
)
def test_an_option_the_subcommand_does_not_read_is_refused(capsys, argv):
    code, out, err = run_exit(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert sum("error:" in line for line in err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["bernoulli", "--max-degree", "3"], ["explog", "--degree", "3"]])
def test_a_config_file_serves_subcommands_without_its_options(capsys, tmp_path, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"degree": 3, "memory_cap": 5, "format": "json"}))
    code, out, _ = run(capsys, argv[0], "--config", str(path), *argv[1:])
    assert code == EXIT_PASS
    assert run(capsys, *argv, "--format", "json") == (code, out, "")


OPTIONS = {
    "verify-identity": {"--format", "--config", "--degree", "--memory-cap", "--loop", "--identity", "--mode",
                        "--nvars", "--seed", "--samples"},
    "brackets": {"--format", "--config", "--degree", "--memory-cap", "--loop", "--arity", "--method"},
    "bernoulli": {"--format", "--config", "--max-degree"},
    "explog": {"--format", "--config", "--degree", "--check"},
    "raltify": {"--format", "--config", "--degree", "--memory-cap", "--loop"},
    "multioperator": {"--format", "--config", "--degree", "--bidegree", "--method"},
}


def test_each_subcommand_declares_the_options_it_reads():
    declared = {
        name: {flag for action in sub._actions if action.dest != "help" for flag in action.option_strings}
        for name, sub in build_parser().subcommands.items()
    }
    assert declared == OPTIONS


CONFIGURED = {
    "brackets": ["--loop", "builtin:dual-numbers-loop", "--degree", "3"],
    "verify-identity": ["--loop", "builtin:dual-numbers-loop", "--identity", ASSOC, "--degree", "3"],
    "explog": ["--degree", "3"],
}


@pytest.mark.parametrize(
    "command, config",
    [
        ("brackets", {"arity": None}),
        ("brackets", {"degree": 4.5}),
        ("brackets", {"method": "bogus"}),
        ("verify-identity", {"mode": "bogus"}),
        ("brackets", {"degre": 9}),
        ("explog", {"check": "yes"}),
    ],
    ids=["arity-null", "degree-float", "method-bogus", "mode-bogus", "unknown-key", "switch-not-bool"],
)
def test_config_values_are_checked_like_flags(capsys, tmp_path, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_exit(capsys, command, "--config", str(path), *CONFIGURED[command])
    assert code == EXIT_USAGE
    assert out == ""
    assert sum("error:" in line for line in err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-identity", "--loop", "builtin:jordan-k3-loop", "--identity", MOUFANG, "--degree", "3",
         "--mode", "bialgebra", "--samples", "2", "--seed", "7"],
        ["multioperator", "--bidegree", "1", "2", "--method", "both", "--degree", "3"],
        ["explog", "--degree", "3", "--check"],
        ["explog", "--degree", "3"],
    ],
)
def test_a_report_replays_from_its_own_config(capsys, tmp_path, argv):
    first = run(capsys, *argv, "--format", "json")
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(json.loads(first[1])["config"]))
    assert run(capsys, argv[0], "--config", str(path)) == first
    # a flag on the command line beats the file
    _, out, _ = run(capsys, argv[0], "--config", str(path), "--degree", "4")
    assert json.loads(out)["config"]["degree"] == 4


def test_an_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(identity, loop):
        raise KeyError("lost")

    monkeypatch.setattr(maps, "check_loop_identity", broken)
    code, out, err = run(capsys, "verify-identity", *CONFIGURED["verify-identity"])
    assert code == EXIT_INVARIANT
    assert out == ""
    assert err == "error: internal error: KeyError: 'lost'\n"


def test_json_reports_carry_config(capsys):
    code, out, _ = run(
        capsys,
        "verify-identity",
        "--loop", "builtin:dual-numbers-loop",
        "--identity", ASSOC,
        "--degree", "3",
        "--format", "json",
    )
    report = json.loads(out)
    assert report["config"]["degree"] == 3
    assert report["config"]["loop"] == "builtin:dual-numbers-loop"
    assert "memory_cap" in report["config"]


def test_malformed_loop_file_is_usage_error(capsys, tmp_path):
    data = x_squared_y_loop(3).to_json()
    assert data["components"][-1]["entries"][0]["monomials"] == [[2], [1]]
    data["components"][-1]["entries"][0]["monomials"][0] = [2, 0]  # two exponents in a 1-dimensional slot
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({"type": "components", **data}))
    code, out, err = run(
        capsys, "verify-identity", "--loop", f"file:{path}", "--identity", ASSOC, "--degree", "3"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and "is not a monomial of a 1-dimensional slot" in err


def test_loop_file_below_the_requested_degree_is_usage_error(capsys, tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"type": "components", **nonlinear_loop_F(3).to_json()}))
    code, out, err = run(
        capsys, "verify-identity", "--loop", f"file:{path}", "--identity", ASSOC, "--degree", "5"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "N=3, below the requested degree 5" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["brackets", "--loop", "builtin:nonlinear-f-loop", "--degree", "5", "--memory-cap", "10"],
         "over the cap of 10"),
        (["brackets", "--loop", "builtin:x-squared-y-loop", "--degree", "6", "--memory-cap", "10"],
         "over the cap of 10"),
        (["brackets", "--loop", "builtin:jordan-k3-loop", "--arity", "-1"], "--arity must be >= 0"),
        (["verify-identity", "--loop", "builtin:dual-numbers-loop", "--identity", ASSOC,
          "--mode", "bialgebra", "--samples", "-3"], "--samples must be >= 0"),
        (["bernoulli", "--max-degree", "0"], "--max-degree must be >= 1"),
        (["verify-identity", "--loop", "builtin:dual-numbers-loop", "--identity", ASSOC,
          "--nvars", "-2"], "--nvars must be >= 1, got -2"),
        (["verify-identity", "--loop", "builtin:dual-numbers-loop", "--identity", "1=1"],
         "the identity uses no variables; pass --nvars explicitly"),
    ],
)
def test_out_of_range_arguments_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and message in err


XSQY_SPEC = {"type": "components", **x_squared_y_loop(3).to_json()}
DUAL_TABLE = builtin_algebra("dual-numbers").to_json()


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"type": "from-algebra", "table": {"dim": 1}}, "an algebra table needs a 'constants' field"),
        ({"type": "from-algebra", "table": {"dim": 1, "constants": 7}},
         "an algebra table field 'constants' must be a JSON array, got int"),
        ({"type": "from-algebra", "table": 5},
         "a from-algebra loop spec field 'table' must be a JSON object, got int"),
        ({k: v for k, v in XSQY_SPEC.items() if k != "dims"}, "a formal map needs a 'dims' field"),
        ({**XSQY_SPEC, "components": 5}, "a formal map field 'components' must be a JSON array, got int"),
        ({**XSQY_SPEC, "components": [{"multidegree": [1, 0]}]}, "a component needs an 'entries' field"),
        ({"type": "from-algebra", "table": {**DUAL_TABLE, "flags": [["associative", True]]}},
         "an algebra table field 'flags' must be a JSON object, got list"),
        ({"type": "from-algebra", "table": {**DUAL_TABLE, "constants": [5]}},
         "an algebra table field 'constants' must hold JSON arrays, got int"),
        ({**XSQY_SPEC, "components": [{"multidegree": ["a", 1], "entries": []}]},
         "a component field 'multidegree' must hold JSON integers, got str"),
        ({**XSQY_SPEC,
          "components": [{"multidegree": [1, 0], "entries": [{"monomials": [5, 6], "value": ["1"]}]}]},
         "an entry field 'monomials' must hold JSON arrays, got int"),
    ],
)
def test_malformed_loop_spec_fields_are_usage_errors(capsys, tmp_path, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(
        capsys, "verify-identity", "--loop", f"file:{path}", "--identity", ASSOC, "--degree", "3"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {message}\n"


def test_float_in_a_loop_file_is_usage_error(capsys, tmp_path):
    data = nonlinear_loop_F(3).to_json()
    data["components"][0]["entries"][0]["value"][0] = 0.1
    path = tmp_path / "float.json"
    path.write_text(json.dumps({"type": "components", **data}))
    code, out, err = run(
        capsys, "verify-identity", "--loop", f"file:{path}", "--identity", ASSOC, "--degree", "3"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and "not an exact rational: 0.1" in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"type": "builtin"}, "needs a 'name' field"),
        ({"type": "from-algebra"}, "needs a 'table' field"),
        ([1, 2], "must be a JSON object, got list"),
    ],
)
def test_loop_spec_without_its_fields_is_usage_error(capsys, tmp_path, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(
        capsys, "verify-identity", "--loop", f"file:{path}", "--identity", ASSOC, "--degree", "3"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and message in err
