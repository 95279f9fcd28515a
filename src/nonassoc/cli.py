"""Command-line front end.

Exit codes: 0 when every requested check passes, 1 on a mathematical
failure (an identity that does not hold, a table mismatch), 2 on usage or
configuration errors, 3 when an internal invariant fails or any other
error escapes (a bug).  Reports are deterministic given the same
configuration and seed; JSON reports carry a schema version and the fully
resolved configuration so a failing run can be replayed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import catalog, dist, maps, trees
from .connection import ms_bracket_table
from .freealg import FreeAlgebra, fa_exp, fa_exp_inverse, fa_log, su_multioperator_component
from .maps import InvariantError, resolve_memory_cap
from .scalars import format_rational
from .words import parse_identity

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3


class UsageError(Exception):
    pass


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc


def _load_config(path: str) -> dict:
    data = _read_json(path, "config file")
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return {key.replace("-", "_"): value for key, value in data.items()}


def _with_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """argv with the values of its `--config` file as flags right after the subcommand.

    argparse then checks each value as it checks a flag (type, choices,
    count), and a flag given on the command line, parsed later, wins.  A
    key that names no option of any subcommand is a usage error; a key of
    another subcommand is skipped, so one file can serve several commands.
    """
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    command = next((i for i, token in enumerate(argv) if token in parser.subcommands), None)
    if not path or command is None:
        return argv
    options = {
        name: {a.dest: a for a in sub._actions if a.option_strings and a.dest not in ("help", "config")}
        for name, sub in parser.subcommands.items()
    }
    tokens: list[str] = []
    for key, value in _load_config(path).items():
        if not any(key in own for own in options.values()):
            raise UsageError(f"config file {path}: {key!r} names no option")
        action = options[argv[command]].get(key)
        if action is None:
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:  # a switch such as --check
            if not isinstance(value, bool):
                raise UsageError(f"config file {path}: {key!r} must be true or false")
            tokens += [flag] if value else []
        elif isinstance(action.nargs, int):
            tokens += [flag, *map(str, value if isinstance(value, list) else [value])]
        else:
            tokens.append(f"{flag}={value}")
    return argv[: command + 1] + tokens + argv[command + 1 :]


def _resolve_loop(spec: str, degree: int, memory_cap: int | None):
    if spec.startswith("builtin:"):
        return catalog.builtin_loop(spec[len("builtin:") :], degree, memory_cap)
    if spec.startswith("file:"):
        data = _read_json(spec[len("file:") :], "loop spec")
        return catalog.loop_from_spec(data, degree, memory_cap)
    raise UsageError(f"loop spec must start with 'builtin:' or 'file:', got {spec!r}")


def _infer_nvars(text: str) -> int:
    indices = [int(m) for m in re.findall(r"x(\d+)", text)]
    return max(indices, default=0)


def _emit(command: str, config: dict, result: dict, lines: list[str]) -> None:
    """Print the report: the JSON envelope around `result`, or the text `lines`."""
    if config["format"] == "json":
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "config": config,
            "result": result,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _config_dict(args: argparse.Namespace) -> dict:
    out = {
        "degree": args.degree,
        "format": args.format,
        "memory_cap": resolve_memory_cap(args.memory_cap),
    }
    for key in ("seed", "samples", "loop", "identity", "mode", "arity", "method", "nvars"):
        if hasattr(args, key) and getattr(args, key) is not None:
            out[key] = getattr(args, key)
    return out


# -- commands -------------------------------------------------------------------


def cmd_verify_identity(args: argparse.Namespace) -> int:
    if args.samples < 0:
        raise UsageError(f"--samples must be >= 0, got {args.samples}")
    if args.nvars is not None and args.nvars < 1:
        raise UsageError(f"--nvars must be >= 1, got {args.nvars}")
    loop = _resolve_loop(args.loop, args.degree, args.memory_cap)
    nvars = args.nvars if args.nvars is not None else _infer_nvars(args.identity)
    if nvars < 1:
        raise UsageError("the identity uses no variables; pass --nvars explicitly")
    identity = parse_identity(args.identity, nvars)
    lines: list[str] = []
    if args.mode == "loop":
        verdict = maps.check_loop_identity(identity, loop)
        result = verdict.to_json()
        holds = verdict.holds
        lines.append(f"identity: {args.identity}")
        lines.append(f"loop: {args.loop} (degree {args.degree})")
        lines.append(f"holds to degree {args.degree}: {'yes' if holds else 'no'}")
        if not holds:
            lines.append(
                f"first failing multidegree {verdict.multidegree} at monomials "
                f"{verdict.monomials}: difference {[format_rational(v) for v in verdict.difference]}"
            )
    else:
        bialgebra = dist.DistBialgebra.from_loop(loop)
        verdict = dist.check_linearized_identity(
            identity, bialgebra, samples=args.samples, seed=args.seed
        )
        result = verdict.to_json()
        holds = verdict.holds
        lines.append(f"identity linearization: {args.identity}")
        lines.append(f"loop: {args.loop} (degree {args.degree}, seed {args.seed})")
        lines.append(f"holds: {'yes' if holds else 'no'}")
        if not holds:
            lines.append(f"witness: {json.dumps(verdict.witness, sort_keys=True)}")
    _emit("verify-identity", _config_dict(args), result, lines)
    return EXIT_PASS if holds else EXIT_FAIL


def cmd_brackets(args: argparse.Namespace) -> int:
    if args.arity < 0:
        raise UsageError(f"--arity must be >= 0, got {args.arity}")
    loop = _resolve_loop(args.loop, args.degree, args.memory_cap)
    if args.arity + 2 > args.degree:
        raise UsageError(
            f"arity {args.arity} needs degree {args.arity + 2} <= {args.degree}"
        )
    su_table = ms_table = None
    if args.method in ("su", "both"):
        su_table = dist.su_bracket_table(dist.DistBialgebra.from_loop(loop), args.arity)
    if args.method in ("ms", "both"):
        ms_table = ms_bracket_table(loop, args.arity)
    entries = []
    keys = sorted((su_table or ms_table).keys())
    for idx in keys:
        entry: dict = {"args": list(idx)}
        if su_table is not None:
            entry["su"] = [format_rational(v) for v in su_table[idx]]
        if ms_table is not None:
            entry["ms"] = [format_rational(v) for v in ms_table[idx]]
        if args.method != "both":
            entry["value"] = entry.pop("su" if args.method == "su" else "ms")
        entries.append(entry)
    result: dict = {"arity": args.arity + 2, "entries": entries}
    equal = True
    if args.method == "both":
        equal = su_table == ms_table
        result["equal"] = equal
    lines = [f"bracket table, arity {args.arity + 2}, loop {args.loop}, method {args.method}"]
    for entry in entries:
        value = entry.get("value") or entry.get("su")
        lines.append(f"  <{','.join(map(str, entry['args']))}> = ({', '.join(value)})")
    if args.method == "both":
        lines.append(f"equal: {'true' if equal else 'false'}")
    _emit("brackets", _config_dict(args), result, lines)
    return EXIT_PASS if equal else EXIT_FAIL


def _bernoulli_sums(max_degree: int) -> list[dict]:
    """Per degree n, the tree sum of B_t / t! against its closed form (-1)^(n+1) / n."""
    rows = []
    for n in range(1, max_degree + 1):
        value = trees.bernoulli_tree_sum(n)
        expected = Fraction((-1) ** (n + 1), n)
        rows.append(
            {
                "degree": n,
                "sum": format_rational(value),
                "expected": format_rational(expected),
                "pass": value == expected,
            }
        )
    return rows


def cmd_bernoulli(args: argparse.Namespace) -> int:
    if args.max_degree < 1:
        raise UsageError(f"--max-degree must be >= 1, got {args.max_degree}")
    rows = _bernoulli_sums(args.max_degree)
    all_pass = all(row["pass"] for row in rows)
    lines = ["degree  trees  sum           expected      pass"]
    for row in rows:
        row["trees"] = len(trees.enumerate_trees(row["degree"]))
        lines.append(
            f"{row['degree']:>6}  {row['trees']:>5}  {row['sum']:<12}  "
            f"{row['expected']:<12}  {'yes' if row['pass'] else 'NO'}"
        )
    config = {"max_degree": args.max_degree, "format": args.format}
    _emit("bernoulli", config, {"rows": rows, "all_pass": all_pass}, lines)
    return EXIT_PASS if all_pass else EXIT_FAIL


def cmd_explog(args: argparse.Namespace) -> int:
    log_series = fa_log(args.degree)
    coefficients = []
    for degree in range(1, args.degree + 1):
        for tree in trees.enumerate_trees(degree):
            bern, fact = trees.tree_stats(tree)
            coefficients.append(
                {
                    "tree": tree.encode(),
                    "degree": degree,
                    "coeff": format_rational(bern / fact),
                }
            )
    sums = _bernoulli_sums(args.degree)
    result: dict = {"degree": args.degree, "coefficients": coefficients, "per_degree_sums": sums}
    lines = [f"log(1+x) coefficients to degree {args.degree}:"]
    for item in coefficients:
        lines.append(f"  {item['tree']:<20} {item['coeff']}")
    ok = all(row["pass"] for row in sums)
    if args.check:
        alg = log_series.alg
        target = alg.one() + alg.gen(0)
        check_ok = fa_exp(log_series) == target
        inversion_ok = log_series == fa_exp_inverse(target)
        result["exp_log_check"] = check_ok
        result["inversion_agrees"] = inversion_ok
        lines.append(
            f"exp(log(1+x)) = 1+x: {'OK' if check_ok else 'FAILED'}; "
            f"tree and inversion coefficients agree: {'OK' if inversion_ok else 'FAILED'}"
        )
        ok = ok and check_ok and inversion_ok
    config = {"degree": args.degree, "check": args.check, "format": args.format}
    _emit("explog", config, result, lines)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_raltify(args: argparse.Namespace) -> int:
    loop = _resolve_loop(args.loop, args.degree, args.memory_cap)
    modification = maps.right_alt_modify(loop)
    modified = modification.modified
    added = modified - loop.filter_components(lambda md: md[1] <= 1)
    lines = [f"right alternative modification of {args.loop} at degree {args.degree}"]
    if added.is_zero():
        lines.append("loop is already right alternative; unchanged")
    for md, monos, value in added.sorted_entries():
        series = modified.series_value(monos)
        lines.append(
            f"  q component at multidegree {md}, monomials {[list(m) for m in monos]}: "
            f"series {[format_rational(v) for v in series]}"
        )
    result = {
        "modified_loop": modified.to_json(),
        "similarity": modification.similarity.to_json(),
        "changed": not added.is_zero(),
    }
    _emit("raltify", _config_dict(args), result, lines)
    return EXIT_PASS


def cmd_multioperator(args: argparse.Namespace) -> int:
    i, j = args.bidegree
    if i + j > args.degree:
        raise UsageError(f"bidegree ({i}, {j}) needs degree {i + j} <= {args.degree}")
    if i < 1 or j < 2:
        raise UsageError("multioperator bidegrees have first entry >= 1 and second >= 2")
    result: dict = {"bidegree": [i, j], "degree": args.degree}
    lines = [f"multioperator component at bidegree ({i}, {j}), degree {args.degree}"]
    ms_component = su_component = None
    if args.method in ("ms", "both"):
        ms = maps.multioperator_ms(args.degree)
        ms_component = ms.component(i, j)
        result["ms"] = {"terms": ms_component.to_json(), "pretty": ms_component.pretty()}
        lines.append(f"  geodesic recursion: {ms_component.pretty()}")
    if args.method in ("su", "both"):
        alg = FreeAlgebra(("a", "b"), args.degree)
        su_component = su_multioperator_component(alg.gen(0), alg.gen(1), i, j)
        result["su"] = {"terms": su_component.to_json(), "pretty": su_component.pretty()}
        lines.append(f"  symmetrized primitive operations: {su_component.pretty()}")
    if args.method == "both":
        equal = ms_component == su_component
        diff = ms_component - su_component
        result["equal"] = equal
        result["difference"] = diff.to_json()
        lines.append(f"  components equal: {'yes' if equal else 'no'}")
        if not equal:
            lines.append(f"  difference: {diff.pretty()}")
    config = {"degree": args.degree, "bidegree": [i, j], "method": args.method, "format": args.format}
    _emit("multioperator", config, result, lines)
    return EXIT_PASS


# -- argument plumbing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonassoc",
        description="Exact computations with formal loops, their distribution "
        "bialgebras and the induced bracket operations.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--degree", type=int, default=4, help="truncation degree (default 4)")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--memory-cap", type=int, default=None, dest="memory_cap",
                        help="cap on component-table size (rational slots)")
    common.add_argument("--config", type=str, default=None,
                        help="JSON file of option values, checked like flags; flags given here win")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-identity", parents=[common], help="check a loop identity")
    p.add_argument("--loop", required=True, help="builtin:NAME or file:PATH")
    p.add_argument("--identity", required=True, help="fully parenthesized identity")
    p.add_argument("--mode", choices=("loop", "bialgebra"), default="loop")
    p.add_argument("--nvars", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=25)
    p.set_defaults(func=cmd_verify_identity)

    p = sub.add_parser("brackets", parents=[common], help="bracket tables of a loop")
    p.add_argument("--loop", required=True)
    p.add_argument("--arity", type=int, default=0, help="number of leading arguments")
    p.add_argument("--method", choices=("su", "ms", "both"), default="both")
    p.set_defaults(func=cmd_brackets)

    p = sub.add_parser("bernoulli", parents=[common], help="tree-indexed Bernoulli sums")
    p.add_argument("--max-degree", type=int, default=6, dest="max_degree")
    p.set_defaults(func=cmd_bernoulli)

    p = sub.add_parser("explog", parents=[common], help="non-associative logarithm table")
    p.add_argument("--check", action="store_true", help="verify exp(log(1+x)) = 1+x")
    p.set_defaults(func=cmd_explog)

    p = sub.add_parser("raltify", parents=[common], help="right alternative modification")
    p.add_argument("--loop", required=True)
    p.set_defaults(func=cmd_raltify)

    p = sub.add_parser("multioperator", parents=[common], help="multioperator components")
    p.add_argument("--bidegree", type=int, nargs=2, metavar=("I", "J"), required=True)
    p.add_argument("--method", choices=("ms", "su", "both"), default="ms")
    p.set_defaults(func=cmd_multioperator)
    parser.subcommands = sub.choices
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config(parser, sys.argv[1:] if argv is None else list(argv)))
        if args.degree < 1:
            raise UsageError("the truncation degree must be >= 1")
        return args.func(args)
    except (UsageError, ValueError) as exc:
        # MemoryCapError and WordSyntaxError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
