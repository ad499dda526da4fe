"""Command-line front end.

Each subcommand, and each checker under ``check``, is its own parser that
declares only the flags it reads and the function that runs it, so argparse
enforces required flags per command and refuses a flag of another command.

Arguments taking structured input accept either inline JSON (first character
'{' or '[') or a path to a UTF-8 JSON file.  Rationals are exact "p/q"
strings throughout; results go to stdout and diagnostics to stderr.

Exit codes: 2 on parse/validation errors, 1 when a check reports a violated
verdict, 3 on an internal fault (a failed internal cross-check), 0 otherwise.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Any, NoReturn

from . import chern as chern_mod
from . import lex as lex_mod
from . import resolution, theorems
from .combinatorics import green_transform, macaulay_rep, macaulay_transform
from .errors import BudgetExceeded, InvariantViolated, refuse_unknown_keys
from .monomial_algebra import (
    GradedFreeModule,
    MonomialSubmodule,
    adjusted_hf_decomposition,
    hf_direct,
    hilbert_polynomial,
    hilbert_series,
    module_from_dict,
    module_to_dict,
    ideal_to_dict,
    rank,
    saturate,
    shape_from_dict,
    stabilization_degree,
)
from .numpoly import (
    GotzmannRep,
    adjusted_gotzmann_rep,
    gotzmann_number,
    gotzmann_rep,
    grassmannian_embedding_dims,
    poly_from_dict,
    poly_to_dict,
)


def _load_json(arg: str) -> Any:
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        with open(arg, encoding="utf-8") as handle:
            text = handle.read()
    return json.loads(text)


def _shape_arg(arg: str) -> GradedFreeModule:
    return shape_from_dict(_load_json(arg))


def _module_arg(arg: str) -> MonomialSubmodule:
    return module_from_dict(_load_json(arg))


def _poly_arg(arg: str):
    return poly_from_dict(_load_json(arg))


def _rep_arg(arg: str) -> GotzmannRep:
    data = _load_json(arg)
    if not isinstance(data, dict) or "a" not in data:
        raise ValueError("representation JSON needs an 'a' field")
    refuse_unknown_keys(data, "representation JSON", ("a",))
    a = data["a"]
    if not isinstance(a, list) or any(type(x) is not int for x in a):  # bool is refused too
        raise ValueError(f"representation 'a' must be a list of integers, got {a!r}")
    return GotzmannRep(tuple(a))


def _emit(payload: Any, as_text: bool) -> None:
    if not as_text:
        print(json.dumps(payload, sort_keys=True))
    elif isinstance(payload, dict):
        print("\n".join(f"{k}: {json.dumps(v, sort_keys=True)}" for k, v in payload.items()))
    else:
        print(payload)


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ValueError, so that ``main`` prints them with
    the other exit-2 errors; subparsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def _macaulay_rep(args: argparse.Namespace) -> dict:
    rep = macaulay_rep(args.value, args.index)
    return {"value": args.value, "d": rep.d, "terms": [list(t) for t in rep.terms]}


def _adjusted_rep(args: argparse.Namespace) -> dict:
    data = _load_json(args.module)
    # module or shape JSON: a module's components are read, and so checked
    if isinstance(data, dict) and "components" in data:
        shape = module_from_dict(data).ambient
    else:
        shape = shape_from_dict(data)
    rep = adjusted_gotzmann_rep(_poly_arg(args.poly), shape.n, shape.degrees, args.rank)
    return {"free_degrees": list(rep.free_degrees), "n": rep.n, "q": {"a": list(rep.q.a)},
            "number": rep.number}


def _hilbert(args: argparse.Namespace) -> Any:
    module = _module_arg(args.module)
    if args.function is not None:
        d0, d1 = args.function
        return {"table": [[d, hf_direct(module, d)] for d in range(d0, d1 + 1)]}
    if args.series:
        return hilbert_series(module).to_dict()
    if args.polynomial:
        return poly_to_dict(hilbert_polynomial(module))
    return {"stabilization_degree": stabilization_degree(module)}


def _rho(args: argparse.Namespace) -> dict:
    free, rho = adjusted_hf_decomposition(_module_arg(args.module), args.degree)
    return {"free": free, "rho": rho, "degree": args.degree}


def _lexify(args: argparse.Namespace) -> dict:
    shape = _shape_arg(args.module_shape)
    data = _load_json(args.hf)
    if not isinstance(data, dict) or "tail" not in data:
        raise ValueError("Hilbert-function JSON needs 'tail' (and optional 'table')")
    refuse_unknown_keys(data, "Hilbert-function JSON", ("table", "tail"))
    try:
        table = [(d, v) for d, v in data.get("table", [])]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"'table' must list [degree, value] integer pairs: {exc}") from None
    return module_to_dict(lex_mod.lexify(shape, table, poly_from_dict(data["tail"])))


def _lex_ideal(args: argparse.Namespace) -> dict:
    ideal = lex_mod.saturated_lex_ideal(_rep_arg(args.gotzmann), args.n)
    return {"n": args.n, **ideal_to_dict(ideal)}


def _lex_module(args: argparse.Namespace) -> dict:
    poly, shape = _poly_arg(args.poly), _shape_arg(args.module_shape)
    return module_to_dict(lex_mod.saturated_lex_module(poly, shape, args.rank))


def _quot_dims(args: argparse.Namespace) -> dict:
    shape = _shape_arg(args.module_shape)
    dims = grassmannian_embedding_dims(
        _poly_arg(args.poly), shape.n, shape.degrees, args.rank, mode=args.mode
    )
    return {key: getattr(dims, key) for key in ("s", "ambient_dim", "sub_dim", "grass_dim")}


def _check_chern(args: argparse.Namespace) -> theorems.CheckReport:
    shape = _shape_arg(args.module_shape)
    return chern_mod.check_chern_bound(
        _poly_arg(args.poly), args.n, args.sheaf_rank, shape.degrees, args.module_rank
    )


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=False, help="JSON output (default)")
    fmt.add_argument("--text", action="store_true", default=False, help="plain-text output")

    parser = _Parser(
        prog="gotzmann",
        description="Binomial representations of Hilbert functions/polynomials "
        "and their bound checkers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, name: str, help: str, run) -> argparse.ArgumentParser:
        # no abbreviations: --module must not pass for --module-shape
        p = group.add_parser(name, parents=[common], help=help, allow_abbrev=False)
        p.set_defaults(run=run)
        return p

    p = command(sub, "macaulay-rep", "binomial expansion of A at index D", _macaulay_rep)
    p.add_argument("value", type=int)
    p.add_argument("index", type=int)

    p = command(sub, "macaulay-transform", "growth bound transform",
                lambda a: macaulay_transform(a.value, a.index))
    p.add_argument("value", type=int)
    p.add_argument("index", type=int)

    p = command(sub, "green-transform", "hyperplane bound transform",
                lambda a: green_transform(a.value, a.index))
    p.add_argument("value", type=int)
    p.add_argument("index", type=int)

    p = command(sub, "gotzmann-rep", "binomial representation of a polynomial",
                lambda a: {"a": list(gotzmann_rep(_poly_arg(a.poly)).a)})
    p.add_argument("--poly", required=True)

    p = command(sub, "gotzmann-number", "length of the representation",
                lambda a: gotzmann_number(_poly_arg(a.poly)))
    p.add_argument("--poly", required=True)

    p = command(sub, "adjusted-rep", "rank-adjusted representation", _adjusted_rep)
    p.add_argument("--poly", required=True)
    p.add_argument("--module", required=True, help="module or shape JSON (n, degrees)")
    p.add_argument("--rank", type=int, required=True)

    p = command(sub, "hilbert", "Hilbert data of F/N", _hilbert)
    p.add_argument("--module", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--function", nargs=2, type=int, metavar=("D0", "D1"))
    mode.add_argument("--series", action="store_true")
    mode.add_argument("--polynomial", action="store_true")
    mode.add_argument("--stabilize", action="store_true")

    p = command(sub, "saturate", "componentwise saturation",
                lambda a: module_to_dict(saturate(_module_arg(a.module))))
    p.add_argument("--module", required=True)

    p = command(sub, "rank", "number of zero components", lambda a: rank(_module_arg(a.module)))
    p.add_argument("--module", required=True)

    p = command(sub, "rho", "free part and remainder of H(F/N, d)", _rho)
    p.add_argument("--module", required=True)
    p.add_argument("--degree", type=int, required=True)

    p = command(sub, "lexify", "lex submodule matching a Hilbert function", _lexify)
    p.add_argument("--module-shape", required=True)
    p.add_argument("--hf", required=True, help='{"table": [[d, v], ...], "tail": {...}}')

    p = command(sub, "lex-ideal", "saturated lex ideal of a representation", _lex_ideal)
    p.add_argument("--gotzmann", required=True, help='{"a": [...]}')
    p.add_argument("--n", type=int, required=True)

    p = command(sub, "lex-module", "saturated lex module of a polynomial", _lex_module)
    p.add_argument("--poly", required=True)
    p.add_argument("--module-shape", required=True)
    p.add_argument("--rank", type=int, required=True)

    p = command(sub, "betti", "graded Betti table from upper Koszul complexes over the lcm lattice",
                lambda a: resolution.koszul_betti(
                    _module_arg(a.module), as_quotient=not a.submodule).to_dict())
    p.add_argument("--module", required=True)
    p.add_argument("--submodule", action="store_true", help="resolve N instead of F/N")

    p = command(sub, "regularity", "Castelnuovo-Mumford regularity",
                lambda a: resolution.regularity(_module_arg(a.module), as_quotient=not a.submodule))
    p.add_argument("--module", required=True)
    p.add_argument("--submodule", action="store_true", help="of N instead of F/N")

    p = command(sub, "quot-dims", "Grassmannian embedding dimensions", _quot_dims)
    p.add_argument("--poly", required=True)
    p.add_argument("--module-shape", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--mode", choices=("standard", "adjusted"), default="adjusted")

    # a checker returns a CheckReport, from which main takes the exit code
    check = sub.add_parser("check", help="run one bound checker; see check CHECKER --help")
    check = check.add_subparsers(dest="checker", required=True)

    for name, help, checker in (
        ("macaulay", "adjusted Macaulay bound at degree d", theorems.check_macaulay_adjusted),
        ("green", "adjusted Green bound at degree d", theorems.check_green_adjusted),
        ("persistence", "adjusted persistence from degree d on",
         theorems.check_persistence_adjusted),
    ):
        p = command(check, name, help,
                    lambda a, checker=checker: checker(_module_arg(a.module), a.degree))
        p.add_argument("--module", required=True)
        p.add_argument("--degree", type=int, required=True)

    p = command(check, "regularity", "adjusted Gotzmann regularity bound",
                lambda a: theorems.check_gotzmann_regularity_adjusted(_module_arg(a.module)))
    p.add_argument("--module", required=True)

    p = command(check, "sharpness", "saturated lex module attains the adjusted bound",
                lambda a: theorems.check_sharpness(
                    _poly_arg(a.poly), _shape_arg(a.module_shape), a.rank))
    p.add_argument("--poly", required=True)
    p.add_argument("--module-shape", required=True)
    p.add_argument("--rank", type=int, required=True)

    p = command(check, "gasharov", "Gasharov's bound, Macaulay or Green form",
                lambda a: theorems.check_gasharov(_module_arg(a.module), a.degree, a.p, a.which))
    p.add_argument("--module", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--which", choices=("macaulay", "green"), default="macaulay")

    p = command(check, "chern", "c2 <= c1^2 from the Hilbert polynomial", _check_chern)
    p.add_argument("--poly", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sheaf-rank", type=int, required=True)
    p.add_argument("--module-shape", required=True)
    p.add_argument("--module-rank", type=int, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        payload, code = args.run(args), 0
        if isinstance(payload, theorems.CheckReport):
            code = 1 if payload.verdict == theorems.VIOLATED else 0
            payload = payload.to_dict()
    except (ValueError, KeyError, OSError, BudgetExceeded, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolated as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    _emit(payload, as_text=args.text)
    return code


if __name__ == "__main__":
    sys.exit(main())
