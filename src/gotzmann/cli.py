"""Command-line front end.

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
from .errors import BudgetExceeded, InvariantViolated
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


def _shape_from(data: Any) -> GradedFreeModule:
    if not isinstance(data, dict):
        raise ValueError("module shape must be a JSON object")
    for key in ("n", "degrees"):
        if key not in data:
            raise ValueError(f"module shape missing field '{key}'")
    n, degrees = data["n"], data["degrees"]
    # not isinstance: bool is refused too
    if not isinstance(degrees, list) or any(type(x) is not int for x in (n, *degrees)):
        raise ValueError(f"module shape needs integer 'n' and 'degrees', got {n!r} and {degrees!r}")
    return GradedFreeModule(n, tuple(degrees))


def _module_arg(arg: str) -> MonomialSubmodule:
    return module_from_dict(_load_json(arg))


def _poly_arg(arg: str):
    return poly_from_dict(_load_json(arg))


def _rep_arg(arg: str) -> GotzmannRep:
    data = _load_json(arg)
    if not isinstance(data, dict) or "a" not in data:
        raise ValueError("representation JSON needs an 'a' field")
    a = data["a"]
    if not isinstance(a, list) or any(type(x) is not int for x in a):  # bool is refused too
        raise ValueError(f"representation 'a' must be a list of integers, got {a!r}")
    return GotzmannRep(tuple(a))


def _rep_dict(rep) -> dict:
    return {
        "free_degrees": list(rep.free_degrees),
        "n": rep.n,
        "q": {"a": list(rep.q.a)},
        "number": rep.number,
    }


def _render_text(payload: Any) -> str:
    if isinstance(payload, dict):
        return "\n".join(f"{k}: {json.dumps(v, sort_keys=True)}" for k, v in payload.items())
    if isinstance(payload, list):
        return "\n".join(json.dumps(item, sort_keys=True) for item in payload)
    return str(payload)


def _emit(payload: Any, as_text: bool) -> None:
    if as_text:
        print(_render_text(payload))
    elif isinstance(payload, list):
        for item in payload:
            print(json.dumps(item, sort_keys=True))
    else:
        print(json.dumps(payload, sort_keys=True))


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ValueError, so that ``main`` prints them with
    the other exit-2 errors; subparsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


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

    p = sub.add_parser("macaulay-rep", parents=[common], help="binomial expansion of A at index D")
    p.add_argument("value", type=int)
    p.add_argument("index", type=int)

    p = sub.add_parser("macaulay-transform", parents=[common], help="growth bound transform")
    p.add_argument("value", type=int)
    p.add_argument("index", type=int)

    p = sub.add_parser("green-transform", parents=[common], help="hyperplane bound transform")
    p.add_argument("value", type=int)
    p.add_argument("index", type=int)

    p = sub.add_parser("gotzmann-rep", parents=[common], help="binomial representation of a polynomial")
    p.add_argument("--poly", required=True)

    p = sub.add_parser("gotzmann-number", parents=[common], help="length of the representation")
    p.add_argument("--poly", required=True)

    p = sub.add_parser("adjusted-rep", parents=[common], help="rank-adjusted representation")
    p.add_argument("--poly", required=True)
    p.add_argument("--module", required=True, help="module or shape JSON (n, degrees)")
    p.add_argument("--rank", type=int, required=True)

    p = sub.add_parser("hilbert", parents=[common], help="Hilbert data of F/N")
    p.add_argument("--module", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--function", nargs=2, type=int, metavar=("D0", "D1"))
    mode.add_argument("--series", action="store_true")
    mode.add_argument("--polynomial", action="store_true")
    mode.add_argument("--stabilize", action="store_true")

    p = sub.add_parser("saturate", parents=[common], help="componentwise saturation")
    p.add_argument("--module", required=True)

    p = sub.add_parser("rank", parents=[common], help="number of zero components")
    p.add_argument("--module", required=True)

    p = sub.add_parser("rho", parents=[common], help="free part and remainder of H(F/N, d)")
    p.add_argument("--module", required=True)
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("lexify", parents=[common], help="lex submodule matching a Hilbert function")
    p.add_argument("--module-shape", required=True)
    p.add_argument("--hf", required=True, help='{"table": [[d, v], ...], "tail": {...}}')

    p = sub.add_parser("lex-ideal", parents=[common], help="saturated lex ideal of a representation")
    p.add_argument("--gotzmann", required=True, help='{"a": [...]}')
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("lex-module", parents=[common], help="saturated lex module of a polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--module-shape", required=True)
    p.add_argument("--rank", type=int, required=True)

    p = sub.add_parser("betti", parents=[common],
                       help="graded Betti table from upper Koszul complexes over the lcm lattice")
    p.add_argument("--module", required=True)
    p.add_argument("--submodule", action="store_true", help="resolve N instead of F/N")

    p = sub.add_parser("regularity", parents=[common], help="Castelnuovo-Mumford regularity")
    p.add_argument("--module", required=True)
    p.add_argument("--submodule", action="store_true", help="of N instead of F/N")

    p = sub.add_parser("quot-dims", parents=[common], help="Grassmannian embedding dimensions")
    p.add_argument("--poly", required=True)
    p.add_argument("--module-shape", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--mode", choices=("standard", "adjusted"), default="adjusted")

    p = sub.add_parser("check", parents=[common], help="run one bound checker")
    p.add_argument(
        "checker",
        choices=(
            "macaulay",
            "green",
            "persistence",
            "regularity",
            "sharpness",
            "gasharov",
            "chern",
        ),
    )
    p.add_argument("--module")
    p.add_argument("--degree", type=int)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--which", choices=("macaulay", "green"), default="macaulay")
    p.add_argument("--poly")
    p.add_argument("--module-shape")
    p.add_argument("--rank", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--sheaf-rank", type=int)
    p.add_argument("--module-rank", type=int)

    return parser


def _require(args: argparse.Namespace, names: list[str]) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            raise ValueError(f"check '{args.checker}' requires --{name}")


def _run_check(args: argparse.Namespace) -> theorems.CheckReport:
    if args.checker == "macaulay":
        _require(args, ["module", "degree"])
        return theorems.check_macaulay_adjusted(_module_arg(args.module), args.degree)
    if args.checker == "green":
        _require(args, ["module", "degree"])
        return theorems.check_green_adjusted(_module_arg(args.module), args.degree)
    if args.checker == "persistence":
        _require(args, ["module", "degree"])
        return theorems.check_persistence_adjusted(_module_arg(args.module), args.degree)
    if args.checker == "regularity":
        _require(args, ["module"])
        return theorems.check_gotzmann_regularity_adjusted(_module_arg(args.module))
    if args.checker == "sharpness":
        _require(args, ["poly", "module-shape", "rank"])
        return theorems.check_sharpness(
            _poly_arg(args.poly), _shape_from(_load_json(args.module_shape)), args.rank
        )
    if args.checker == "gasharov":
        _require(args, ["module", "degree"])
        return theorems.check_gasharov(
            _module_arg(args.module), args.degree, args.p, args.which
        )
    _require(args, ["poly", "n", "sheaf-rank", "module-shape", "module-rank"])
    shape = _shape_from(_load_json(args.module_shape))
    return chern_mod.check_chern_bound(
        _poly_arg(args.poly), args.n, args.sheaf_rank, shape.degrees, args.module_rank
    )


def _dispatch(args: argparse.Namespace) -> tuple[Any, int]:
    cmd = args.command
    if cmd == "macaulay-rep":
        rep = macaulay_rep(args.value, args.index)
        return {"value": args.value, "d": rep.d, "terms": [list(t) for t in rep.terms]}, 0
    if cmd == "macaulay-transform":
        return macaulay_transform(args.value, args.index), 0
    if cmd == "green-transform":
        return green_transform(args.value, args.index), 0
    if cmd == "gotzmann-rep":
        return {"a": list(gotzmann_rep(_poly_arg(args.poly)).a)}, 0
    if cmd == "gotzmann-number":
        return gotzmann_number(_poly_arg(args.poly)), 0
    if cmd == "adjusted-rep":
        data = _load_json(args.module)
        shape = _shape_from(data)
        rep = adjusted_gotzmann_rep(_poly_arg(args.poly), shape.n, shape.degrees, args.rank)
        return _rep_dict(rep), 0
    if cmd == "hilbert":
        module = _module_arg(args.module)
        if args.function is not None:
            d0, d1 = args.function
            return {"table": [[d, hf_direct(module, d)] for d in range(d0, d1 + 1)]}, 0
        if args.series:
            return hilbert_series(module).to_dict(), 0
        if args.polynomial:
            return poly_to_dict(hilbert_polynomial(module)), 0
        return {"stabilization_degree": stabilization_degree(module)}, 0
    if cmd == "saturate":
        return module_to_dict(saturate(_module_arg(args.module))), 0
    if cmd == "rank":
        return rank(_module_arg(args.module)), 0
    if cmd == "rho":
        free, rho = adjusted_hf_decomposition(_module_arg(args.module), args.degree)
        return {"free": free, "rho": rho, "degree": args.degree}, 0
    if cmd == "lexify":
        shape = _shape_from(_load_json(args.module_shape))
        data = _load_json(args.hf)
        if not isinstance(data, dict) or "tail" not in data:
            raise ValueError("Hilbert-function JSON needs 'tail' (and optional 'table')")
        try:
            table = [(d, v) for d, v in data.get("table", [])]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"'table' must list [degree, value] integer pairs: {exc}") from None
        result = lex_mod.lexify(shape, table, poly_from_dict(data["tail"]))
        return module_to_dict(result), 0
    if cmd == "lex-ideal":
        ideal = lex_mod.saturated_lex_ideal(_rep_arg(args.gotzmann), args.n)
        return {"n": args.n, **ideal_to_dict(ideal)}, 0
    if cmd == "lex-module":
        shape = _shape_from(_load_json(args.module_shape))
        result = lex_mod.saturated_lex_module(_poly_arg(args.poly), shape, args.rank)
        return module_to_dict(result), 0
    if cmd == "betti":
        table = resolution.koszul_betti(_module_arg(args.module), as_quotient=not args.submodule)
        return table.to_dict(), 0
    if cmd == "regularity":
        of = "submodule" if args.submodule else "quotient"
        return resolution.regularity(_module_arg(args.module), of=of), 0
    if cmd == "quot-dims":
        shape = _shape_from(_load_json(args.module_shape))
        dims = grassmannian_embedding_dims(
            _poly_arg(args.poly), shape.n, shape.degrees, args.rank, mode=args.mode
        )
        return {
            "s": dims.s,
            "ambient_dim": dims.ambient_dim,
            "sub_dim": dims.sub_dim,
            "grass_dim": dims.grass_dim,
        }, 0
    report = _run_check(args)
    code = 1 if report.verdict == theorems.VIOLATED else 0
    return report.to_dict(), code


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        payload, code = _dispatch(args)
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
