"""Command-line front end.

Each subcommand, and each checker under ``check``, is declared once in a
command table with its help, the function that runs it and the flags it reads,
so argparse enforces required flags per command and refuses a flag of another
command.  Each call is a fresh interpreter, so a call pays only for its own
command: the parser holds just the command (and checker) that argv names, and
a handler imports the library module it calls when it runs.  When argv names
no command, every parser is built, so help and "invalid choice" errors read
the same either way.

The process entry, ``run()``, is what ``gotzmann`` and ``python -m
gotzmann.cli`` call: ``main()`` between two ``gc.freeze()`` calls.  The first
moves the interpreter's start-up objects (site, argparse, json) out of every
collection the call triggers; the second leaves nothing for the collection
at interpreter shutdown to walk (about 7 of a 68 ms call on 2 CPUs with
Python 3.11), which a process that exits at once gains nothing from, as the
OS takes its memory back.
``atexit`` handlers and the stream flushes still run, and so does the
collector during the call, so cyclic garbage of a large call is reclaimed.
``main(argv)`` itself never freezes: tests, the benchmark's probe and
embedders call it in a process that lives on.

Arguments taking structured input accept either inline JSON (first character
'{' or '[') or a path to a UTF-8 JSON file.  Rationals are exact "p/q"
strings throughout; results go to stdout and diagnostics to stderr.

Exit codes: 2 on parse/validation errors, an exceeded work budget or
exhausted memory, 1 when a check reports a violated verdict, 3 on an
internal fault (a failed internal cross-check), 0 otherwise.
A reader closing stdout early changes none of them; the output is dropped.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import TYPE_CHECKING, Any, Callable, NoReturn

from .errors import BudgetExceeded, InvariantViolated, refuse_unknown_keys

if TYPE_CHECKING:
    from .monomial_algebra import GradedFreeModule, MonomialSubmodule
    from .numpoly import GotzmannRep, NumPoly


def _load_json(arg: str) -> Any:
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        with open(arg, encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _shape_arg(arg: str) -> GradedFreeModule:
    from .monomial_algebra import shape_from_dict

    return shape_from_dict(_load_json(arg))


def _module_arg(arg: str) -> MonomialSubmodule:
    from .monomial_algebra import module_from_dict

    return module_from_dict(_load_json(arg))


def _poly_arg(arg: str) -> NumPoly:
    from .numpoly import poly_from_dict

    return poly_from_dict(_load_json(arg))


def _rep_arg(arg: str) -> GotzmannRep:
    from .numpoly import GotzmannRep

    data = _load_json(arg)
    if not isinstance(data, dict) or "a" not in data:
        raise ValueError("representation JSON needs an 'a' field")
    refuse_unknown_keys(data, "representation JSON", ("a",))
    a = data["a"]
    if not isinstance(a, list) or any(type(x) is not int for x in a):  # bool is refused too
        raise ValueError(f"representation 'a' must be a list of integers, got {a!r}")
    return GotzmannRep(tuple(a))


def _refuse_long_ints(payload: Any, name: str) -> None:
    """Raises ValueError naming the first integer in ``payload`` with more
    digits than this interpreter converts to text, and its digit count."""
    if isinstance(payload, (dict, list)):
        for key, value in payload.items() if isinstance(payload, dict) else enumerate(payload):
            _refuse_long_ints(value, f"{name}[{key!r}]")
    elif type(payload) is int and (limit := sys.get_int_max_str_digits()):
        # 0.30102 < log10(2): the count starts at or below the digits' count
        digits = (abs(payload).bit_length() - 1) * 30102 // 100000 + 1
        while abs(payload) >= 10**digits:
            digits += 1
        if digits > limit:
            raise ValueError(f"{name} has {digits} digits, more than the {limit} that are printed")


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
    from .combinatorics import macaulay_rep

    rep = macaulay_rep(args.value, args.index)
    return {"value": args.value, "d": rep.d, "terms": [list(t) for t in rep.terms]}


def _macaulay_transform(args: argparse.Namespace) -> int:
    from .combinatorics import macaulay_transform

    return macaulay_transform(args.value, args.index)


def _green_transform(args: argparse.Namespace) -> int:
    from .combinatorics import green_transform

    return green_transform(args.value, args.index)


def _gotzmann_rep(args: argparse.Namespace) -> dict:
    from .numpoly import gotzmann_rep

    return {"a": list(gotzmann_rep(_poly_arg(args.poly)).a)}


def _gotzmann_number(args: argparse.Namespace) -> int:
    from .numpoly import gotzmann_number

    return gotzmann_number(_poly_arg(args.poly))


def _adjusted_rep(args: argparse.Namespace) -> dict:
    from .monomial_algebra import module_from_dict, shape_from_dict
    from .numpoly import adjusted_gotzmann_rep

    data = _load_json(args.module)
    # module or shape JSON: a module's components are read, and so checked
    if isinstance(data, dict) and "components" in data:
        shape = module_from_dict(data).ambient
    else:
        shape = shape_from_dict(data)
    rep = adjusted_gotzmann_rep(_poly_arg(args.poly), shape.n, shape.degrees, args.rank)
    return {"free_degrees": list(rep.free_degrees), "n": rep.n, "q": {"a": list(rep.q.a)},
            "number": rep.number}


def _hilbert_data(args: argparse.Namespace) -> Any:
    from .monomial_algebra import (
        hf_direct,
        hilbert_polynomial,
        hilbert_series,
        stabilization_degree,
    )
    from .numpoly import TERM_BUDGET, poly_to_dict

    module = _module_arg(args.module)
    if args.function is not None:
        d0, d1 = args.function
        if d0 > d1:
            raise ValueError(f"--function needs D0 <= D1, got {d0} and {d1}")
        # as --series refuses more than TERM_BUDGET coefficients
        if d1 - d0 >= TERM_BUDGET:
            raise ValueError(f"--function spans {d1 - d0 + 1} degrees, more than {TERM_BUDGET}")
        return {"table": [[d, hf_direct(module, d)] for d in range(d0, d1 + 1)]}
    if args.series:
        return hilbert_series(module).to_dict()
    if args.polynomial:
        return poly_to_dict(hilbert_polynomial(module))
    return {"stabilization_degree": stabilization_degree(module)}


def _saturate(args: argparse.Namespace) -> dict:
    from .monomial_algebra import module_to_dict, saturate

    return module_to_dict(saturate(_module_arg(args.module)))


def _rank(args: argparse.Namespace) -> int:
    from .monomial_algebra import rank

    return rank(_module_arg(args.module))


def _rho(args: argparse.Namespace) -> dict:
    from .monomial_algebra import adjusted_hf_decomposition

    free, rho = adjusted_hf_decomposition(_module_arg(args.module), args.degree)
    return {"free": free, "rho": rho, "degree": args.degree}


def _lexify(args: argparse.Namespace) -> dict:
    from .lex import lexify
    from .monomial_algebra import module_to_dict
    from .numpoly import poly_from_dict

    shape = _shape_arg(args.module_shape)
    data = _load_json(args.hf)
    if not isinstance(data, dict) or "tail" not in data:
        raise ValueError("Hilbert-function JSON needs 'tail' (and optional 'table')")
    refuse_unknown_keys(data, "Hilbert-function JSON", ("table", "tail"))
    try:
        table = [(d, v) for d, v in data.get("table", [])]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"'table' must list [degree, value] integer pairs: {exc}") from None
    return module_to_dict(lexify(shape, table, poly_from_dict(data["tail"])))


def _lex_ideal(args: argparse.Namespace) -> dict:
    from .lex import saturated_lex_ideal
    from .monomial_algebra import ideal_to_dict

    ideal = saturated_lex_ideal(_rep_arg(args.gotzmann), args.n)
    return {"n": args.n, **ideal_to_dict(ideal)}


def _lex_module(args: argparse.Namespace) -> dict:
    from .lex import saturated_lex_module
    from .monomial_algebra import module_to_dict

    poly, shape = _poly_arg(args.poly), _shape_arg(args.module_shape)
    return module_to_dict(saturated_lex_module(poly, shape, args.rank))


def _betti(args: argparse.Namespace) -> dict:
    from .resolution import koszul_betti

    return koszul_betti(_module_arg(args.module), as_quotient=not args.submodule).to_dict()


def _regularity(args: argparse.Namespace) -> int:
    from .resolution import regularity

    return regularity(_module_arg(args.module), as_quotient=not args.submodule)


def _quot_dims(args: argparse.Namespace) -> dict:
    from .numpoly import grassmannian_embedding_dims

    shape = _shape_arg(args.module_shape)
    dims = grassmannian_embedding_dims(
        _poly_arg(args.poly), shape.n, shape.degrees, args.rank, mode=args.mode
    )
    return {key: getattr(dims, key) for key in ("s", "ambient_dim", "sub_dim", "grass_dim")}


def _module_degree_check(name: str) -> Callable[[argparse.Namespace], Any]:
    """Runs ``theorems.<name>(module, degree)``, looked up when it runs."""

    def run(args: argparse.Namespace) -> Any:
        from . import theorems

        return getattr(theorems, name)(_module_arg(args.module), args.degree)

    return run


def _check_regularity(args: argparse.Namespace) -> Any:
    from .theorems import check_gotzmann_regularity_adjusted

    return check_gotzmann_regularity_adjusted(_module_arg(args.module))


def _check_sharpness(args: argparse.Namespace) -> Any:
    from .numpoly import adjusted_gotzmann_rep
    from .theorems import check_sharpness

    poly, shape = _poly_arg(args.poly), _shape_arg(args.module_shape)
    # the report prints s: one too long to print is refused before the regularity work
    rep = adjusted_gotzmann_rep(poly, shape.n, shape.degrees, args.rank)
    _refuse_long_ints(rep.number, "the adjusted Gotzmann number s")
    return check_sharpness(poly, shape, args.rank)


def _check_gasharov(args: argparse.Namespace) -> Any:
    from .theorems import check_gasharov

    return check_gasharov(_module_arg(args.module), args.degree, args.p, args.which)


def _check_chern(args: argparse.Namespace) -> Any:
    from .chern import check_chern_bound

    shape = _shape_arg(args.module_shape)
    return check_chern_bound(
        _poly_arg(args.poly), args.n, args.sheaf_rank, shape.degrees, args.module_rank
    )


def _arg(*names: str, **kwargs: Any) -> Callable[[Any], Any]:
    """One ``add_argument`` call, made when the command's parser is built."""
    return lambda parser: parser.add_argument(*names, **kwargs)


def _one_of(*args: Callable[[Any], Any]) -> Callable[[Any], None]:
    """A required choice of exactly one of these arguments."""

    def add(parser: argparse.ArgumentParser) -> None:
        group = parser.add_mutually_exclusive_group(required=True)
        for arg in args:
            arg(group)

    return add


_VALUE_INDEX = (_arg("value", type=int), _arg("index", type=int))
_MODULE = _arg("--module", required=True)
_POLY = _arg("--poly", required=True)
_SHAPE = _arg("--module-shape", required=True)
_RANK = _arg("--rank", type=int, required=True)
_DEGREE = _arg("--degree", type=int, required=True)

# name -> (help, handler, arguments); a checker returns a CheckReport, from
# which main takes the exit code
_CHECKERS = {
    "macaulay": ("adjusted Macaulay bound at degree d",
                 _module_degree_check("check_macaulay_adjusted"), (_MODULE, _DEGREE)),
    "green": ("adjusted Green bound at degree d",
              _module_degree_check("check_green_adjusted"), (_MODULE, _DEGREE)),
    "persistence": ("adjusted persistence from degree d on",
                    _module_degree_check("check_persistence_adjusted"), (_MODULE, _DEGREE)),
    "regularity": ("adjusted Gotzmann regularity bound", _check_regularity, (_MODULE,)),
    "sharpness": ("saturated lex module attains the adjusted bound", _check_sharpness,
                  (_POLY, _SHAPE, _RANK)),
    "gasharov": ("Gasharov's bound, Macaulay or Green form", _check_gasharov,
                 (_MODULE, _DEGREE, _arg("--p", type=int, default=0),
                  _arg("--which", choices=("macaulay", "green"), default="macaulay"))),
    "chern": ("c2 <= c1^2 from the Hilbert polynomial", _check_chern,
              (_POLY, _arg("--n", type=int, required=True),
               _arg("--sheaf-rank", type=int, required=True), _SHAPE,
               _arg("--module-rank", type=int, required=True))),
}

# an entry whose handler is a table is a command with subcommands of its own
_COMMANDS = {
    "macaulay-rep": ("binomial expansion of A at index D", _macaulay_rep, _VALUE_INDEX),
    "macaulay-transform": ("growth bound transform", _macaulay_transform, _VALUE_INDEX),
    "green-transform": ("hyperplane bound transform", _green_transform, _VALUE_INDEX),
    "gotzmann-rep": ("binomial representation of a polynomial", _gotzmann_rep, (_POLY,)),
    "gotzmann-number": ("length of the representation", _gotzmann_number, (_POLY,)),
    "adjusted-rep": ("rank-adjusted representation", _adjusted_rep,
                     (_POLY, _arg("--module", required=True,
                                  help="module or shape JSON (n, degrees)"), _RANK)),
    "hilbert": ("Hilbert data of F/N", _hilbert_data,
                (_MODULE, _one_of(_arg("--function", nargs=2, type=int, metavar=("D0", "D1")),
                                  _arg("--series", action="store_true"),
                                  _arg("--polynomial", action="store_true"),
                                  _arg("--stabilize", action="store_true")))),
    "saturate": ("componentwise saturation", _saturate, (_MODULE,)),
    "rank": ("number of zero components", _rank, (_MODULE,)),
    "rho": ("free part and remainder of H(F/N, d)", _rho, (_MODULE, _DEGREE)),
    "lexify": ("lex submodule matching a Hilbert function", _lexify,
               (_SHAPE, _arg("--hf", required=True,
                             help='{"table": [[d, v], ...], "tail": {...}}'))),
    "lex-ideal": ("saturated lex ideal of a representation", _lex_ideal,
                  (_arg("--gotzmann", required=True, help='{"a": [...]}'),
                   _arg("--n", type=int, required=True))),
    "lex-module": ("saturated lex module of a polynomial", _lex_module, (_POLY, _SHAPE, _RANK)),
    "betti": ("graded Betti table from upper Koszul complexes over the lcm lattice", _betti,
              (_MODULE, _arg("--submodule", action="store_true",
                             help="resolve N instead of F/N"))),
    "regularity": ("Castelnuovo-Mumford regularity", _regularity,
                   (_MODULE, _arg("--submodule", action="store_true",
                                  help="of N instead of F/N"))),
    "quot-dims": ("Grassmannian embedding dimensions", _quot_dims,
                  (_POLY, _SHAPE, _RANK,
                   _arg("--mode", choices=("standard", "adjusted"), default="adjusted"))),
    "check": ("run one bound checker; see check CHECKER --help", _CHECKERS, ()),
}


def _add_commands(group: Any, table: dict, argv: list[str], common: argparse.ArgumentParser
                  ) -> None:
    """Adds to the subparsers ``group`` the command of ``table`` that argv[0]
    names, or every command when it names none (or argv is empty), so that
    help and "invalid choice" errors list them all.  A command with a table
    of its own (``check``) adds its subcommands the same way from argv[1:]."""
    named = bool(argv) and argv[0] in table
    for name in (argv[0],) if named else table:
        help, run, arguments = table[name]
        if isinstance(run, dict):
            checkers = group.add_parser(name, help=help).add_subparsers(
                dest="checker", required=True)
            _add_commands(checkers, run, argv[1:] if named else [], common)
            continue
        # no abbreviations: --module must not pass for --module-shape
        p = group.add_parser(name, parents=[common], help=help, allow_abbrev=False)
        p.set_defaults(run=run)
        for add in arguments:
            add(p)


def _build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser for ``argv``: only the command that argv names, or every
    command when argv is None or names none."""
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
    _add_commands(sub, _COMMANDS, argv or [], common)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    code = 0
    try:
        args = _build_parser(argv).parse_args(argv)
        payload = args.run(args)
        if args.command == "check":
            from .theorems import VIOLATED  # loaded already: the checker ran

            code = 1 if payload.verdict == VIOLATED else 0
            payload = payload.to_dict()
        try:
            _emit(payload, as_text=args.text)
        except ValueError:  # an integer too long to print: say which
            _refuse_long_ints(payload, f"the {args.command} result")
            raise
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: the exit flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (
        ValueError, KeyError, OSError, BudgetExceeded, MemoryError, json.JSONDecodeError
    ) as exc:
        # a MemoryError usually has no message: name the type instead
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except InvariantViolated as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return code


def run() -> int:
    """``main()`` as the process entry, with the heap frozen before and after.

    Only a process that exits when this returns may call it: the frozen
    objects are never collected.  That is why ``main(argv)`` is kept apart
    for in-process callers, whose heaps must stay collectable.
    """
    gc.freeze()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
