"""Command-line interface: output shapes, exit codes, error reporting."""
import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gotzmann import cli, monomial_algebra, numpoly, theorems
from gotzmann.cli import main
from gotzmann.errors import InvariantViolated, PreconditionViolated
from gotzmann.monomial_algebra import module_to_dict

from conftest import THREE_QUADRICS, ideal, module, set_node_budget

TWO_LINES = json.dumps(
    module_to_dict(module(1, (0, 0, 0), ["unit", "zero", "zero"]))
)
POINT_PAIR = json.dumps(module_to_dict(module(1, (0,), [ideal(1, "x0^2", "x0*x1")])))


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_transform_commands(capsys):
    assert run_cli(capsys, ["macaulay-transform", "4", "1"]) == (0, "10\n", "")
    assert run_cli(capsys, ["green-transform", "4", "1"]) == (0, "3\n", "")
    assert run_json(capsys, ["macaulay-rep", "4", "1"]) == {
        "value": 4,
        "d": 1,
        "terms": [[4, 1]],
    }


def test_representation_commands(capsys):
    line_pair = '{"coeffs": ["2", "2"]}'
    assert run_cli(capsys, ["gotzmann-number", "--poly", line_pair]) == (0, "3\n", "")
    assert run_json(capsys, ["gotzmann-rep", "--poly", line_pair]) == {"a": [1, 1, 0]}
    rep = run_json(
        capsys,
        [
            "adjusted-rep",
            "--poly",
            '{"coeffs": ["6", "5", "1"]}',
            "--module",
            '{"n": 2, "degrees": [-1, -1, 0]}',
            "--rank",
            "2",
        ],
    )
    assert rep == {"free_degrees": [-1, 0], "n": 2, "number": 2, "q": {"a": [1, 0]}}
    # --module takes a module as well as a shape, and reads it as its shape
    components = '"components": [{"gens": []}, {"gens": []}, {"unit": true}]'
    argv = ["adjusted-rep", "--poly", '{"coeffs": ["6", "5", "1"]}', "--rank", "2", "--module",
            f'{{"n": 2, "degrees": [-1, -1, 0], {components}}}']
    assert run_json(capsys, argv) == rep


def test_hilbert_modes(capsys):
    table = run_json(capsys, ["hilbert", "--module", TWO_LINES, "--function", "0", "3"])
    assert table == {"table": [[0, 2], [1, 4], [2, 6], [3, 8]]}
    series = run_json(capsys, ["hilbert", "--module", TWO_LINES, "--series"])
    assert series == {"denominator_power": 2, "numerator": [2], "offset": 0}
    poly = run_json(capsys, ["hilbert", "--module", TWO_LINES, "--polynomial"])
    assert poly == {"coeffs": ["2", "2"]}
    stab = run_json(capsys, ["hilbert", "--module", TWO_LINES, "--stabilize"])
    assert stab == {"stabilization_degree": -1}


def test_reversed_function_range_is_refused(capsys):
    # D0 > D1 used to print an empty table and exit 0
    argv = ["hilbert", "--module", TWO_LINES, "--function", "3", "0"]
    assert run_cli(capsys, argv) == (2, "", "error: --function needs D0 <= D1, got 3 and 0\n")
    table = run_json(capsys, ["hilbert", "--module", TWO_LINES, "--function", "2", "2"])
    assert table == {"table": [[2, 6]]}


def test_function_range_past_the_term_budget_is_refused(monkeypatch, capsys):
    # one H value per degree: 10^8 of them would take minutes and gigabytes,
    # so the range is refused before any is read
    argv = ["hilbert", "--module", TWO_LINES, "--function", "0", "99999999"]
    assert run_cli(capsys, argv) == (
        2, "", "error: --function spans 100000000 degrees, more than 1000000\n"
    )
    # the bound is TERM_BUDGET degrees, inclusive
    monkeypatch.setattr(numpoly, "TERM_BUDGET", 4)
    table = run_json(capsys, ["hilbert", "--module", TWO_LINES, "--function", "-1", "2"])
    assert table == {"table": [[-1, 0], [0, 2], [1, 4], [2, 6]]}
    argv = ["hilbert", "--module", TWO_LINES, "--function", "-1", "3"]
    assert run_cli(capsys, argv) == (2, "", "error: --function spans 5 degrees, more than 4\n")


def test_module_utility_commands(capsys):
    assert run_cli(capsys, ["rank", "--module", TWO_LINES]) == (0, "2\n", "")
    rho = run_json(capsys, ["rho", "--module", TWO_LINES, "--degree", "2"])
    assert rho == {"degree": 2, "free": 6, "rho": 0}
    saturated = run_json(capsys, ["saturate", "--module", POINT_PAIR])
    assert saturated["components"] == [{"gens": ["x0"]}]


def test_resolution_commands(capsys):
    quotient = run_json(capsys, ["betti", "--module", POINT_PAIR])
    assert quotient == {"betti": [[0, 0, 1], [1, 2, 2], [2, 3, 1]]}
    submodule = run_json(capsys, ["betti", "--module", POINT_PAIR, "--submodule"])
    assert submodule == {"betti": [[0, 2, 2], [1, 3, 1]]}
    assert run_cli(capsys, ["regularity", "--module", POINT_PAIR]) == (0, "1\n", "")
    assert run_cli(
        capsys, ["regularity", "--module", POINT_PAIR, "--submodule"]
    ) == (0, "2\n", "")


def test_lex_commands(capsys):
    segment = run_json(capsys, ["lex-ideal", "--gotzmann", '{"a": [1, 0]}', "--n", "2"])
    assert segment == {"n": 2, "gens": ["x0^2", "x0*x1"]}
    lex_module = run_json(
        capsys,
        [
            "lex-module",
            "--poly",
            '{"coeffs": ["6", "5", "1"]}',
            "--module-shape",
            '{"n": 2, "degrees": [-1, -1, 0]}',
            "--rank",
            "2",
        ],
    )
    assert lex_module["components"] == [{"gens": ["x0"]}, {"gens": []}, {"gens": []}]
    lexified = run_json(
        capsys,
        [
            "lexify",
            "--module-shape",
            '{"n": 1, "degrees": [0, 0, 0]}',
            "--hf",
            '{"table": [[0, 2], [1, 4], [2, 6]], "tail": {"coeffs": ["2", "2"]}}',
        ],
    )
    assert lexified["components"] == [{"unit": True}, {"gens": []}, {"gens": []}]


def test_lex_ideal_at_large_gotzmann_number(capsys):
    # s = 200 in P^4: read off the run lengths (2, 5, 10, 183), not enumerated
    a = [3, 3] + [2] * 5 + [1] * 10 + [0] * 183
    out = run_json(capsys, ["lex-ideal", "--gotzmann", json.dumps({"a": a}), "--n", "4"])
    assert out == {
        "n": 4,
        "gens": ["x0^3", "x0^2*x1^6", "x0^2*x1^5*x2^11", "x0^2*x1^5*x2^10*x3^183"],
    }


def test_quot_dims(capsys):
    base = [
        "quot-dims",
        "--poly",
        '{"coeffs": ["4", "3"]}',
        "--module-shape",
        '{"n": 1, "degrees": [0, 0, 0, 0, 0]}',
        "--rank",
        "3",
    ]
    adjusted = run_json(capsys, base)
    assert adjusted == {"ambient_dim": 10, "grass_dim": 21, "s": 1, "sub_dim": 7}
    standard = run_json(capsys, base + ["--mode", "standard"])
    assert standard == {"ambient_dim": 40, "grass_dim": 375, "s": 7, "sub_dim": 25}


def test_every_hyperplane_read_refuses_n_0_with_one_message(capsys):
    # the public hyperplane value and both Green-form checkers reach the
    # kernel term, whose one n >= 1 check refuses a module over a point
    # with one message; the CLI prints it as one error: line and exits 2
    point = '{"n": 0, "degrees": [0], "components": [{"gens": ["x0^2"]}]}'
    sub = monomial_algebra.module_from_dict(json.loads(point))
    message = "hyperplane restriction needs n >= 1, got 0"
    for read in (
        lambda: monomial_algebra.generic_hyperplane_hf(sub, 1),
        lambda: theorems.check_green_adjusted(sub, 1),
        lambda: theorems.check_gasharov(sub, 1, 0, "green"),
    ):
        with pytest.raises(PreconditionViolated) as refused:
            read()
        assert str(refused.value) == message
    for argv in (
        ["check", "green", "--module", point, "--degree", "1"],
        ["check", "gasharov", "--module", point, "--degree", "1", "--which", "green"],
    ):
        assert run_cli(capsys, argv) == (2, "", f"error: {message}\n")


def test_check_commands_pass(capsys):
    for argv, lhs, rhs, verdict in [
        (["check", "macaulay", "--module", TWO_LINES, "--degree", "1"], 6, 6, "sharp"),
        (["check", "green", "--module", TWO_LINES, "--degree", "1"], 2, 2, "sharp"),
        # read at the last degree checked, d + n + 1 = 3: H(4) = 10
        (["check", "persistence", "--module", TWO_LINES, "--degree", "1"], 10, 10, "sharp"),
        (["check", "regularity", "--module", TWO_LINES], 0, 0, "sharp"),
        (
            ["check", "gasharov", "--module", TWO_LINES, "--degree", "1", "--which", "green"],
            2,
            3,
            "holds",
        ),
    ]:
        report = run_json(capsys, argv)
        assert report["verdict"] == verdict, argv
        assert report["bound_lhs"] == lhs
        assert report["bound_rhs"] == rhs


def test_check_sharpness_and_chern(capsys):
    report = run_json(
        capsys,
        [
            "check",
            "sharpness",
            "--poly",
            '{"coeffs": ["4", "2"]}',
            "--module-shape",
            '{"n": 1, "degrees": [0, 0, 0]}',
            "--rank",
            "2",
        ],
    )
    assert report["verdict"] == "sharp"
    assert report["bound_lhs"] == report["bound_rhs"] == 2
    assert report["context"]["lex_module"]["components"][0] == {"gens": ["x0^2"]}
    chern = run_json(
        capsys,
        [
            "check",
            "chern",
            "--poly",
            '{"coeffs": ["4", "11/6", "1", "1/6"]}',
            "--n",
            "3",
            "--sheaf-rank",
            "1",
            "--module-shape",
            '{"n": 3, "degrees": [0, 0]}',
            "--module-rank",
            "1",
        ],
    )
    assert chern["verdict"] == "sharp"
    assert chern["context"] == {"adjusted_number": 3, "c1": 0, "c2": 0}


def test_violated_check_exits_one(capsys, monkeypatch):
    # the adjusted bounds hold on every valid input, so a violation has to
    # be injected to pin down the exit-code contract
    def fake_check(submodule, d):
        return theorems.CheckReport(
            name="macaulay_adjusted",
            instance={},
            premises_hold=True,
            bound_lhs=5,
            bound_rhs=4,
            verdict=theorems.VIOLATED,
            context={},
        )

    monkeypatch.setattr(theorems, "check_macaulay_adjusted", fake_check)
    code, out, err = run_cli(
        capsys, ["check", "macaulay", "--module", TWO_LINES, "--degree", "1"]
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "violated"
    assert err == ""


def test_internal_fault_exits_three(capsys, monkeypatch):
    # the message of the rho window invariant in monomial_algebra._rho
    message = "rho = -1 escapes [0, 2] at degree 1 for " + str(
        module(1, (0, 0, 0), ["unit", "zero", "zero"])
    )

    def faulty_rank(submodule):
        raise InvariantViolated(message)

    # the handler imports rank when it runs, so it finds the patched one
    monkeypatch.setattr(monomial_algebra, "rank", faulty_rank)
    code, out, err = run_cli(capsys, ["rank", "--module", TWO_LINES])
    assert code == 3
    assert out == ""
    assert err == f"internal error: {message}\n"
    assert "Traceback" not in err


def test_out_of_memory_exits_two(capsys, monkeypatch):
    def exhausted_rank(submodule):
        raise MemoryError

    monkeypatch.setattr(monomial_algebra, "rank", exhausted_rank)
    code, out, err = run_cli(capsys, ["rank", "--module", TWO_LINES])
    assert code == 2
    assert out == ""
    assert err == "error: MemoryError\n"


def test_series_budget_exits_two(capsys, monkeypatch):
    set_node_budget(monkeypatch, 1)
    argv = ["hilbert", "--module", json.dumps(module_to_dict(THREE_QUADRICS)), "--series"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: series pivot recursion exceeded its node budget\n"


_EXPONENTS = st.lists(st.integers(0, 2), min_size=3, max_size=3)
_COMPONENT = st.one_of(
    st.just({"unit": True}),
    st.lists(_EXPONENTS, max_size=4).map(
        lambda gens: {
            "gens": [
                "*".join(f"x{v}^{e}" for v, e in enumerate(exps) if e) or "1"
                for exps in gens
            ]
        }
    ),
)
_MODULE = st.lists(
    st.tuples(st.sampled_from([-1, 0, 0, 1]), _COMPONENT), min_size=1, max_size=3
).map(
    lambda pairs: json.dumps(
        {
            "n": 2,
            "degrees": sorted(f for f, _ in pairs),
            "components": [c for _, c in pairs],
        }
    )
)
# r free summands C(d + 2, 2) plus a Gotzmann representation, or any
# coefficient list
_POLY = st.one_of(
    st.tuples(
        st.integers(0, 2), st.lists(st.integers(0, 1), max_size=4).map(sorted)
    ).map(
        lambda t: json.dumps(
            {
                "terms": [{"a": 2, "shift": 2}] * t[0]
                + [{"a": a, "shift": a - i} for i, a in enumerate(reversed(t[1]))]
            }
        )
    ),
    st.lists(st.integers(-3, 6), min_size=1, max_size=3).map(
        lambda cs: json.dumps({"coeffs": [str(c) for c in cs]})
    ),
)
_SHAPE = st.lists(st.sampled_from([-1, 0, 0, 1]), min_size=1, max_size=3).map(
    lambda fs: json.dumps({"n": 2, "degrees": sorted(fs)})
)
_DEGREE = st.integers(-1, 5).map(str)
_CHECK_ARGV = st.one_of(
    st.tuples(
        st.sampled_from(["macaulay", "green", "persistence"]), _MODULE, _DEGREE
    ).map(lambda t: ["check", t[0], "--module", t[1], "--degree", t[2]]),
    _MODULE.map(lambda m: ["check", "regularity", "--module", m]),
    st.tuples(
        _MODULE, _DEGREE, st.integers(0, 2), st.sampled_from(["macaulay", "green"])
    ).map(
        lambda t: ["check", "gasharov", "--module", t[0], "--degree", t[1],
                   "--p", str(t[2]), "--which", t[3]]
    ),
    st.tuples(_POLY, _SHAPE, st.integers(0, 3)).map(
        lambda t: ["check", "sharpness", "--poly", t[0], "--module-shape", t[1],
                   "--rank", str(t[2])]
    ),
    st.tuples(_POLY, _SHAPE, st.integers(0, 2), st.integers(0, 2)).map(
        lambda t: ["check", "chern", "--poly", t[0], "--n", "2", "--sheaf-rank",
                   str(t[2]), "--module-shape", t[1], "--module-rank", str(t[3])]
    ),
)


@settings(max_examples=80, deadline=None)
@given(_CHECK_ARGV)
def test_exit_one_only_with_violated_report(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code in (0, 1):
        assert err == ""
        violated = json.loads(out)["verdict"] == "violated"
        assert violated == (code == 1), (argv, out)
    else:
        assert code in (2, 3), (argv, code)
        assert out == ""
        assert err.startswith("error: " if code == 2 else "internal error: "), (argv, err)


def test_error_paths_exit_two(capsys):
    cases = [
        (
            ["check", "macaulay", "--module", TWO_LINES],
            "the following arguments are required: --degree",
        ),
        (["gotzmann-rep", "--poly", '{"coeffs": ["-1"]}'], "negative leading"),
        (["gotzmann-rep", "--poly", "{bad"], "Expecting property name"),
        (["gotzmann-rep", "--poly", "no_such_file.json"], "No such file"),
        (
            ["lexify", "--module-shape", '{"n": 1, "degrees": [0]}', "--hf", '{"table": []}'],
            "needs 'tail'",
        ),
        (
            ["adjusted-rep", "--poly", '{"coeffs": ["1", "1"]}', "--module", '{"n": 1}', "--rank", "0"],
            "missing field 'degrees'",
        ),
        (
            [
                "check",
                "sharpness",
                "--poly",
                '{"coeffs": ["6", "5", "1"]}',
                "--module-shape",
                '{"n": 2, "degrees": [-1, -1, 0]}',
                "--rank",
                "2",
            ],
            "f_(m-r) = 0 fails",
        ),
        (["rank", "--module", '{"n": 1, "degrees": [0], "components": [5]}'], "must be an object"),
        (["rank", "--module", '{"n": 1, "degrees": [0], "components": [{"gens": [5]}]}'], "'gens'"),
        (["gotzmann-rep", "--poly", '{"coeffs": 5}'], "'coeffs' must be a list"),
        (["gotzmann-rep", "--poly", '{"terms": [{"a": null, "shift": 0}]}'], "terms[0]"),
        (["lex-ideal", "--gotzmann", '{"a": 5}', "--n", "2"], "'a' must be a list"),
        (
            ["lexify", "--module-shape", '{"n": 1, "degrees": 0}', "--hf", '{"tail": {"coeffs": [1]}}'],
            "integer 'n' and 'degrees'",
        ),
        (["rank"], "the following arguments are required: --module"),
        *(
            (["quot-dims", "--poly", '{"coeffs": ["4", "3"]}', "--module-shape",
              '{"n": 1, "degrees": [0, 0, 0, 0, 0]}', "--rank", rank, "--mode", mode],
             f"rank r={rank} must lie in [0, 5]")
            for rank in ("99", "-4")
            for mode in ("standard", "adjusted")
        ),
        (
            [
                "lexify",
                "--module-shape",
                '{"n": 1, "degrees": [0]}',
                "--hf",
                '{"table": [[0, 1], [1, 2.9]], "tail": {"coeffs": [1, 1]}}',
            ],
            "(1, 2.9) is not a pair of integers",
        ),
        (
            [
                "lexify",
                "--module-shape",
                '{"n": 1, "degrees": [0]}',
                "--hf",
                '{"table": [[0, true]], "tail": {"coeffs": [1, 1]}}',
            ],
            "(0, True) is not a pair of integers",
        ),
        (
            ["lexify", "--module-shape", '{"n": 1, "degrees": [0]}', "--hf", '{"table": [5], "tail": {"coeffs": [1]}}'],
            "integer pairs",
        ),
        # JSON integers are taken only as integers: no float, bool or string is truncated
        (["rank", "--module", '{"n": 1.7, "degrees": [0], "components": [{"gens": ["x0"]}]}'], "got 1.7"),
        (["rank", "--module", '{"n": 1, "degrees": [0.9], "components": [{"gens": ["x0"]}]}'], "[0.9]"),
        (["rank", "--module", '{"n": true, "degrees": [0], "components": [{"gens": ["x0"]}]}'], "got True"),
        (["rank", "--module", '{"n": "1", "degrees": [0], "components": [{"gens": ["x0"]}]}'], "got '1'"),
        (["lex-ideal", "--gotzmann", '{"a": [1.9, 0]}', "--n", "2"], "[1.9, 0]"),
        (["lex-ideal", "--gotzmann", '{"a": [true]}', "--n", "2"], "[True]"),
        (
            ["lex-module", "--poly", '{"coeffs": [1]}', "--module-shape", '{"n": 2.5, "degrees": [0]}', "--rank", "0"],
            "module shape needs integer 'n' and 'degrees', got 2.5",
        ),
        (
            ["gotzmann-rep", "--poly", '{"terms": [{"a": 1.5, "shift": 0}]}'],
            "terms[0]: 'a' and 'shift' must be integers",
        ),
        (
            ["gotzmann-rep", "--poly", '{"terms": [{"a": 1, "shift": false}]}'],
            "terms[0]: 'a' and 'shift' must be integers",
        ),
    ]
    for argv, fragment in cases:
        code, out, err = run_cli(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ")
        assert fragment in err, (argv, err)



def test_series_of_a_huge_exponent_is_refused_in_one_line(capsys):
    # betti answers x0^99999999999 at once; its series numerator would be
    # dense over 10^11 exponents, so hilbert --series refuses it
    huge = '{"n": 1, "degrees": [0], "components": [{"gens": ["x0^99999999999"]}]}'
    assert run_json(capsys, ["betti", "--module", huge]) == {"betti": [[0, 0, 1], [1, 99999999999, 1]]}
    code, out, err = run_cli(capsys, ["hilbert", "--module", huge, "--series"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err[:200]


def test_deeply_nested_json_is_refused_in_one_line(capsys):
    # the JSON parser recurses once per bracket; past the recursion limit
    # that is an input error, not a traceback
    code, out, err = run_cli(capsys, ["rank", "--module", "[" * 100000])
    assert (code, out) == (2, "")
    assert err == "error: JSON nested too deeply\n"


def test_lexify_refuses_a_repeated_table_degree_in_one_line(capsys):
    # the table gives H(0) as 0 and as 1: refused, not collapsed to one value
    hf = '{"table": [[0, 0], [0, 1], [1, 2]], "tail": {"coeffs": [3]}}'
    code, out, err = run_cli(
        capsys, ["lexify", "--module-shape", '{"n": 1, "degrees": [0]}', "--hf", hf]
    )
    assert (code, out) == (2, "")
    assert err == "error: table gives degree 0 more than once\n", err


def test_polynomial_of_a_huge_exponent_is_answered(capsys):
    # P = C(d + 1, 1) - C(d - 99999999999 + 1, 1), one binomial per term of
    # the sparse numerator 1 - t^99999999999: the constant 99999999999
    huge = '{"n": 1, "degrees": [0], "components": [{"gens": ["x0^99999999999"]}]}'
    poly = run_json(capsys, ["hilbert", "--module", huge, "--polynomial"])
    assert poly == {"coeffs": ["99999999999"]}
    sub = monomial_algebra.module_from_dict(json.loads(huge))
    assert monomial_algebra.hilbert_polynomial(sub) == numpoly.NumPoly([99999999999])


def test_hilbert_values_of_a_huge_exponent_are_answered(capsys):
    # H and the checkers that read it come off the sparse numerator
    # 1 - t^99999999999, so no span of it is built: H(d) = d + 1 below it
    huge = '{"n": 1, "degrees": [0], "components": [{"gens": ["x0^99999999999"]}]}'
    table = run_json(capsys, ["hilbert", "--module", huge, "--function", "0", "3"])
    assert table == {"table": [[0, 1], [1, 2], [2, 3], [3, 4]]}
    # 4 = 3^<2> and, x0^99999999999 being saturated, the restriction 1 = 3_<2>
    for which, bounds in (("macaulay", (4, 4)), ("green", (1, 1))):
        report = run_json(capsys, ["check", which, "--module", huge, "--degree", "2"])
        assert (report["bound_lhs"], report["bound_rhs"], report["verdict"]) == (*bounds, "sharp")


def test_rep_of_degree_1000_answers_and_refuses_in_one_short_line(capsys):
    # C(d + 1000, 1000) is one term; C(d, 1000) peels it and leaves a remainder
    # of degree 999 that leads with -1000, and half of it is not integer-valued
    one_term = {"terms": [{"a": 1000, "shift": 1000}]}
    assert run_json(capsys, ["gotzmann-rep", "--poly", json.dumps(one_term)]) == {"a": [1000]}
    for mult, fragment in [(1, "degree 999 has negative leading coordinate -1000 at term 1"),
                           ("1/2", "degree 1000 is not integer-valued")]:
        poly = {"terms": [{"a": 1000, "shift": 0, "mult": mult}]}
        code, out, err = run_cli(capsys, ["gotzmann-rep", "--poly", json.dumps(poly)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 1024, err[:200]
        assert fragment in err, err

def test_gotzmann_numbers_past_the_term_budget_are_answered(capsys):
    # the representation of P = 2,000,000 is one run of 2,000,000 zeros:
    # every command that reads its number or runs answers, and only the
    # ones that print its exponent list refuse, with one line
    p = '{"coeffs": [2000000]}'
    line = '{"n": 1, "degrees": [0]}'
    assert run_cli(capsys, ["gotzmann-number", "--poly", p]) == (0, "2000000\n", "")
    assert run_json(capsys, ["quot-dims", "--poly", p, "--module-shape", line, "--rank", "0"]) == {
        "ambient_dim": 2000001, "grass_dim": 2000000, "s": 2000000, "sub_dim": 2000000}
    lex = run_json(capsys, ["lex-module", "--poly", p, "--module-shape", line, "--rank", "0"])
    assert lex["components"] == [{"gens": ["x0^2000000"]}]
    power = json.dumps(module_to_dict(module(1, (0,), [ideal(1, "x0^2000000")])))
    report = run_json(capsys, ["check", "regularity", "--module", power])
    assert (report["context"]["s"], report["bound_lhs"], report["verdict"]) == (2000000, 2000000, "sharp")
    report = run_json(capsys, ["check", "sharpness", "--poly", '{"coeffs": [1000000000000]}',
                               "--module-shape", '{"n": 3, "degrees": [0]}', "--rank", "0"])
    assert (report["bound_lhs"], report["bound_rhs"], report["verdict"]) == (10**12, 10**12, "sharp")
    assert report["context"]["lex_module"]["components"] == [{"gens": ["x0", "x1", "x2^1000000000000"]}]
    refusal = (2, "", "error: representation needs more than 1000000 terms\n")
    assert run_cli(capsys, ["gotzmann-rep", "--poly", p]) == refusal
    assert run_cli(capsys, ["adjusted-rep", "--poly", p, "--module", line, "--rank", "0"]) == refusal
    assert run_json(capsys, ["gotzmann-rep", "--poly", '{"coeffs": [1000000]}'])["a"] == [0] * 10**6


def test_runs_that_square_in_length_are_refused_in_one_line(capsys):
    # P = 10 C(d + 40, 40): each run's length is about the square of the one
    # before (10, 45, 1.3e3, 9e5, 4e11, ...), so the peel stops once its
    # coordinates would pass TERM_BUDGET bits, with the term-budget message
    p = json.dumps({"terms": [{"a": 40, "shift": 40, "mult": 10}]})
    shape = '{"n": 41, "degrees": [0]}'
    refusal = (2, "", "error: representation needs more than 1000000 terms\n")
    start = time.perf_counter()
    for argv in (["gotzmann-number", "--poly", p], ["gotzmann-rep", "--poly", p],
                 ["adjusted-rep", "--poly", p, "--module", shape, "--rank", "0"],
                 ["quot-dims", "--poly", p, "--module-shape", shape, "--rank", "0"],
                 ["lex-module", "--poly", p, "--module-shape", shape, "--rank", "0"],
                 ["check", "sharpness", "--poly", p, "--module-shape", shape, "--rank", "0"],
                 ["check", "chern", "--poly", p, "--n", "40", "--sheaf-rank", "10",
                  "--module-shape", '{"n": 40, "degrees": [0]}', "--module-rank", "0"]):
        assert run_cli(capsys, argv) == refusal, argv
    assert time.perf_counter() - start < 10


def test_numbers_too_long_to_print_are_refused_in_one_line(capsys, monkeypatch):
    # P = 10 C(d + 16, 16) passes the peel's size guard, and its Gotzmann
    # number has 46,383 digits, more than the interpreter converts to text:
    # the refusal names the number and its digit count, and check sharpness
    # refuses before any of the checker's regularity work
    limit = sys.get_int_max_str_digits()
    if not limit or limit >= 46383:
        pytest.skip("this interpreter prints integers of 46,383 digits")
    p = json.dumps({"terms": [{"a": 16, "shift": 16, "mult": 10}]})
    s = numpoly.gotzmann_number(numpoly.poly_from_dict(json.loads(p)))
    assert 10**46382 <= s < 10**46383
    digits = f"has 46383 digits, more than the {limit} that are printed\n"
    for argv in (["gotzmann-number", "--poly", p], ["gotzmann-number", "--text", "--poly", p]):
        assert run_cli(capsys, argv) == (2, "", "error: the gotzmann-number result " + digits)
    shape = '{"n": 17, "degrees": [0]}'
    argv = ["quot-dims", "--poly", p, "--module-shape", shape, "--rank", "0"]
    assert run_cli(capsys, argv) == (2, "", "error: the quot-dims result['s'] " + digits)
    checked = []
    monkeypatch.setattr(theorems, "check_sharpness", lambda *args: checked.append(args))
    argv = ["check", "sharpness", "--poly", p, "--module-shape", shape, "--rank", "0"]
    assert run_cli(capsys, argv) == (2, "", "error: the adjusted Gotzmann number s " + digits)
    assert not checked


def test_refused_numbers_are_named_with_their_digit_count():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter prints integers of any length")
    for k in (limit, limit + 1, limit + 700):
        for value in (10**k - 1, 10**k, 10**k + 1, -(10**k), 1 << int(k * 3.33)):
            if abs(value) < 10**limit:
                cli._refuse_long_ints(value, "v")  # printable: nothing to refuse
                continue
            # v has `limit` digits more than v // 10**limit, which prints
            count = limit + len(str(abs(value) // 10**limit))
            with pytest.raises(ValueError, match=f"^v has {count} digits, more than the {limit} "):
                cli._refuse_long_ints(value, "v")


def one_component(component):
    return f'{{"n": 1, "degrees": [0], "components": [{component}]}}'


@pytest.mark.parametrize(
    "component, fragment",
    [
        # a "unit" that is not a JSON boolean used to mean the unit ideal when truthy
        ('{"unit": "false"}', "ideal 'unit' must be true or false, got 'false'"),
        ('{"unit": 1}', "ideal 'unit' must be true or false, got 1"),
        ('{"unit": null}', "ideal 'unit' must be true or false, got None"),
        # a misspelt key used to be ignored, which read the zero ideal
        ('{"gen": ["x0"]}', "ideal JSON takes only 'unit' and 'gens', got ['gen']"),
        ('{"gens": ["x0"], "degree": 1}', "got ['degree']"),
        ('{"unit": true, "gens": ["x0"]}', "a unit ideal takes no 'gens'"),
    ],
)
def test_ideal_json_is_read_as_written(capsys, component, fragment):
    code, out, err = run_cli(capsys, ["rank", "--module", one_component(component)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and fragment in err, err


def test_ideal_json_unit_flag_with_gens(capsys):
    assert run_cli(capsys, ["rank", "--module", one_component('{"unit": true, "gens": []}')]) == (0, "0\n", "")
    assert run_cli(capsys, ["rank", "--module", one_component('{"unit": false, "gens": []}')]) == (0, "1\n", "")
    saturated = run_json(capsys, ["saturate", "--module", one_component('{"unit": false, "gens": ["x0"]}')])
    assert saturated["components"] == [{"gens": ["x0"]}]


@pytest.mark.parametrize(
    "argv, fragment",
    [
        # each of these readers used to skip an unknown key as if it were absent
        (
            ["rank", "--module", '{"n": 1, "degrees": [0], "components": [{"gens": []}], "degree": [5]}'],
            "module JSON takes only 'n', 'degrees' and 'components', got ['degree']",
        ),
        (
            ["lexify", "--module-shape", '{"n": 1, "degrees": [0], "components": []}',
             "--hf", '{"tail": {"coeffs": [1]}}'],
            "module shape takes only 'n' and 'degrees', got ['components']",
        ),
        (
            ["lex-ideal", "--gotzmann", '{"a": [1, 0], "b": 2}', "--n", "2"],
            "representation JSON takes only 'a', got ['b']",
        ),
        (
            ["lexify", "--module-shape", '{"n": 1, "degrees": [0]}',
             "--hf", '{"table": [[0, 1]], "tail": {"coeffs": [1]}, "tial": 3}'],
            "Hilbert-function JSON takes only 'table' and 'tail', got ['tial']",
        ),
        (
            ["gotzmann-rep", "--poly", '{"terms": [{"a": 1, "shift": 0, "mul": 3}]}'],
            "terms[0] takes only 'a', 'shift' and 'mult', got ['mul']",
        ),
        # adjusted-rep reads a module's components, so a misspelt one is refused
        (
            ["adjusted-rep", "--poly", '{"coeffs": ["1", "1"]}', "--rank", "1",
             "--module", one_component('{"gen": []}')],
            "ideal JSON takes only 'unit' and 'gens', got ['gen']",
        ),
    ],
)
def test_json_readers_refuse_unknown_keys(capsys, argv, fragment):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and fragment in err, err


@pytest.mark.parametrize(
    "poly, fragment",
    [
        # "terms" used to be dropped silently next to "coeffs"
        (
            '{"coeffs": ["1"], "terms": [{"a": 1, "shift": 0}]}',
            "exactly one of 'coeffs' and 'terms', got ['coeffs', 'terms']",
        ),
        ('{"coeffs": ["1"], "coef": ["2"]}', "got ['coeffs', 'coef']"),
        ('{"term": [{"a": 1, "shift": 0}]}', "got ['term']"),
        ("{}", "exactly one of 'coeffs' and 'terms', got []"),
    ],
)
def test_poly_json_needs_exactly_one_form(capsys, poly, fragment):
    code, out, err = run_cli(capsys, ["gotzmann-rep", "--poly", poly])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and fragment in err, err


def test_text_output(capsys):
    code, out, _ = run_cli(capsys, ["macaulay-transform", "4", "1", "--text"])
    assert (code, out) == (0, "10\n")
    code, out, _ = run_cli(
        capsys, ["check", "macaulay", "--module", TWO_LINES, "--degree", "1", "--text"]
    )
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["verdict"] == '"sharp"'
    assert lines["bound_lhs"] == lines["bound_rhs"] == "6"


def test_green_check_deterministic(capsys):
    argv = ["check", "green", "--module", TWO_LINES, "--degree", "2"]
    assert run_json(capsys, argv) == run_json(capsys, argv)


@pytest.mark.parametrize("flag", ["--seed", "--samples"])
def test_sampling_flags_are_gone(capsys, flag):
    argv = ["check", "green", "--module", TWO_LINES, "--degree", "2", flag, "1"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert f"unrecognized arguments: {flag} 1" in err


# one valid command line per checker; gasharov's --p and --which have defaults
CHECKER_FLAGS = {
    "macaulay": {"--module": TWO_LINES, "--degree": "1"},
    "green": {"--module": TWO_LINES, "--degree": "1"},
    "persistence": {"--module": TWO_LINES, "--degree": "1"},
    "regularity": {"--module": TWO_LINES},
    "sharpness": {
        "--poly": '{"coeffs": ["4", "2"]}',
        "--module-shape": '{"n": 1, "degrees": [0, 0, 0]}',
        "--rank": "2",
    },
    "gasharov": {"--module": TWO_LINES, "--degree": "1", "--p": "0", "--which": "green"},
    "chern": {
        "--poly": '{"coeffs": ["4", "11/6", "1", "1/6"]}',
        "--n": "3",
        "--sheaf-rank": "1",
        "--module-shape": '{"n": 3, "degrees": [0, 0]}',
        "--module-rank": "1",
    },
}


def check_argv(checker, flags):
    return ["check", checker, *itertools.chain.from_iterable(flags.items())]


@pytest.mark.parametrize("checker", list(CHECKER_FLAGS))
def test_check_flags_belong_to_their_checker(capsys, checker):
    own = CHECKER_FLAGS[checker]
    assert run_cli(capsys, check_argv(checker, own))[0] == 0
    foreign = {
        flag: value
        for flags in CHECKER_FLAGS.values()
        for flag, value in flags.items()
        if flag not in own
    }
    assert foreign
    for flag, value in foreign.items():
        code, out, err = run_cli(capsys, check_argv(checker, own) + [flag, value])
        assert (code, out) == (2, ""), flag
        assert err == f"error: unrecognized arguments: {flag} {value}\n"
    for flag in own.keys() - {"--p", "--which"}:
        rest = {f: v for f, v in own.items() if f != flag}
        code, out, err = run_cli(capsys, check_argv(checker, rest))
        assert (code, out) == (2, ""), flag
        assert err == f"error: the following arguments are required: {flag}\n"


def command_tree():
    """{leaf command path: {flag: (number of values, required)}}, read off
    the parser (-h/--help left out)."""
    tree = {}

    def walk(parser, path):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    walk(child, path + (name,))
                return
        tree[path] = {
            flag: (1 if action.nargs is None else action.nargs, action.required)
            for action in parser._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        }

    walk(cli._build_parser(), ())
    return tree


_TREE = command_tree()
_ARITY = {flag: n for flags in _TREE.values() for flag, (n, _) in flags.items()}
_INT = st.integers(-2, 5).map(str)
_VALUE_OF = {
    "--module": _MODULE,
    "--poly": _POLY,
    "--module-shape": _SHAPE,
    "--gotzmann": st.lists(st.integers(0, 3), max_size=4).map(
        lambda a: json.dumps({"a": sorted(a, reverse=True)})
    ),
    "--hf": _POLY.map(lambda tail: f'{{"table": [[0, 1]], "tail": {tail}}}'),
}
_ANY_VALUE = st.one_of(
    _INT, *_VALUE_OF.values(), st.sampled_from(["macaulay", "green", "standard", "adjusted"])
)


def flag_args(flag, value=None):
    if value is None:
        value = st.one_of(_VALUE_OF.get(flag, _INT), _ANY_VALUE)
    count = _ARITY[flag]
    return st.lists(value, min_size=count, max_size=count).map(lambda vs: [flag, *vs])


def misplaced_argv(path):
    # half the time the command's required flags with values of their kind
    # come first, so that its handler runs; then 0-4 flags, mostly its own,
    # else any command's, plus bare integers for the transforms' positionals
    required = [f for f, (_, req) in _TREE[path].items() if req]
    prefix = st.one_of(
        st.just(()),
        st.tuples(*(flag_args(f, _VALUE_OF.get(f, _INT)) for f in required)),
    )
    own = st.sampled_from(sorted(_TREE[path]))
    flag = st.one_of(own, own, st.sampled_from(sorted(_ARITY)))
    group = st.one_of(flag.flatmap(flag_args), _INT.map(lambda i: [i]))
    return st.tuples(prefix, st.lists(group, max_size=4)).map(
        lambda t: [*path, *(token for g in t[0] + tuple(t[1]) for token in g)]
    )


_MISPLACED_ARGV = st.sampled_from(sorted(_TREE)).flatmap(misplaced_argv)


@settings(max_examples=300, deadline=None)
@given(_MISPLACED_ARGV)
def test_exit_codes_over_misplaced_flags(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    if code in (0, 1):
        assert err == "", argv
        violated = re.search(r'\bverdict"?: "violated"', out) is not None
        assert violated == (code == 1), (argv, out)
    else:
        assert out == "", argv
        assert err.startswith("error: " if code == 2 else "internal error: "), (argv, err)


def subparsers(parser):
    """{name: subparser} of the parser's subcommands."""
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def argument_table(parser):
    return [
        (a.option_strings, a.dest, a.nargs, a.const, a.default, a.type, a.choices,
         a.required, a.help, a.metavar)
        for a in parser._actions
    ]


@pytest.mark.parametrize("path", sorted(_TREE), ids=" ".join)
def test_a_call_builds_only_the_parser_it_names(path):
    full, built = cli._build_parser(), cli._build_parser(list(path))
    for name in path:
        assert list(subparsers(built)) == [name]
        full, built = subparsers(full)[name], subparsers(built)[name]
    assert built.format_help() == full.format_help()
    assert argument_table(built) == argument_table(full)


def usage_error(argv):
    """What the parser with every command says about argv."""
    with pytest.raises(ValueError) as info:
        cli._build_parser().parse_args(argv)
    return str(info.value)


@pytest.mark.parametrize(
    "argv",
    [[], ["nope"], ["--json"], ["check"], ["check", "nope"], ["check", "--json", "macaulay"],
     ["nope", "macaulay"]],
    ids=repr,
)
def test_no_command_named_reads_as_the_full_parser(capsys, argv):
    # "invalid choice" and "required" errors list every command and checker
    assert run_cli(capsys, argv) == (2, "", f"error: {usage_error(argv)}\n")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["check", "-h"], ["check", "--help"]])
def test_help_lists_every_command(capsys, argv):
    parser = cli._build_parser()
    if argv[0] == "check":
        parser = subparsers(parser)["check"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out == parser.format_help()


@pytest.mark.parametrize("argv", [["check", "-h"], ["check", "--help"]])
def test_check_help_lists_no_option_but_help(capsys, argv):
    # the output flags belong to each checker, not to ``check`` itself; the
    # comparisons above build both sides from the same code, so pin this
    check = subparsers(cli._build_parser(argv))["check"]
    assert [s for a in check._actions for s in a.option_strings] == ["-h", "--help"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    flags = re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", capsys.readouterr().out)
    assert set(flags) == {"-h", "--help"}


def test_foreign_flag_on_a_checker_built_alone(capsys):
    argv = ["check", "persistence", "--module", TWO_LINES, "--degree", "1", "--p", "1"]
    assert list(subparsers(subparsers(cli._build_parser(argv))["check"])) == ["persistence"]
    assert run_cli(capsys, argv) == (2, "", "error: unrecognized arguments: --p 1\n")


def test_file_input(capsys, tmp_path):
    path = tmp_path / "module.json"
    path.write_text(TWO_LINES, encoding="utf-8")
    assert run_cli(capsys, ["rank", "--module", str(path)]) == (0, "2\n", "")


REPO_ROOT = Path(__file__).resolve().parents[1]


def script_target(name):
    """(module, function) of the ``[project.scripts]`` entry ``name`` in this
    checkout's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module_name, func = target.split(":")
    return module_name, func


def console_script(name):
    """argv and env running the ``[project.scripts]`` entry ``name`` as pip's wrapper does.

    The target comes from this checkout's pyproject.toml, and the child's
    PYTHONPATH starts with this checkout's ``src``, so no install is needed
    and no other installed copy of the package can answer instead.
    """
    module_name, func = script_target(name)
    code = (
        f"import sys; sys.argv[0] = {name!r}; "
        f"from {module_name} import {func}; sys.exit({func}())"
    )
    return [sys.executable, "-c", code], checkout_env()


def checkout_env():
    """os.environ with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_console_script():
    gotzmann, env = console_script("gotzmann")
    result = subprocess.run(
        [*gotzmann, "macaulay-transform", "4", "1"],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert result.stdout == "10\n"
    bad = subprocess.run(
        [*gotzmann, "gotzmann-rep", "--poly", "{bad"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert bad.returncode == 2
    assert bad.stderr.startswith("error: ")
    usage = subprocess.run(
        [*gotzmann, "rank", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert usage.returncode == 0
    assert usage.stdout.startswith("usage: gotzmann rank")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["macaulay-transform", "4", "1"], 0),
        (["rank"], 2),
        (["check", "macaulay", "--module", TWO_LINES, "--degree", "1"], 0),
    ],
    ids=["success", "usage-error", "check"],
)
def test_main_in_process_leaves_the_collector_alone(capsys, argv, code):
    # the script entry freezes the heap of a process about to exit; main,
    # which tests and embedders call in a process that lives on, never does
    assert script_target("gotzmann") != ("gotzmann.cli", "main")
    before = (gc.get_freeze_count(), gc.isenabled())
    assert run_cli(capsys, argv)[0] == code
    assert (gc.get_freeze_count(), gc.isenabled()) == before


LINE_HILBERT = [
    "hilbert", "--module", json.dumps(module_to_dict(module(1, (0,), [ideal(1, "x0")]))),
    "--function", "0", "200000",
]


def test_script_entry_answers_as_main_and_leaves_the_heap_frozen(capsys):
    gotzmann, env = console_script("gotzmann")
    code, out, err = run_cli(capsys, LINE_HILBERT)
    assert (code, err) == (0, "")
    result = subprocess.run([*gotzmann, *LINE_HILBERT], capture_output=True, env=env)
    assert (result.returncode, result.stdout, result.stderr) == (0, out.encode(), b"")
    bad = subprocess.run(
        [*gotzmann, "gotzmann-rep", "--poly", "{bad"], capture_output=True, text=True, env=env
    )
    assert bad.returncode == 2
    assert len(bad.stderr.splitlines()) == 1 and bad.stderr.startswith("error: ")
    module_name, func = script_target("gotzmann")
    harness = (
        "import gc, sys\n"
        "sys.argv = ['gotzmann', 'macaulay-transform', '4', '1']\n"
        f"from {module_name} import {func}\n"
        f"code = {func}()\n"
        "print(code, gc.get_freeze_count() > 0)\n"
    )
    frozen = subprocess.run(
        [sys.executable, "-c", harness], capture_output=True, text=True, env=env
    )
    assert (frozen.returncode, frozen.stdout, frozen.stderr) == (0, "10\n0 True\n", "")


@pytest.mark.parametrize(
    "argv",
    [["macaulay-transform", "4", "1"], LINE_HILBERT],
    ids=["short", "long"],
)
def test_closed_stdout_keeps_the_exit_code(argv):
    # stdout is a pipe whose read end is closed before the command writes, as
    # in "gotzmann ... | head -c 10": the output is dropped, quietly
    gotzmann, env = console_script("gotzmann")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [*gotzmann, *argv], stdout=write_end, stderr=subprocess.PIPE, text=True, env=env
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (0, "")


def test_runs_without_numpy():
    # a None entry in sys.modules makes every later "import numpy" fail
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "import gotzmann, gotzmann.cli\n"
        f"sys.exit(gotzmann.cli.main(['betti', '--module', {POINT_PAIR!r}]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"betti": [[0, 0, 1], [1, 2, 2], [2, 3, 1]]}


def test_import_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, which would about
    # double the import time of every cold start
    code = (
        "import sys; before = set(sys.modules)\n"
        "import gotzmann.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_import_loads_no_submodule():
    # each export of the package is loaded on first access, by attribute or
    # by from-import, and dir() lists them all before that
    code = (
        "import json, sys\n"
        "import gotzmann\n"
        "bare = sorted(m for m in sys.modules if m.startswith('gotzmann.'))\n"
        "listed = set(gotzmann.__all__) <= set(dir(gotzmann))\n"
        "from gotzmann import macaulay_transform\n"
        "print(json.dumps([bare, listed, macaulay_transform(4, 1), gotzmann.rank.__module__,\n"
        "                  'gotzmann.theorems' in sys.modules]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=checkout_env()
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[], True, 10, "gotzmann.monomial_algebra", False]


_LIBRARY = ("monomial_algebra", "numpoly", "theorems", "lex", "resolution", "chern")


@pytest.mark.parametrize(
    "argv, loaded, unloaded",
    [
        (["macaulay-transform", "100", "3"], ("combinatorics",), _LIBRARY),
        (["hilbert", "--module", POINT_PAIR, "--polynomial"], ("monomial_algebra", "numpoly"),
         ("theorems", "lex", "resolution", "chern")),
        (["check", "macaulay", "--module", TWO_LINES, "--degree", "1"], ("theorems",), ("chern",)),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_a_call_imports_only_the_modules_it_calls(argv, loaded, unloaded):
    code = (
        "import json, sys\n"
        "import gotzmann.cli\n"
        f"code = gotzmann.cli.main({argv!r})\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('gotzmann.'))))\n"
        "sys.exit(code)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=checkout_env()
    )
    assert result.returncode == 0, result.stderr
    modules = set(json.loads(result.stdout.splitlines()[-1]))
    assert {f"gotzmann.{m}" for m in loaded} <= modules
    assert not {f"gotzmann.{m}" for m in unloaded} & modules
