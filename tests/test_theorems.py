"""Checkers for the adjusted growth, restriction, and regularity bounds."""
import copy
import inspect
import json
import pickle
import sys
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gotzmann.combinatorics import green_transform, macaulay_transform
from gotzmann.errors import BudgetExceeded, PreconditionViolated
from gotzmann.monomial_algebra import (
    GradedFreeModule,
    MonomialIdeal,
    MonomialSubmodule,
    adjusted_hf_decomposition,
    generic_hyperplane_hf,
    hf_direct,
    hilbert_polynomial,
    module_to_dict,
    rank,
)
from gotzmann.numpoly import GotzmannRep, NumPoly, binomial_poly, gotzmann_rep
from gotzmann import lex, monomial_algebra, numpoly, theorems
from gotzmann.theorems import (
    HOLDS,
    PREMISE_FAILS,
    SHARP,
    VIOLATED,
    CheckReport,
    check_gasharov,
    check_gotzmann_regularity_adjusted,
    check_green_adjusted,
    check_macaulay_adjusted,
    check_persistence_adjusted,
    check_sharpness,
    f_low_degree,
    random_submodule,
    sweep,
)
from gotzmann.lex import saturated_lex_ideal, saturated_lex_module

from conftest import hf_count, ideal, module, sharpness_instance


def test_f_low_degree(two_free_lines, twisted_plane_pair):
    assert f_low_degree(two_free_lines) == 0
    assert f_low_degree(twisted_plane_pair) == -1
    # free part exhausts the module: fall back to the last degree
    assert f_low_degree(module(1, (-1, 1), ["zero", "zero"])) == 1
    assert f_low_degree(module(1, (0, 1), [ideal(1, "x0"), "zero"])) == 0


def test_rank_three_module_battery(two_free_lines):
    # rank-3 degree-0 ambient modulo its first summand: every adjusted
    # checker is sharp at every degree, while the classical bounds are slack
    for d in range(1, 7):
        mac = check_macaulay_adjusted(two_free_lines, d)
        assert mac.verdict == SHARP
        assert mac.context["rho"] == 0
        green = check_green_adjusted(two_free_lines, d)
        assert green.verdict == SHARP
        pers = check_persistence_adjusted(two_free_lines, d)
        assert pers.verdict == SHARP
    # classical growth bound at d = 1: H(2) = 6 strictly below 4^(transform) = 10
    classical = check_gasharov(two_free_lines, 1, 0, "macaulay")
    assert classical.verdict == HOLDS
    assert classical.bound_lhs == 6
    assert classical.bound_rhs == 10
    # classical restriction bound: hyperplane image has H(1) = 2 < 3
    green_classical = check_gasharov(two_free_lines, 1, 0, "green")
    assert green_classical.verdict == HOLDS
    assert green_classical.bound_lhs == 2
    assert green_classical.bound_rhs == 3
    reg = check_gotzmann_regularity_adjusted(two_free_lines)
    assert reg.verdict == SHARP
    assert reg.bound_lhs == 0
    assert reg.context["s"] == 0


def test_checker_precondition_gates(two_free_lines, twisted_plane_pair):
    with pytest.raises(PreconditionViolated):
        check_green_adjusted(module(0, (0,), ["zero"]), 1)
    with pytest.raises(ValueError):
        check_gasharov(two_free_lines, 2, 0, which="both")
    with pytest.raises(PreconditionViolated):
        check_gasharov(two_free_lines, 2, -1)
    gen_high = module(1, (0,), [ideal(1, "x0^3")])
    with pytest.raises(PreconditionViolated):
        check_persistence_adjusted(gen_high, 2)
    # each checker runs from its first degree and refuses the one below: a
    # transform index d - f_low (d - l - p for Gasharov) of at least 1, and
    # for persistence no generator above d
    for sub in [two_free_lines, twisted_plane_pair] + [random_submodule(k) for k in range(40)]:
        f_low, l, max_gen = f_low_degree(sub), sub.degrees[-1], sub.max_gen_degree()
        gates = [
            (check_macaulay_adjusted, f_low + 1),
            (check_green_adjusted, f_low + 1),
            (check_persistence_adjusted, f_low + 1 if max_gen is None else max(f_low + 1, max_gen)),
        ] + [
            (lambda s, d, p=p, which=which: check_gasharov(s, d, p, which), l + p + 1)
            for p in range(3)
            for which in ("macaulay", "green")
        ]
        for check, first in gates:
            check(sub, first)
            with pytest.raises(PreconditionViolated):
                check(sub, first - 1)


def test_classical_checkers_are_the_adjusted_ones_at_rank_zero():
    bounds = attrgetter("bound_lhs", "bound_rhs")
    # with no zero component r = 0, so f_low = l, rho = H(d) and the free
    # part is empty: Gasharov at p = 0 compares the same two numbers as the
    # adjusted checker of its form at every degree
    checked = 0
    for seed in range(200):
        sub = random_submodule(seed)
        if rank(sub):
            continue
        l = sub.degrees[-1]
        for d in range(l + 1, l + 7):
            pairs = [
                (check_gasharov(sub, d, 0, "macaulay"), check_macaulay_adjusted(sub, d)),
                (check_gasharov(sub, d, 0, "green"), check_green_adjusted(sub, d)),
            ]
            for classical, adjusted in pairs:
                assert bounds(classical) == bounds(adjusted), (seed, d, classical.name)
        checked += 1
    assert checked >= 50


def test_persistence_premise_fails():
    sub = random_submodule(0)
    rep = check_persistence_adjusted(sub, 3)
    assert rep.verdict == PREMISE_FAILS
    assert not rep.premises_hold
    assert rep.bound_lhs == 11
    assert rep.bound_rhs == 15


@pytest.mark.parametrize("last_degree, refused", [(49, False), (50, True)])
def test_persistence_horizon_within_the_term_budget(monkeypatch, last_degree, refused):
    # the premise holds at d = 1 and the horizon is f_m + 1: exactly the
    # budget is walked, one degree more is refused before the walk
    monkeypatch.setattr(theorems, "TERM_BUDGET", 50)
    sub = module(1, (0, last_degree), [ideal(1, "x0"), "zero"])
    if refused:
        with pytest.raises(BudgetExceeded, match="horizon of 51 degrees"):
            check_persistence_adjusted(sub, 1)
    else:
        rep = check_persistence_adjusted(sub, 1)
        assert rep.verdict == SHARP
        assert rep.context["horizon"] == 50


def test_persistence_on_lex_modules():
    # the premise holds on a saturated lex module at its top generator
    # degree and persists at every later degree
    for seed in range(15):
        poly, ambient, r, _ = sharpness_instance(seed)
        lex = saturated_lex_module(poly, ambient, r)
        max_gen = lex.max_gen_degree()
        d = max(f_low_degree(lex) + 1, max_gen if max_gen is not None else 0)
        rep = check_persistence_adjusted(lex, d)
        assert rep.verdict == SHARP, (seed, rep.context)


def test_persistence_derived_horizon_matches_long_loop(corpus):
    # the derived last degree gives the verdict of a loop out to d + 40 over
    # the corpus and the sweep's instances and degrees
    instances = corpus + [random_submodule(k) for k in range(len(corpus), 500)]
    checked = 0
    for sub in instances:
        f_low = f_low_degree(sub)
        max_gen = sub.max_gen_degree()
        for d in range(f_low + 1, f_low + 7):
            if max_gen is not None and max_gen > d:
                continue
            rep = check_persistence_adjusted(sub, d)
            if hf_direct(sub, d + 1) != check_macaulay_adjusted(sub, d).bound_rhs:
                expected = PREMISE_FAILS
            elif all(
                hf_direct(sub, e + 1) == check_macaulay_adjusted(sub, e).bound_rhs
                for e in range(d + 1, d + 41)
            ):
                expected = SHARP
            else:
                expected = VIOLATED
            assert rep.verdict == expected, (sub, d)
            assert rep.context["horizon"] <= 40
            checked += expected == SHARP
    assert checked >= 1000


def test_zero_saturation_regularity_is_vacuous():
    free = module(1, (0, 0), ["zero", "zero"])
    rep = check_gotzmann_regularity_adjusted(free)
    assert rep.verdict == HOLDS
    assert rep.bound_lhs is None
    assert rep.bound_rhs == 0
    assert rep.context["saturation_is_zero"]


def test_regularity_checker_nontrivial():
    # one saturated point-pair component plus a free component
    sub = module(1, (0, 0), [ideal(1, "x0^2"), "zero"])
    rep = check_gotzmann_regularity_adjusted(sub)
    assert rep.verdict in (HOLDS, SHARP)
    assert rep.bound_lhs is not None
    assert rep.bound_lhs <= rep.bound_rhs


def test_sharpness_precondition_gates():
    # every component free
    with pytest.raises(PreconditionViolated):
        check_sharpness(NumPoly([1, 1]), GradedFreeModule(1, (0,)), 1)
    # boundary degree nonzero
    with pytest.raises(PreconditionViolated):
        check_sharpness(NumPoly([3, 2]), GradedFreeModule(1, (-1, 0)), 1)
    # adjusted number below the top ambient degree
    with pytest.raises(PreconditionViolated):
        check_sharpness(NumPoly([0, 1]), GradedFreeModule(1, (0, 1)), 1)


def test_sharpness_zero_lex_module_premise_fails():
    rep = check_sharpness(NumPoly([1, 1]), GradedFreeModule(1, (0,)), 0)
    assert rep.verdict == PREMISE_FAILS
    assert rep.bound_lhs is None
    assert rep.context["lex_module_is_zero"]


def test_sharpness_rank_above_r_premise_fails():
    # P = 2 C(d + 2, 2) has rank 2; with r = 1 the adjusted remainder
    # C(d + 2, 2) leaves the middle lex component zero, so the lex module has
    # rank 2 and the theorem's rank-r premise fails
    poly = binomial_poly(2, 2) * 2
    rep = check_sharpness(poly, GradedFreeModule(2, (-1, 0, 0)), 1)
    assert rep.verdict == PREMISE_FAILS
    assert rep.bound_lhs is None
    assert rep.context == {"s": 1, "lex_module_rank": 2}


def test_sharpness_seeded_smoke():
    for seed in range(10):
        poly, ambient, r, s_q = sharpness_instance(seed)
        rep = check_sharpness(poly, ambient, r)
        assert rep.verdict == SHARP
        assert rep.bound_lhs == rep.bound_rhs == s_q


def test_sharpness_at_large_gotzmann_number():
    # s = 200 in P^4, far past any enumeration of the C(204, 4) monomials of
    # degree s
    ambient = GradedFreeModule(4, (0,))
    for a in [(0,) * 200, (3, 3) + (2,) * 5 + (1,) * 10 + (0,) * 183]:
        rep = check_sharpness(GotzmannRep(a).polynomial(), ambient, 0)
        assert rep.verdict == SHARP
        assert rep.bound_lhs == rep.bound_rhs == 200


def test_sharpness_computes_one_adjusted_representation(monkeypatch):
    calls = []
    original = numpoly.adjusted_gotzmann_rep

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module_obj in (numpoly, lex, theorems):
        monkeypatch.setattr(module_obj, "adjusted_gotzmann_rep", counted)
    for seed in range(10):
        poly, ambient, r, _ = sharpness_instance(seed)
        calls.clear()
        assert check_sharpness(poly, ambient, r).verdict == SHARP
        assert calls == [(poly, ambient.n, ambient.degrees, r)]


def shifted_lex_module(poly, ambient, r):
    """``saturated_lex_module`` with the remainder always passed through
    shift_argument(f_(m-r)) and gotzmann_rep, also when f_(m-r) = 0."""
    n, m = ambient.n, ambient.m
    rep = numpoly.adjusted_gotzmann_rep(poly, n, ambient.degrees, r)
    f_mid = ambient.degrees[m - r - 1]
    middle = saturated_lex_ideal(gotzmann_rep(rep.q.polynomial().shift_argument(f_mid)), n)
    return MonomialSubmodule(
        ambient,
        (MonomialIdeal.unit(n),) * (m - r - 1) + (middle,) + (MonomialIdeal.zero(n),) * r,
    )


def test_saturated_lex_module_shortcut_at_middle_degree_zero():
    instances = [sharpness_instance(seed)[:3] for seed in range(40)]
    for seed in range(200):
        sub = random_submodule(seed)
        r, degrees = rank(sub), sub.degrees
        if r < len(degrees) and degrees[len(degrees) - r - 1] == 0:
            instances.append((hilbert_polynomial(sub), sub.ambient, r))
    assert len(instances) > 60
    for poly, ambient, r in instances:
        assert saturated_lex_module(poly, ambient, r) == shifted_lex_module(poly, ambient, r)


def test_adjusted_bound_never_above_classical():
    for seed in range(120):
        sub = random_submodule(seed)
        f_low = f_low_degree(sub)
        l = sub.degrees[-1]
        for d in range(max(f_low + 1, l + 1), max(f_low + 1, l + 1) + 4):
            adjusted = check_macaulay_adjusted(sub, d).bound_rhs
            classical = macaulay_transform(hf_count(sub, d), d - l)
            assert adjusted <= classical, (seed, d)


def test_sweep_smoke():
    reports = list(sweep(50))
    assert len(reports) > 500
    names = {rep.name for rep in reports}
    assert names >= {
        "macaulay_adjusted",
        "green_adjusted",
        "persistence_adjusted",
        "gasharov_macaulay",
        "gasharov_green",
        "gotzmann_regularity_adjusted",
    }
    assert not [rep for rep in reports if rep.verdict == VIOLATED]


def public_reports(sub):
    """The public checkers' reports on sub, in the order and over the
    degrees that sweep runs them."""
    f_low, l, max_gen = f_low_degree(sub), sub.degrees[-1], sub.max_gen_degree()
    reports = []
    for d in range(f_low + 1, f_low + 7):
        reports += [check_macaulay_adjusted(sub, d), check_green_adjusted(sub, d)]
        if max_gen is None or max_gen <= d:
            reports.append(check_persistence_adjusted(sub, d))
        for p in range(min(3, d - l)):
            reports += [check_gasharov(sub, d, p, "macaulay"), check_gasharov(sub, d, p, "green")]
    if f_low <= 0:
        reports.append(check_gotzmann_regularity_adjusted(sub))
    return reports


def test_sweep_shares_values_as_the_public_checkers_compute_them():
    # sweep computes each instance's H, rho and hyperplane value once per
    # degree and shares each adjusted growth pair across its reports, while
    # each public checker computes its own; both build from the same kernels and report builders,
    # and every report of sweep(500) equals the public checker's for the
    # same (submodule, d, p), in the same order.  The checkers run on a
    # fresh copy of each instance, so no value is shared with sweep's.
    got = list(sweep(500))
    expected = [rep for seed in range(500) for rep in public_reports(random_submodule(seed))]
    assert len(got) == len(expected) > 20000
    for mine, theirs in zip(got, expected):
        assert mine == theirs, (theirs.name, theirs.context)
        assert repr(mine) == repr(theirs)
        assert mine.to_dict() == theirs.to_dict()


def test_sweep_calls_the_public_checkers(monkeypatch):
    # each report of sweep stands for one public checker call: over the
    # degree bands sweep runs, the public checkers are called exactly as
    # often, checker by checker, as sweep yields their reports
    module = sys.modules[__name__]
    calls = {}
    for name in ("check_macaulay_adjusted", "check_green_adjusted", "check_gasharov",
                 "check_persistence_adjusted", "check_gotzmann_regularity_adjusted"):
        def counted(*args, _name=name, _checker=getattr(module, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _checker(*args)
        monkeypatch.setattr(module, name, counted)
    reports = {}
    for rep in sweep(30):
        checker = "check_gasharov" if rep.name.startswith("gasharov_") else f"check_{rep.name}"
        reports[checker] = reports.get(checker, 0) + 1
    for seed in range(30):
        public_reports(random_submodule(seed))
    assert len(reports) == 5
    assert calls == reports


def test_sweep_restricts_each_submodule_and_degree_once(monkeypatch):
    # the Green and Gasharov-green reports of one (submodule, d) differ in
    # (r, index), but sweep computes the hyperplane value once for all of
    # them, with one kernel term.  Submodules compare by their fields, so
    # each is keyed by its id.
    calls = []

    def counted(submodule, d, _original=theorems._kernel_term):
        calls.append((id(submodule), d))
        return _original(submodule, d)

    monkeypatch.setattr(theorems, "_kernel_term", counted)
    monomial_algebra._record.cache_clear()
    # the reports keep their submodules alive, so no id is reused
    reports = list(sweep(30))
    restricted = [(id(rep._submodule), rep.context["d"])
                  for rep in reports if rep.name in ("green_adjusted", "gasharov_green")]
    assert len(restricted) > len(set(restricted)) > 0
    assert len(calls) == len(set(calls))
    assert set(calls) == set(restricted)


def test_records_hold_no_per_degree_values():
    # one submodule read at CACHE_ENTRIES + 100 degrees: H, rho, the
    # hyperplane value and the Green checker's report.  Every value is
    # right, and the record's slots are left exactly as built, so a
    # record's memory is bounded by construction, whatever is read
    bound = monomial_algebra.CACHE_ENTRIES
    # rank 1: H(S/I) = 1, 2, 1, 1, ... for I = (x0^2, x0*x1), plus d + 1
    sub = module(1, (0, 0), [ideal(1, "x0^2", "x0*x1"), "zero"])
    monomial_algebra._record(sub)
    generic_hyperplane_hf(sub, 1)  # the kernels, read on the first kernel term
    built = {slot: getattr(sub, slot, None) for slot in MonomialSubmodule.__slots__}
    numerator = dict(sub._numerator)
    assert built["_kernels"] and numerator
    for d in range(2, bound + 102):
        assert hf_direct(sub, d) == d + 2
        assert adjusted_hf_decomposition(sub, d) == (d + 1, 1)
        assert generic_hyperplane_hf(sub, d) == 1
        report = check_green_adjusted(sub, d)
        assert (report.bound_lhs, report.context["rho"]) == (1, 1)
    assert all(getattr(sub, slot, None) is value for slot, value in built.items())
    assert sub._numerator == numerator


@st.composite
def _ranked_submodules(draw):
    """A submodule in n + 1 variables, 1 <= n <= 3, with r of its m <= 3
    components zero, r in {0, 1, m}, and the others nonzero."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    degrees = tuple(sorted(draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))))
    r = draw(st.sampled_from(sorted({0, 1, m})))
    zero = draw(st.permutations(range(m)))[:r]
    exponents = st.tuples(*[st.integers(0, 3)] * (n + 1))
    components = [
        MonomialIdeal.zero(n) if i in zero
        else MonomialIdeal._of_minimal(n, monomial_algebra._minimal(
            draw(st.lists(exponents, min_size=1, max_size=4))))
        for i in range(m)
    ]
    return MonomialSubmodule(GradedFreeModule(n, degrees), tuple(components))


@settings(max_examples=150, deadline=None)
@given(_ranked_submodules())
def test_free_parts_read_off_the_rows_are_the_free_dimensions(sub):
    # _growth reads the free part of the last r ambient degrees at d + 1 as
    # H - rho, and _restriction the one in n - 1 variables at d as
    # (H - rho)(d) - (H - rho)(d - 1); both against _dims, from below f_1 on
    n, degrees, r = sub.n, sub.degrees, rank(sub)
    last = degrees[len(degrees) - r :]
    monomial_algebra._record(sub)
    h, rho = {}, {}
    for d in range(degrees[0] - 4, degrees[-1] + 6):
        h[d] = hf_direct(sub, d)
        rho[d] = monomial_algebra._rho(sub, d, h[d])
    for d in range(degrees[0] - 3, degrees[-1] + 5):
        for index in (1, 2):
            _, bound = theorems._growth(index, rho[d], h[d + 1], rho[d + 1])
            assert bound - macaulay_transform(rho[d], index) == monomial_algebra._dims(last, d + 1, n)
            _, bound = theorems._restriction(index, 0, h[d - 1], rho[d - 1], h[d], rho[d])
            assert bound - green_transform(rho[d], index) == monomial_algebra._dims(last, d, n - 1)
        # the classical kernels, r = 0 with H for rho, add no free part to
        # the transforms of H
        assert theorems._growth(1, h[d], h[d + 1], h[d + 1])[1] == macaulay_transform(h[d], 1)
        assert theorems._restriction(1, 0, h[d - 1], h[d - 1], h[d], h[d])[1] == green_transform(h[d], 1)


def test_hf_direct_cache_info_counts_record_reads_and_builds():
    # perfbench/calibrate.py divides hits by hits + misses: record reads and
    # builds since the last clear.  sweep builds each instance's record once
    # and then reads the rows directly, so the only record reads are the
    # stabilization degree of each persistence report whose premise holds
    # (the horizon of its walk) and the Hilbert polynomial of each
    # regularity report; the saturation the regularity checker builds reads
    # no record
    monomial_algebra._record.cache_clear()
    assert hf_direct.cache_info()[:2] == (0, 0)
    reports = list(sweep(5))
    info = hf_direct.cache_info()
    assert info.hits > 0 and info.misses == 5
    walks = sum(rep.premises_hold for rep in reports if rep.name == "persistence_adjusted")
    regularity = sum(rep.name == "gotzmann_regularity_adjusted" for rep in reports)
    assert info.hits == walks + regularity


def test_random_submodule_deterministic():
    assert random_submodule(7) == random_submodule(7)
    assert any(random_submodule(i) != random_submodule(0) for i in range(1, 10))


def test_report_json_line(two_free_lines):
    rep = check_macaulay_adjusted(two_free_lines, 1)
    data = json.loads(rep.to_json_line())
    assert data["name"] == "macaulay_adjusted"
    assert data["verdict"] == "sharp"
    assert data["bound_lhs"] == data["bound_rhs"] == 6
    assert data["premises_hold"] is True
    assert data["context"]["d"] == 1
    assert data["instance"]["degrees"] == [0, 0, 0]


def module_reports(sub):
    """One report of each module checker on sub, at a degree where all run;
    the regularity checker where sweep runs it, at f_low <= 0."""
    f_low = f_low_degree(sub)
    d = max(f_low + 1, sub.degrees[-1] + 1, sub.max_gen_degree() or 0)
    reports = [
        check_macaulay_adjusted(sub, d),
        check_green_adjusted(sub, d),
        check_gasharov(sub, d, 0, "macaulay"),
        check_gasharov(sub, d, 0, "green"),
        check_persistence_adjusted(sub, d),
    ]
    if f_low <= 0:
        reports.append(check_gotzmann_regularity_adjusted(sub))
    return reports


def test_module_reports_read_their_instance_from_the_submodule():
    for seed in range(20):
        sub = random_submodule(seed)
        for rep in module_reports(sub):
            assert rep.instance == module_to_dict(sub), (seed, rep.name)
            assert rep.instance is rep.instance  # built once, then kept
            assert rep.to_dict()["instance"] == module_to_dict(sub)


def test_module_reports_equal_reports_built_by_the_constructor(monkeypatch):
    """Each module checker's report, whose slots _module_report fills, equals
    the report the constructor builds from the same arguments."""
    made = []
    fill = theorems._module_report
    arguments = inspect.signature(fill).bind

    def recording_fill(*args, **kwargs):
        bound = arguments(*args, **kwargs)
        bound.apply_defaults()
        made.append(bound.arguments)
        return fill(*args, **kwargs)

    built_instances = []

    def counting_module_to_dict(sub):
        built_instances.append(sub)
        return module_to_dict(sub)

    monkeypatch.setattr(theorems, "_module_report", recording_fill)
    monkeypatch.setattr(theorems, "module_to_dict", counting_module_to_dict)
    names = set()
    for seed in range(30):
        sub = random_submodule(seed)
        reports = module_reports(sub)
        assert len(made) == len(reports)
        for rep, args in zip(reports, made):
            assert args["submodule"] is sub
            built = CheckReport(
                args["name"], module_to_dict(sub), args["premises_hold"], args["bound_lhs"],
                args["bound_rhs"], args["verdict"], args["context"],
            )
            assert not built_instances  # no instance before the first read
            assert rep == built and built == rep and repr(rep) == repr(built)
            assert rep.to_dict() == built.to_dict()
            assert rep.to_json_line() == built.to_json_line()
            for clone in (copy.copy(rep), copy.deepcopy(rep), pickle.loads(pickle.dumps(rep))):
                assert clone == built and repr(clone) == repr(built)
            assert built_instances == [sub], (seed, rep.name)  # built once, on first read
            built_instances.clear()
            names.add(rep.name)
        made.clear()
    assert names == {
        "macaulay_adjusted", "green_adjusted", "gasharov_macaulay", "gasharov_green",
        "persistence_adjusted", "gotzmann_regularity_adjusted",
    }


def test_reports_on_one_submodule_do_not_share_an_instance(two_free_lines):
    first, *others = module_reports(two_free_lines) + module_reports(two_free_lines)
    first.instance["degrees"].append(99)
    first.instance["components"].clear()
    for rep in others:
        assert rep.instance == module_to_dict(two_free_lines), rep.name


def test_a_report_never_equals_a_plain_tuple_of_its_items(two_free_lines):
    built = CheckReport("c", {"d": 1}, True, 1, None, "holds", {"k": 0})
    for rep in module_reports(two_free_lines) + [built]:
        for items in (tuple(rep), attrgetter(*rep._fields)(rep)):
            assert rep != items and items != rep
            assert not rep == items and not items == rep


def test_unread_instance_survives_copy_and_pickle(twisted_plane_pair):
    for clone_of in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        for rep, fresh in zip(module_reports(twisted_plane_pair), module_reports(twisted_plane_pair)):
            clone = clone_of(rep)
            assert clone is not rep and clone == fresh and repr(clone) == repr(fresh)
            assert clone.instance == module_to_dict(twisted_plane_pair)
