"""Numerical polynomials, binomial representations, and embedding dimensions."""
import copy
import pickle
import random
import re
from fractions import Fraction
from itertools import groupby
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gotzmann.errors import NotAdmissible, PreconditionViolated
from gotzmann import numpoly
from gotzmann.numpoly import (
    AdjustedGotzmannRep,
    GotzmannRep,
    NumPoly,
    adjusted_gotzmann_rep,
    binomial_poly,
    gotzmann_number,
    gotzmann_rep,
    grassmannian_embedding_dims,
    poly_from_dict,
    poly_to_dict,
    series_to_polynomial,
)
from gotzmann.combinatorics import binomial
from gotzmann.monomial_algebra import hilbert_polynomial
from gotzmann.theorems import random_submodule

from conftest import random_rep
from numpoly_oracle import PowerPoly, power_binomial_sum
from series_oracle import forward_difference_polynomial, hilbert_coefficient_polynomial


def test_numpoly_arithmetic_and_evaluation():
    p = NumPoly([6, 5, 1])  # d^2 + 5d + 6
    assert p(0) == 6
    assert p(-2) == 0
    assert p.degree == 2
    q = p - NumPoly([6, 5, 1])
    assert q.is_zero()
    assert (2 * binomial_poly(2, 3))(1) == 2 * binomial(4, 2)


def test_numpoly_normalizes_trailing_zeros():
    assert NumPoly([1, 0, 0]) == NumPoly([1])
    assert NumPoly([0]).is_zero()
    assert NumPoly().degree == -1 or NumPoly().is_zero()


def test_numpoly_coefficients_are_fractions():
    half = Fraction(1, 2)
    p = NumPoly([half, 2, Fraction(0), 0])
    assert p.coeffs == (half, Fraction(2))
    assert p.coeffs[0] is half
    assert all(type(c) is Fraction for c in p.coeffs)
    with pytest.raises(ValueError):
        NumPoly(["x"])
    with pytest.raises(TypeError):
        NumPoly([None])


def test_binomial_poly_matches_binomial_on_integers():
    # the polynomial and combinatorial forms agree wherever d + shift >= 0
    # (below that the polynomial alternates sign instead of vanishing)
    for a in range(0, 5):
        for shift in range(-4, 5):
            p = binomial_poly(a, shift)
            for d in range(-shift, -shift + 9):
                assert p(d) == binomial(d + shift, a), (a, shift, d)


def test_binomial_poly_rejects_negative_degree():
    with pytest.raises(ValueError):
        binomial_poly(-1, 0)


def test_shift_argument():
    p = NumPoly([0, 1])  # d
    assert p.shift_argument(3)(5) == 8
    q = binomial_poly(2, 2).shift_argument(-1)
    for d in range(-1, 6):
        assert q(d) == binomial(d + 1, 2)


def test_is_integer_valued():
    assert binomial_poly(3, 1).is_integer_valued()
    assert not NumPoly([Fraction(1, 2)]).is_integer_valued()
    assert NumPoly([0, Fraction(1, 2), Fraction(1, 2)]).is_integer_valued()  # d(d+1)/2


def test_rep_round_trip_seeded():
    rng = random.Random(7)
    for _ in range(120):
        rep = random_rep(rng)
        back = gotzmann_rep(rep.polynomial())
        assert back == rep, rep


def test_rep_runs_are_read_off_the_exponents():
    rng = random.Random(5)
    for _ in range(200):
        rep = random_rep(rng, max_len=30, max_val=4)
        runs = []
        for i, a in enumerate(rep.a):
            if i and a == rep.a[i - 1]:
                runs[-1][1] += 1
            else:
                runs.append([a, 1])
        assert rep.runs == tuple(tuple(run) for run in runs)
        assert rep.number == len(rep.a)


def test_rep_known_example():
    # 2d + 2 = C(d+1,1) + C(d,1) + C(d-2,0)
    rep = gotzmann_rep(NumPoly([2, 2]))
    assert rep.a == (1, 1, 0)
    assert rep.number == 3
    assert gotzmann_number(NumPoly([2, 2])) == 3


def test_rep_terms_shifts():
    rep = GotzmannRep((2, 1, 0))
    assert rep.terms() == [(2, 2), (1, 0), (0, -2)]
    p = rep.polynomial()
    for d in range(2, 10):
        assert p(d) == binomial(d + 2, 2) + binomial(d, 1) + binomial(d - 2, 0)


def test_rep_rejects_increasing_or_negative():
    with pytest.raises(ValueError):
        GotzmannRep((1, 2))
    with pytest.raises(ValueError):
        GotzmannRep((2, -1))


def test_rep_not_admissible_cases():
    with pytest.raises(NotAdmissible):
        gotzmann_rep(NumPoly([Fraction(1, 2)]))  # not integer-valued
    with pytest.raises(NotAdmissible):
        gotzmann_rep(NumPoly([0, -1]))  # negative leading coefficient
    with pytest.raises(NotAdmissible):
        gotzmann_rep(NumPoly([-3]))  # negative constant
    with pytest.raises(NotAdmissible):
        # d^2 - big*d peels one quadratic term, then the linear remainder
        # has a negative leading coefficient
        gotzmann_rep(NumPoly([0, -10, 1]) + binomial_poly(2, 2) - NumPoly([0, 0, 1]))


def test_rep_term_budget(monkeypatch):
    # the budget bounds the dense view of the exponents, not the peel: the
    # number is answered past it, and ``a`` and ``terms()`` are refused
    monkeypatch.setattr(numpoly, "TERM_BUDGET", 10)
    rep = gotzmann_rep(NumPoly([50]))
    assert rep.runs == ((0, 50),) and rep.number == 50
    assert gotzmann_number(NumPoly([50])) == 50
    for view in (lambda: rep.a, rep.terms):
        with pytest.raises(NotAdmissible, match="^representation needs more than 10 terms$"):
            view()
    assert gotzmann_rep(NumPoly([10])).a == (0,) * 10
    # the repr evaluates to the value within the budget, and shows the runs past it
    assert repr(rep) == "<GotzmannRep runs=((0, 50),)>"
    assert repr(GotzmannRep((1, 1, 0))) == "GotzmannRep(a=(1, 1, 0))"
    # budgets ending inside a quadratic run, at its end, inside the final
    # linear run, and inside a constant tail; the full length fits exactly
    for a, budgets in [((2,) * 3 + (1,) * 4, (2, 3, 6)), ((1,) * 5 + (0,) * 3, (4, 5, 7))]:
        rep = gotzmann_rep(GotzmannRep(a).polynomial())
        for budget in budgets:
            monkeypatch.setattr(numpoly, "TERM_BUDGET", budget)
            assert rep.number == len(a)
            with pytest.raises(NotAdmissible, match=f"more than {budget} terms"):
                rep.a
        monkeypatch.setattr(numpoly, "TERM_BUDGET", len(a))
        assert rep.a == a


def test_peel_bounds_the_bits_of_its_coordinates_past_the_budget(monkeypatch):
    # 11 C(d + 1, 1) is a linear run of 11 terms, of (1 + 1) * 4 bits, and a
    # constant run to 66 terms, of 7 bits: past a budget of 8 terms both
    # runs are peeled, and a budget of 7 refuses the first
    poly = 11 * binomial_poly(1, 1)
    monkeypatch.setattr(numpoly, "TERM_BUDGET", 8)
    assert gotzmann_rep(poly).runs == ((1, 11), (0, 55))
    monkeypatch.setattr(numpoly, "TERM_BUDGET", 7)
    with pytest.raises(NotAdmissible, match="^representation needs more than 7 terms$"):
        gotzmann_rep(poly)
    # within the term budget nothing is bounded: one term of degree 10^5
    monkeypatch.setattr(numpoly, "TERM_BUDGET", 1)
    assert gotzmann_rep(binomial_poly(100_000, 100_000)).runs == ((100_000, 1),)


def per_term_rep(poly, term_budget):
    """The per-term greedy peel: take off C(d + a - i, a), a = deg(remainder),
    one term at a time, and a constant remainder c as c terms equal to 1.
    Its own work guard refuses more than ``term_budget`` terms."""
    a_list = []
    rem = poly
    while not rem.is_zero():
        i = len(a_list)
        lead = rem.leading_coefficient
        if lead < 0:
            top = lead * factorial(rem.degree)
            raise NotAdmissible(
                f"remainder of degree {rem.degree} has negative leading coordinate {top} at term {i}"
            )
        if rem.degree == 0:
            if i + lead > term_budget:
                raise NotAdmissible(f"representation needs more than {term_budget} terms")
            return GotzmannRep(tuple(a_list) + (0,) * int(lead))
        if i >= term_budget:
            raise NotAdmissible(f"representation needs more than {term_budget} terms")
        a = rem.degree
        rem = rem - binomial_poly(a, a - i)
        a_list.append(a)
    return GotzmannRep(tuple(a_list))


def test_rep_matches_per_term_peel_seeded(monkeypatch):
    rng = random.Random(11)
    polys = []
    for _ in range(300):
        # integer combinations of binomials; the top coefficient may be
        # negative
        deg = rng.randint(0, 4)
        poly = NumPoly()
        for k in range(deg + 1):
            poly = poly + rng.randint(-1 if k == deg else -2, 2) * binomial_poly(k, rng.randint(-4, 4))
        polys.append(poly)
    # constant tails of about 10^5 behind a short representation
    for _ in range(4):
        polys.append(random_rep(rng, max_len=6, max_val=3).polynomial() + rng.randint(90_000, 110_000))
    assert any(p.leading_coefficient < 0 for p in polys)
    answered = []
    for poly in polys:
        try:
            expected = per_term_rep(poly, numpoly.TERM_BUDGET)
        except NotAdmissible as exc:
            with pytest.raises(NotAdmissible, match=re.escape(str(exc))):
                gotzmann_rep(poly)
        else:
            rep = gotzmann_rep(poly)
            assert rep == expected, poly
            answered.append((rep, expected.a))
    # the dense view is refused exactly past the budget, and is the oracle's below it
    for budget in (7, 30):
        monkeypatch.setattr(numpoly, "TERM_BUDGET", budget)
        assert any(len(a) <= budget for _, a in answered)
        assert any(len(a) > budget for _, a in answered)
        for rep, a in answered:
            if len(a) > budget:
                with pytest.raises(NotAdmissible, match=f"more than {budget} terms"):
                    rep.a
            else:
                assert rep.a == a


# exponent lists: up to 30 exponents of 1..6, then a tail of zeros that is
# short or of about 10^5 (the stored runs hold it as one pair)
EXPONENT_LISTS = st.tuples(
    st.lists(st.integers(1, 6), max_size=30),
    st.one_of(st.integers(0, 5), st.integers(90_000, 100_000)),
).map(lambda drawn: tuple(sorted(drawn[0], reverse=True)) + (0,) * drawn[1])


@settings(max_examples=100, deadline=None)
@given(EXPONENT_LISTS, st.integers(-2, 2), st.integers(0, 2), st.integers(-4, 4))
@example(a=(2,) + (0,) * 100_000, c=1, k=0, shift=0)  # past the oracle's guard
@example(a=(1,), c=-2, k=1, shift=0)  # 1 - d leads with -1
def test_stored_runs_are_the_exponent_list(a, c, k, shift):
    rep = GotzmannRep(a)
    assert rep.runs == tuple((x, len(list(run))) for x, run in groupby(a))
    assert rep.a == a and rep.number == len(a)
    for again in (GotzmannRep(rep.a), GotzmannRep(list(a))):
        assert again == rep and hash(again) == hash(rep)
    for clone in (copy.copy(rep), copy.deepcopy(rep), pickle.loads(pickle.dumps(rep)),
                  eval(repr(rep), {"GotzmannRep": GotzmannRep})):
        assert clone == rep and hash(clone) == hash(rep)
    # the peel against the per-term oracle, on the polynomial of a and on a
    # perturbation of it, which may be inadmissible
    for poly in (rep.polynomial(), rep.polynomial() + c * binomial_poly(k, shift)):
        try:
            expected = per_term_rep(poly, 10**5)
        except NotAdmissible as exc:
            if str(exc).startswith("representation needs more than"):
                # past the oracle's guard the peel still answers
                assert gotzmann_rep(poly).number > 10**5
            else:
                with pytest.raises(NotAdmissible, match=re.escape(str(exc))):
                    gotzmann_rep(poly)
        else:
            assert gotzmann_rep(poly) == expected


def test_zero_polynomial_rep():
    rep = gotzmann_rep(NumPoly())
    assert rep.a == ()
    assert rep.number == 0
    assert rep.polynomial().is_zero()


def test_adjusted_rep_splits_free_part():
    # 2*C(d+3,2) over degrees (-1,-1,0) with r=2: free part (-1, 0), Q = d+2
    poly = 2 * binomial_poly(2, 3)
    rep = adjusted_gotzmann_rep(poly, 2, (-1, -1, 0), 2)
    assert rep.free_degrees == (-1, 0)
    assert rep.q.a == (1, 0)
    assert rep.number == 2
    assert rep.polynomial() == poly
    assert rep.free_part() + rep.q.polynomial() == poly


def test_adjusted_rep_r_zero_degrades_to_plain():
    poly = NumPoly([2, 2])
    rep = adjusted_gotzmann_rep(poly, 1, (0,), 0)
    assert rep.free_degrees == ()
    assert rep.q.a == gotzmann_rep(poly).a


def test_adjusted_rep_hypothesis_gate():
    # f_{m-r} must be <= 0 when a non-free component remains
    with pytest.raises(PreconditionViolated):
        adjusted_gotzmann_rep(NumPoly([1]), 1, (1, 1), 1)
    # all components free: no hypothesis to check
    rep = adjusted_gotzmann_rep(2 * binomial_poly(1, 1), 1, (0, 0), 2)
    assert rep.number == 0


def test_adjusted_rep_parameter_validation():
    with pytest.raises(PreconditionViolated):
        adjusted_gotzmann_rep(NumPoly([1]), 1, (0,), 2)  # r > m
    with pytest.raises(PreconditionViolated):
        adjusted_gotzmann_rep(NumPoly([1]), 1, (0, -1), 1)  # unsorted degrees


def test_adjusted_rep_reexpansion_matches():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 3)
        r = rng.randint(0, 2)
        low = sorted(rng.randint(-2, 0) for _ in range(rng.randint(1, 2)))
        high = sorted(rng.randint(0, 2) for _ in range(r))
        degrees = tuple(low + high)
        q = random_rep(rng, max_len=6, max_val=n)
        poly = q.polynomial()
        for f in high:
            poly = poly + binomial_poly(n, n - f)
        rep = adjusted_gotzmann_rep(poly, n, degrees, r)
        rebuilt = rep.polynomial()
        for d in range(0, poly.degree + rep.number + 3):
            assert rebuilt(d) == poly(d)


def subtracted_rep(poly, n, degrees, r):
    """The adjusted representation with its free part subtracted through
    ``NumPoly`` arithmetic, then the plain representation of the rest."""
    free = tuple(degrees[len(degrees) - r :])
    rest = poly - sum((binomial_poly(n, n - f) for f in free), NumPoly())
    return AdjustedGotzmannRep(free, n, gotzmann_rep(rest))


def outcome(build, *args):
    """What build(*args) returns, or the type and message of what it raises."""
    try:
        return build(*args)
    except NotAdmissible as exc:
        return type(exc), str(exc)


def test_adjusted_rep_matches_polynomial_subtraction():
    cases = []
    for seed in range(200):
        sub = random_submodule(seed)
        degrees, m = sub.degrees, len(sub.degrees)
        # every rank the hypothesis f_(m-r) <= 0 allows; past the true rank
        # the remainder leads with a negative coordinate
        for r in range(m + 1):
            if r == m or degrees[m - r - 1] <= 0:
                cases.append((hilbert_polynomial(sub), sub.n, degrees, r))
    # not integer-valued, also after the free part is taken off
    for poly in (NumPoly([Fraction(1, 2)]), binomial_poly(2, 1) * Fraction(1, 3),
                 binomial_poly(2, 3) + NumPoly([0, Fraction(1, 2)])):
        cases += [(poly, 2, (0,), 0), (poly, 2, (-1, 0), 1), (poly, 2, (0, 0), 2)]
    # negative coordinates, in the leading one and below it
    for poly in (-binomial_poly(2, 1), NumPoly([-3]), binomial_poly(2, 2) - binomial_poly(1, 4)):
        cases += [(poly, 2, (0,), 0), (poly, 2, (0,), 1), (poly, 2, (-1, 0), 1)]
    outcomes = [outcome(adjusted_gotzmann_rep, *case) for case in cases]
    assert outcomes == [outcome(subtracted_rep, *case) for case in cases]
    refused = [o for o in outcomes if isinstance(o, tuple)]
    assert any("not integer-valued" in message for _, message in refused)
    assert any("negative leading" in message for _, message in refused)
    # C(d + 1, 2)/3 - C(d + 2, 2) has coordinates (0, -1, -2)/3
    assert outcome(adjusted_gotzmann_rep, binomial_poly(2, 1) * Fraction(1, 3), 2, (-1, 0), 1) == (
        NotAdmissible,
        "polynomial of degree 2 is not integer-valued: its C(d + 1, 1) coordinate is -1/3",
    )


def test_closed_form_grid_rank_and_offset_family():
    # k*C(d+2,2) + m1*(d+1) + m2 over a rank-k free module on 3 variables
    for k in range(1, 4):
        for m1 in range(0, 4):
            for m2 in range(0, 4):
                poly = k * binomial_poly(2, 2) + NumPoly([m1 + m2, m1])
                std = gotzmann_number(poly)
                expected = (
                    k * (k + 1) * (3 * k * k - k + 10 + 12 * m1) // 24
                    + m1 * (m1 + 1) // 2
                    + m2
                )
                assert std == expected, (k, m1, m2)
                adj = adjusted_gotzmann_rep(poly, 2, (0,) * (k + 1), k)
                assert adj.number == m1 * (m1 + 1) // 2 + m2, (k, m1, m2)


def test_embedding_dims_adjusted_and_standard():
    # P = 3(d+1) + m over five degree-0 summands on the line, r = 3
    for m in range(0, 6):
        poly = NumPoly([3 + m, 3])
        adj = grassmannian_embedding_dims(poly, 1, (0,) * 5, 3, mode="adjusted")
        assert adj.s == m
        assert adj.grass_dim == (3 + 4 * m) * (2 + m)
        std = grassmannian_embedding_dims(poly, 1, (0,) * 5, 3, mode="standard")
        assert std.s == 6 + m
        assert std.ambient_dim == 5 * (7 + m)
        assert std.sub_dim == 21 + 4 * m
        assert std.grass_dim == (21 + 4 * m) * (14 + m)


def test_embedding_dims_mode_validation():
    with pytest.raises(ValueError):
        grassmannian_embedding_dims(NumPoly([1]), 1, (0,), 0, mode="other")


def test_embedding_dims_rank_must_lie_in_the_summands():
    poly = NumPoly([4, 3])
    for mode in ("standard", "adjusted"):
        for r in (-1, 6, 99):
            with pytest.raises(PreconditionViolated, match=f"rank r={r} must lie in \\[0, 5\\]"):
                grassmannian_embedding_dims(poly, 1, (0,) * 5, r, mode=mode)
    for r in (0, 5):  # the ends of the range; standard mode reads no more of r
        assert grassmannian_embedding_dims(poly, 1, (0,) * 5, r, mode="standard").s == 7


def test_series_to_polynomial_matches_binomials():
    # numerator 1 - t^2 over (1-t)^3: C(d+2,2) - C(d,2)
    p = series_to_polynomial([1, 0, -1], 2)
    for d in range(0, 9):
        assert p(d) == binomial(d + 2, 2) - binomial(d, 2)
    shifted = series_to_polynomial([1], 2, offset=-1)
    assert shifted == binomial_poly(2, 3)


def test_series_to_polynomial_edge_cases():
    for numerator, n, offset in [
        ([], 0, 0),
        ([], 3, -2),
        ([0, 0, 0], 2, 1),
        ([3], 0, 0),
        ([1, -4, 2], 0, -3),
        ([0, 2, 0, -1, 0], 1, -4),
        ([1, -3, 3, -1], 3, -1),
        ([5, 0, -7, 1], 4, -6),
    ]:
        expected = hilbert_coefficient_polynomial(numerator, n, offset)
        assert series_to_polynomial(numerator, n, offset) == expected, (numerator, n, offset)
    assert series_to_polynomial([], 2).is_zero()
    assert series_to_polynomial([1, -4, 2], 0, -3) == NumPoly([-1])
    with pytest.raises(ValueError, match="n must be nonnegative"):
        series_to_polynomial([1], -1)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-20, 20), max_size=30),
    st.integers(0, 6),
    st.integers(-8, 8),
)
@example([0, 3, 0, 0, -2, 0], 0, -5)
@example([1, 0, 0, -1, 0], 4, -8)
@example([], 0, 0)
@example([], 4, -6)
@example([7], 0, 6)
@example([1, -2, 1], 0, -6)
@example([0] * 29 + [3], 2, 6)
@example([1, -4, 6, -4, 1], 3, 0)
def test_series_to_polynomial_matches_termwise_sum(numerator, n, offset):
    """The binomial sum against the Hilbert coefficients taken by synthetic
    division and against interpolation through forward differences of
    sampled values."""
    poly = series_to_polynomial(numerator, n, offset)
    assert poly == hilbert_coefficient_polynomial(numerator, n, offset)
    assert poly == forward_difference_polynomial(numerator, n, offset)


def product_expansion(terms):
    """sum c * C(d + shift, a), each binomial the Fraction product of the
    linear factors (d + shift - t) / (t + 1), t < a."""
    out = NumPoly()
    for c, a, shift in terms:
        term = NumPoly([c])
        for t in range(a):
            term = term * NumPoly([Fraction(shift - t, t + 1), Fraction(1, t + 1)])
        out = out + term
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(-5, 5), st.fractions(max_denominator=12)),
            st.integers(0, 6),
            st.integers(-8, 8),
        ),
        max_size=6,
    )
)
@example([])
@example([(0, 3, 1)])
@example([(Fraction(1, 2), 1, 1), (Fraction(1, 2), 1, 1), (2, 0, -5)])
def test_binomial_sum_matches_product_expansion(terms):
    poly = numpoly._binomial_sum(terms)
    assert poly == product_expansion(terms)
    assert all(type(c) is Fraction for c in poly.coeffs)


def test_poly_dict_round_trip():
    p = 2 * binomial_poly(2, 3) + NumPoly([Fraction(1, 2), Fraction(1, 2)]) * 0
    d = poly_to_dict(p)
    assert poly_from_dict(d) == p
    assert poly_from_dict({"coeffs": [6, "5", "1"]}) == NumPoly([6, 5, 1])
    terms = {"terms": [{"a": 2, "shift": 3, "mult": 2}]}
    assert poly_from_dict(terms) == 2 * binomial_poly(2, 3)


def test_poly_from_dict_error_messages():
    with pytest.raises(ValueError, match="coeffs"):
        poly_from_dict({"coeffs": ["not-a-number"]})
    with pytest.raises(ValueError, match="shift"):
        poly_from_dict({"terms": [{"a": 2}]})
    with pytest.raises(ValueError):
        poly_from_dict({})
    with pytest.raises(ValueError):
        poly_from_dict([1, 2])
    # entries are checked in order: the first bad one is reported
    negative, no_shift = {"a": -1, "shift": 0}, {"a": 1}
    with pytest.raises(ValueError, match=r"^binomial degree must be nonnegative, got -1$"):
        poly_from_dict({"terms": [negative, no_shift]})
    with pytest.raises(ValueError, match=r"^terms\[0\] missing field \['shift'\]$"):
        poly_from_dict({"terms": [no_shift, negative]})


def test_poly_from_dict_terms_with_fraction_multipliers():
    # C(d - 5, 0) is the polynomial 1 even where d - 5 < 0
    terms = [{"a": 1, "shift": 1, "mult": "1/2"}] * 2 + [{"a": 0, "shift": -5, "mult": 2}]
    poly = poly_from_dict({"terms": terms})
    assert poly == NumPoly([3, 1])
    assert gotzmann_rep(poly).a == (1, 0, 0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=-30, max_value=30), min_size=0, max_size=5))
def test_numpoly_add_sub_inverse(coeffs):
    p = NumPoly(coeffs)
    q = NumPoly(coeffs[::-1])
    assert (p + q) - q == p
    assert p - p == NumPoly()


def fraction_horner(coeffs, d):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * d + c
    return acc


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.fractions(max_denominator=24), min_size=0, max_size=6),
    st.one_of(st.integers(min_value=-10**6, max_value=10**6), st.fractions(max_denominator=24)),
)
def test_numpoly_call_matches_fraction_horner(coeffs, d):
    p = NumPoly(coeffs)
    value = p(d)
    assert type(value) is Fraction
    assert value == fraction_horner(p.coeffs, d)
    zero = NumPoly()(d)
    assert type(zero) is Fraction and zero == 0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=8),
)
def test_rep_uniqueness_random(vals):
    rep = GotzmannRep(tuple(sorted(vals, reverse=True)))
    assert gotzmann_rep(rep.polynomial()) == rep


# ---------------------------------------------------------------------------
# NumPoly against the power-basis Fraction oracle

SCALARS = st.one_of(st.integers(-20, 20), st.fractions(-20, 20, max_denominator=12))
BINOMIAL_TERMS = st.lists(
    st.tuples(st.one_of(st.integers(-5, 5), st.fractions(max_denominator=12)),
              st.integers(0, 6), st.integers(-8, 8)),
    max_size=6,
)
# (library, oracle) pairs of one polynomial: from power-basis coefficients,
# or from a binomial sum, whose coeffs the library builds on first read
POLY_PAIRS = st.one_of(
    st.lists(SCALARS, max_size=7).map(lambda cs: (NumPoly(cs), PowerPoly(cs))),
    BINOMIAL_TERMS.map(lambda ts: (numpoly._binomial_sum(ts), power_binomial_sum(ts))),
)


@settings(max_examples=200, deadline=None)
@given(POLY_PAIRS, POLY_PAIRS, SCALARS)
def test_numpoly_arithmetic_matches_power_oracle(pair, other, c):
    (p, op), (q, oq) = pair, other
    assert (p + q).coeffs == (op + oq).coeffs
    assert (p - q).coeffs == (op - oq).coeffs
    assert (p * q).coeffs == (op * oq).coeffs
    assert (-p).coeffs == (-op).coeffs
    assert (c * p).coeffs == (p * c).coeffs == (PowerPoly([c]) * op).coeffs
    assert (p + c).coeffs == (c + p).coeffs == (op + PowerPoly([c])).coeffs
    assert (c - p).coeffs == (PowerPoly([c]) - op).coeffs


@settings(max_examples=200, deadline=None)
@given(POLY_PAIRS, st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=24)))
@example((NumPoly(), PowerPoly()), 3)
@example((NumPoly(), PowerPoly()), Fraction(1, 3))
def test_numpoly_evaluation_matches_power_oracle(pair, d):
    p, oracle = pair
    value = p(d)
    assert type(value) is Fraction
    assert value == oracle(d)


@settings(max_examples=200, deadline=None)
@given(POLY_PAIRS, st.integers(-40, 40))
@example((NumPoly(), PowerPoly()), 3)
def test_backward_differences_match_power_oracle(pair, x):
    # order j at x is sum_i (-1)^i C(j, i) P(x - i), times the denominator;
    # order 0 is the value that lexify reads
    p, oracle = pair
    want = [
        p._den * sum((-1) ** i * comb(j, i) * oracle(x - i) for i in range(j + 1))
        for j in range(p.degree + 1)
    ]
    assert p._int_differences(x) == want
    assert p._int_differences(x)[:1] == ([p._int_value(x)] if want else [])


@settings(max_examples=200, deadline=None)
@given(POLY_PAIRS, st.integers(-6, 6))
def test_numpoly_shift_degree_and_lead_match_power_oracle(pair, s):
    p, oracle = pair
    assert p.degree == oracle.degree
    assert p.leading_coefficient == oracle.leading_coefficient
    assert type(p.leading_coefficient) is Fraction
    assert p.shift_argument(s).coeffs == oracle.shift_argument(s).coeffs
    assert p.shift_argument(s).shift_argument(-s) == p


@settings(max_examples=200, deadline=None)
@given(BINOMIAL_TERMS)
@example([])
@example([(Fraction(1, 2), 1, 1), (Fraction(1, 2), 1, 1), (2, 0, -5)])
def test_binomial_sum_equals_and_hashes_as_its_coefficient_form(terms):
    p = numpoly._binomial_sum(terms)
    q = NumPoly(power_binomial_sum(terms).coeffs)
    assert p == q and hash(p) == hash(q)
    assert p + Fraction(1, 3) != q
    assert len({p, q, q + 0}) == 1


@settings(max_examples=200, deadline=None)
@given(POLY_PAIRS)
def test_numpoly_coeffs_round_trip(pair):
    p, oracle = pair
    assert p.coeffs == oracle.coeffs
    assert all(type(c) is Fraction for c in p.coeffs)
    back = NumPoly(p.coeffs)
    assert back == p and back.coeffs == p.coeffs


def scaled_integer_sum(terms_and_den):
    """(library, oracle) pair of an integer binomial sum over a small
    denominator, which may or may not be integer-valued."""
    terms, den = terms_and_den
    scaled = [(Fraction(Fraction(c).numerator, den), a, s) for c, a, s in terms]
    return numpoly._binomial_sum(scaled), power_binomial_sum(scaled)


@settings(max_examples=300, deadline=None)
@given(st.one_of(POLY_PAIRS, st.tuples(BINOMIAL_TERMS, st.sampled_from([1, 2, 3, 6])).map(scaled_integer_sum)))
@example((NumPoly([0, Fraction(1, 2), Fraction(1, 2)]), PowerPoly([0, Fraction(1, 2), Fraction(1, 2)])))
@example((NumPoly([Fraction(1, 2)]), PowerPoly([Fraction(1, 2)])))
def test_is_integer_valued_matches_value_check(pair):
    p, oracle = pair
    assert p == NumPoly(oracle.coeffs)
    assert p.is_integer_valued() == oracle.is_integer_valued()
