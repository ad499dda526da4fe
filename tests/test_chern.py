"""Chern class extraction from Hilbert polynomial coefficients."""
from itertools import product

import pytest

from gotzmann.chern import ChernData, check_chern_bound, chern_from_hilbert
from gotzmann.errors import (
    InvariantViolated,
    NonIntegralChern,
    NotAdmissible,
    PreconditionViolated,
    RankMismatch,
)
from gotzmann.numpoly import NumPoly, binomial_poly
from gotzmann.theorems import HOLDS, SHARP


def twist_sum_polynomial(n, twists):
    """Hilbert polynomial of a direct sum of twists of the structure sheaf on
    projective n-space: sum of C(d + n + a, n) over the twist list."""
    out = NumPoly()
    for a in twists:
        out = out + binomial_poly(n, n + a)
    return out


def sum_ij_identity(n):
    """sum of i*j over 1 <= i < j <= n, by loop and by closed form."""
    if n < 1:
        raise PreconditionViolated(f"need n >= 1, got {n}")
    lhs = sum(i * j for i in range(1, n + 1) for j in range(i + 1, n + 1))
    rhs = (n - 1) * n * (n + 1) * (3 * n + 2) // 24
    if lhs != rhs:
        raise InvariantViolated(f"pair-sum identity failed at n = {n}: {lhs} != {rhs}")
    return lhs, rhs


def test_twist_sum_round_trip():
    # chern classes of a direct sum of line bundles are the elementary
    # symmetric functions of the twists
    for n in (2, 3, 4):
        for length in (1, 2, 3):
            for twists in product(range(-3, 4), repeat=length):
                poly = twist_sum_polynomial(n, twists)
                data = chern_from_hilbert(poly, n, length)
                assert data.c1 == sum(twists)
                assert data.c2 == sum(
                    a * b for i, a in enumerate(twists) for b in twists[i + 1 :]
                )


def test_structure_sheaf_and_split_bundle():
    assert chern_from_hilbert(binomial_poly(2, 2), 2, 1) == ChernData(2, 1, 0, 0)
    split = twist_sum_polynomial(3, (0, -1))
    data = chern_from_hilbert(split, 3, 2)
    assert (data.c1, data.c2) == (-1, 0)
    assert data.to_dict() == {"n": 3, "r": 2, "c1": -1, "c2": 0}


def test_one_relation_cokernel_family():
    # rank-1 quotient of a rank-2 free module by one relation of degree a:
    # P = 2*C(d+3,3) - C(d-a+3,3) carries c1 = a and c2 = a^2
    for a in range(1, 6):
        poly = binomial_poly(3, 3) + binomial_poly(3, 3) - binomial_poly(3, 3 - a)
        data = chern_from_hilbert(poly, 3, 1)
        assert (data.c1, data.c2) == (a, a * a)


def test_rank_mismatch():
    quadric = NumPoly([1, 0, 1])
    with pytest.raises(RankMismatch):
        chern_from_hilbert(quadric, 3, 1)  # degree 2 != 3
    with pytest.raises(RankMismatch):
        chern_from_hilbert(binomial_poly(3, 3), 3, 2)  # leading 1/6 != 2/6


def test_precondition_gates():
    with pytest.raises(PreconditionViolated):
        chern_from_hilbert(NumPoly([1, 1]), 1, 1)
    with pytest.raises(PreconditionViolated):
        chern_from_hilbert(binomial_poly(3, 3), 3, 0)


def test_non_integral_chern():
    # leading term d^3/6 says rank 1 on projective 3-space, the lower
    # coefficients are chosen so one class at a time lands off the integers
    with pytest.raises(NonIntegralChern, match="c1"):
        chern_from_hilbert(NumPoly(["0", "0", "1/4", "1/6"]), 3, 1)
    with pytest.raises(NonIntegralChern, match="c2"):
        chern_from_hilbert(NumPoly(["0", "1/12", "1/2", "1/6"]), 3, 1)


def test_zero_c1_forces_nonpositive_c2():
    # adding degree <= n-2 admissible junk to r copies of the structure
    # sheaf keeps c1 = 0 and can only push c2 down
    for n in (2, 3, 4):
        for r in (1, 2):
            base = NumPoly()
            for _ in range(r):
                base = base + binomial_poly(n, n)
            for extra in (NumPoly(), NumPoly([1]), NumPoly([2, 1]), NumPoly([0, 3])):
                if extra.degree > n - 2:
                    continue
                data = chern_from_hilbert(base + extra, n, r)
                assert data.c1 == 0
                assert data.c2 <= 0


def test_chern_bound_family_is_sharp():
    for a in range(1, 6):
        poly = binomial_poly(3, 3) + binomial_poly(3, 3) - binomial_poly(3, 3 - a)
        rep = check_chern_bound(poly, 3, 1, (0, 0), 1)
        assert rep.verdict == SHARP
        assert rep.bound_lhs == a * a
        assert rep.bound_rhs == a * a
        assert rep.context["c1"] == a


def test_chern_bound_holds_and_trivial_cases():
    split = twist_sum_polynomial(2, (1, 0))
    rep = check_chern_bound(split, 2, 2, (0, 0), 2)
    assert rep.verdict == HOLDS
    assert (rep.bound_lhs, rep.bound_rhs) == (0, 1)
    for n in (2, 3, 4):
        rep = check_chern_bound(binomial_poly(n, n), n, 1, (0,), 0)
        assert rep.verdict == SHARP
        assert rep.bound_lhs == rep.bound_rhs == 0


def test_chern_bound_gates():
    split = twist_sum_polynomial(2, (1, 0))
    with pytest.raises(PreconditionViolated):
        check_chern_bound(split, 2, 2, (0, 1), 2)
    # inadmissible polynomial is rejected before any class is extracted
    with pytest.raises(NotAdmissible):
        check_chern_bound(NumPoly(["1/5", "0", "0", "1/6"]), 3, 1, (0,), 0)


def test_sum_ij_identity():
    assert sum_ij_identity(2) == (2, 2)
    assert sum_ij_identity(3) == (11, 11)
    for n in range(2, 51):
        lhs, rhs = sum_ij_identity(n)
        assert lhs == rhs
    with pytest.raises(PreconditionViolated):
        sum_ij_identity(0)
