"""Binomial convention, representation uniqueness, and transform properties."""
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gotzmann.combinatorics import (
    MacaulayRep,
    _largest_upper_index,
    _macaulay_runs,
    binomial,
    green_transform,
    macaulay_rep,
    macaulay_transform,
)

import macaulay_oracle
from conftest import transform_tables


def test_binomial_vanishes_below_diagonal():
    assert binomial(3, 5) == 0
    assert binomial(-1, 0) == 0
    assert binomial(-2, 3) == 0
    assert binomial(0, 0) == 1
    assert binomial(5, 2) == 10


def test_binomial_rejects_negative_lower_index():
    with pytest.raises(ValueError):
        binomial(4, -1)


def test_rep_of_zero_is_empty():
    rep = macaulay_rep(0, 3)
    assert rep.terms == ()
    assert rep.value() == 0


def test_rep_known_values():
    # 4 in index 1 is a single term C(4, 1)
    assert macaulay_rep(4, 1).terms == ((4, 1),)
    # 6 in index 2 is C(4, 2)
    assert macaulay_rep(6, 2).terms == ((4, 2),)
    # 5 in index 2 is C(3, 2) + C(2, 1)
    assert macaulay_rep(5, 2).terms == ((3, 2), (2, 1))


def test_rep_validation_rejects_bad_term_lists():
    with pytest.raises(ValueError):
        MacaulayRep(2, ((3, 1),))  # indices must start at d
    with pytest.raises(ValueError):
        MacaulayRep(2, ((2, 2), (2, 1)))  # upper indices must strictly decrease
    with pytest.raises(ValueError):
        MacaulayRep(2, ((1, 2),))  # k >= j required
    with pytest.raises(ValueError):
        MacaulayRep(0, ())


def test_rep_rejects_negative_value_and_index():
    with pytest.raises(ValueError):
        macaulay_rep(-1, 2)
    with pytest.raises(ValueError):
        macaulay_rep(3, 0)


def linear_scan_rep(a, d):
    """Greedy Macaulay terms, scanning each upper index k one step at a time."""
    terms = []
    rem, j = a, d
    while rem > 0:
        k = j
        while binomial(k + 1, j) <= rem:
            k += 1
        terms.append((k, j))
        rem -= binomial(k, j)
        j -= 1
    return tuple(terms)


def test_reconstruction_full_range():
    # every (a, d) in the contract range reconstructs, descends strictly and
    # matches the one-step scan
    for d in range(1, 7):
        for a in range(0, 2001):
            rep = macaulay_rep(a, d)
            assert rep.terms == linear_scan_rep(a, d), (a, d)
            assert rep.value() == a
            ks = [k for k, _ in rep.terms]
            assert ks == sorted(ks, reverse=True)
            assert len(set(ks)) == len(ks)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 9))
def test_rep_matches_linear_scan_hypothesis(a, d):
    # the runs' term list, and the term-list oracle the transforms are held to
    assert macaulay_rep(a, d).terms == linear_scan_rep(a, d) == macaulay_oracle.macaulay_terms(a, d)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 12))
def test_transforms_match_the_representation_sums(a, d):
    assert macaulay_transform(a, d) == macaulay_oracle.macaulay_transform(a, d)
    assert green_transform(a, d) == macaulay_oracle.green_transform(a, d)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        # mid-size values and indices
        st.tuples(st.integers(0, 10**30), st.integers(1, 60)),
        # d far above a: a run of c = 0, a terms C(j, j) = 1
        st.tuples(st.integers(0, 2000), st.integers(2000, 10**5)),
        # a far above C(d + n, n) for any small n: c_d in the thousands and up
        st.tuples(st.integers(10**40, 10**80), st.integers(1, 8)),
    )
)
def test_transforms_by_runs_match_the_term_list_oracle(pair):
    a, d = pair
    terms = macaulay_oracle.macaulay_terms(a, d)
    runs = _macaulay_runs(a, d)
    # the runs are the term list: c = k_j - j constant along each, strictly
    # falling from run to run, the indices consecutive from d down
    assert [(j + c, j) for c, hi, lo in runs for j in range(hi, lo - 1, -1)] == list(terms)
    assert all(c1 > c2 for (c1, _, _), (c2, _, _) in zip(runs, runs[1:]))
    assert macaulay_rep(a, d).terms == terms
    mac = macaulay_transform(a, d)
    assert mac == macaulay_oracle.macaulay_transform(a, d)
    assert green_transform(a, d) == macaulay_oracle.green_transform(a, d)
    # the carry identity: a^<d> at d + 1 has the runs of a, shifted up by one
    assert _macaulay_runs(mac, d + 1) == [(c, hi + 1, lo + 1) for c, hi, lo in runs]


def test_transforms_keep_the_argument_checks():
    for transform in (macaulay_transform, green_transform):
        with pytest.raises(ValueError, match="a must be nonnegative, got -1"):
            transform(-1, 2)
        with pytest.raises(ValueError, match="d must be positive, got 0"):
            transform(3, 0)


def test_rep_of_large_value_is_fast():
    # the linear scan needs about 10^7 binomials for d = 1 and 4,500 for d = 2
    start = time.perf_counter()
    one = macaulay_rep(10**7, 1)
    two = macaulay_rep(10**7, 2)
    elapsed = time.perf_counter() - start
    assert one.terms == ((10**7, 1),)
    assert two.terms == ((4472, 2), (2844, 1))
    assert two.value() == 10**7
    huge = macaulay_rep(10**60, 12)
    assert huge.value() == 10**60
    assert time.perf_counter() - start < 0.25, elapsed


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(1, 10**6), st.integers(1, 10**200)), st.integers(1, 60))
def test_largest_upper_index_brackets_b(b, j):
    k = _largest_upper_index(b, j)
    assert comb(k, j) <= b < comb(k + 1, j)


@pytest.mark.parametrize("j", [1, 2, 3, 5, 7, 8, 31, 60])
def test_largest_upper_index_around_the_central_binomial(j):
    # k passes 2j at b = C(2j, j); an exact binomial C(k, j) is its own k
    central = comb(2 * j, j)
    for b in (central - 1, central, central + 1):
        k = _largest_upper_index(b, j)
        assert comb(k, j) <= b < comb(k + 1, j), b
    assert _largest_upper_index(central, j) == 2 * j
    for k in range(j, 4 * j + 3):
        assert _largest_upper_index(comb(k, j), j) == k


@pytest.mark.parametrize("j", [0, -1])
def test_largest_upper_index_refuses_a_lower_index_below_1(j):
    # at j = 0 every C(k, 0) is 1 <= b, so the doubling bracket would never end
    for b in (1, 2, 10**6):
        with pytest.raises(ValueError, match="lower index"):
            _largest_upper_index(b, j)


def count_descent_decompositions(a, d, k_cap):
    """Number of ways to write a as C(k_d,d)+...+C(k_delta,delta) with
    consecutive descending indices, k strictly decreasing, k_j >= j >= 1."""
    if a == 0:
        return 1
    if d == 0:
        return 0
    total = 0
    for k in range(d, k_cap):
        c = binomial(k, d)
        if c > a:
            break
        total += count_descent_decompositions(a - c, d - 1, k)
    return total


def test_uniqueness_brute_force():
    # exactly one valid decomposition exists for 0 <= a <= 200, 1 <= d <= 4
    for d in range(1, 5):
        for a in range(0, 201):
            assert count_descent_decompositions(a, d, a + d + 2) == 1, (a, d)


def test_transform_values():
    assert macaulay_transform(4, 1) == 10
    assert green_transform(4, 1) == 3
    assert macaulay_transform(0, 3) == 0
    assert green_transform(0, 3) == 0
    # 6 = C(4,2): bump to C(5,3) = 10; lower to C(3,2) = 3
    assert macaulay_transform(6, 2) == 10
    assert green_transform(6, 2) == 3


def test_transform_properties_full_range():
    """Superadditivity in the value and antitonicity in the index, plus
    monotonicity in the value, over 1 <= a,b <= 500 and 1 <= d <= 5."""
    mac, grn = transform_tables(1000, 6)
    for d in range(1, 6):
        mac_d, grn_d = mac[d], grn[d]
        mac_up, grn_up = mac[d + 1], grn[d + 1]
        for a in range(1, 501):
            assert grn_up[a] <= grn_d[a], (a, d)
            assert mac_up[a] <= mac_d[a], (a, d)
            assert mac_d[a - 1] <= mac_d[a], (a, d)
            for b in range(1, 501):
                s = a + b
                assert grn_d[a] + grn_d[b] <= grn_d[s], (a, b, d)
                assert mac_d[a] + mac_d[b] <= mac_d[s], (a, b, d)


@settings(max_examples=300, deadline=None)
@given(a=st.integers(min_value=0, max_value=50000), d=st.integers(min_value=1, max_value=12))
def test_reconstruction_random(a, d):
    rep = macaulay_rep(a, d)
    assert rep.value() == a


@settings(max_examples=200, deadline=None)
@given(a=st.integers(min_value=0, max_value=3000), d=st.integers(min_value=1, max_value=8))
def test_transforms_sandwich_the_value(a, d):
    # termwise C(k-1,j) <= C(k,j) <= C(k+1,j+1), so the transforms sandwich a
    assert green_transform(a, d) <= a <= macaulay_transform(a, d)
