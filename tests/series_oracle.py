"""Hilbert polynomials by interpolation, by Hilbert coefficients and
stabilization by scanning, test oracles.

``forward_difference_polynomial`` samples the series at the n + 1 degrees
E - n, ..., E, where every combinatorial binomial of the numerator already
agrees with its polynomial, and rebuilds P from the forward differences as
sum_k Delta^k H(d0) * C(d - d0, k).  ``hilbert_coefficient_polynomial`` reads
P's coordinates off the numerator's Hilbert coefficients, taken by synthetic
division.  ``scan_stabilization_degree`` walks down from E - n, comparing P
with the series coefficient until they differ.  None uses the library's
binomial-sum expansion of P or the closed form E - n of the stabilization
degree, so the tests hold both to them.
"""
from __future__ import annotations

from itertools import accumulate
from math import comb

from gotzmann.monomial_algebra import MonomialSubmodule, hilbert_series
from gotzmann.numpoly import NumPoly, _from_basis, binomial_poly


def forward_difference_polynomial(numerator, n, offset=0):
    """Polynomial of sum_j numerator[j] t^(offset+j) / (1-t)^(n+1), from the
    n + 1 exact values H(E - n), ..., H(E) and their forward differences."""
    terms = [(offset + j, c) for j, c in enumerate(numerator) if c]
    if not terms:
        return NumPoly()
    d0 = terms[-1][0] - n
    values = [
        sum(c * comb(d - e + n, n) for e, c in terms) for d in range(d0, d0 + n + 1)
    ]
    out = NumPoly()
    for k in range(n + 1):
        if values[0]:
            out = out + values[0] * binomial_poly(k, -d0)
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def hilbert_coefficient_polynomial(numerator, n, offset=0):
    """Polynomial of sum_j numerator[j] t^(offset+j) / (1-t)^(n+1) from the
    Hilbert coefficients of N(t) = sum_j numerator[j] t^j.

    Write N(t) = sum_i e_i (t - 1)^i, so that e_i = N^(i)(1) / i!.  Then
    N / (1-t)^(n+1) = sum_i (-1)^i e_i / (1-t)^(n+1-i); the terms i > n are
    polynomials in t, and 1/(1-t)^(k+1) has coefficients C(d + k, k), so
    P(d) = sum_{i <= n} (-1)^i e_i C(d + n - i, n - i) (Bruns and Herzog,
    Prop. 4.1.9): the coordinate of C(d + k, k) is (-1)^(n-k) e_(n-k).  Each
    e_i is the remainder of one synthetic division by t - 1 (a run of suffix
    sums) of the previous quotient.  The factor t^offset turns P(d) into
    P(d - offset), one ``shift_argument``.
    """
    # coefficients highest degree first: the running sums of one division
    # are the quotient's coefficients, the last of them the remainder N(1)
    rest, e = list(numerator)[::-1], []
    for _ in range(n + 1):
        rest = list(accumulate(rest))
        e.append(rest.pop() if rest else 0)
    b = [-x if i % 2 else x for i, x in enumerate(e)][::-1]  # b_k = (-1)^(n-k) e_(n-k)
    return _from_basis(b).shift_argument(-offset)


def scan_stabilization_degree(submodule: MonomialSubmodule) -> int:
    """Least d0 with H = P from d0 on, by a downward scan from E - n that stops
    at the first degree where the polynomial and the series coefficient
    differ; f_1 when H is identically zero."""
    series = hilbert_series(submodule)
    if not any(series.numerator):
        return submodule.degrees[0]
    poly = forward_difference_polynomial(series.numerator, submodule.n, series.offset)
    d0 = series.max_exponent - submodule.n
    floor = min(submodule.degrees[0], d0) - 2 * (submodule.n + 2)
    while d0 > floor:
        below = poly(d0 - 1)
        if below.denominator != 1 or int(below) != series.hf(d0 - 1):
            return d0
        d0 -= 1
    raise AssertionError("stabilization scan ran past its safety floor")
