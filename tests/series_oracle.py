"""Hilbert polynomials by interpolation and stabilization by scanning, test oracles.

``forward_difference_polynomial`` samples the series at the n + 1 degrees
E - n, ..., E, where every combinatorial binomial of the numerator already
agrees with its polynomial, and rebuilds P from the forward differences as
sum_k Delta^k H(d0) * C(d - d0, k).  ``scan_stabilization_degree`` walks down
from E - n, comparing P with the series coefficient until they differ.
Neither uses the library's binomial-sum expansion of P or the closed form
E - n of the stabilization degree, so the tests hold both to them.
"""
from __future__ import annotations

from math import comb

from gotzmann.monomial_algebra import MonomialSubmodule, hilbert_series
from gotzmann.numpoly import NumPoly, binomial_poly


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
