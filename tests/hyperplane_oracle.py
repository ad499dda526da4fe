"""The generic hyperplane restriction component by component, a test oracle.

Per component ideal I the exact sequence of multiplication by
h = x_0 + ... + x_n on S/I gives

    dim (S/(I + hS))_e = H(S/I, e) - H(S/I, e - 1) + dim (0 :_{S/I} h)_{e-1},

and, h being a nonzerodivisor on S/I^sat, the kernel is that of h on the
standard monomials of I that lie in I^sat.  This is the library's former
per-component route, made independent of it: the Hilbert values are counted,
I^sat is the intersection of the variable colons of ``conftest``, and the
kernel is ranked by the ``Fraction`` elimination of ``rank_oracle`` in every
degree, not only where I^sat/I is nonzero.  The library reads the first
difference off its record and ranks the kernel only where the defect table
of I is positive.
"""
from __future__ import annotations

import functools

from conftest import colon_var_power, hf_quotient, intersect
from enumeration_oracle import quotient_basis
from rank_oracle import rank_oracle


def saturation_exponents(ideal_obj):
    """Minimal generators of I^sat, as the intersection of the colons I : x_v^inf."""
    if not ideal_obj.exponents:
        return ()
    colons = (colon_var_power(ideal_obj.exponents, v) for v in range(ideal_obj.n + 1))
    return functools.reduce(intersect, colons)


def linear_section_dim(ideal_obj, e):
    """dim (S/(I + hS))_e: the counted first difference of H(S/I) plus the
    rank defect of h on the standard monomials of degree e - 1 in I^sat."""
    sat = saturation_exponents(ideal_obj)
    gens = ideal_obj.exponents
    source = [
        u.exponents for u in quotient_basis(ideal_obj, e - 1)
        if any(all(a <= b for a, b in zip(g, u.exponents)) for g in sat)
    ]
    row_of = {}
    columns = []
    for u in source:
        column = {}
        for v in range(ideal_obj.n + 1):
            w = u[:v] + (u[v] + 1,) + u[v + 1 :]
            if not any(all(a <= b for a, b in zip(g, w)) for g in gens):
                column[row_of.setdefault(w, len(row_of))] = 1
        columns.append(column)
    kernel = len(source) - rank_oracle(columns)
    return hf_quotient(ideal_obj, e) - hf_quotient(ideal_obj, e - 1) + kernel


def hyperplane_hf(submodule, d):
    """dim (F/(N + hF))_d, summed over the components at d - f_i."""
    return sum(
        linear_section_dim(ideal_obj, d - f)
        for f, ideal_obj in zip(submodule.degrees, submodule.components)
    )
