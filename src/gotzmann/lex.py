"""Lex segments, lexification of Hilbert functions, and saturated lex modules.

Monomial order: lexicographic with x0 > x1 > ... > xn.  Module monomials are
ordered position-dominantly: m*e_i > m'*e_j iff i < j, or i = j and m > m' in
lex.  Under this order a lex submodule has nested components I_1 >= I_2 >= ...
and its free components come last; ``saturated_lex_module`` fills components
accordingly (unit ideals first, then the single interesting ideal, then
zeros).
"""
from __future__ import annotations

from .combinatorics import binomial, macaulay_transform
from .errors import BudgetExceeded, InvariantViolated, NotAchievable, NotAdmissible
from .monomial_algebra import (
    GradedFreeModule,
    Monomial,
    MonomialIdeal,
    MonomialSubmodule,
    hilbert_polynomial,
    hilbert_series,
    monomial_at_rank,
    monomials_of_degree,
)
from .numpoly import (
    GotzmannRep,
    NumPoly,
    adjusted_gotzmann_rep,
    binomial_poly,
    gotzmann_rep,
    series_to_polynomial,
)

# floor of lexify's degree ceiling: its window grows up to at least this many
# degrees past the table before the data count as never settling
LEXIFY_EXTRA_DEGREES = 80


def lex_segment(n: int, d: int, c: int) -> list[Monomial]:
    """The c lex-largest monomials of degree d in x0..xn."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    total = binomial(d + n, n)
    if not 0 <= c <= total:
        raise ValueError(f"segment size {c} out of range [0, {total}]")
    return list(monomials_of_degree(n, d)[:c])


def module_monomials(ambient: GradedFreeModule, d: int) -> tuple[tuple[int, Monomial], ...]:
    """Degree-d monomial basis of the free module, largest first.

    Entries are (component index, monomial); component c holds monomials of
    internal degree d - f_c.
    """
    out: list[tuple[int, Monomial]] = []
    for c, f in enumerate(ambient.degrees):
        out.extend((c, mono) for mono in monomials_of_degree(ambient.n, d - f))
    return tuple(out)


def is_lex_piece(submodule: MonomialSubmodule, d: int) -> bool:
    """Whether the degree-d piece of the submodule is an initial segment."""
    seen_gap = False
    for c, mono in module_monomials(submodule.ambient, d):
        inside = submodule.components[c].contains(mono)
        if inside and seen_gap:
            return False
        if not inside:
            seen_gap = True
    return True


def is_lex_ideal(ideal: MonomialIdeal) -> bool:
    """Whether every graded piece of the ideal is a lex initial segment.

    Checking through the top generator degree suffices: above it each piece
    is the span of the previous one, and spans of lex segments are lex
    segments.
    """
    if ideal.is_zero():
        return True
    shape = GradedFreeModule(ideal.n, (0,))
    sub = MonomialSubmodule(shape, (ideal,))
    return all(is_lex_piece(sub, d) for d in range(ideal.max_gen_degree() + 1))


def _hf_at(values: dict[int, int], tail: NumPoly, d: int) -> int:
    """H(d) from the table, else the tail value, which is stored in values."""
    if d not in values:
        value = tail(d)
        if value.denominator != 1:
            raise NotAchievable(f"tail value {value} at degree {d} is not an integer")
        values[d] = int(value)
    return values[d]


def _degree_ceiling(ambient: GradedFreeModule, tail: NumPoly, floor: int) -> int:
    """Last degree where lexify can still place a generator, at least floor.

    Generators stop once the partially filled boundary component passes the
    Gotzmann number of the tail reindexed to its internal degree (with every
    later component counted fully against the quotient), so the candidate
    ceilings over all components bound the degrees worth processing.
    """
    n, degrees = ambient.n, ambient.degrees
    ceiling = floor
    for c, f in enumerate(degrees):
        internal = tail.shift_argument(f)
        for f2 in degrees[c + 1 :]:
            internal = internal - binomial_poly(n, n + f - f2)
        try:
            s_c = gotzmann_rep(internal).number
        except NotAdmissible:
            continue
        ceiling = max(ceiling, f + s_c + n + 2)
    return ceiling


def lexify(
    ambient: GradedFreeModule,
    table: list[tuple[int, int]] | dict[int, int],
    tail: NumPoly,
) -> MonomialSubmodule:
    """Lex submodule L with H(F/L, d) matching the table, then the tail.

    The table lists (d, value) integer pairs contiguously from the smallest
    ambient degree (anything but int degrees and values raises ValueError);
    past its end the tail polynomial gives the values.  Degree by degree the
    lex segment of the right codimension is selected, checking it contains
    everything generated so far; a gap means no quotient of F has this
    Hilbert function and raises NotAchievable.

    Degrees are processed in windows [f1, T].  After each window the series
    of the module built so far must replay the data on it, and the loop stops
    once that series is polynomial past T and equal to the tail.  The lex
    submodule with a given Hilbert function is unique, and the module built
    so far already has the input values at every degree, so later degrees
    would add no generator.  Otherwise the window doubles its width, up to
    a ceiling past the Gotzmann numbers of the tail (computed only then);
    data that have not settled there raise NotAchievable.  A window between
    the first and the ceiling whose series exceeds the node budget is
    skipped for the ceiling itself, so BudgetExceeded comes only from the
    first window or the ceiling.
    """
    f1 = ambient.degrees[0]
    fm = ambient.degrees[-1]
    pairs = list(table.items()) if isinstance(table, dict) else list(table)
    for d, v in pairs:
        if type(d) is not int or type(v) is not int:  # not isinstance: bool is refused too
            raise ValueError(f"table entry ({d!r}, {v!r}) is not a pair of integers")
    # the table's values, then each tail value the first time it is read
    values = dict(sorted(pairs))
    if values:
        lo, hi = min(values), max(values)
        if lo != f1 or sorted(values) != list(range(lo, hi + 1)):
            raise NotAchievable(
                f"table degrees must run contiguously from f1 = {f1}, got {sorted(values)}"
            )
        last_tabulated = hi
    else:
        last_tabulated = f1 - 1

    n = ambient.n
    degrees = ambient.degrees
    new_gens: list[list[Monomial]] = [[] for _ in degrees]
    # an initial segment of F_d under the position-dominant order is a run of
    # full components, one partial lex piece, then nothing, so per-component
    # counts determine it completely; spans and containment reduce to counts
    prev_fill = [0] * ambient.m
    processed_to = f1 - 1

    def piece_sizes(d: int) -> list[int]:
        return [binomial(d - f + n, n) for f in degrees]

    def process(d: int) -> None:
        nonlocal prev_fill, processed_to
        pieces = piece_sizes(d)
        dim_d = sum(pieces)
        h = _hf_at(values, tail, d)
        if h < 0 or h > dim_d:
            raise NotAchievable(
                f"H({d}) = {h} outside [0, dim F_{d} = {dim_d}]"
            )
        seg = dim_d - h
        # span of the previous segment: a full piece spans the full next
        # piece, a partial lex piece grows at the extremal Macaulay rate
        prev_pieces = piece_sizes(d - 1)
        span_size = 0
        for c, f in enumerate(degrees):
            filled, full = prev_fill[c], prev_pieces[c]
            if filled == 0:
                continue
            if filled == full:
                span_size += pieces[c]
            else:
                span_size += pieces[c] - macaulay_transform(full - filled, d - 1 - f)
        if span_size > seg:
            raise NotAchievable(
                f"H({d}) = {h} requires dropping monomials already generated"
            )
        # both the span and the new segment are initial, so the difference is
        # the position range [span_size, seg): exactly the new generators
        fill = [0] * ambient.m
        cum = 0
        for c, size in enumerate(pieces):
            take = min(max(seg - cum, 0), size)
            fill[c] = take
            for r in range(max(span_size - cum, 0), take):
                new_gens[c].append(monomial_at_rank(n, d - degrees[c], r))
            cum += size
        prev_fill = fill
        processed_to = d

    target = max(last_tabulated, fm) + n + 2
    ceiling = None
    while True:
        for d in range(processed_to + 1, target + 1):
            process(d)
        components = tuple(
            MonomialIdeal(n, tuple(gens)) if gens else MonomialIdeal.zero(n)
            for gens in new_gens
        )
        result = MonomialSubmodule(ambient, components)
        # independent route: the series numerator of the constructed module
        # must replay the input data on the processed window
        try:
            series = hilbert_series(result)
        except BudgetExceeded:
            # a window between the first and the ceiling is only a shortcut
            if ceiling is None or target >= ceiling:
                raise
            target = ceiling
            continue
        for d in range(f1, target + 1):
            if series.hf(d) != values[d]:
                raise InvariantViolated(
                    f"constructed module disagrees with input data at degree {d}"
                )
        poly = series_to_polynomial(series.numerator, n, series.offset)
        # past max_exponent - n the series is already polynomial, so matching
        # the tail there settles every later degree
        if poly == tail and series.max_exponent - n <= target:
            return result
        if ceiling is None:
            floor = max(target, max(last_tabulated, fm) + LEXIFY_EXTRA_DEGREES)
            ceiling = _degree_ceiling(ambient, tail, floor)
        if target >= ceiling:
            raise NotAchievable(
                "Hilbert data never settles onto the tail polynomial"
            )
        target = min(ceiling, target + (target - f1 + 1))


def saturated_lex_ideal(g: GotzmannRep, n: int) -> MonomialIdeal:
    """Saturation of the lex ideal whose quotient in degree s = |g| has
    dimension P(s), P the polynomial of g.  With d = a_1 and run lengths
    m_i = #{j : a_j = i} it is (Moore and Nagel, Math. Comp. 2014)

        (x_0, ..., x_{n-d-2}, x_{n-d-1}^(m_d+1), x_{n-d-1}^m_d x_{n-d}^(m_{d-1}+1),
         ..., x_{n-d-1}^m_d ... x_{n-2}^m_1 x_{n-1}^m_0).

    P(s) > dim S_s raises NotAchievable; P(s) = dim S_s gives the zero ideal.
    The quotient's Hilbert polynomial is verified to equal P (else
    InvariantViolated); lex-ness is checked by the tests, not at run time.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    s = g.number
    if s == 0:
        return MonomialIdeal.unit(n)
    poly = g.polynomial()
    quota = poly(s)
    if quota.denominator != 1:
        raise InvariantViolated(f"P({s}) = {quota} is not an integer")
    codim = binomial(s + n, n) - int(quota)
    if codim < 0:
        raise NotAchievable(
            f"P({s}) = {int(quota)} exceeds dim of degree {s} in {n + 1} variables"
        )
    gens: list[Monomial] = []
    if codim > 0:
        # x_k carries m_{n-1-k}, which is 0 for k < n - d - 1
        exps = [0] * (n + 1)
        for k in range(n):
            m = g.a.count(n - 1 - k)
            exps[k] = m + (k < n - 1)
            gens.append(Monomial(tuple(exps)))
            exps[k] = m
    sat = MonomialIdeal(n, tuple(gens))
    quotient_hp = hilbert_polynomial(MonomialSubmodule(GradedFreeModule(n, (0,)), (sat,)))
    if quotient_hp != poly:
        raise InvariantViolated(
            f"saturated lex ideal has Hilbert polynomial {quotient_hp}, wanted {poly}"
        )
    return sat


def saturated_lex_module(
    poly: NumPoly, ambient: GradedFreeModule, r: int
) -> MonomialSubmodule:
    """Saturated lex submodule L of F with Hilbert polynomial of F/L equal
    to the given polynomial, built from its rank-r adjusted representation.

    Components: unit ideals in positions 1..m-r-1, the saturated lex ideal of
    the remainder Q (argument-shifted into the component's internal grading)
    in position m-r, zero ideals in the last r positions.
    """
    n = ambient.n
    degrees = ambient.degrees
    m = ambient.m
    rep = adjusted_gotzmann_rep(poly, n, degrees, r)
    if m - r == 0:
        if rep.q.number != 0:
            raise NotAdmissible(
                "remainder is nonzero but every component is free"
            )
        components = tuple(MonomialIdeal.zero(n) for _ in range(m))
    else:
        f_mid = degrees[m - r - 1]
        q_internal = gotzmann_rep(rep.q.polynomial().shift_argument(f_mid))
        middle = saturated_lex_ideal(q_internal, n)
        components = (
            tuple(MonomialIdeal.unit(n) for _ in range(m - r - 1))
            + (middle,)
            + tuple(MonomialIdeal.zero(n) for _ in range(r))
        )
    result = MonomialSubmodule(ambient, components)
    actual = hilbert_polynomial(result)
    if actual != poly:
        raise InvariantViolated(
            f"lex module quotient has Hilbert polynomial {actual}, wanted {poly}"
        )
    return result
