"""Lex segments, lexification of Hilbert functions, and saturated lex modules.

Monomial order: lexicographic with x0 > x1 > ... > xn.  Module monomials are
ordered position-dominantly: m*e_i > m'*e_j iff i < j, or i = j and m > m' in
lex.  Under this order a lex submodule has nested components I_1 >= I_2 >= ...
and its free components come last; ``saturated_lex_module`` fills components
accordingly (unit ideals first, then the single interesting ideal, then
zeros).
"""
from __future__ import annotations

from itertools import groupby
from math import comb

from .combinatorics import binomial, macaulay_transform
from .errors import BudgetExceeded, InvariantViolated, NotAchievable, NotAdmissible
from .monomial_algebra import (
    GradedFreeModule,
    Monomial,
    MonomialIdeal,
    MonomialSubmodule,
    _ideal_numerator,
    _lex_rank,
    _lex_run,
    _minimal,
    _monomial,
    _numerator_hf,
    _stable_counts,
    _stable_numerator,
)
from .numpoly import (
    TERM_BUDGET,
    AdjustedGotzmannRep,
    GotzmannRep,
    NumPoly,
    _binomial_sum,
    adjusted_gotzmann_rep,
    gotzmann_rep,
)


def lex_segment(n: int, d: int, c: int) -> list[Monomial]:
    """The c lex-largest monomials of degree d in x0..xn, the run of
    ``_lex_run`` from x0^d, so the degree is never enumerated."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    total = binomial(d + n, n)
    if not 0 <= c <= total:
        raise ValueError(f"segment size {c} out of range [0, {total}]")
    return list(map(_monomial, _lex_run((d,) + (0,) * n, c)))


def is_lex_piece(submodule: MonomialSubmodule, d: int) -> bool:
    """Whether the degree-d piece of the submodule is an initial segment:
    every component before the first one that is not full is full, that
    one's piece I_e is initial, and every later one is zero.  A nonzero I_e
    is initial iff its lex-smallest monomial u x_n^(e - deg u), u the
    generator of degree <= e with the lex-smallest (u_0, ..., u_(n-1)), has
    rank dim I_e - 1.  Dimensions are read off ``_ideal_numerator``: a
    component that is not stable can still have initial pieces, so one
    past ``NODE_BUDGET`` raises BudgetExceeded."""
    n = submodule.n
    gap = False  # some earlier component is not full
    for f, ideal in zip(submodule.degrees, submodule.components):
        e = d - f
        top = binomial(e + n, n)
        size = top - _numerator_hf(_ideal_numerator(ideal.exponents), n, e)
        if gap:
            if size:
                return False
        elif size < top:
            gap = True
            if size:
                low = min(g[:n] for g in ideal.exponents if sum(g) <= e)
                if _lex_rank(low + (e - sum(low),)) != size - 1:
                    return False
    return True


def is_lex_ideal(ideal: MonomialIdeal) -> bool:
    """Whether every graded piece of the ideal is a lex initial segment.

    A lex ideal is stable, so an ideal that ``_stable_counts`` refuses is
    not lex.  For a stable one the generator degrees suffice, in ascending
    order: between them each piece is the span of the previous one, and
    spans of lex segments are lex segments.  With the pieces below D
    initial, so is the span of I_(D-1) in degree D, and the generators of
    degree D lie outside it, so below all of it: the lex-smallest of them is
    the lex-smallest monomial of I_D, and I_D is initial iff it has rank
    dim I_D - 1.  dim I_D = C(D + n, n) - H(S/I, D) is read off the
    Eliahou-Kervaire numerator of the same counts, so the test is exact,
    runs the stability test once and never the pivot recursion.
    """
    n = ideal.n
    counts = _stable_counts(ideal.exponents)
    if counts is None:
        return False
    numerator = _stable_numerator(counts)
    for degree, gens in groupby(ideal.exponents, key=sum):
        size = binomial(degree + n, n) - _numerator_hf(numerator, n, degree)
        if _lex_rank(min(gens)) != size - 1:
            return False
    return True


def lexify(
    ambient: GradedFreeModule,
    table: list[tuple[int, int]],
    tail: NumPoly,
) -> MonomialSubmodule:
    """Lex submodule L with H(F/L, d) matching the table, then the tail.

    The table lists (d, value) integer pairs contiguously from the smallest
    ambient degree, each degree once (anything but int degrees and values
    raises ValueError, a repeated degree NotAchievable);
    past its end the tail polynomial gives the values.  Degree by degree the
    lex segment of the right codimension is selected, checking it contains
    everything generated so far; a gap means no quotient of F has this
    Hilbert function and raises NotAchievable.

    The loop stops by Gotzmann persistence (Gotzmann, Math. Z. 1978; Green,
    LNM 1389).  Let d >= start = max(last table degree, f_m).  While no
    generator is added, each piece is the span of the previous one: full
    components stay full, empty ones stay empty, and the partial one, with
    quotient q = sum_j C(k_j, j) in internal degree D, grows at the extremal
    Macaulay rate.  So from the piece at d on, H(F/L, t) is the binomials of
    the empty components plus sum_j C(t - d + k_j, k_j - j), a polynomial of
    degree at most n in t (q < C(D + n, n) gives k_j - j < n).  If degrees
    d + 1, ..., d + n + 1 add no generator, that polynomial and the tail
    agree at n + 1 points; a tail of degree above n is refused up front, so
    the two are equal and no later degree adds a generator.  The module
    built by the first such run of n + 1 degrees is returned.

    An initial segment of F_d under the position-dominant order is a run
    of full components, one partial lex piece, then nothing, so the loop
    keeps the segment as its state alone: the number of full components,
    each with a nonzero piece, and the fill and piece of the next one in the
    previous degree.  A component below its degree has a piece of 0, holds
    nothing and spans nothing.  The pieces are binomials; the span of the
    previous segment is the full pieces plus the growth of the partial one,
    its piece less the cached ``macaulay_transform`` of its codimension
    (read off the representation's runs, so a transform at internal degree
    D costs O(log D) binomials per run, and a partial piece has at most n
    runs).  The new generators are the positions from the span to the end
    of the new segment; those of one component are a run of consecutive
    ranks, walked by ``_lex_run`` as exponent tuples, and no ``Monomial``
    is built.  No rank is unranked either: the state also keeps u, the
    lex-smallest monomial of the partial piece, and the span of that piece
    ends at u x_n, so a run that continues it starts at the lex successor of
    u x_n; a run that starts a component starts at x_0^e.  The last
    monomial of the new partial piece is the next u, or u x_n when the
    piece only grew.

    A tail that is not integer-valued is refused up front: the loop returns
    only after reading the tail at n + 1 consecutive degrees, and a
    polynomial of degree at most n that is an integer at n + 1 consecutive
    integers is integer-valued, so such a tail could only end in
    NotAchievable.  Tail values are ints: its backward differences at the
    last table degree are read off its binomial-basis coordinates once, and
    each later degree updates them, one addition per order.

    Persistence is the only stop rule the loop needs.  While no check fails,
    each segment contains the span of the previous one, so the segments
    span a submodule L of F.  F is Noetherian, so L is finitely generated and
    the loop adds generators in finitely many degrees; past the last of
    them a check fails or n + 1 quiet degrees return.  The walk is bounded
    by ``TERM_BUDGET`` degrees from f_1: data whose earliest return,
    start + n + 1, lies that far past f_1 raise BudgetExceeded before the
    walk, and so does a walk that reaches f_1 + TERM_BUDGET.
    """
    f1 = ambient.degrees[0]
    fm = ambient.degrees[-1]
    values: dict[int, int] = {}
    for d, v in table:
        if type(d) is not int or type(v) is not int:  # not isinstance: bool is refused too
            raise ValueError(f"table entry ({d!r}, {v!r}) is not a pair of integers")
        if d in values:
            raise NotAchievable(f"table gives degree {d} more than once")
        values[d] = v
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
    if tail.degree > n:
        raise NotAchievable(
            f"tail of degree {tail.degree} exceeds the degree {n} of any Hilbert polynomial"
        )
    if not tail.is_integer_valued():
        raise NotAchievable(f"tail {tail} is not an integer-valued polynomial")
    degrees = ambient.degrees
    m = ambient.m
    start = max(last_tabulated, fm)
    if start + n + 1 - f1 >= TERM_BUDGET:
        raise BudgetExceeded(
            f"lexify returns at degree {start + n + 1} at the earliest, "
            f"{TERM_BUDGET} or more degrees past f1 = {f1}"
        )
    # the tail's backward differences at the last table degree; each later
    # degree updates them top down, one addition per order, and reads order 0
    nabla = tail._int_differences(last_tabulated) or [0]
    new_gens: list[list[tuple[int, ...]]] = [[] for _ in degrees]
    # the segment of the previous degree: its first `full` components full,
    # `fill` of the `piece` monomials of the next one, nothing after; only
    # components with f <= d are live, so a full one has a nonzero piece
    live = full = fill = piece = 0
    low = None  # u, the lex-smallest monomial of the partial piece, when fill > 0
    quiet = 0  # consecutive degrees past start that added no generator
    for d in range(f1, f1 + TERM_BUDGET):
        while live < m and degrees[live] <= d:
            live += 1
        pieces = [comb(d - f + n, n) for f in degrees[:live]]
        dim_d = sum(pieces)
        if d <= last_tabulated:
            h = values[d]
        else:
            for i in range(len(nabla) - 2, -1, -1):
                nabla[i] += nabla[i + 1]
            h = nabla[0]
        if h < 0 or h > dim_d:
            raise NotAchievable(
                f"H({d}) = {h} outside [0, dim F_{d} = {dim_d}]"
            )
        seg = dim_d - h
        # span of the previous segment: a full piece spans the full next
        # piece, the partial lex piece grows at the extremal Macaulay rate
        cum = sum(pieces[:full])
        span = cum
        if fill:
            span += pieces[full] - macaulay_transform(piece - fill, d - 1 - degrees[full])
        if span > seg:
            raise NotAchievable(
                f"H({d}) = {h} requires dropping monomials already generated"
            )
        # both the span and the new segment are initial, so the difference is
        # the position range [span, seg): exactly the new generators, which
        # start in component `full` at the earliest.  `last` is the monomial
        # at position first - 1 in component c, the lex-smallest one it
        # holds, or None when first starts the component: the span of a
        # partial piece ends at low x_n
        c, first = full, span
        last = low[:n] + (low[n] + 1,) if fill else None
        while c < live and cum + pieces[c] <= seg:
            top = cum + pieces[c]
            if first < top:
                new_gens[c] += _lex_run(_run_start(last, n, d - degrees[c]), top - first)
                first = top
            cum = top
            c += 1
            last = None
        if first < seg:
            run = _lex_run(_run_start(last, n, d - degrees[c]), seg - first)
            new_gens[c] += run
            last = run[-1]
        full, fill, piece, low = c, seg - cum, pieces[c] if c < live else 0, last
        if d > start:
            quiet = 0 if span < seg else quiet + 1
            if quiet > n:
                # each component's generators come in ascending degree, then
                # ascending lex rank: minimal and in canonical order
                return MonomialSubmodule(
                    ambient, tuple(MonomialIdeal._of_minimal(n, tuple(g)) for g in new_gens)
                )
    raise BudgetExceeded(f"lexify walked {TERM_BUDGET} degrees from f1 = {f1} without settling")


def _run_start(last: tuple[int, ...] | None, n: int, e: int) -> tuple[int, ...]:
    """The first monomial of a run of degree-e generators: x_0^e, which
    starts a component, or the lex successor of ``last``, which
    ``_lex_run`` finds as its second monomial."""
    return _lex_run(last, 2)[1] if last else (e,) + (0,) * n


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
    quota, rest = divmod(poly._int_value(s), poly._den)
    if rest:
        raise InvariantViolated(f"P({s}) = {poly(s)} is not an integer")
    codim = binomial(s + n, n) - quota
    if codim < 0:
        raise NotAchievable(
            f"P({s}) = {quota} exceeds dim of degree {s} in {n + 1} variables"
        )
    gens: list[tuple[int, ...]] = []
    if codim > 0:
        # x_k carries m_{n-1-k}, which is 0 for k < n - d - 1
        exps = [0] * (n + 1)
        lengths = dict(g.runs)
        for k in range(n):
            m = lengths.get(n - 1 - k, 0)
            exps[k] = m + (k < n - 1)
            gens.append(tuple(exps))
            exps[k] = m
    sat = MonomialIdeal._of_minimal(n, _minimal(gens))
    quotient_hp = _quotient_polynomial(n, (0,), (sat,))
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
    the remainder Q (argument-shifted into the component's internal grading,
    which is no shift when f_(m-r) = 0) in position m-r, zero ideals in the
    last r positions.  The quotient's Hilbert polynomial is verified to equal
    the given one (else InvariantViolated).  ``check_sharpness``, which has
    the representation already, calls the builder ``_saturated_lex_module``.
    """
    return _saturated_lex_module(
        poly, ambient, r, adjusted_gotzmann_rep(poly, ambient.n, ambient.degrees, r)
    )


def _saturated_lex_module(
    poly: NumPoly, ambient: GradedFreeModule, r: int, rep: AdjustedGotzmannRep
) -> MonomialSubmodule:
    """``saturated_lex_module`` from ``rep``, the rank-r adjusted
    representation of ``poly``.  When f_(m-r) = 0 the remainder's
    representation in the component's internal grading is ``rep.q`` itself:
    the shift is by 0, and the Gotzmann representation is unique."""
    n = ambient.n
    degrees = ambient.degrees
    m = ambient.m
    if m - r == 0:
        if rep.q.number != 0:
            raise NotAdmissible(
                "remainder is nonzero but every component is free"
            )
        components = tuple(MonomialIdeal.zero(n) for _ in range(m))
    else:
        f_mid = degrees[m - r - 1]
        q_internal = rep.q
        if f_mid:
            q_internal = gotzmann_rep(rep.q.polynomial().shift_argument(f_mid))
        middle = saturated_lex_ideal(q_internal, n)
        components = (
            tuple(MonomialIdeal.unit(n) for _ in range(m - r - 1))
            + (middle,)
            + tuple(MonomialIdeal.zero(n) for _ in range(r))
        )
    actual = _quotient_polynomial(n, degrees, components)
    if actual != poly:
        raise InvariantViolated(
            f"lex module quotient has Hilbert polynomial {actual}, wanted {poly}"
        )
    return MonomialSubmodule(ambient, components)


def _quotient_polynomial(
    n: int, degrees: tuple[int, ...], components: tuple[MonomialIdeal, ...]
) -> NumPoly:
    """Hilbert polynomial of F/N for the components I_i at degrees f_i, as
    ``hilbert_polynomial`` reads it off the series numerator, the sum of
    c C(d - f_i - e + n, n) over the terms c t^e of each ``_ideal_numerator``,
    but as one ``_binomial_sum``, with no submodule or record built."""
    return _binomial_sum(
        (c, n, n - f - e)
        for f, ideal in zip(degrees, components)
        for e, c in _ideal_numerator(ideal.exponents)
    )
