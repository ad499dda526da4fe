"""Monomial ideals, graded free modules, and their monomial submodules.

Conventions used throughout:

* The ring is k[x_0, ..., x_n]; ``n`` always denotes the projective dimension,
  so there are n + 1 variables.
* A free module F = S(-f_1) + ... + S(-f_m) carries an ascending degree list
  f_1 <= ... <= f_m.  A monomial submodule N splits componentwise as
  N = I_1 e_1 + ... + I_m e_m.
* All Hilbert data (hf_direct, hilbert_series, hilbert_polynomial, ...) refers
  to the quotient module M = F/N.

Monomials have one format inside the library: exponent tuples.  A
``MonomialIdeal`` stores only its minimal generators' exponent tuples, in
the canonical generator order that ``_minimal``, the one minimalizer,
returns.  The validating ``Monomial`` type is the boundary, built in these
places only: parsing (``monomial_from_string``), ``Monomial.lcm``, and,
without re-running its checks on tuples the library built or checked itself
(``_monomial``), ``lex.lex_segment`` and ``MonomialIdeal.gens`` (on
demand).  The library enumerates no degree and never inverts lex order: a
stretch of one is walked forward by ``_lex_run`` (lex successors from a
given first monomial), and ``_lex_rank`` ranks one monomial in closed
form for the lex tests.  The ``MonomialIdeal`` constructor takes
``Monomial``s and keeps their tuples.  The library's own ideal builders
(``lexify``, ``saturated_lex_ideal``, ``saturation()``, ``random_submodule``)
build exponent tuples and hand them to ``MonomialIdeal._of_minimal``.

Hilbert functions are read off the exact Hilbert series numerator.  Each
ideal's numerator comes from one pivot recursion that splits on a variable
power x_v^k down to pure powers plus at most one mixed generator, answered
in closed form; the tests hold it to monomial counting and to the
alternating sums of Betti numbers.  Its top call has one more base case:
an ideal that ``_stable_counts``, the one exact stability test, finds
stable (every lex ideal is) gets the Eliahou-Kervaire numerator
1 - sum_u t^(deg u) (1 - t)^(m(u)) of ``_stable_numerator``.  ``resolution``
reads its Betti table off the same counts, and ``lex.is_lex_ideal`` its
dimensions (an ideal the test refuses is not lex); the tests hold them to
the routes they bypass.  Every Hilbert value of a submodule is computed
from its record, three slots of the submodule that ``_record`` builds and
that die with it: the sparse numerator of F/N, each component's pairs
shifted by its f_i and never densified, the kernel data of the hyperplane
value and the generation stamp (see ``_record``).  The record holds no
per-degree value.  ``_hf`` evaluates H(F/N, d) on the numerator, and
``_rho`` peels the free part off an H the caller has already read.  A
sparse numerator is read two ways: ``_numerator_hf`` evaluates H at a
degree, and ``numpoly._binomial_sum`` builds the Hilbert polynomial.
``hf_direct``, ``hilbert_polynomial``, ``adjusted_hf_decomposition``,
``stabilization_degree``, the checkers of ``theorems`` and
``hilbert_series``, an uncached dense view of the numerator, all read it.

The generic hyperplane restriction at d is H(F/N, d) - H(F/N, d - 1) plus
one kernel term (``_kernel_term``): per component I, the kernel of h on
(I^sat/I)_(d-f_i-1).  A caller that holds H(d) and H(d - 1) adds the
term to their difference.  Each kernel is ranked only where
dim (I^sat/I)_(d-f_i-1) is positive, evaluated by ``_numerator_hf`` on
N_I - N_(I^sat), the sparse numerator of I^sat/I kept in the record.  The
saturation's generators are one ``_saturated_gens`` entry per ideal,
shared with ``saturation()``.  The kernel walks the exponent tuples of its
degree with ``_lex_run`` and keeps none.
"""
from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from math import comb
from operator import le
from typing import Iterable

from . import linalg
from ._value import Value
from .combinatorics import CACHE_ENTRIES, binomial
from .errors import BudgetExceeded, InvariantViolated, PreconditionViolated, refuse_unknown_keys
from .numpoly import TERM_BUDGET, NumPoly, _binomial_sum

# Pivot nodes the series recursion may visit per component ideal; a work
# guard, past which hilbert_series raises BudgetExceeded.
NODE_BUDGET = 10**4


class Monomial(Value):
    """Exponent vector in k[x_0..x_n]; the unit monomial has all exponents 0."""

    __slots__ = _fields = ("exponents",)

    def __init__(self, exponents: tuple[int, ...]) -> None:
        exponents = tuple(exponents)
        if not exponents:
            raise ValueError("monomial needs at least one variable")
        if min(exponents) < 0:
            raise ValueError(f"negative exponent in {exponents}")
        object.__setattr__(self, "exponents", exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def divides(self, other: "Monomial") -> bool:
        _same_variables(len(self.exponents), other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def lcm(self, other: "Monomial") -> "Monomial":
        _same_variables(len(self.exponents), other)
        return Monomial(tuple(max(a, b) for a, b in zip(self.exponents, other.exponents)))

    def __str__(self) -> str:
        return _monomial_text(self.exponents)


def _monomial_text(exponents: tuple[int, ...]) -> str:
    """'x0^2*x1' style text of an exponent tuple; '1' for the unit monomial."""
    parts = [f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in enumerate(exponents) if e]
    return "*".join(parts) or "1"


def _same_variables(count: int, m: Monomial) -> None:
    """Refuse a monomial without ``count`` exponents, which a ``zip`` over
    the exponents would silently truncate."""
    if len(m.exponents) != count:
        raise ValueError(f"monomial {m} does not live in {count} variables")


_set_exponents = Monomial.exponents.__set__


def _monomial(exponents: tuple[int, ...]) -> Monomial:
    """The Monomial of exponents the library has already checked or built,
    without the checks of ``__init__``: the field is set through its slot
    descriptor, past the refusing ``__setattr__``."""
    mono = object.__new__(Monomial)
    _set_exponents(mono, exponents)
    return mono


_MONO_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def monomial_from_string(text: str, n: int) -> Monomial:
    """Parse 'x0^2*x1' style strings; '1' is the unit monomial."""
    text = text.strip()
    exps = [0] * (n + 1)
    if text == "1":
        return Monomial(tuple(exps))
    for factor in text.split("*"):
        m = _MONO_FACTOR.match(factor.strip())
        if not m:
            raise ValueError(f"cannot parse monomial factor {factor!r}")
        v = int(m.group(1))
        if v > n:
            raise ValueError(f"variable x{v} out of range for n={n}")
        exps[v] += int(m.group(2) or 1)
    return Monomial(tuple(exps))


def _lex_run(first: tuple[int, ...], count: int) -> list[tuple[int, ...]]:
    """Exponents of ``first`` and the count - 1 monomials after it in lex
    order, for a count the caller has checked against the end of the degree.
    Each next one is the lex successor of the last, which lowers the last
    nonzero exponent among x_0..x_(n-1) by one.  A count of 0 gives []."""
    if not count:
        return []
    n = len(first) - 1
    e = list(first)
    out = [first]
    for _ in range(count - 1):
        v = n - 1
        while not e[v]:
            v -= 1
        # x_(v+1)..x_(n-1) are 0 already, so x_(v+1) gets x_n's degree plus one
        tail, e[n] = e[n], 0
        e[v] -= 1
        e[v + 1] = tail + 1
        out.append(tuple(e))
    return out


def _lex_rank(u: tuple[int, ...]) -> int:
    """Lex rank of the monomial with exponents u among those of its degree,
    0 the largest.  The monomials before u agree with it on x_0..x_(v-1)
    and exceed it at x_v for one v < n; with R the degree left for
    x_v..x_n and k = n - v, there are C(R - u_v - 1 + k, k) of them (a
    hockey-stick sum), so a rank costs n binomials."""
    n = len(u) - 1
    rank = 0
    left = sum(u)
    for v in range(n):
        rank += comb(left - u[v] - 1 + n - v, n - v)
        left -= u[v]
    return rank


def _minimal(exps: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Minimal exponent tuples under divisibility, in the canonical order:
    by degree, then descending lex.  A divisor never comes later in that
    order, so one pass over it keeps exactly the minimal ones.  Distinct
    monomials of one degree never divide each other, so a candidate is
    compared only with the kept generators of lower degree."""
    kept: list[tuple[int, ...]] = []
    block: list[tuple[int, ...]] = []  # kept generators of the current degree
    degree = None
    # descending (-degree, g) is the canonical order
    for negated, g in sorted([(-sum(g), g) for g in set(exps)], reverse=True):
        if negated != degree:
            kept += block
            block = []
            degree = negated
        for h in kept:
            if all(map(le, h, g)):
                break
        else:
            block.append(g)
    return tuple(kept + block)


class MonomialIdeal(Value):
    """Monomial ideal given by its minimal generators (canonicalized on build).

    The generators are stored once, as exponent tuples in the canonical
    order; ``gens`` builds them as ``Monomial``s on demand.  The zero ideal
    has no generators; the unit ideal is generated by 1.
    """

    __slots__ = _fields = ("n", "exponents")

    def __init__(self, n: int, gens: tuple[Monomial, ...]) -> None:
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        for g in gens:
            if len(g.exponents) != n + 1:
                raise ValueError(f"generator {g} does not live in {n + 1} variables")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "exponents", _minimal(g.exponents for g in gens))

    @property
    def gens(self) -> tuple[Monomial, ...]:
        """The minimal generators as ``Monomial``s, in the canonical order."""
        return tuple(map(_monomial, self.exponents))

    @classmethod
    def _of_minimal(cls, n: int, exponents: tuple[tuple[int, ...], ...]) -> "MonomialIdeal":
        """The ideal of exponent tuples already minimal and in canonical
        order, built without the divisibility pass."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "n", n)
        object.__setattr__(ideal, "exponents", exponents)
        return ideal

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        return cls._of_minimal(n, ((0,) * (n + 1),))

    def is_zero(self) -> bool:
        return not self.exponents

    def is_unit(self) -> bool:
        return bool(self.exponents) and not any(self.exponents[0])

    def contains(self, m: Monomial) -> bool:
        _same_variables(self.n + 1, m)
        return any(all(map(le, g, m.exponents)) for g in self.exponents)

    def saturation(self) -> "MonomialIdeal":
        """I : (x_0, ..., x_n)^infinity as the intersection of variable colons,
        read off the ``_saturated_gens`` entry that the hyperplane kernel
        shares; no series is computed."""
        return MonomialIdeal._of_minimal(self.n, _saturated_gens(self.exponents))

    def max_gen_degree(self) -> int:
        if not self.exponents:
            raise ValueError("zero ideal has no generators")
        return max(map(sum, self.exponents))


# keyed by generator exponents: saturation() and the hyperplane kernel share one entry
@lru_cache(maxsize=CACHE_ENTRIES)
def _saturated_gens(gens: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Minimal generators of I : (x_0, ..., x_n)^infinity from those of I, on
    exponent tuples: the intersection of the colons I : x_v^infinity, each
    of which deletes x_v from every generator.  A monomial u lies in every
    colon iff u x_v^k is in I for each v and some k, iff u m^K is in I for a
    large K.  A running generator that the next colon already contains lies
    in the intersection, and its lcms with that colon are its multiples, so
    only the other running generators are paired with the colon."""
    if not gens:
        return gens
    colons = [_minimal(g[:v] + (0,) + g[v + 1 :] for g in gens) for v in range(len(gens[0]))]
    out = colons[0]
    for colon in colons[1:]:
        inside, rest = [], []
        for a in out:
            (inside if any(all(map(le, b, a)) for b in colon) else rest).append(a)
        out = _minimal(inside + [tuple(map(max, a, b)) for a in rest for b in colon])
    return out


class GradedFreeModule(Value):
    """F = S(-f_1) + ... + S(-f_m) over k[x_0..x_n], degrees ascending."""

    __slots__ = _fields = ("n", "degrees")

    def __init__(self, n: int, degrees: tuple[int, ...]) -> None:
        degrees = tuple(degrees)
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        if not degrees:
            raise ValueError("free module needs at least one generator")
        if list(degrees) != sorted(degrees):
            raise ValueError(f"degree list {degrees} must be ascending")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degrees", degrees)

    @property
    def m(self) -> int:
        return len(self.degrees)

    def dim_at(self, d: int) -> int:
        return _dims(self.degrees, d, self.n)


class MonomialSubmodule(Value):
    """N = I_1 e_1 + ... + I_m e_m inside a graded free module.

    Besides its fields it keeps n, the degrees, the number of zero
    components and, once read, its Hilbert record in three slots
    (``_record``).
    """

    _fields = ("ambient", "components")
    __slots__ = _fields + ("n", "degrees", "_rank", "_numerator", "_kernels", "_generation")

    def __init__(self, ambient: GradedFreeModule, components: tuple[MonomialIdeal, ...]) -> None:
        components = tuple(components)
        if len(components) != ambient.m:
            raise ValueError(f"{len(components)} components for rank-{ambient.m} ambient")
        n = ambient.n
        for ideal in components:
            if ideal.n != n:
                raise ValueError("component ring dimension differs from ambient")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degrees", ambient.degrees)
        object.__setattr__(self, "_rank", sum(1 for ideal in components if not ideal.exponents))

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    def is_zero(self) -> bool:
        return self._rank == len(self.degrees)

    def max_gen_degree(self) -> int | None:
        """Largest degree of a minimal generator of N inside F (None if N = 0)."""
        return max((f + ideal.max_gen_degree() for f, ideal in zip(self.degrees, self.components)
                    if ideal.exponents), default=None)


def rank(submodule: MonomialSubmodule) -> int:
    """Rank of M = F/N: the number of zero components of N."""
    return submodule._rank



class HilbertSeries(Value):
    """Laurent numerator over (1-t)^(n+1): sum_j numerator[j] t^(offset+j)."""

    __slots__ = _fields = ("n", "offset", "numerator")

    def __init__(self, n: int, offset: int, numerator: tuple[int, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "numerator", tuple(numerator))

    def hf(self, d: int) -> int:
        """Coefficient of t^d in the series expansion."""
        terms = ((self.offset + j, c) for j, c in enumerate(self.numerator) if c)
        return _numerator_hf(terms, self.n, d)

    @property
    def max_exponent(self) -> int:
        top = self.offset
        for j, c in enumerate(self.numerator):
            if c:
                top = self.offset + j
        return top

    def to_dict(self) -> dict:
        return {
            "numerator": list(self.numerator),
            "offset": self.offset,
            "denominator_power": self.n + 1,
        }


def _numerator_hf(numerator: Iterable[tuple[int, int]], n: int, d: int) -> int:
    """Coefficient of t^d in sum c t^e / (1-t)^(n+1), the numerator given as
    (e, c) pairs ascending in e: the sum of c C(d - e + n, n) over e <= d."""
    value = 0
    for e, c in numerator:
        if e > d:
            break
        value += c * comb(d - e + n, n)
    return value


def _power_pivot_numerator(
    gens: tuple[tuple[int, ...], ...], budget: list[int]
) -> dict[int, int]:
    """Numerator of the Hilbert series of S/I over (1-t)^(n+1), as {exponent: coeff}.

    ``gens`` are the minimal generators as exponent tuples.  Splits on a
    variable power p = x_v^k via S/I -> S/(I + (p)) and S/(I : p) shifted by
    t^k (Bigatti, JPAA 1997): x_v is the variable in the most generators
    involving two or more variables (ties to the lowest index), and k is the
    lower median exponent of x_v over the generators containing it.  Then
    1 <= k <= the top exponent of x_v, and p is not in I (a pure power x_v^j
    in I exceeds the exponent of x_v in the mixed generators that contain
    it, so it is never the lower median), so both branches have fewer
    standard monomials below lcm(I) and the recursion ends.

    The base case is an ideal I = J + (m) with at most one mixed generator
    m, J generated by pure powers x_v^(a_v) (the unit ideal, generated by 1,
    is one too).  S/J has numerator prod (1 - t^(a_v)), and the exact
    sequence 0 -> S/(J : m)(-deg m) -> S/J -> S/I -> 0 subtracts
    t^(deg m) times that of J : m = (x_v^(a_v - m_v)), pure powers again:
    a_v > m_v, as m is minimal.  So

        N(I) = prod (1 - t^(a_v)) - t^(deg m) prod (1 - t^(a_v - m_v)).
    """
    budget[0] -= 1
    if budget[0] < 0:
        raise BudgetExceeded("series pivot recursion exceeded its node budget")
    mixed = [g for g in gens if len(g) - g.count(0) > 1]
    if len(mixed) < 2:
        powers = [g for g in gens if g not in mixed]
        out = _power_product(map(sum, powers))
        for m in mixed:
            # a pure power's one nonzero exponent a_v is its degree; J : m has a_v - m_v
            top = sum(m)
            for e, c in _power_product(sum(g) - sum(map(min, g, m)) for g in powers).items():
                out[e + top] = out.get(e + top, 0) - c
        return {e: c for e, c in out.items() if c}
    counts = [len(column) - column.count(0) for column in zip(*mixed)]
    pivot = counts.index(max(counts))
    exps = sorted(g[pivot] for g in gens if g[pivot])
    k = exps[(len(exps) - 1) // 2]
    power = (0,) * pivot + (k,) + (0,) * (len(counts) - pivot - 1)
    # no kept generator divides x_v^k and x_v^k divides none of them, so the
    # plus side is already minimal
    plus = tuple(g for g in gens if g[pivot] < k) + (power,)
    colon = _minimal(g[:pivot] + (max(g[pivot] - k, 0),) + g[pivot + 1 :] for g in gens)
    out = _power_pivot_numerator(plus, budget)
    for e, c in _power_pivot_numerator(colon, budget).items():
        out[e + k] = out.get(e + k, 0) + c
    return {e: c for e, c in out.items() if c}


def _power_product(degrees: Iterable[int]) -> dict[int, int]:
    """prod (1 - t^a) over the given a, as {exponent: coefficient}; zero
    coefficients are kept."""
    out = {0: 1}
    for a in degrees:
        for e, c in list(out.items()):
            out[e + a] = out.get(e + a, 0) - c
    return out


def _stable_counts(gens: tuple[tuple[int, ...], ...]) -> dict[tuple[int, int], int] | None:
    """For the minimal exponent tuples of a stable ideal, in canonical order,
    the number of generators u of each degree d and top index k = m(u), the
    largest index of a variable dividing u (0 for u = 1), as {(d, k): count};
    None when the ideal is not stable.  The test is exact.

    I is stable when x_j u / x_m(u) lies in I for every u in I and j < m(u);
    the minimal generators u suffice.  A stable ideal contains x_0^d for its
    least generator degree d, the lex-largest monomial of that degree, so
    its first canonical generator is that pure power: one comparison refuses
    most ideals that are not stable.  Then each exchange h = x_j u / x_k,
    k = m(u), is looked up.  One that is itself a generator is found in the
    set of them.  Otherwise, in a stable ideal h is g v for exactly one
    generator g with m(g) <= min(v) (Eliahou and Kervaire, J. Algebra 129,
    1990): g agrees with h on x_0, ..., x_(i-1) and has at most h_i on x_i,
    i = m(g).  So each generator g keeps g_i under its prefix (g_0, ...,
    g_(i-1)), a key of length i, which no other minimal generator shares (of
    two, one would divide the other), and h lies in I if some key h[:i]
    holds at most h_i.  Only j <= i <= k can hit: below
    j that generator would divide u, and past k h_i is 0.  A hit is a
    generator dividing h, so a non-stable ideal fails, and on a stable one
    every exchange hits.  A generator dividing h comes before u in the
    canonical order, by lower degree or, as h itself, higher in lex, so each
    generator's exchanges are looked up among the keys of those before it,
    and the pass stops at the first miss.  In an ideal of one degree no
    generator divides an exchange but the exchange itself, so the order is
    free, and the pass starts at the lex-smallest generator, which has the
    most exchanges: an ideal one exchange short of stable, such as m^d less
    a monomial, is usually refused within a few generators.
    """
    if not gens:
        return {}
    d = sum(gens[0])
    if gens[0][0] != d:
        return None
    order = gens[::-1] if sum(gens[-1]) == d else gens
    members = set(gens)
    keys: dict[tuple[int, ...], int] = {}
    tops = []
    for u in order:
        k = len(u) - 1
        while k and not u[k]:
            k -= 1
        if k:
            w = list(u)
            w[k] -= 1
            for j in range(k):
                w[j] += 1
                h = tuple(w)
                w[j] -= 1
                if h in members:
                    continue
                for i in range(j, k + 1):
                    top = keys.get(h[:i])
                    if top is not None and top <= h[i]:
                        break
                else:
                    return None
        keys[u[:k]] = u[k]
        tops.append(k)
    counts: dict[tuple[int, int], int] = {}
    for degree, k in zip(map(sum, order), tops):
        counts[degree, k] = counts.get((degree, k), 0) + 1
    return counts


# keyed by generator exponents: an ideal and an equal saturation share one entry
@lru_cache(maxsize=CACHE_ENTRIES)
def _ideal_numerator(gens: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, int], ...]:
    """Series numerator of S/I, I given by its minimal exponent tuples, as
    sorted (exponent, coefficient) pairs, nonzero only.

    A stable ideal (``_stable_counts``) is the base case, answered in closed
    form: the Eliahou-Kervaire decomposition w = g v, m(g) <= min(v), makes
    I the disjoint sum of the spaces g k[x_m(g), ..., x_n], so

        N(S/I) = 1 - sum over generators u of t^(deg u) (1 - t)^(m(u)).

    The unit ideal, with m(1) = 0, gives 1 - 1 = 0.  Every other ideal goes
    to ``_power_pivot_numerator`` within ``NODE_BUDGET`` nodes.
    """
    counts = _stable_counts(gens)
    if counts is None:
        return tuple(sorted(_power_pivot_numerator(gens, [NODE_BUDGET]).items()))
    return _stable_numerator(counts)


def _stable_numerator(counts: dict[tuple[int, int], int]) -> tuple[tuple[int, int], ...]:
    """``_ideal_numerator`` of a stable I from its ``_stable_counts``: the
    Eliahou-Kervaire numerator 1 - sum_u t^(deg u) (1 - t)^(m(u))."""
    out = {0: 1}
    for (d, k), count in counts.items():
        for i in range(k + 1):
            out[d + i] = out.get(d + i, 0) - (-1) ** i * count * comb(k, i)
    return tuple((e, c) for e, c in sorted(out.items()) if c)


# _record.cache_clear() bumps the generation, and a record of an older one is
# rebuilt on its next read; reads and builds since then are hf_direct's cache
# statistics
_generation = _reads = _builds = 0


def _record(submodule: MonomialSubmodule) -> MonomialSubmodule:
    """The submodule, its record read, or built with its sparse numerator
    when missing or of an older ``_generation``.

    The record is three slots of the submodule, none of them a field:
    ``_numerator`` is the Hilbert series numerator of F/N as a dict
    {exponent: coefficient}, nonzero only and in ascending order: each
    component's ``_ideal_numerator`` shifted by its f_i and summed, never
    densified.  ``_kernels`` lists (f_i, I_i, the generators of I_i^sat,
    N_(I_i) - N_(I_i^sat) as ascending (exponent, coefficient) pairs) for
    the components with I_i^sat != I_i, read on the first kernel term.
    ``_generation`` is the one the record was built in.

    Bounded memory: a record lives as long as its submodule and holds no
    per-degree value, so reads at any number of degrees leave it as built.
    """
    global _reads, _builds
    if getattr(submodule, "_generation", None) == _generation:
        _reads += 1
        return submodule
    _builds += 1
    combined: dict[int, int] = {}
    for f, ideal in zip(submodule.degrees, submodule.components):
        for e, c in _ideal_numerator(ideal.exponents):
            combined[e + f] = combined.get(e + f, 0) + c
    put = object.__setattr__
    put(submodule, "_numerator", {e: combined[e] for e in sorted(combined) if combined[e]})
    put(submodule, "_kernels", None)
    put(submodule, "_generation", _generation)
    return submodule


def _clear_records() -> None:
    """Outdate every record, as emptying a cache would, and restart the
    counts of ``hf_direct.cache_info``."""
    global _generation, _reads, _builds
    _generation += 1
    _reads = _builds = 0


_record.cache_clear = _clear_records


def hf_direct(submodule: MonomialSubmodule, d: int) -> int:
    """H(F/N, d), read off the sparse Hilbert series numerator of F/N in the
    submodule's record, so no span of the numerator is ever densified.

    Exact at every degree, including below f_1, where it is 0.
    """
    return _hf(_record(submodule), d)


# hf_direct's memo is the record: its statistics count record reads as hits
# and builds as misses since the last clear, with no size bound or live count,
# as records live with their submodules (perfbench/calibrate.py prints the
# hit ratio)
_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
hf_direct.cache_info = lambda: _CacheInfo(_reads, _builds, None, None)


def hilbert_series(submodule: MonomialSubmodule) -> HilbertSeries:
    """Hilbert series of F/N: each component's numerator shifted by t^(f_i).

    The numerators come from ``_ideal_numerator``: a closed form for a
    stable component, else one pivot recursion on variable powers, which
    visits at most ``NODE_BUDGET`` nodes per component ideal and raises
    BudgetExceeded past that.  The sparse sum is the
    submodule's record; this uncached dense view of it runs from its lowest
    to its top exponent, so a span of more than ``TERM_BUDGET`` coefficients
    raises BudgetExceeded before it is built.  The tests check it against
    monomial counting and against the alternating sums of Betti numbers.
    """
    numerator = _record(submodule)._numerator
    if not numerator:
        return HilbertSeries(submodule.n, 0, ())
    offset, top = next(iter(numerator)), next(reversed(numerator))
    if top - offset >= TERM_BUDGET:
        raise BudgetExceeded(
            f"series numerator spans {top - offset + 1} coefficients, more than {TERM_BUDGET}"
        )
    dense = tuple(numerator.get(e, 0) for e in range(offset, top + 1))
    return HilbertSeries(submodule.n, offset, dense)


def hilbert_polynomial(submodule: MonomialSubmodule) -> NumPoly:
    """Hilbert polynomial of F/N: sum c C(d - e + n, n) over the terms c t^e
    of the record's sparse series numerator (Bruns and Herzog, 4.1), one
    ``_binomial_sum``, so no span of the numerator is densified."""
    n = submodule.n
    return _binomial_sum((c, n, n - e) for e, c in _record(submodule)._numerator.items())


def stabilization_degree(submodule: MonomialSubmodule) -> int:
    """Least d0 with H(F/N, d) = P(d) for every d >= d0: E - n, E the top
    exponent of the series numerator, or f_1 when H is identically zero.

    A numerator term c t^e adds c C(d - e + n, n) to H as a combinatorial
    binomial and to P as a polynomial one (``hilbert_polynomial``).  The
    two agree unless d - e + n < 0, where the combinatorial one is 0 and
    the polynomial one is (-1)^n C(e - d - 1, n), nonzero only for
    d <= e - n - 1.  So H - P vanishes from E - n on, and at E - n - 1 only
    the top term c_E t^E is left: H - P = (-1)^(n+1) c_E != 0.
    """
    numerator = _record(submodule)._numerator
    if not numerator:
        return submodule.degrees[0]
    return next(reversed(numerator)) - submodule.n


def saturate(submodule: MonomialSubmodule) -> MonomialSubmodule:
    """Componentwise saturation I_i : (x_0..x_n)^infinity."""
    return MonomialSubmodule(
        submodule.ambient,
        tuple(ideal.saturation() for ideal in submodule.components),
    )


def adjusted_hf_decomposition(submodule: MonomialSubmodule, d: int) -> tuple[int, int]:
    """Split H(F/N, d) as (free_part, rho).

    The free part always uses the largest r degrees of the ambient module
    (r = rank of F/N), regardless of which components happen to be free:
    free_part = sum_{i=m-r+1}^{m} C(d - f_i + n, n).  For monomial submodules
    rho then satisfies 0 <= rho <= sum_{i=1}^{m-r} C(d - f_i + n, n); a
    violation would be a bug, not bad input.
    """
    h = _hf(_record(submodule), d)
    rho = _rho(submodule, d, h)
    return h - rho, rho


def _dims(degrees: tuple[int, ...], d: int, n: int) -> int:
    """dim of the sum of S(-f)_d over the given f, S in n + 1 variables."""
    return sum(comb(d - f + n, n) for f in degrees if f <= d)


def _hf(submodule: MonomialSubmodule, d: int) -> int:
    """H(F/N, d) of a submodule whose record is built, read off its sparse
    numerator."""
    return _numerator_hf(submodule._numerator.items(), submodule.n, d)


def _rho(submodule: MonomialSubmodule, d: int, h: int) -> int:
    """h = H(F/N, d) less the free part of the last r ambient degrees, r
    the rank of F/N, with the window check of ``adjusted_hf_decomposition``;
    at r = 0 it is h itself."""
    r = submodule._rank
    if not r:
        return h
    n, degrees = submodule.n, submodule.degrees
    m = len(degrees)
    rho = h - _dims(degrees[m - r :], d, n)
    window = _dims(degrees[: m - r], d, n)
    if not 0 <= rho <= window:
        raise InvariantViolated(
            f"rho = {rho} escapes [0, {window}] at degree {d} for components "
            f"{submodule.components} in degrees {degrees}"
        )
    return rho


def _kernel_term(submodule: MonomialSubmodule, d: int) -> int:
    """dim (F/(N + hF))_d - H(F/N, d) + H(F/N, d - 1), h = x_0 + ... + x_n,
    for a submodule whose record is built; every hyperplane value is the
    first difference of H plus this term, and this is its one n >= 1 check.

    Per component I, multiplication by h gives the exact sequence

        0 -> (0 :_{S/I} h)_{e-1} -> (S/I)_{e-1} --h--> (S/I)_e -> (S/(I + hS))_e -> 0,

    e = d - f_i.  Summed over the components, the middle terms give
    H(F/N, d) - H(F/N, d - 1), so the term is the sum of the kernels.  Every
    associated prime of a monomial ideal is generated by variables, and h
    lies in none of them but the maximal ideal, so h is a nonzerodivisor on
    S/I^sat and the kernel lies in I^sat/I.  So it is 0 where
    dim (I^sat/I)_(e-1) is 0, and elsewhere ``_kernel`` ranks it; that
    dimension is ``_numerator_hf`` of ``_defect_numerator``, kept in the
    record's ``_kernels``.
    """
    n = submodule.n
    if n < 1:
        raise PreconditionViolated(f"hyperplane restriction needs n >= 1, got {n}")
    kernels = submodule._kernels
    if kernels is None:
        kernels = tuple(
            (f, ideal, sat, _defect_numerator(ideal.exponents, sat))
            for f, ideal in zip(submodule.degrees, submodule.components)
            if (sat := _saturated_gens(ideal.exponents)) != ideal.exponents
        )
        object.__setattr__(submodule, "_kernels", kernels)
    return sum(_kernel(ideal, sat, d - f) for f, ideal, sat, defect in kernels
               if _numerator_hf(defect, n, d - f - 1) > 0)


def _defect_numerator(
    gens: tuple[tuple[int, ...], ...], sat: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, int], ...]:
    """N_I - N_(I^sat), N the series numerators, as ascending (exponent,
    coefficient) pairs, nonzero only: I^sat/I has the series
    (N_I - N_(I^sat))/(1 - t)^(n+1), so ``_numerator_hf`` reads
    dim (I^sat/I)_e off it.  Empty when I is saturated."""
    diff = dict(_ideal_numerator(gens))
    for e, c in _ideal_numerator(sat):
        diff[e] = diff.get(e, 0) - c
    return tuple((e, diff[e]) for e in sorted(diff) if diff[e])


def _kernel(ideal: MonomialIdeal, sat: tuple[tuple[int, ...], ...], e: int) -> int:
    """dim (0 :_{S/I} h)_{e-1} for I with saturation generators ``sat``:
    the kernel of h from (I^sat/I)_{e-1} to (I^sat/I)_e, whose monomial
    bases are the standard monomials of I in I^sat, found among the
    ``_lex_run`` exponent tuples.  ``linalg.rank`` is the exact rank of
    that 0/1 matrix over Q, which is the generic one."""
    gens = ideal.exponents
    source = [
        u for u in _lex_run((e - 1,) + (0,) * ideal.n, binomial(e - 1 + ideal.n, ideal.n))
        if any(all(map(le, g, u)) for g in sat) and not any(all(map(le, g, u)) for g in gens)
    ]
    row_of: dict[tuple[int, ...], int] = {}
    columns = []
    for u in source:
        column = {}
        for v in range(ideal.n + 1):
            w = u[:v] + (u[v] + 1,) + u[v + 1 :]
            if not any(all(map(le, g, w)) for g in gens):
                column[row_of.setdefault(w, len(row_of))] = 1
        columns.append(column)
    return len(source) - linalg.rank(columns)


def generic_hyperplane_hf(submodule: MonomialSubmodule, d: int) -> int:
    """dim (F/(N + hF))_d for a generic linear form h in characteristic 0,
    computed exactly with h = x_0 + ... + x_n: the first difference
    H(F/N, d) - H(F/N, d - 1) plus, per component I, the kernel of h on
    (I^sat/I)_(d - f_i - 1) (``_kernel_term``).

    Scaling each x_v by c_v != 0 fixes every monomial ideal and sends
    x_0 + ... + x_n to sum c_v x_v, so over any field every h with nonzero
    coefficients, a generic one included, gives the same dimension.
    """
    submodule = _record(submodule)
    return _hf(submodule, d) - _hf(submodule, d - 1) + _kernel_term(submodule, d)


# ---------------------------------------------------------------------------
# JSON encodings shared with the CLI


def ideal_to_dict(ideal: MonomialIdeal) -> dict:
    if ideal.is_unit():
        return {"unit": True}
    return {"gens": list(map(_monomial_text, ideal.exponents))}


def ideal_from_dict(data: dict, n: int) -> MonomialIdeal:
    """Read {"unit": true} or {"gens": [...]}; "unit": false with "gens" reads the gens."""
    if not isinstance(data, dict):
        raise ValueError(f"ideal JSON must be an object, got {type(data).__name__}")
    refuse_unknown_keys(data, "ideal JSON", ("unit", "gens"))
    unit = data.get("unit", False)
    if not isinstance(unit, bool):
        raise ValueError(f"ideal 'unit' must be true or false, got {unit!r}")
    gens = data.get("gens", [])
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise ValueError("ideal 'gens' must be a list of monomial strings")
    if unit:
        if gens:
            raise ValueError("a unit ideal takes no 'gens'")
        return MonomialIdeal.unit(n)
    return MonomialIdeal(n, tuple(monomial_from_string(g, n) for g in gens))


def module_to_dict(submodule: MonomialSubmodule) -> dict:
    return {
        "n": submodule.n,
        "degrees": list(submodule.degrees),
        "components": [ideal_to_dict(ideal) for ideal in submodule.components],
    }


def shape_from_dict(
    data: dict, what: str = "module shape", known: tuple[str, ...] = ("n", "degrees")
) -> GradedFreeModule:
    """The free module of a JSON object's integer 'n' and 'degrees', the
    shape that a module's JSON shares; keys outside ``known`` are refused."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    refuse_unknown_keys(data, what, known)
    for key in ("n", "degrees"):
        if key not in data:
            raise ValueError(f"{what} missing field '{key}'")
    n, degrees = data["n"], data["degrees"]
    # not isinstance: bool is refused too
    if not isinstance(degrees, list) or any(type(x) is not int for x in (n, *degrees)):
        raise ValueError(f"{what} needs integer 'n' and 'degrees', got {n!r} and {degrees!r}")
    return GradedFreeModule(n, tuple(degrees))


def module_from_dict(data: dict) -> MonomialSubmodule:
    ambient = shape_from_dict(data, "module JSON", ("n", "degrees", "components"))
    raw = data.get("components")
    if not isinstance(raw, list):
        raise ValueError("module JSON needs a 'components' list")
    if len(raw) != ambient.m:
        raise ValueError(
            f"'components' has {len(raw)} entries for {ambient.m} degrees"
        )
    comps = tuple(ideal_from_dict(c, ambient.n) for c in raw)
    return MonomialSubmodule(ambient, comps)
