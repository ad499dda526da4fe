"""Exact rational polynomials in one variable and their binomial-basis forms.

A numerical polynomial takes integer values at all integers; those are the
polynomials that arise as Hilbert polynomials.  This module provides the
dense-coefficient arithmetic plus the two canonical decompositions used
throughout the package: the plain Gotzmann representation

    P(d) = sum_i C(d + a_i - (i-1), a_i),   a_1 >= a_2 >= ... >= a_s >= 0,

and the rank-and-degree adjusted representation that first strips off the
free summands C(d - f_i + n, n) before representing the remainder.

Every sum of binomials c_k C(d + shift_k, a_k) here and in ``lex`` (a run, a
free part, a term list, a Hilbert series' polynomial) is one ``_binomial_sum``.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Sequence, Union

from ._value import Value
from .combinatorics import binomial
from .errors import NotAdmissible, PreconditionViolated, refuse_unknown_keys

Scalar = Union[int, Fraction]

# Terms a Gotzmann representation may have; a work guard, past which
# gotzmann_rep raises NotAdmissible before building the list.
TERM_BUDGET = 10**6


class NumPoly:
    """Polynomial with exact Fraction coefficients, lowest degree first.

    The zero polynomial is represented by an empty coefficient tuple and has
    degree -1 by convention.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, d: Scalar) -> Fraction:
        # Horner on the numerators over the common denominator, one Fraction;
        # for an int argument every step stays in integers
        den = lcm(*(c.denominator for c in self.coeffs))
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * d + c.numerator * (den // c.denominator)
        return Fraction(acc, den)

    def __add__(self, other: "NumPoly | Scalar") -> "NumPoly":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return NumPoly(
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            + (other.coeffs[i] if i < len(other.coeffs) else 0)
            for i in range(n)
        )

    def __radd__(self, other: Scalar) -> "NumPoly":
        return self + other

    def __neg__(self) -> "NumPoly":
        return NumPoly(-c for c in self.coeffs)

    def __sub__(self, other: "NumPoly | Scalar") -> "NumPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other: Scalar) -> "NumPoly":
        return _as_poly(other) - self

    def __mul__(self, other: "NumPoly | Scalar") -> "NumPoly":
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return NumPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return NumPoly(out)

    def __rmul__(self, other: Scalar) -> "NumPoly":
        return self * other

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = NumPoly([other])
        if not isinstance(other, NumPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def shift_argument(self, k: int) -> "NumPoly":
        """Return the polynomial d -> P(d + k)."""
        acc = NumPoly()
        x_plus_k = NumPoly([k, 1])
        for c in reversed(self.coeffs):
            acc = acc * x_plus_k + c
        return acc

    def is_integer_valued(self) -> bool:
        """True iff P maps integers to integers.

        A degree-e polynomial is integer-valued iff it is at e+1 consecutive
        integers, so checking 0..e suffices.
        """
        return all(self(d).denominator == 1 for d in range(len(self.coeffs) + 1))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "NumPoly(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*d" if c != 1 else "d")
            else:
                parts.append(f"{c}*d^{i}" if c != 1 else f"d^{i}")
        return "NumPoly(" + " + ".join(parts) + ")"


def _as_poly(x: "NumPoly | Scalar") -> NumPoly:
    return x if isinstance(x, NumPoly) else NumPoly([x])


def binomial_poly(a: int, shift: int) -> NumPoly:
    """The degree-a numerical polynomial C(d + shift, a)."""
    if a < 0:
        raise ValueError(f"binomial degree must be nonnegative, got {a}")
    return _binomial_sum([(1, a, shift)])


def _binomial_sum(terms: Iterable[tuple[Scalar, int, int]]) -> NumPoly:
    """sum c * C(d + shift, a) over (c, a, shift) triples, a >= 0: each falling
    factorial (d + shift)...(d + shift - a + 1) is expanded in integers and
    scaled by A!/a!, A the largest a, so the sum is divided by A! once."""
    terms = [t for t in terms if t[0]]
    if not terms:
        return NumPoly()
    top = max(a for _, a, _ in terms)
    den, acc = factorial(top), [0] * (top + 1)
    for c, a, shift in terms:
        falling = [1]
        for t in range(a):
            falling = [(shift - t) * x + y for x, y in zip(falling + [0], [0] + falling)]
        scale = c * (den // factorial(a))
        for k, x in enumerate(falling):
            acc[k] += scale * x
    return NumPoly(Fraction(x, den) for x in acc)


def _run(a: int, i: int, m: int) -> list[tuple[int, int, int]]:
    """sum_{j=i}^{i+m-1} C(d + a - j, a) = C(d+a-i+1, a+1) - C(d+a-i-m+1, a+1),
    as ``_binomial_sum`` triples."""
    return [(1, a + 1, a - i + 1), (-1, a + 1, a - i - m + 1)]


class GotzmannRep(Value):
    """Non-increasing exponent list a_1 >= ... >= a_s >= 0 with

    P(d) = sum_{i=1}^{s} C(d + a_i - (i-1), a_i).

    ``number`` (the length s) is the Gotzmann number of the represented
    polynomial.  The empty list represents the zero polynomial.
    ``polynomial`` sums each run of equal exponents a as one hockey-stick
    difference of two binomials of degree a + 1.
    """

    __slots__ = _fields = ("a",)

    def __init__(self, a: tuple[int, ...]) -> None:
        if any(x < y for x, y in zip(a, a[1:])):
            raise ValueError("exponent list must be non-increasing")
        if a and a[-1] < 0:
            raise ValueError(f"exponents must be nonnegative, got {a[-1]}")
        object.__setattr__(self, "a", a)

    @property
    def number(self) -> int:
        return len(self.a)

    def terms(self) -> list[tuple[int, int]]:
        """(a_i, shift_i) pairs so that term i is C(d + shift_i, a_i)."""
        return [(ai, ai - i) for i, ai in enumerate(self.a)]

    def polynomial(self) -> NumPoly:
        return _binomial_sum(
            t for ai in set(self.a) for t in _run(ai, self.a.index(ai), self.a.count(ai))
        )


def gotzmann_rep(poly: NumPoly) -> GotzmannRep:
    """Gotzmann representation of ``poly``, peeled one run at a time.

    After i terms the remainder has degree a and leading coefficient lead;
    each term C(d + a - j, a) leads with 1/a!, so the run has m = a! * lead
    terms and takes off the hockey-stick sum C(d + a - i + 1, a + 1) -
    C(d + a - i - m + 1, a + 1).  The degree falls with each run, so the loop
    runs at most deg P + 1 times (a constant tail is the run a = 0).  Raises
    NotAdmissible for non-numerical input, a remainder with negative leading
    coefficient, or more than ``TERM_BUDGET`` terms (checked before any list
    is built).
    """
    if not poly.is_integer_valued():
        raise NotAdmissible(f"{poly!r} is not integer-valued")
    a_list: list[int] = []
    rem = poly
    while not rem.is_zero():
        i = len(a_list)
        lead = rem.leading_coefficient
        if lead < 0:
            raise NotAdmissible(f"remainder {rem!r} has negative leading coefficient at term {i}")
        a = rem.degree
        # integer-valued remainders have a! * lead in the integers
        m = int(lead * factorial(a))
        if i + m > TERM_BUDGET:
            raise NotAdmissible(f"representation needs more than {TERM_BUDGET} terms")
        rem = rem - _binomial_sum(_run(a, i, m))
        a_list.extend([a] * m)
    return GotzmannRep(tuple(a_list))


def gotzmann_number(poly: NumPoly) -> int:
    """Length of the Gotzmann representation (0 for the zero polynomial)."""
    return gotzmann_rep(poly).number


class AdjustedGotzmannRep(Value):
    """P(d) = sum_{f in free_degrees} C(d - f + n, n) + Q(d) with Q represented
    by ``q``.  ``number`` is the adjusted Gotzmann number, i.e. len(q.a).
    """

    __slots__ = _fields = ("free_degrees", "n", "q")

    def __init__(self, free_degrees: tuple[int, ...], n: int, q: GotzmannRep) -> None:
        object.__setattr__(self, "free_degrees", free_degrees)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", q)

    @property
    def number(self) -> int:
        return self.q.number

    def free_part(self) -> NumPoly:
        return _binomial_sum((1, self.n, self.n - f) for f in self.free_degrees)

    def polynomial(self) -> NumPoly:
        return self.free_part() + self.q.polynomial()


def adjusted_gotzmann_rep(
    poly: NumPoly,
    n: int,
    all_degrees: Sequence[int],
    r: int,
) -> AdjustedGotzmannRep:
    """Rank-and-degree adjusted representation of ``poly``.

    ``all_degrees`` is the full ascending degree list f_1 <= ... <= f_m of the
    ambient free module; the last r of them form the free part.  The
    hypothesis f_{m-r} <= 0 is enforced whenever m - r >= 1; r = 0 degrades
    to the plain representation (with the classical f_m <= 0 hypothesis).
    """
    if n < 0:
        raise PreconditionViolated(f"n must be nonnegative, got {n}")
    m = len(all_degrees)
    if not 0 <= r <= m:
        raise PreconditionViolated(f"rank r={r} must lie in [0, {m}]")
    if list(all_degrees) != sorted(all_degrees):
        raise PreconditionViolated("degree list must be sorted ascending")
    if m - r >= 1 and all_degrees[m - r - 1] > 0:
        raise PreconditionViolated(
            f"degree f_{m - r} = {all_degrees[m - r - 1]} must be <= 0"
        )
    free = tuple(all_degrees[m - r :])
    q = gotzmann_rep(poly - _binomial_sum((1, n, n - f) for f in free))
    return AdjustedGotzmannRep(free, n, q)


class EmbeddingDims(Value):
    """Dimension data of the degree-s embedding of a Quot-type parameter space."""

    __slots__ = _fields = ("s", "ambient_dim", "sub_dim", "grass_dim")

    def __init__(self, s: int, ambient_dim: int, sub_dim: int) -> None:
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "sub_dim", sub_dim)
        object.__setattr__(self, "grass_dim", sub_dim * (ambient_dim - sub_dim))


def grassmannian_embedding_dims(
    poly: NumPoly,
    n: int,
    all_degrees: Sequence[int],
    r: int,
    mode: str = "adjusted",
) -> EmbeddingDims:
    """Sizes of the Grassmannian that receives the degree-s truncation embedding.

    s is the plain Gotzmann number (mode="standard") or the adjusted one
    (mode="adjusted"); the ambient dimension is dim F_s = sum_i C(s - f_i + n, n)
    and the subspace dimension is P(s).  In both modes the rank r must lie in
    [0, m], m the number of summands.
    """
    if not 0 <= r <= len(all_degrees):
        raise PreconditionViolated(f"rank r={r} must lie in [0, {len(all_degrees)}]")
    if mode == "standard":
        s = gotzmann_number(poly)
    elif mode == "adjusted":
        s = adjusted_gotzmann_rep(poly, n, all_degrees, r).number
    else:
        raise ValueError(f"mode must be 'standard' or 'adjusted', got {mode!r}")
    ambient = sum(binomial(s - f + n, n) for f in all_degrees)
    sub = poly(s)
    if sub.denominator != 1:
        raise ValueError(f"P({s}) = {sub} is not an integer")
    sub = int(sub)
    if not 0 <= sub <= ambient:
        raise ValueError(
            f"P({s}) = {sub} must lie in [0, dim F_{s} = {ambient}]"
        )
    return EmbeddingDims(s, ambient, sub)


def series_to_polynomial(numerator: Sequence[int], n: int, offset: int = 0) -> NumPoly:
    """Polynomial form of sum_j numerator[j] * t^(offset+j) / (1-t)^(n+1).

    By definition (Bruns and Herzog, Cohen-Macaulay Rings, 4.1) it is
    P(d) = sum_e c_e C(d - e + n, n), c_e the coefficient of t^e, each
    binomial a polynomial in d.  The series coefficient H(d) has the same
    terms as combinatorial binomials, which agree with these wherever
    d - e + n >= 0; so H = P from E - n on, E the top exponent (see
    ``stabilization_degree``).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _binomial_sum((c, n, n - offset - j) for j, c in enumerate(numerator))


def poly_to_dict(poly: NumPoly) -> dict:
    """Coefficient-list JSON form; rationals as exact "p/q" strings."""
    return {"coeffs": [str(c) for c in poly.coeffs]}


def poly_from_dict(data: dict) -> NumPoly:
    """Parse {"coeffs": [...]} or {"terms": [{"a":, "shift":, "mult":}, ...]}.

    Coefficient entries may be integers or "p/q" strings; term lists build
    sum mult * C(d + shift, a) exactly.
    """
    if not isinstance(data, dict):
        raise ValueError(f"polynomial JSON must be an object, got {type(data).__name__}")
    if set(data) not in ({"coeffs"}, {"terms"}):
        raise ValueError(
            f"polynomial JSON needs exactly one of 'coeffs' and 'terms', got {list(data)}"
        )
    if "coeffs" in data:
        if not isinstance(data["coeffs"], list):
            raise ValueError("'coeffs' must be a list")
        try:
            return NumPoly(Fraction(str(c)) for c in data["coeffs"])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad entry in 'coeffs': {exc}") from None
    if not isinstance(data["terms"], list):
        raise ValueError("'terms' must be a list")
    triples = []
    for k, term in enumerate(data["terms"]):
        if not isinstance(term, dict):
            raise ValueError(f"terms[{k}] must be an object")
        refuse_unknown_keys(term, f"terms[{k}]", ("a", "shift", "mult"))
        missing = {"a", "shift"} - set(term)
        if missing:
            raise ValueError(f"terms[{k}] missing field {sorted(missing)}")
        try:
            mult = Fraction(str(term.get("mult", 1)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad entry in terms[{k}]: {exc}") from None
        a, shift = term["a"], term["shift"]
        if type(a) is not int or type(shift) is not int:  # not isinstance: bool is refused too
            raise ValueError(f"bad entry in terms[{k}]: 'a' and 'shift' must be integers")
        if a < 0:
            raise ValueError(f"binomial degree must be nonnegative, got {a}")
        triples.append((mult, a, shift))
    return _binomial_sum(triples)
