"""Exact rational polynomials in one variable and their binomial-basis forms.

A numerical polynomial takes integer values at all integers, as Hilbert
polynomials do; ``NumPoly`` keeps them in the basis C(d + k, k), whose integer
combinations they are (Bruns and Herzog, 4.1).  The module also provides the
two canonical decompositions used throughout: the plain Gotzmann representation

    P(d) = sum_i C(d + a_i - (i-1), a_i),   a_1 >= a_2 >= ... >= a_s >= 0,

and the rank-and-degree adjusted representation that first strips off the
free summands C(d - f_i + n, n) before representing the remainder.  Both
peel runs with one loop, ``_peel``; the adjusted one takes each free
binomial off the polynomial's integer coordinates in place, so no
intermediate ``NumPoly`` is built.

Every sum of binomials c_k C(d + shift_k, a_k) here and in
``monomial_algebra`` (a free part, a term list, the polynomial of a Hilbert
series numerator) is one ``_binomial_sum``; each binomial is added to the
coordinates by ``_add_binomial``, which the adjusted representation uses to
subtract its free part.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, groupby, repeat, zip_longest
from math import factorial, gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

from ._value import Value
from .combinatorics import binomial
from .errors import NotAdmissible, PreconditionViolated, refuse_unknown_keys

Scalar = Union[int, Fraction]

# Entries a dense view or walk may have: a representation's exponent list
# ``a``, a Hilbert series numerator, a ``--function`` table, the degrees
# ``lexify`` or the persistence check walks, and the bits of the peel's
# coordinates past that many terms.  A work guard, past which they raise.
TERM_BUDGET = 10**6


class NumPoly:
    """P(d) = sum_k b_k C(d + k, k) / den: integer coordinates b_0..b_deg,
    b_deg != 0, over den > 0 coprime to them all, so the form is unique and
    den == 1 iff P is integer-valued.  ``NumPoly(coeffs)`` takes power-basis
    coefficients, lowest degree first; ``coeffs`` gives them back as
    Fractions, built on first read.  The zero polynomial has no coordinates
    and degree -1 by convention.
    """

    __slots__ = ("_b", "_den", "_coeffs")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        # b_j is the j-th backward difference of P at -1 (that of C(d + k, k) is
        # [k == j]), taken in place from den * P(-1 - i), i = 0..deg, by Horner
        den = lcm(*(c.denominator for c in cs))
        nums = [c.numerator * (den // c.denominator) for c in reversed(cs)]
        v = [reduce(lambda acc, c, x=-1 - i: acc * x + c, nums, 0) for i in range(len(cs))]
        for j in range(1, len(v)):
            for i in range(len(v) - 1, j - 1, -1):
                v[i] = v[i - 1] - v[i]
        _from_basis(v, den, self)._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power-basis coefficients, lowest degree first: sum_k b_k (E!/k!)
        (d + 1)...(d + k) over E! den, E the degree, expanded in integers."""
        if self._coeffs is None:
            acc, rising, weight = [0] * len(self._b), [1], factorial(max(self.degree, 0))
            den = weight * self._den
            for k, b in enumerate(self._b):
                if k:
                    rising = [k * x + y for x, y in zip(rising + [0], [0] + rising)]
                    weight //= k
                acc = [y + b * weight * x for y, x in zip_longest(acc, rising, fillvalue=0)]
            self._coeffs = tuple(Fraction(x, den) for x in acc)
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._b) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        """b_deg / (deg! den), since C(d + k, k) leads with 1/k!."""
        return Fraction(self._b[-1], factorial(self.degree) * self._den) if self._b else Fraction(0)

    def is_zero(self) -> bool:
        return not self._b

    def __call__(self, d: Scalar) -> Fraction:
        if isinstance(d, int):
            return Fraction(self._int_value(d), self._den)
        return sum((c * d**k for k, c in enumerate(self.coeffs)), Fraction(0))

    def _int_value(self, d: int) -> int:
        """den * P(d) as an int for integer d: P(d) itself when P is
        integer-valued (den == 1)."""
        return sum(map(mul, self._b, _diagonal(d, self.degree)))

    def _int_differences(self, x: int) -> list[int]:
        """den times the backward differences of P at integer x, of orders 0
        to the degree: order j of C(d + k, k) is C(d + k - j, k - j), so
        order j of P is sum_k b_k C(x + k - j, k - j), off one diagonal."""
        b, diagonal = self._b, _diagonal(x, self.degree)
        return [sum(map(mul, b[j:], diagonal)) for j in range(len(b))]

    def __add__(self, other: "NumPoly | Scalar") -> "NumPoly":
        other = _as_poly(other)
        den = lcm(self._den, other._den)
        s, o = den // self._den, den // other._den
        return _from_basis(
            [x * s + y * o for x, y in zip_longest(self._b, other._b, fillvalue=0)], den
        )

    __radd__ = __add__

    def __neg__(self) -> "NumPoly":
        return _from_basis([-x for x in self._b], self._den)

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

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        other = NumPoly([other]) if isinstance(other, (int, Fraction)) else other
        if not isinstance(other, NumPoly):
            return NotImplemented
        return self._b == other._b and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._b, self._den))

    def shift_argument(self, k: int) -> "NumPoly":
        """Return the polynomial d -> P(d + k), by Chu-Vandermonde:
        C(d + k + j, j) = sum_{i <= j} C(k - 1 + j - i, j - i) C(d + i, i)."""
        b, row = self._b, _diagonal(k - 1, self.degree)
        return _from_basis([sum(map(mul, b[i:], row)) for i in range(len(b))], self._den)

    def is_integer_valued(self) -> bool:
        """True iff P maps integers to integers: iff den == 1."""
        return self._den == 1

    def __repr__(self) -> str:
        parts = [
            str(c) if i == 0 else ("" if c == 1 else f"{c}*") + ("d" if i == 1 else f"d^{i}")
            for i, c in reversed(list(enumerate(self.coeffs))) if c
        ]
        return "NumPoly(" + (" + ".join(parts) or "0") + ")"


def _diagonal(x: int, top: int) -> list[int]:
    """[C(x + k, k) for k = 0..top], any integer x: C(x + k - 1, k - 1) (x + k) / k."""
    out = [1]
    for k in range(1, top + 1):
        out.append(out[-1] * (x + k) // k)
    return out[: top + 1]


def _from_basis(b: list[int], den: int = 1, poly: NumPoly | None = None) -> NumPoly:
    """``poly`` (or a new NumPoly) set to b over den, trailing zeros and gcd removed."""
    while b and not b[-1]:
        b.pop()
    g = gcd(den, *b)
    poly = object.__new__(NumPoly) if poly is None else poly
    poly._b, poly._den, poly._coeffs = tuple(x // g for x in b), den // g, None
    return poly


def _as_poly(x: "NumPoly | Scalar") -> NumPoly:
    return x if isinstance(x, NumPoly) else NumPoly([x])


def binomial_poly(a: int, shift: int) -> NumPoly:
    """The degree-a numerical polynomial C(d + shift, a)."""
    if a < 0:
        raise ValueError(f"binomial degree must be nonnegative, got {a}")
    return _binomial_sum([(1, a, shift)])


def _binomial_sum(terms: Iterable[tuple[Scalar, int, int]]) -> NumPoly:
    """sum c * C(d + shift, a) over (c, a, shift) triples, a >= 0, each
    added by ``_add_binomial``; rational c are put over their common
    denominator, and integer c are added as they are."""
    terms = [t for t in terms if t[0]]
    den = lcm(*(c.denominator for c, _, _ in terms))
    acc = [0] * (max((a for _, a, _ in terms), default=-1) + 1)
    for c, a, shift in terms:
        _add_binomial(acc, c.numerator if den == 1 else c.numerator * (den // c.denominator),
                      a, shift)
    return _from_basis(acc, den)


def _add_binomial(acc: list[int], c: int, a: int, shift: int) -> None:
    """Add the coordinates of c * C(d + shift, a) to acc[0..a] in place.  By
    Chu-Vandermonde C(d + shift, a) = sum_{j <= a} C(shift - 1 - j, a - j)
    C(d + j, j): acc[a - k] gets c C(x + k, k), x = shift - a - 1, taken
    along the diagonal by C(x + k, k) = C(x + k - 1, k - 1) (x + k) / k.  For
    x < 0 the diagonal is 0 from k = -x on, where the walk stops."""
    x, value = shift - a - 1, 1
    acc[a] += c
    for k in range(1, a + 1):
        value = value * (x + k) // k
        if not value:
            return
        acc[a - k] += c * value


def _run(a: int, i: int, m: int) -> list[int]:
    """Coordinates of sum_{j=i}^{i+m-1} C(d + a - j, a) = C(d + a - i + 1, a + 1)
    - C(d + a - i - m + 1, a + 1): by the diagonals of ``_add_binomial``,
    C(t - i - 1, t) - C(t - i - m - 1, t) at C(d + a + 1 - t, a + 1 - t)."""
    high, low = _diagonal(-i - 1, a + 1), _diagonal(-i - m - 1, a + 1)
    return [high[t] - low[t] for t in range(a + 1, 0, -1)]


class GotzmannRep(Value):
    """Non-increasing exponent list a_1 >= ... >= a_s >= 0 with

    P(d) = sum_{i=1}^{s} C(d + a_i - (i-1), a_i),

    stored as its ``runs``: (a, m) pairs, a strictly decreasing and m >= 1,
    for m equal exponents a in a row.  ``number`` (the length s, the sum of
    the m) is the Gotzmann number of the represented polynomial; the empty
    list represents 0.  ``polynomial`` sums each run as one hockey-stick
    difference of two binomials of degree a + 1.  Past ``TERM_BUDGET`` terms
    the dense view ``a`` is refused, and the repr ``GotzmannRep(a=...)``
    becomes ``<GotzmannRep runs=...>``, which does not evaluate.
    """

    __slots__ = _fields = ("runs",)

    def __init__(self, a: tuple[int, ...]) -> None:
        a = tuple(a)
        if list(a) != sorted(a, reverse=True):
            raise ValueError("exponent list must be non-increasing")
        if a and a[-1] < 0:
            raise ValueError(f"exponents must be nonnegative, got {a[-1]}")
        object.__setattr__(self, "runs", tuple((x, sum(1 for _ in g)) for x, g in groupby(a)))

    @property
    def number(self) -> int:
        return sum(m for _, m in self.runs)

    @property
    def a(self) -> tuple[int, ...]:
        if self.number > TERM_BUDGET:
            raise NotAdmissible(f"representation needs more than {TERM_BUDGET} terms")
        return tuple(chain.from_iterable(repeat(a, m) for a, m in self.runs))

    def __repr__(self) -> str:
        if self.number > TERM_BUDGET:
            return f"<GotzmannRep runs={self.runs!r}>"
        return f"GotzmannRep(a={self.a!r})"

    def terms(self) -> list[tuple[int, int]]:
        """(a_i, shift_i) pairs so that term i is C(d + shift_i, a_i)."""
        return [(ai, ai - i) for i, ai in enumerate(self.a)]

    def polynomial(self) -> NumPoly:
        starts = accumulate((m for _, m in self.runs), initial=0)
        runs = [_run(a, i, m) for (a, m), i in zip(self.runs, starts)]
        return _from_basis([sum(x) for x in zip_longest(*runs, fillvalue=0)])


def gotzmann_rep(poly: NumPoly) -> GotzmannRep:
    """Gotzmann representation of ``poly``, peeled one run at a time.

    After i terms the remainder has degree a and coordinate m at C(d + a, a),
    where each term C(d + a - j, a) has coordinate 1: the run has m terms and
    takes off the hockey-stick sum ``_run(a, i, m)``.  The degree falls with
    each run, so the loop runs at most deg P + 1 times (a constant tail is the
    run a = 0).  Raises NotAdmissible for non-numerical input, a negative
    leading coordinate, or coordinates past ``TERM_BUDGET`` terms and bits.
    """
    return _peel(list(poly._b), poly._den)


def _peel(b: list[int], den: int) -> GotzmannRep:
    """``gotzmann_rep`` of the coordinates b, with no trailing zero, over den."""
    if den != 1:
        k = next(k for k, x in enumerate(b) if x % den)
        raise NotAdmissible(f"polynomial of degree {len(b) - 1} is not integer-valued: its"
                            f" C(d + {k}, {k}) coordinate is {Fraction(b[k], den)}")
    runs, i = [], 0
    while b:
        a, m = len(b) - 1, b[-1]
        if m < 0:
            raise NotAdmissible(f"remainder of degree {a} has negative leading"
                                f" coordinate {m} at term {i}")
        # runs can square in length: bound coordinates of (a + 1) log2(i + m) bits
        if i + m > TERM_BUDGET and (a + 1) * (i + m).bit_length() > TERM_BUDGET:
            raise NotAdmissible(f"representation needs more than {TERM_BUDGET} terms")
        b = [x - y for x, y in zip(b, _run(a, i, m))]
        while b and not b[-1]:
            b.pop()
        runs.append((a, m))
        i += m
    rep = object.__new__(GotzmannRep)
    object.__setattr__(rep, "runs", tuple(runs))
    return rep


def gotzmann_number(poly: NumPoly) -> int:
    """Length of the Gotzmann representation (0 for the zero polynomial)."""
    return gotzmann_rep(poly).number


class AdjustedGotzmannRep(Value):
    """P(d) = sum_{f in free_degrees} C(d - f + n, n) + Q(d) with Q represented
    by ``q``.  ``number`` is the adjusted Gotzmann number, i.e. ``q.number``.
    """

    __slots__ = _fields = ("free_degrees", "n", "q")

    def __init__(self, free_degrees: tuple[int, ...], n: int, q: GotzmannRep) -> None:
        object.__setattr__(self, "free_degrees", tuple(free_degrees))
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
    # Q = P - sum C(d - f + n, n), on P's coordinates over its denominator
    b, den = list(poly._b), poly._den
    if free:
        b += [0] * (n + 1 - len(b))
        for f in free:
            _add_binomial(b, -den, n, n - f)
        while b and not b[-1]:
            b.pop()
    return AdjustedGotzmannRep(free, n, _peel(b, den))


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
    """Polynomial form P of sum_j numerator[j] * t^(offset+j) / (1-t)^(n+1).

    1/(1-t)^(n+1) has coefficients C(d + n, n), so each term c t^e adds
    c C(d - e + n, n) to P (Bruns and Herzog, Cohen-Macaulay Rings, 4.1):
    P is one ``_binomial_sum``.  The series coefficient H(d) is the same sum
    with combinatorial binomials, which agree with the polynomial ones
    wherever d - e + n >= 0; so H = P from E - n on, E the top exponent (see
    ``monomial_algebra.stabilization_degree``).
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
