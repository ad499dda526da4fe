"""Independent checks of library outputs, written without the library.

Everything here works on plain exponent tuples and ``math.comb``.  The
library's own self-checks (``hilbert_series(verify=True)``, lexify's replay)
are not used, so a wrong answer is still caught after those checks change.

Monomial order: lex with x0 > x1 > ... > xn; module monomials are ordered
position-dominantly (component 0 first), as in ``gotzmann.lex``.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb


class Mismatch(Exception):
    """A library output disagrees with the benchmark's oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def standard_counts(gens: frozenset, nvars: int, top: int, _memo: dict | None = None) -> list[int]:
    """Number of degree-e monomials outside the ideal generated by ``gens``,
    for e = 0..top.

    Counts monomials u * x_last^k by slicing on the exponent k of the last
    variable: u must avoid the ideal of the generators whose last exponent is
    at most k, with that exponent deleted.  Generators need not be minimal.
    """
    memo = {} if _memo is None else _memo
    cached = memo.get((gens, nvars))
    if cached is not None and len(cached) > top:
        return cached[: top + 1]
    if any(not any(g) for g in gens):
        out = [0] * (top + 1)
    elif not gens:
        out = [comb(e + nvars - 1, nvars - 1) for e in range(top + 1)]
    elif nvars == 1:
        least = min(g[0] for g in gens)
        out = [1 if e < least else 0 for e in range(top + 1)]
    else:
        out = [0] * (top + 1)
        breaks = sorted({g[-1] for g in gens if g[-1] <= top} | {0}) + [top + 1]
        for lo, hi in zip(breaks, breaks[1:]):
            # the slice is the same for every k in [lo, hi)
            sliced = frozenset(g[:-1] for g in gens if g[-1] <= lo)
            counts = standard_counts(sliced, nvars - 1, top, memo)
            for k in range(lo, hi):
                for e in range(top + 1 - k):
                    out[e + k] += counts[e]
    memo[(gens, nvars)] = out
    return out


def naive_counts(gens, nvars: int, top: int) -> list[int]:
    """Plain enumeration of standard monomials; the slow reference used by
    the self-test of ``standard_counts``."""
    out = []
    for e in range(top + 1):
        out.append(sum(1 for m in monomials(nvars, e) if not any(_divides(g, m) for g in gens)))
    return out


def monomials(nvars: int, e: int):
    """Degree-e exponent tuples in nvars variables, descending lex."""
    if nvars == 1:
        yield (e,)
        return
    for first in range(e, -1, -1):
        for rest in monomials(nvars - 1, e - first):
            yield (first,) + rest


class ModuleSpec:
    """A monomial submodule N of F = S(-f_1) + ... + S(-f_m) as plain data.

    ``components[c]`` is None for a zero component, or a tuple of generator
    exponent tuples (the empty tuple generates the unit ideal).
    """

    def __init__(self, n: int, degrees, components) -> None:
        self.n = n
        self.degrees = tuple(degrees)
        self.components = tuple(
            None if gens is None else tuple(tuple(g) for g in gens) for gens in components
        )
        self._memo: dict = {}

    def component_counts(self, c: int, top: int) -> list[int]:
        gens = self.components[c]
        return standard_counts(frozenset(gens or ()), self.n + 1, max(top, 0), self._memo)

    def hf(self, lo: int, hi: int) -> dict[int, int]:
        """H(F/N, d) for lo <= d <= hi by exact monomial counting."""
        out = {d: 0 for d in range(lo, hi + 1)}
        for c, f in enumerate(self.degrees):
            if hi - f < 0:
                continue
            counts = self.component_counts(c, hi - f)
            for d in range(max(lo, f), hi + 1):
                out[d] += counts[d - f]
        return out

    def numerator_degree_bound(self) -> int:
        """Upper bound on the degree of the Hilbert series numerator: per
        component, its shift plus the degree of the lcm of its generators."""
        bound = self.degrees[0]
        for f, gens in zip(self.degrees, self.components):
            if gens:
                lcm_deg = sum(max(g[v] for g in gens) for v in range(self.n + 1))
                bound = max(bound, f + lcm_deg)
            else:
                bound = max(bound, f)
        return bound


def numerator(hf: dict[int, int], n: int, lo: int, hi: int) -> dict[int, int]:
    """Coefficients of (1 - t)^(n+1) * sum_d H(d) t^d for lo <= e <= hi;
    H is taken as 0 below lo."""
    out = {}
    for e in range(lo, hi + 1):
        c = sum((-1) ** i * comb(n + 1, i) * hf.get(e - i, 0) for i in range(n + 2))
        if c:
            out[e] = c
    return out


def poly_value(coeffs, d: int) -> Fraction:
    """Value at d of the polynomial with the given coefficients (lowest
    degree first; ints, Fractions or "p/q" strings)."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * d + Fraction(c)
    return acc


def lex_rank(mono: tuple[int, ...]) -> int:
    """Number of monomials of the same degree that are lex-larger."""
    nvars = len(mono)
    remaining = sum(mono)
    rank = 0
    for v in range(nvars - 1):
        after = nvars - v - 1
        for t in range(mono[v] + 1, remaining + 1):
            rank += comb(remaining - t + after - 1, after - 1)
        remaining -= mono[v]
    return rank


def check_lex_module(spec: ModuleSpec, lo: int, hi: int) -> dict[int, int]:
    """Assert that every degree-d piece, lo <= d <= hi, is an initial segment
    of F_d in the position-dominant lex order; return H(F/L, d) there."""
    n = spec.n
    hf = spec.hf(lo, hi)
    counts = [spec.component_counts(c, hi - f) for c, f in enumerate(spec.degrees)]
    for d in range(lo, hi + 1):
        state = "full"
        for c, f in enumerate(spec.degrees):
            e = d - f
            if e < 0:
                continue
            total = comb(e + n, n)
            gens = spec.components[c] or ()
            size = total - counts[c][e]
            if state == "full":
                if size == total:
                    continue
                state = "empty"
                if size == 0:
                    continue
                last = max(
                    lex_rank(g[:-1] + (g[-1] + e - sum(g),))
                    for g in gens
                    if sum(g) <= e
                )
                expect(last + 1 == size,
                       f"component {c} in degree {d} is not a lex segment")
            else:
                expect(size == 0, f"component {c} in degree {d} follows a partial piece")
    return hf


def self_test() -> None:
    """Hold ``standard_counts`` against plain enumeration on small ideals."""
    import random

    rng = random.Random(0)
    for _ in range(200):
        nvars = rng.randint(1, 4)
        gens = set()
        for _ in range(rng.randint(0, 6)):
            e = [0] * nvars
            for _ in range(rng.randint(0, 4)):
                e[rng.randrange(nvars)] += 1
            gens.add(tuple(e))
        top = 7
        expect(
            standard_counts(frozenset(gens), nvars, top) == naive_counts(gens, nvars, top),
            f"standard_counts disagrees with enumeration on {sorted(gens)}",
        )
    for nvars in (2, 3, 4):
        for e in range(5):
            for r, m in enumerate(monomials(nvars, e)):
                expect(lex_rank(m) == r, f"lex_rank({m}) != {r}")
