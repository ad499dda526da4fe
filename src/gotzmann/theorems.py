"""Executable checkers for the Hilbert-function bounds and regularity claims.

Each checker evaluates one inequality (or conditional equality) on a concrete
monomial submodule at a concrete degree and returns a CheckReport; verdicts
are "holds" (strict), "sharp" (equality), "violated" (the bound failed), or
"premise_fails" (a conditional statement whose premise did not hold).  A
"violated" verdict on valid input is always a bug somewhere: the test suite
treats it as failure.

The adjusted bounds peel off the free part of M = F/N over the r largest
ambient degrees (r = number of zero components) and apply the binomial
transform to the remainder rho at index d - f_low, where f_low is the
(m-r)-th degree.  Two kernels, ``_growth`` and ``_restriction``, compute
every bound from the index and the values of H(M, e) and rho at e = d - 1,
d, d + 1; each public checker refuses an index below 1 before it reads a
value.  The classical checkers are the same kernels at r = 0, where
rho = H(M, d) and f_low = l, the largest ambient degree; Gasharov's module
forms move the index to d - l - p.

Every value a checker reads is a function of H(M, d), rho and the generic
hyperplane restriction, kept in the submodule's record, four slots of the
submodule that ``monomial_algebra._record`` builds and that die with it: a
public checker has the record read or built once and reads the values from
the submodule's row at each degree through ``monomial_algebra``, which
alone stores them; the free parts are differences of H and rho, and the
bounds are recomputed from those with the cached transforms.  So the
checkers of one submodule share each value, and each (submodule, d) is
restricted once.  ``sweep`` builds each record once, reads H, rho and the
hyperplane value once per degree and computes each adjusted growth pair
once per degree, and hands them to the kernels, the persistence walk and
the report builders that the public checkers call.  So each of its reports
equals the public checker's for the same (submodule, d, p), in the same
order: ``test_sweep_shares_values_as_the_public_checkers_compute_them``
in ``tests/test_theorems.py`` checks that on every instance of
``sweep(500)``.  Each record's memory is bounded as ``_record`` states.

A report is a tuple of its seven fields and, for a module checker, its
submodule, from which it builds ``instance``, the ``module_to_dict`` form,
on first read: a sweep reads few of them.
"""
from __future__ import annotations

import json
import random
from functools import cached_property
from operator import itemgetter
from typing import Iterator

from ._value import Value
from .combinatorics import green_transform, macaulay_transform
from .errors import BudgetExceeded, PreconditionViolated
from .lex import _saturated_lex_module
from .monomial_algebra import (
    GradedFreeModule,
    MonomialIdeal,
    MonomialSubmodule,
    _hyperplane,
    _minimal,
    _record,
    _rho,
    _row,
    hilbert_polynomial,
    module_to_dict,
    rank,
    saturate,
    stabilization_degree,
)
from .numpoly import TERM_BUDGET, NumPoly, adjusted_gotzmann_rep, poly_to_dict
from .resolution import regularity

HOLDS = "holds"
SHARP = "sharp"
VIOLATED = "violated"
PREMISE_FAILS = "premise_fails"

# the report names of check_gasharov: one string each, shared by every report
GASHAROV_MACAULAY = "gasharov_macaulay"
GASHAROV_GREEN = "gasharov_green"


class CheckReport(Value, tuple):
    """The tuple (name, instance, premises_hold, bound_lhs, bound_rhs,
    verdict, context, submodule): a module checker's report holds None for
    its instance and the submodule it builds the instance from on the first
    read, any other report its instance and None."""

    _fields = (
        "name", "instance", "premises_hold", "bound_lhs", "bound_rhs", "verdict", "context"
    )
    # no __slots__: a tuple subclass may add only __dict__, which keeps the
    # instance once built
    name = property(itemgetter(0))
    premises_hold = property(itemgetter(2))
    bound_lhs = property(itemgetter(3))
    bound_rhs = property(itemgetter(4))
    verdict = property(itemgetter(5))
    context = property(itemgetter(6))
    _submodule = property(itemgetter(7))

    def __new__(cls, name: str, instance: dict, premises_hold: bool, bound_lhs: int | None,
                bound_rhs: int | None, verdict: str, context: dict | None = None):
        context = {} if context is None else context
        items = (name, instance, premises_hold, bound_lhs, bound_rhs, verdict, context, None)
        return tuple.__new__(cls, items)

    @cached_property
    def instance(self) -> dict:
        return module_to_dict(self[7]) if self[1] is None else self[1]

    # equal only to a report of equal fields, never to a plain tuple
    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._get(self) == self._get(other)

    __ne__ = object.__ne__

    # object.__new__ refuses a tuple subclass; a built instance is copied along
    def __reduce__(self):
        return tuple.__new__, (self.__class__, tuple(self)), self.__dict__ or None

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _module_report(
    submodule: MonomialSubmodule,
    name: str,
    bound_lhs: int | None,
    bound_rhs: int | None,
    verdict: str,
    context: dict,
    premises_hold: bool = True,
) -> CheckReport:
    """A report whose instance, module_to_dict(submodule), is built on first
    read, as a sweep reads the instances of few of its reports."""
    return tuple.__new__(
        CheckReport,
        (name, None, premises_hold, bound_lhs, bound_rhs, verdict, context, submodule),
    )


def _compare(lhs: int, rhs: int) -> str:
    if lhs > rhs:
        return VIOLATED
    return SHARP if lhs == rhs else HOLDS


def f_low_degree(submodule: MonomialSubmodule) -> int:
    """The degree indexing the binomial transforms: f_{m-r}, or f_m when the
    free part exhausts the module (r = m)."""
    return _f_low(submodule.degrees, rank(submodule))


def _f_low(degrees: tuple[int, ...], r: int) -> int:
    return degrees[len(degrees) - r - 1]  # r = m reads index -1, f_m


def _growth(index: int, rho: int, h_next: int, rho_next: int) -> tuple[int, int]:
    """H(M, d+1) and its bound: the free part of the last r ambient degrees
    at d + 1, which is H - rho there, plus rho(d)^<index>; r is 0 or the
    rank of M, and at r = 0 rho is H itself, so the free part is 0."""
    return h_next, h_next - rho_next + macaulay_transform(rho, index)


def _restriction(
    index: int, hyperplane: int, h_prev: int, rho_prev: int, h: int, rho: int
) -> tuple[int, int]:
    """The generic hyperplane value dim (M/hM)_d and its bound: the free part
    of the last r ambient degrees in n - 1 variables plus rho(d)_<index>; r
    is 0 or the rank of M, and at r = 0 rho is H.  By Pascal's rule that
    free part is the first difference (H - rho)(d) - (H - rho)(d - 1) of the
    free part in n variables, also for the degrees f > d, where both sides
    are 0."""
    return hyperplane, h - rho - h_prev + rho_prev + green_transform(rho, index)


def _require_index(d: int, index: int) -> None:
    if index < 1:
        raise PreconditionViolated(f"need d >= {d - index + 1} for a transform index >= 1, got {d}")


def _adjusted_growth(submodule: MonomialSubmodule, f_low: int, growth: dict,
                     e: int) -> tuple[int, int]:
    """The adjusted ``_growth`` pair at e, read from growth, a dict of the
    submodule's pairs by degree, or computed from its rows into it."""
    pair = growth.get(e)
    if pair is None:
        pair = growth[e] = _growth(
            e - f_low, _rho(submodule, e), _row(submodule, e + 1)[0], _rho(submodule, e + 1)
        )
    return pair


# the report builders of the module checkers, called by them and by sweep
# with the values they have read: the one place each report's layout is set
def _macaulay_report(submodule: MonomialSubmodule, d: int, r: int, f_low: int, rho: int,
                     pair: tuple[int, int]) -> CheckReport:
    lhs, rhs = pair
    return _module_report(submodule, "macaulay_adjusted", lhs, rhs, _compare(lhs, rhs),
                          {"d": d, "rho": rho, "f_low": f_low, "rank": r})


def _green_report(submodule: MonomialSubmodule, d: int, f_low: int, rho: int,
                  pair: tuple[int, int]) -> CheckReport:
    lhs, rhs = pair
    return _module_report(submodule, "green_adjusted", lhs, rhs, _compare(lhs, rhs),
                          {"d": d, "rho": rho, "f_low": f_low})


def _gasharov_report(submodule: MonomialSubmodule, name: str, d: int, p: int, l: int,
                     index: int, pair: tuple[int, int]) -> CheckReport:
    lhs, rhs = pair
    return _module_report(submodule, name, lhs, rhs, _compare(lhs, rhs),
                          {"d": d, "p": p, "l": l, "index": index})


def check_macaulay_adjusted(submodule: MonomialSubmodule, d: int) -> CheckReport:
    """H(M, d+1) against the rank-and-degree adjusted Macaulay bound."""
    _record(submodule)
    r = rank(submodule)
    f_low = _f_low(submodule.degrees, r)
    _require_index(d, d - f_low)
    pair = _adjusted_growth(submodule, f_low, {}, d)
    return _macaulay_report(submodule, d, r, f_low, _rho(submodule, d), pair)


def check_green_adjusted(submodule: MonomialSubmodule, d: int) -> CheckReport:
    """Generic hyperplane restriction against the adjusted Green bound."""
    if submodule.n < 1:
        raise PreconditionViolated(f"need n >= 1, got {submodule.n}")
    _record(submodule)
    r = rank(submodule)
    f_low = _f_low(submodule.degrees, r)
    _require_index(d, d - f_low)
    rho = _rho(submodule, d)
    pair = _restriction(d - f_low, _hyperplane(submodule, d), _row(submodule, d - 1)[0],
                        _rho(submodule, d - 1), _row(submodule, d)[0], rho)
    return _green_report(submodule, d, f_low, rho, pair)


def check_gasharov(
    submodule: MonomialSubmodule,
    d: int,
    p: int,
    which: str = "macaulay",
) -> CheckReport:
    """Classical growth and hyperplane bounds with transform index d - l - p,
    where l is the largest ambient degree: the adjusted kernels at r = 0,
    where rho is H(M, d)."""
    if which not in ("macaulay", "green"):
        raise ValueError(f"which must be 'macaulay' or 'green', got {which!r}")
    if p < 0:
        raise PreconditionViolated(f"need p >= 0, got {p}")
    l = submodule.degrees[-1]
    index = d - l - p
    _record(submodule)
    _require_index(d, index)
    h = _row(submodule, d)[0]
    if which == "macaulay":
        h_next = _row(submodule, d + 1)[0]
        pair = _growth(index, h, h_next, h_next)
        return _gasharov_report(submodule, GASHAROV_MACAULAY, d, p, l, index, pair)
    h_prev = _row(submodule, d - 1)[0]
    pair = _restriction(index, _hyperplane(submodule, d), h_prev, h_prev, h, h)
    return _gasharov_report(submodule, GASHAROV_GREEN, d, p, l, index, pair)


def check_persistence_adjusted(submodule: MonomialSubmodule, d: int) -> CheckReport:
    """Once H(M, d+1) meets the adjusted Macaulay bound at d, it must keep
    meeting it at every later degree.

    Checking e = d + 1, ..., L = max(d, d0, f_m) + n + 1 (d0 the
    stabilization degree) covers every later e.  Meeting the bound at e is
    rho_(e+1) = rho_e^<e - f_low>, so if it holds on [t, L], t = L - n, then
    rho_(t+s) = G(s) = sum_j C(k_j + s, k_j - j) for s = 0, ..., n + 1, where
    rho_t = sum_j C(k_j, j) (Gotzmann, Math. Z. 1978; Green, LNM 1389).
    Past max(d0, f_m), rho = H - free part is a polynomial R of degree <= n,
    so the (n + 1)-th difference of G at 0, sum_j C(k_j, k_j - j - n - 1),
    equals that of R, 0: every k_j - j <= n and G has degree <= n too.
    Agreeing at n + 2 points, G = R, and G meets the bound at every step.
    context["horizon"] is L - d, or 0 when the premise fails; a horizon
    above ``TERM_BUDGET`` raises BudgetExceeded before any later e is read.
    """
    max_gen = submodule.max_gen_degree()
    if max_gen is not None and max_gen > d:
        raise PreconditionViolated(
            f"submodule has a generator in degree {max_gen} > d = {d}"
        )
    _record(submodule)
    f_low = _f_low(submodule.degrees, rank(submodule))
    _require_index(d, d - f_low)
    growth: dict = {}
    return _persistence_report(submodule, d, f_low, growth,
                               _adjusted_growth(submodule, f_low, growth, d))


def _persistence_report(submodule: MonomialSubmodule, d: int, f_low: int, growth: dict,
                        pair: tuple[int, int]) -> CheckReport:
    """The persistence report at d from its premise, the adjusted growth
    pair at d, and a walk on the pairs of ``_adjusted_growth``, kept in
    growth."""
    lhs, rhs = pair
    premises_hold = lhs == rhs
    verdict, context = PREMISE_FAILS, {"d": d, "horizon": 0}
    if premises_hold:
        last = max(d, stabilization_degree(submodule), submodule.degrees[-1]) + submodule.n + 1
        if last - d > TERM_BUDGET:
            raise BudgetExceeded(
                f"persistence horizon of {last - d} degrees exceeds {TERM_BUDGET}"
            )
        verdict, context["horizon"] = SHARP, last - d
        for e in range(d + 1, last + 1):
            lhs, rhs = _adjusted_growth(submodule, f_low, growth, e)
            if lhs != rhs:
                verdict, context["failed_at"] = VIOLATED, e
                break
    return _module_report(submodule, "persistence_adjusted", lhs, rhs, verdict, context,
                          premises_hold)


def check_gotzmann_regularity_adjusted(submodule: MonomialSubmodule) -> CheckReport:
    """Regularity of the saturation against max(adjusted Gotzmann number, f_m).

    A zero saturation has no regularity; the bound is then vacuous and the
    verdict is "holds" with lhs None.
    """
    degrees = submodule.degrees
    r = rank(submodule)
    s = adjusted_gotzmann_rep(hilbert_polynomial(submodule), submodule.n, degrees, r).number
    f_m = degrees[-1]
    rhs = max(s, f_m)
    context = {"s": s, "f_m": f_m, "rank": r}
    saturated = saturate(submodule)
    if saturated.is_zero():
        lhs, verdict = None, HOLDS
        context["saturation_is_zero"] = True
    else:
        lhs = regularity(saturated, as_quotient=False)
        verdict = _compare(lhs, rhs)
    return _module_report(submodule, name="gotzmann_regularity_adjusted", bound_lhs=lhs,
                          bound_rhs=rhs, verdict=verdict, context=context)


def check_sharpness(poly: NumPoly, ambient: GradedFreeModule, r: int) -> CheckReport:
    """The saturated lex module must attain regularity exactly s when
    f_{m-r} = 0 and s >= f_m.  The adjusted representation is computed
    once: s is its length, and the lex module is built from it."""
    rep = adjusted_gotzmann_rep(poly, ambient.n, ambient.degrees, r)
    s = rep.number
    m = ambient.m
    if m - r < 1:
        raise PreconditionViolated("sharpness needs a non-free component (m - r >= 1)")
    f_mid = ambient.degrees[m - r - 1]
    if f_mid != 0:
        raise PreconditionViolated(f"sharpness hypothesis f_(m-r) = 0 fails: {f_mid}")
    f_m = ambient.degrees[-1]
    if s < f_m:
        raise PreconditionViolated(f"sharpness hypothesis s >= f_m fails: {s} < {f_m}")
    instance = {"poly": poly_to_dict(poly), "n": ambient.n,
                "degrees": list(ambient.degrees), "r": r}
    lex_module = _saturated_lex_module(poly, ambient, r, rep)
    reg = None
    if lex_module.is_zero():
        context = {"s": s, "lex_module_is_zero": True}
    elif (lex_rank := rank(lex_module)) != r:
        # the polynomial's rank exceeds r, so no quotient of rank r has it
        context = {"s": s, "lex_module_rank": lex_rank}
    else:
        reg = regularity(lex_module, as_quotient=False)
        context = {"s": s, "f_m": f_m, "lex_module": module_to_dict(lex_module)}
    return CheckReport(
        name="sharpness",
        instance=instance,
        premises_hold=reg is not None,
        bound_lhs=reg,
        bound_rhs=s,
        verdict=PREMISE_FAILS if reg is None else SHARP if reg == s else VIOLATED,
        context=context,
    )


def random_submodule(seed: int) -> MonomialSubmodule:
    """Seeded random instance: n+1 variables (1 <= n <= 3), 1 to 3 components
    with degrees in [-1, 1], each component zero, unit, or a monomial ideal
    of 1 to 5 generators of degree 1 to 5."""
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    m = rng.randint(1, 3)
    degrees = tuple(sorted(rng.randint(-1, 1) for _ in range(m)))
    components = []
    for _ in range(m):
        roll = rng.random()
        if roll < 0.30:
            components.append(MonomialIdeal.zero(n))
        elif roll < 0.40:
            components.append(MonomialIdeal.unit(n))
        else:
            gens = []
            for _ in range(rng.randint(1, 5)):
                exps = [0] * (n + 1)
                for _ in range(rng.randint(1, 5)):
                    exps[rng.randrange(n + 1)] += 1
                gens.append(tuple(exps))
            components.append(MonomialIdeal._of_minimal(n, _minimal(gens)))
    return MonomialSubmodule(GradedFreeModule(n, degrees), tuple(components))


def sweep(count: int, base_seed: int = 0) -> Iterator[CheckReport]:
    """Run every checker over `count` random instances and all valid degrees
    in a band of 6 degrees above each precondition threshold.

    Checkers whose preconditions cannot be met on an instance are skipped
    (conditional statements are vacuous there); everything that runs is
    reported.  Per instance the record, rank, f_low, l and top generator
    degree are read once.  Per degree H, rho and the hyperplane value are
    read once, and the adjusted growth pair is computed once, for the
    Macaulay report, the persistence premise and every persistence walk.
    The reports come from the public checkers' kernels and report builders
    and equal theirs.
    """
    for k in range(count):
        submodule = _record(random_submodule(base_seed + k))
        r = rank(submodule)
        f_low = _f_low(submodule.degrees, r)
        l = submodule.degrees[-1]
        max_gen = submodule.max_gen_degree()
        growth: dict = {}
        h_prev, rho_prev = _row(submodule, f_low)[0], _rho(submodule, f_low)
        h, rho = _row(submodule, f_low + 1)[0], _rho(submodule, f_low + 1)
        for d in range(f_low + 1, f_low + 7):
            index = d - f_low
            h_next, rho_next = _row(submodule, d + 1)[0], _rho(submodule, d + 1)
            pair = growth.get(d)
            if pair is None:
                pair = growth[d] = _growth(index, rho, h_next, rho_next)
            yield _macaulay_report(submodule, d, r, f_low, rho, pair)
            hyperplane = _hyperplane(submodule, d)
            yield _green_report(submodule, d, f_low, rho,
                                _restriction(index, hyperplane, h_prev, rho_prev, h, rho))
            if max_gen is None or max_gen <= d:
                yield _persistence_report(submodule, d, f_low, growth, pair)
            # the classical bounds: the kernels at r = 0, with H for rho
            for p in range(min(3, d - l)):  # d >= p + l + 1
                index = d - l - p
                yield _gasharov_report(submodule, GASHAROV_MACAULAY, d, p, l, index,
                                       _growth(index, h, h_next, h_next))
                yield _gasharov_report(submodule, GASHAROV_GREEN, d, p, l, index,
                                       _restriction(index, hyperplane, h_prev, h_prev, h, h))
            h_prev, rho_prev, h, rho = h, rho, h_next, rho_next
        if f_low <= 0:
            # f_low > 0 breaks the regularity statement's hypothesis; vacuous.
            yield check_gotzmann_regularity_adjusted(submodule)
