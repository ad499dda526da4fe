"""The four benchmark workloads: input families, one op each, oracles, digests.

Each workload is built from ``--seed`` alone; the library sees only the
generated inputs.  An op returns a compact semantic record (plain JSON data),
which feeds both the output digest and the oracle check after the timed loop.
Each workload's inputs are a stratified sample: fixed quotas of instance
shapes, filled with seeded random instances, in batches that are a multiple
of ``cycle`` ops.  Seeds then change the instances but not the mix, so the
cost of a batch varies less from seed to seed than a plain random draw.
The digest leaves out report ``context`` dicts, which are expected to grow
provenance fields without any change in behaviour.

Ops import library names when they run, not at module load, so that calls
made by the benchmark itself go through the tracer's rebound wrappers.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import oracles
from oracles import ModuleSpec, expect

# hilbert: lexify and check_sharpness run only on modules whose adjusted
# Gotzmann number s keeps them bounded.  Lexify works degree by degree up to
# about s; check_sharpness builds a lex segment among the C(s + n, n)
# monomials of degree s and minimalizes it, which is quadratic in that count.
LEXIFY_MAX_S = 24
SHARPNESS_MAX_MONOMIALS = 120


def _module(spec: ModuleSpec):
    from gotzmann.monomial_algebra import (
        GradedFreeModule,
        Monomial,
        MonomialIdeal,
        MonomialSubmodule,
    )

    comps = []
    for gens in spec.components:
        if gens is None:
            comps.append(MonomialIdeal.zero(spec.n))
        else:
            comps.append(MonomialIdeal(spec.n, tuple(Monomial(g) for g in gens)))
    return MonomialSubmodule(GradedFreeModule(spec.n, spec.degrees), tuple(comps))


def _random_gen(rng: random.Random, n: int, lo: int, hi: int) -> tuple[int, ...]:
    e = [0] * (n + 1)
    for _ in range(rng.randint(lo, hi)):
        e[rng.randrange(n + 1)] += 1
    return tuple(e)


def _apportion(count: int, shares: dict) -> dict:
    """Split ``count`` by ``shares`` (summing to 1), largest remainders first."""
    exact = {key: count * share for key, share in shares.items()}
    quotas = {key: int(x) for key, x in exact.items()}
    by_remainder = sorted(exact, key=lambda key: (quotas[key] - exact[key], key))
    for key in by_remainder[: count - sum(quotas.values())]:
        quotas[key] += 1
    return quotas


def _systematic(rng: random.Random, candidates: list, count: int, key) -> list:
    """``count`` of the candidates, evenly spaced in the order of ``key`` from
    a random start: a sample whose spread in ``key`` matches the candidates'.
    They come back in the candidates' own order."""
    ranked = sorted(range(len(candidates)), key=lambda i: (key(candidates[i]), i))
    step = len(ranked) / count
    start = rng.random() * step
    chosen = sorted(ranked[int(start + i * step)] for i in range(count))
    return [candidates[i] for i in chosen]


def _strip_context(payload):
    if isinstance(payload, dict):
        return {k: _strip_context(v) for k, v in payload.items() if k != "context"}
    if isinstance(payload, list):
        return [_strip_context(v) for v in payload]
    return payload


# ---------------------------------------------------------------------------
# sweep: the paper's zero-violation sweep, one random_submodule per op


class Sweep:
    """One op is every checker report for one ``random_submodule(k)``.

    The ks are drawn in order from ``seed * 10**6`` on, and each is kept while
    the quota of its stratum (n, number of nonzero proper ideal components)
    has room.  The quotas are the strata's shares under ``random_submodule``'s
    own distribution: n and the component count m uniform in 1..3, and each
    component a proper nonzero ideal with probability 0.6."""

    name = "sweep"
    cycle = 1
    MAX_N = 3
    MAX_M = 3
    P_IDEAL = 0.6

    @classmethod
    def strata(cls) -> dict[tuple[int, int], float]:
        shares = {}
        for n in range(1, cls.MAX_N + 1):
            for m in range(1, cls.MAX_M + 1):
                for j in range(m + 1):
                    p = comb(m, j) * cls.P_IDEAL ** j * (1 - cls.P_IDEAL) ** (m - j)
                    shares[(n, j)] = shares.get((n, j), 0.0) + p / (cls.MAX_N * cls.MAX_M)
        return shares

    @staticmethod
    def stratum(k: int) -> tuple[int, int]:
        from gotzmann.theorems import random_submodule

        module = random_submodule(k)
        proper = sum(1 for ideal in module.components
                     if ideal.gens and any(sum(g.exponents) for g in ideal.gens))
        return module.n, proper

    def inputs(self, seed: int, count: int) -> list[int]:
        quotas = _apportion(count, self.strata())
        base = seed * 1_000_000
        out = []
        for k in range(base, base + 100 * count):
            key = self.stratum(k)
            if quotas.get(key, 0) > 0:
                quotas[key] -= 1
                out.append(k)
                if len(out) == count:
                    return out
        raise RuntimeError(f"strata {quotas} not filled from seed {seed}")

    def run(self, k: int):
        from gotzmann import theorems

        return [
            [r.name, r.verdict, r.bound_lhs, r.bound_rhs]
            for r in theorems.sweep(1, base_seed=k)
        ]

    def check(self, k: int, reports) -> None:
        expect(bool(reports), f"no reports for seed {k}")
        for name, verdict, lhs, rhs in reports:
            expect(verdict != "violated", f"{name} violated on seed {k}")
            if verdict == "sharp":
                expect(lhs == rhs, f"{name} sharp with {lhs} != {rhs}")
            elif verdict == "holds" and lhs is not None:
                expect(lhs < rhs, f"{name} holds with {lhs} >= {rhs}")
            else:
                expect(verdict in ("holds", "premise_fails"), f"{name}: verdict {verdict}")


# ---------------------------------------------------------------------------
# hilbert: Hilbert series and polynomial, adjusted representation, lexify


class Hilbert:
    """One op is the Hilbert data of one mid-size module, then lexify of its
    Hilbert table plus tail and check_sharpness where its premises hold."""

    name = "hilbert"
    cycle = 9
    # candidates drawn per op, for the systematic sample
    OVERSAMPLE = 4

    def inputs(self, seed: int, count: int):
        rng = random.Random(seed)
        # strata: n = 2, 3, 4 and 1, 2, 3 components, in equal shares; each a
        # systematic sample in the number of zero components (free summands
        # raise the Hilbert polynomial's degree) and then the numerator degree
        # bound, which bounds the degrees that the series, the stabilization
        # degree and lexify reach
        cells = [((2, 3, 4)[i % 3], 1 + i // 3 % 3) for i in range(count)]
        picked = {}
        for cell in sorted(set(cells)):
            slots = cells.count(cell)
            candidates = [self._spec(rng, *cell) for _ in range(self.OVERSAMPLE * slots)]
            picked[cell] = iter(_systematic(rng, candidates, slots, key=self._size))
        out = []
        for cell in cells:
            spec = next(picked[cell])
            out.append((spec, _module(spec)))
        return out

    @staticmethod
    def _size(spec: ModuleSpec) -> tuple[int, int]:
        zero = sum(1 for gens in spec.components if gens is None)
        return zero, spec.numerator_degree_bound()

    @staticmethod
    def _spec(rng: random.Random, n: int, m: int) -> ModuleSpec:
        degrees = sorted(rng.choice((-1, 0)) for _ in range(m))
        zero = [m > 1 and rng.random() < 0.25 for _ in range(m)]
        if all(zero):
            zero[rng.randrange(m)] = False
        live = [c for c in range(m) if not zero[c]]
        counts = {c: 1 for c in live}
        for _ in range(rng.randint(4, 14) - len(live)):
            counts[rng.choice(live)] += 1
        comps = [
            None if zero[c] else tuple(_random_gen(rng, n, 1, 3) for _ in range(counts[c]))
            for c in range(m)
        ]
        return ModuleSpec(n, degrees, comps)

    def run(self, item):
        from gotzmann import lex, theorems
        from gotzmann.monomial_algebra import (
            hf_direct,
            hilbert_polynomial,
            hilbert_series,
            rank,
            stabilization_degree,
        )
        from gotzmann.numpoly import adjusted_gotzmann_rep

        _, module = item
        series = hilbert_series(module)
        poly = hilbert_polynomial(module)
        d0 = stabilization_degree(module)
        r = rank(module)
        rep = adjusted_gotzmann_rep(poly, module.n, module.degrees, r)
        s = rep.number
        out = {
            "offset": series.offset,
            "numerator": list(series.numerator),
            "poly": [str(c) for c in poly.coeffs],
            "stab": d0,
            "r": r,
            "free": list(rep.free_degrees),
            "a": list(rep.q.a),
            "lex": None,
            "table_end": None,
            "sharpness": None,
        }
        degrees = module.degrees
        if s <= LEXIFY_MAX_S:
            end = max(d0, degrees[-1])
            table = [(d, hf_direct(module, d)) for d in range(degrees[0], end + 1)]
            lexed = lex.lexify(module.ambient, table, poly)
            out["table_end"] = end
            out["lex"] = [
                None if not ideal.gens else [list(g.exponents) for g in ideal.gens]
                for ideal in lexed.components
            ]
        m = len(degrees)
        if (
            m - r >= 1
            and degrees[m - r - 1] == 0
            and s >= degrees[-1]
            and comb(s + module.n, module.n) <= SHARPNESS_MAX_MONOMIALS
        ):
            report = theorems.check_sharpness(poly, module.ambient, r)
            out["sharpness"] = [report.verdict, report.bound_lhs, report.bound_rhs]
        return out

    def check(self, item, out) -> None:
        spec, _ = item
        n, degrees = spec.n, spec.degrees
        lo = degrees[0]
        top = spec.numerator_degree_bound()
        hi = max(top, out["stab"]) + n + 2
        hf = spec.hf(lo, hi)
        truth = oracles.numerator(hf, n, lo, top)
        series = {out["offset"] + j: c for j, c in enumerate(out["numerator"]) if c}
        expect(series == truth, f"series numerator {series} != counted {truth}")

        def h(d: int) -> int:  # H(F/N, d) vanishes below the first degree
            return hf[d] if d >= lo else 0

        coeffs = [Fraction(c) for c in out["poly"]]
        for d in range(top - n, top + 2):
            expect(oracles.poly_value(coeffs, d) == h(d),
                   f"Hilbert polynomial disagrees with the count at degree {d}")
        d0 = out["stab"]
        if any(hf.values()):
            for d in range(d0, hi + 1):
                expect(oracles.poly_value(coeffs, d) == h(d),
                       f"H != P at degree {d} >= stabilization degree {d0}")
            expect(oracles.poly_value(coeffs, d0 - 1) != h(d0 - 1),
                   f"H = P already at degree {d0 - 1} < stabilization degree {d0}")
        else:
            expect(d0 == lo, f"zero Hilbert function but stabilization degree {d0}")

        r = sum(1 for gens in spec.components if gens is None)
        a = out["a"]
        expect(out["r"] == r, f"rank {out['r']} != {r} zero components")
        expect(out["free"] == list(degrees[len(degrees) - r:]), "wrong free degrees")
        expect(all(x >= y for x, y in zip(a, a[1:])) and all(x >= 0 for x in a),
               f"representation exponents {a} are not non-increasing")
        # at d >= s every binomial argument is nonnegative, where math.comb
        # agrees with the binomial polynomial; n + 1 points pin degree <= n
        big = len(a) + n + 2 + abs(lo)
        for d in range(big, big + n + 1):
            value = sum(comb(d - f + n, n) for f in out["free"])
            value += sum(comb(d + ai - i, ai) for i, ai in enumerate(a))
            expect(value == oracles.poly_value(coeffs, d),
                   f"adjusted representation misses P at degree {d}")

        if out["lex"] is not None:
            lexed = ModuleSpec(n, degrees, out["lex"])
            gen_top = max(
                [f + sum(g) for f, gens in zip(degrees, out["lex"]) for g in gens or ()]
                + [out["table_end"], degrees[-1]]
            )
            end = gen_top + n + 2
            got = oracles.check_lex_module(lexed, lo, end)
            want = spec.hf(lo, end)
            for d in range(lo, end + 1):
                expect(got[d] == want[d], f"lexified H({d}) = {got[d]} != {want[d]}")

        if out["sharpness"] is not None:
            verdict, lhs, rhs = out["sharpness"]
            expect(rhs == len(a), f"sharpness bound {rhs} != Gotzmann number {len(a)}")
            expect(verdict in ("sharp", "premise_fails"), f"sharpness verdict {verdict}")
            if verdict == "sharp":
                expect(lhs == rhs, f"sharp with {lhs} != {rhs}")

    @staticmethod
    def gate_counts(outputs) -> dict[str, int]:
        """How many ops ran lexify and check_sharpness (see the size gates)."""
        done = [out for out in outputs if "error" not in out]
        return {
            "ops": len(done),
            "lexify": sum(1 for out in done if out["lex"] is not None),
            "sharpness": sum(1 for out in done if out["sharpness"] is not None),
        }


# ---------------------------------------------------------------------------
# betti: Betti tables and regularity of single ideals


class Betti:
    """One op is ``koszul_betti(as_quotient=True)`` and ``regularity`` of one
    ideal.  Ops cycle through three classes: random ideals in 4 variables,
    random ideals in 5 variables (the large Koszul rank problems), and
    equigenerated ideals with more than 12 minimal generators, so that both
    sides of the Taylor cap in ``regularity`` run.  The random classes are
    systematic samples in the degree of the generators' lcm, then in their
    mean degree."""

    name = "betti"
    cycle = 6
    # candidates drawn per op of a random class, for the systematic sample
    OVERSAMPLE = 8

    def inputs(self, seed: int, count: int):
        rng = random.Random(seed)
        kinds = [i % 3 if i % 3 < 2 else 2 + i // 3 % 2 for i in range(count)]
        # The random classes' cost grows steeply with the degree of the lcm of
        # the generators and, at equal lcm degree, with their mean degree, so
        # each is a systematic sample in those two.
        picked = {}
        for kind, shape in ((0, (3, 4, 8, 3)), (1, (4, 5, 8, 2))):
            slots = kinds.count(kind)
            candidates = [self._random(rng, *shape) for _ in range(self.OVERSAMPLE * slots)]
            picked[kind] = iter(_systematic(rng, candidates, slots, key=self._size))
        out = []
        for kind in kinds:
            if kind < 2:
                spec = next(picked[kind])
            else:
                spec = self._equigenerated(rng, *((3, 3, 13, 16), (4, 2, 13, 15))[kind - 2])
            out.append((spec, _module(spec)))
        return out

    @staticmethod
    def _size(spec: ModuleSpec) -> tuple[int, float]:
        gens = spec.components[0]
        return spec.numerator_degree_bound(), sum(map(sum, gens)) / len(gens)

    @staticmethod
    def _random(rng: random.Random, n: int, lo: int, hi: int, max_deg: int) -> ModuleSpec:
        gens = {_random_gen(rng, n, 2, max_deg) for _ in range(rng.randint(lo, hi))}
        return ModuleSpec(n, (0,), [tuple(sorted(gens))])

    @staticmethod
    def _equigenerated(rng: random.Random, n: int, degree: int, lo: int, hi: int) -> ModuleSpec:
        pool = list(oracles.monomials(n + 1, degree))
        return ModuleSpec(n, (0,), [tuple(rng.sample(pool, rng.randint(lo, hi)))])

    def run(self, item):
        from gotzmann.resolution import koszul_betti, regularity

        _, module = item
        table = koszul_betti(module, as_quotient=True)
        return {
            "betti": [list(t) for t in table.entries],
            "table_reg": table.regularity(),
            "reg": regularity(module),
        }

    def check(self, item, out) -> None:
        spec, _ = item
        n = spec.n
        top = max([spec.numerator_degree_bound()] + [j for _, j, _ in out["betti"]])
        hf = spec.hf(0, top)
        truth = oracles.numerator(hf, n, 0, top)
        alternating: dict[int, int] = {}
        for i, j, v in out["betti"]:
            expect(v > 0, f"non-positive Betti number at ({i}, {j})")
            alternating[j] = alternating.get(j, 0) + (-1) ** i * v
        alternating = {j: v for j, v in alternating.items() if v}
        expect(alternating == truth,
               f"alternating Betti sum {alternating} != counted numerator {truth}")
        expect(out["table_reg"] == out["reg"],
               f"table regularity {out['table_reg']} != regularity() {out['reg']}")


# ---------------------------------------------------------------------------
# cli: cold-start subprocesses over a fixed mix of cheap subcommands


def _mono_text(exps) -> str:
    parts = []
    for v, e in enumerate(exps):
        if e == 1:
            parts.append(f"x{v}")
        elif e > 1:
            parts.append(f"x{v}^{e}")
    return "*".join(parts) or "1"


def _module_json(spec: ModuleSpec) -> str:
    comps = [
        {"gens": []} if gens is None else {"gens": [_mono_text(g) for g in gens]}
        for gens in spec.components
    ]
    return json.dumps({"n": spec.n, "degrees": list(spec.degrees), "components": comps})


CLI_MIX = (
    "macaulay-transform",
    "green-transform",
    "macaulay-rep",
    "gotzmann-rep",
    "adjusted-rep",
    "hilbert-function",
    "hilbert-polynomial",
    "check-macaulay",
    "rank",
    "saturate",
)


class Cli:
    """One op is one ``python -m gotzmann.cli`` process; ops cycle through
    ``CLI_MIX`` with seeded arguments."""

    name = "cli"
    cycle = 1

    def __init__(self, root: str) -> None:
        self.probe = os.path.join(root, "perfbench", "cli_probe.py")

    def inputs(self, seed: int, count: int):
        rng = random.Random(seed)
        return [self._args(rng, CLI_MIX[i % len(CLI_MIX)]) for i in range(count)]

    @staticmethod
    def _small_module(rng: random.Random) -> ModuleSpec:
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        degrees = sorted(rng.choice((-1, 0)) for _ in range(m))
        comps = [
            None if m > 1 and c == m - 1 and rng.random() < 0.5
            else tuple(_random_gen(rng, n, 1, 4) for _ in range(rng.randint(1, 4)))
            for c in range(m)
        ]
        return ModuleSpec(n, degrees, comps)

    def _args(self, rng: random.Random, kind: str) -> list[str]:
        if kind in ("macaulay-transform", "green-transform", "macaulay-rep"):
            return [kind, str(rng.randint(0, 10_000)), str(rng.randint(1, 8))]
        if kind in ("gotzmann-rep", "adjusted-rep"):
            n = rng.randint(1, 3)
            a = sorted((rng.randint(0, n) for _ in range(rng.randint(0, 8))), reverse=True)
            terms = [{"a": ai, "shift": ai - i} for i, ai in enumerate(a)]
            if kind == "gotzmann-rep":
                return [kind, "--poly", json.dumps({"terms": terms})]
            m = rng.randint(1, 3)
            degrees = sorted(rng.choice((-1, 0)) for _ in range(m))
            r = rng.randint(0, m)
            terms += [{"a": n, "shift": n - f} for f in degrees[m - r:]]
            return [kind, "--poly", json.dumps({"terms": terms}),
                    "--module", json.dumps({"n": n, "degrees": degrees}), "--rank", str(r)]
        spec = self._small_module(rng)
        module = _module_json(spec)
        if kind == "hilbert-function":
            return ["hilbert", "--module", module, "--function", "0", "6"]
        if kind == "hilbert-polynomial":
            return ["hilbert", "--module", module, "--polynomial"]
        if kind == "check-macaulay":
            r = sum(1 for gens in spec.components if gens is None)
            m = len(spec.degrees)
            f_low = spec.degrees[m - r - 1] if m - r >= 1 else spec.degrees[-1]
            degree = f_low + 1 + rng.randint(0, 3)
            return ["check", "macaulay", "--module", module, "--degree", str(degree)]
        return [kind, "--module", module]

    def run(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "gotzmann.cli", *argv],
            capture_output=True, text=True, timeout=60,
        )
        return {"argv": argv[0], "code": proc.returncode, "stdout": proc.stdout}

    def run_probe(self, argv):
        """The same op through ``cli_probe.py``, which reports where the
        process spent its time on its last stderr line."""
        proc = subprocess.run(
            [sys.executable, self.probe, str(time.monotonic_ns()), *argv],
            capture_output=True, text=True, timeout=60,
        )
        timing = json.loads(proc.stderr.strip().splitlines()[-1])
        return {"argv": argv[0], "code": proc.returncode, "stdout": proc.stdout}, timing

    @staticmethod
    def semantic(out):
        text = out["stdout"]
        try:
            payload = json.loads(text)
        except ValueError:
            payload = text
        return [out["argv"], out["code"], _strip_context(payload)]

    def check(self, argv, out) -> None:
        expect(out["code"] == 0, f"exit code {out['code']} for {argv[0]}")
        expected = json.loads(json.dumps(expected_cli_payload(argv)))
        expect(json.loads(out["stdout"]) == expected,
               f"{argv[0]} printed {out['stdout'].strip()!r}, library gives {expected!r}")


def expected_cli_payload(argv: list[str]):
    """The in-process library answer for one CLI call, in the CLI's JSON shape."""
    from gotzmann import combinatorics, monomial_algebra, numpoly, theorems

    def opt(flag):
        return argv[argv.index(flag) + 1]

    kind = argv[0]
    if kind in ("macaulay-transform", "green-transform", "macaulay-rep"):
        a, d = int(argv[1]), int(argv[2])
        if kind == "macaulay-transform":
            return combinatorics.macaulay_transform(a, d)
        if kind == "green-transform":
            return combinatorics.green_transform(a, d)
        rep = combinatorics.macaulay_rep(a, d)
        return {"value": a, "d": rep.d, "terms": [list(t) for t in rep.terms]}
    if kind == "gotzmann-rep":
        poly = numpoly.poly_from_dict(json.loads(opt("--poly")))
        return {"a": list(numpoly.gotzmann_rep(poly).a)}
    if kind == "adjusted-rep":
        poly = numpoly.poly_from_dict(json.loads(opt("--poly")))
        shape = json.loads(opt("--module"))
        rep = numpoly.adjusted_gotzmann_rep(poly, shape["n"], tuple(shape["degrees"]),
                                            int(opt("--rank")))
        return {"free_degrees": list(rep.free_degrees), "n": rep.n,
                "q": {"a": list(rep.q.a)}, "number": rep.number}
    module = monomial_algebra.module_from_dict(json.loads(opt("--module")))
    if kind == "hilbert" and "--function" in argv:
        i = argv.index("--function")
        d0, d1 = int(argv[i + 1]), int(argv[i + 2])
        return {"table": [[d, monomial_algebra.hf_direct(module, d)] for d in range(d0, d1 + 1)]}
    if kind == "hilbert":
        return numpoly.poly_to_dict(monomial_algebra.hilbert_polynomial(module))
    if kind == "check":
        return theorems.check_macaulay_adjusted(module, int(opt("--degree"))).to_dict()
    if kind == "rank":
        return monomial_algebra.rank(module)
    return monomial_algebra.module_to_dict(monomial_algebra.saturate(module))


def get(name: str, root: str):
    if name == "cli":
        return Cli(root)
    return {"sweep": Sweep, "hilbert": Hilbert, "betti": Betti}[name]()


NAMES = ("sweep", "hilbert", "betti", "cli")
