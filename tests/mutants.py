"""Mutation checks: each mutant must make the tests named for it fail.

A mutant is (file, exact snippet, replacement, test node ids), with a name
to report it by.  The runner copies ``src/``, ``tests/`` and
``pyproject.toml`` of the checkout into a temporary directory and runs each
mutant's tests there unmutated, which must pass, and times them.  Then, one
mutant at a time, it writes the replacement over the snippet, which must
occur exactly once in the file, runs that mutant's tests and requires them
to fail, and restores the file.  A mutated run that takes more than
``TIMEOUT_FACTOR`` times the unmutated run of the same tests, and at least
``MIN_TIMEOUT_S``, is stopped and counts as a failure, so a mutant that
makes the library loop costs about a minute, not the whole job.  A snippet
that no longer matches fails the run, and so does a mutant that survives.

Equivalent mutants change no answer, only speed; each is listed with the
argument for that, and its snippet must still match, so the list follows
the code.  Mutants of code that no longer exists are dropped from the list.

Standard library only; pytest runs in a subprocess, with a fixed Hypothesis
seed and no bytecode written.  From the root of the checkout:

    python tests/mutants.py
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_FACTOR = 10
MIN_TIMEOUT_S = 60

MA = "src/gotzmann/monomial_algebra.py"
LEX = "src/gotzmann/lex.py"
RES = "src/gotzmann/resolution.py"
LINALG = "src/gotzmann/linalg.py"
CLI = "src/gotzmann/cli.py"
COMB = "src/gotzmann/combinatorics.py"
THEO = "src/gotzmann/theorems.py"

T_MA = "tests/test_monomial_algebra.py::"
T_LEX = "tests/test_lex.py::"
T_RES = "tests/test_resolution.py::"
T_KEYS = "tests/test_flat_keys.py::"
T_LINALG = "tests/test_linalg.py::"
T_CLI = "tests/test_cli.py::"
T_COMB = "tests/test_combinatorics.py::"
T_THEO = "tests/test_theorems.py::"
STABILITY = (
    T_MA + "test_stability_test_matches_the_oracle_on_random_ideals",
    T_MA + "test_stable_numerator_equals_the_pivot_and_near_misses_fall_through",
    T_RES + "test_is_stable_examples",
)
# the stability test alone, on random ideals, stable closures, their near
# misses and powers of the maximal ideal
STABILITY_ORACLE = (T_MA + "test_stability_test_matches_the_oracle_on_random_ideals",)
LINEAR_QUOTIENTS = (
    T_RES + "test_linear_quotient_table_equals_the_lattice_and_near_misses_fall_through",
    T_RES + "test_linear_quotient_examples",
)
# the runs of a Macaulay representation, against the term-list oracle and
# the one-step scan
RUNS = (
    T_COMB + "test_reconstruction_full_range",
    T_COMB + "test_rep_matches_linear_scan_hypothesis",
    T_COMB + "test_transforms_by_runs_match_the_term_list_oracle",
)
REGULARITY = (
    T_RES + "test_regularity_examples",
    T_RES + "test_regularity_dispatch_agrees_with_koszul",
)
# every report of sweep(500) against the public checker's
SWEEP_EQUALITY = (T_THEO + "test_sweep_shares_values_as_the_public_checkers_compute_them",)
LEXIFY = (
    T_LEX + "test_lexify_module_example",
    T_LEX + "test_lexify_reproduces_hilbert_function",
    T_LEX + "test_lexify_matches_the_per_component_walk",
)


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


class Equivalent(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    argument: str


MUTANTS = (
    # lex ranks and the lex tests
    Mutant(
        "rank summed over all n + 1 variables", MA,
        "    for v in range(n):\n        rank += comb(",
        "    for v in range(n + 1):\n        rank += comb(",
        (T_MA + "test_lex_rank_matches_enumeration", T_LEX + "test_is_lex_ideal"),
    ),
    Mutant(
        "rank without its - 1", MA,
        "rank += comb(left - u[v] - 1 + n - v, n - v)",
        "rank += comb(left - u[v] + n - v, n - v)",
        (T_MA + "test_lex_rank_matches_enumeration", T_LEX + "test_is_lex_ideal"),
    ),
    Mutant(
        "is_lex_ideal without the stability check", LEX,
        "    counts = _stable_counts(ideal.exponents)\n"
        "    if counts is None:\n"
        "        return False\n"
        "    numerator = _stable_numerator(counts)\n",
        "    numerator = _ideal_numerator(ideal.exponents)\n",
        (
            T_LEX + "test_lex_tests_refuse_past_the_node_budget",
            T_LEX + "test_near_misses_are_not_lex_under_a_node_budget_of_one",
        ),
    ),
    Mutant(
        "piece rule compared with dim I_e", LEX,
        "if _lex_rank(low + (e - sum(low),)) != size - 1:",
        "if _lex_rank(low + (e - sum(low),)) != size:",
        (T_LEX + "test_is_lex_piece", T_LEX + "test_is_lex_piece_matches_the_walk_on_random_submodules"),
    ),
    # the stability test
    Mutant(
        "prefix keys looked up from j + 1", MA,
        "for i in range(j, k + 1):",
        "for i in range(j + 1, k + 1):",
        STABILITY,
    ),
    Mutant(
        "exchange lookup without its set check", MA,
        "                if h in members:\n                    continue\n",
        "",
        STABILITY_ORACLE,
    ),
    Mutant(
        "< for <= at a prefix key", MA,
        "if top is not None and top <= h[i]:",
        "if top is not None and top < h[i]:",
        STABILITY,
    ),
    Mutant(
        "last exchange skipped", MA,
        "            w[k] -= 1\n            for j in range(k):",
        "            w[k] -= 1\n            for j in range(k - 1):",
        STABILITY_ORACLE,
    ),
    # the Eliahou-Kervaire numerator and table
    Mutant(
        "numerator sign (-1)^i dropped", MA,
        "- (-1) ** i * count * comb(k, i)",
        "- count * comb(k, i)",
        (T_MA + "test_stable_numerator_equals_the_pivot_and_near_misses_fall_through",),
    ),
    Mutant(
        "numerator without its leading 1", MA,
        "    out = {0: 1}\n    for (d, k), count in counts.items():",
        "    out = {}\n    for (d, k), count in counts.items():",
        (T_MA + "test_stable_numerator_equals_the_pivot_and_near_misses_fall_through",),
    ),
    Mutant(
        "table summand C(k + 1, p)", RES,
        "count * comb(k, p)",
        "count * comb(k + 1, p)",
        (T_RES + "test_ek_tables_match_koszul", T_RES + "test_ek_unit_ideal_convention"),
    ),
    Mutant(
        "table degree not shifted by p", RES,
        "table[p, p + d] = table.get((p, p + d), 0)",
        "table[p, d] = table.get((p, d), 0)",
        (T_RES + "test_ek_tables_match_koszul",),
    ),
    # the linear-quotients base case and the lattice scan
    Mutant(
        "exponent-2 quotient counted as a variable", RES,
        "if not q & (q - 1) and q & unit:",
        "if not q & (q - 1):",
        LINEAR_QUOTIENTS + (T_RES + "test_ideal_table_matches_tuple_oracle",),
    ),
    Mutant(
        "colon supports check skipped", RES,
        "        for q in quotients:\n            if not q & colon:\n                return None\n",
        "",
        LINEAR_QUOTIENTS,
    ),
    Mutant(
        "r_u off by one", RES,
        "key = (sum(gens[i]), colon.bit_count())",
        "key = (sum(gens[i]), colon.bit_count() + 1)",
        LINEAR_QUOTIENTS,
    ),
    Mutant(
        "_ideal_table skipping the stability test", RES,
        "    counts = _stable_counts(gens)\n    if counts is None:\n",
        "    counts = None\n    if counts is None:\n",
        (T_LEX + "test_lex_module_is_read_with_no_pivot_or_lattice",),
    ),
    Mutant(
        "inlined scan without its cone break", RES,
        "                    if facet == simplex:\n                        break\n",
        "",
        (T_RES + "test_relabelling_shares_homology_across_a_corpus",),
    ),
    # the Hilbert record in the submodule's slots
    Mutant(
        "_record not rebuilding on a new generation", MA,
        'if getattr(submodule, "_generation", None) == _generation:',
        'if hasattr(submodule, "_generation"):',
        (T_MA + "test_a_cleared_record_is_rebuilt_on_its_next_read",),
    ),
    Mutant(
        "_numerator made a field", MA,
        '    _fields = ("ambient", "components")\n'
        '    __slots__ = _fields + ("n", "degrees", "_rank", "_numerator", ',
        '    _fields = ("ambient", "components", "_numerator")\n'
        '    __slots__ = _fields + ("n", "degrees", "_rank", ',
        (T_KEYS + "test_equality_is_field_equality", T_MA + "test_copies_carry_no_record"),
    ),
    Mutant(
        "rho window check removed", MA,
        "    if not 0 <= rho <= window:\n",
        "    if False:\n",
        (T_MA + "test_rho_window_check_refuses_a_wrong_numerator",),
    ),
    Mutant(
        "_kernels never stored", MA,
        '        object.__setattr__(submodule, "_kernels", kernels)\n',
        "",
        (T_MA + "test_a_record_dies_with_its_submodule", T_KEYS + "test_equality_is_field_equality"),
    ),
    # lexify by lex successor
    Mutant(
        "a continued run starts after u, not after u x_n", LEX,
        "last = low[:n] + (low[n] + 1,) if fill else None",
        "last = low if fill else None",
        LEXIFY,
    ),
    Mutant(
        "last not reset at a new component", LEX,
        "            c += 1\n            last = None\n",
        "            c += 1\n",
        LEXIFY,
    ),
    Mutant(
        "the new partial piece's last monomial not carried", LEX,
        "            last = run[-1]\n",
        "",
        LEXIFY,
    ),
    Mutant(
        "a run starts at last, not at its successor", LEX,
        "return _lex_run(last, 2)[1] if last else",
        "return last if last else",
        LEXIFY,
    ),
    Mutant(
        "regularity without its homological shift", RES,
        "j - i - as_quotient + f for i, j, _ in",
        "j - i + f for i, j, _ in",
        REGULARITY,
    ),
    Mutant(
        "regularity without beta_{0,f}", RES,
        "            tops.append(f)  # beta_{0,f}\n",
        "",
        REGULARITY,
    ),
    # Macaulay representations by runs, and the upper-index search
    Mutant(
        "run bisection stopping one early", COMB,
        "while good - bad > 1:",
        "while good - bad > 2:",
        RUNS,
    ),
    Mutant(
        "remainder after a long run off by one", COMB,
        "rem = comb(good + c, c + 1) - need",
        "rem = comb(good + c, c + 1) - need + 1",
        RUNS,
    ),
    Mutant(
        "runs never continued to index 1", COMB,
        "if rem and lo > 1 and",
        "if rem and lo > 2 and",
        RUNS,
    ),
    Mutant(
        "Green run's low end off by one", COMB,
        "comb(lo + c - 1, c)",
        "comb(lo + c, c)",
        (
            T_COMB + "test_transform_values",
            T_COMB + "test_transforms_match_the_representation_sums",
            T_COMB + "test_transforms_by_runs_match_the_term_list_oracle",
        ),
    ),
    Mutant(
        "upper-index bisection with < for <=", COMB,
        "        if comb(mid, j) <= b:\n",
        "        if comb(mid, j) < b:\n",
        (
            T_COMB + "test_largest_upper_index_brackets_b",
            T_COMB + "test_largest_upper_index_around_the_central_binomial",
        ),
    ),
    # lexify's degree loop
    Mutant(
        "components at their degree not live (< for <=)", LEX,
        "while live < m and degrees[live] <= d:",
        "while live < m and degrees[live] < d:",
        LEXIFY,
    ),
    Mutant(
        "tail differences updated bottom up", LEX,
        "for i in range(len(nabla) - 2, -1, -1):",
        "for i in range(len(nabla) - 1):",
        LEXIFY,
    ),
    # exact rank, record generations and the pivot recursion's base case
    Mutant(
        "rank without the b scaling (row <- row - a * pivot)", LINALG,
        "            if b != 1:\n                row = {j: b * y for j, y in row.items()}\n",
        "",
        (
            T_LINALG + "test_rank_exact_low_rank_products",
            T_LINALG + "test_rank_matches_fraction_oracle_property",
        ),
    ),
    Mutant(
        "_clear_records not bumping the generation", MA,
        "    global _generation, _reads, _builds\n    _generation += 1\n",
        "    global _generation, _reads, _builds\n",
        (T_MA + "test_a_cleared_record_is_rebuilt_on_its_next_read",),
    ),
    Mutant(
        "base-case colon exponent a_v read as a_v, not a_v - m_v", MA,
        "_power_product(sum(g) - sum(map(min, g, m)) for g in powers)",
        "_power_product(sum(g) for g in powers)",
        (T_MA + "test_one_mixed_generator_is_a_base_case",),
    ),
    # sweep's values read once per degree, and its growth memo
    Mutant(
        "persistence premise read at d + 1", THEO,
        "yield _persistence_report(submodule, d, f_low, growth, pair)",
        "_adjusted_growth(submodule, f_low, growth, d + 1, d + 1)\n"
        "                yield _persistence_report(submodule, d, f_low, growth, growth[d + 1][:2])",
        SWEEP_EQUALITY,
    ),
    Mutant(
        "a growth step carrying rho(e), not rho(e + 1)", THEO,
        "_growth(e - f_low, rho, h_next, rho_next) + (rho_next,)",
        "_growth(e - f_low, rho, h_next, rho_next) + (rho,)",
        SWEEP_EQUALITY,
    ),
    Mutant(
        "Gasharov-green report reading the hyperplane at d - 1", THEO,
        "_restriction(index, hyperplane, h_prev, h_prev, h, h))",
        "_restriction(index, h_prev - _hf(submodule, d - 2) + _kernel_term(submodule, d - 1),\n"
        "                                                    h_prev, h_prev, h, h))",
        SWEEP_EQUALITY,
    ),
    Mutant(
        "Macaulay context's rho read at d + 1", THEO,
        "yield _macaulay_report(submodule, d, r, f_low, rho, pair)",
        "yield _macaulay_report(submodule, d, r, f_low, rho_next, pair)",
        SWEEP_EQUALITY,
    ),
    # the values computed where they are read, from H the caller holds
    Mutant(
        "rho at e + 1 computed from H(e)", THEO,
        "rho_next = _rho(submodule, e + 1, h_next)",
        "rho_next = _rho(submodule, e + 1, h)",
        SWEEP_EQUALITY,
    ),
    Mutant(
        "kernel term read at d - 1", THEO,
        "hyperplane = h - h_prev + _kernel_term(submodule, d)",
        "hyperplane = h - h_prev + _kernel_term(submodule, d - 1)",
        SWEEP_EQUALITY,
    ),
    Mutant(
        "sweep's first difference using h_next", THEO,
        "hyperplane = h - h_prev + ",
        "hyperplane = h_next - h + ",
        SWEEP_EQUALITY,
    ),
    # the bound kernels, report equality and the CLI's digit count
    Mutant(
        "_restriction without its d - 1 terms", THEO,
        "h - rho - h_prev + rho_prev + green_transform(rho, index)",
        "h - rho + green_transform(rho, index)",
        (T_THEO + "test_free_parts_read_off_the_rows_are_the_free_dimensions",),
    ),
    Mutant(
        "_growth's free part read with rho at d", THEO,
        "h_next - rho_next + macaulay_transform(rho, index)",
        "h_next - rho + macaulay_transform(rho, index)",
        (T_THEO + "test_free_parts_read_off_the_rows_are_the_free_dimensions",),
    ),
    Mutant(
        "CheckReport.__eq__ returning NotImplemented", THEO,
        "        return other.__class__ is self.__class__ and self._get(self) == self._get(other)\n",
        "        if other.__class__ is not self.__class__:\n"
        "            return NotImplemented\n"
        "        return self._get(self) == self._get(other)\n",
        (T_THEO + "test_a_report_never_equals_a_plain_tuple_of_its_items",),
    ),
    Mutant(
        "_refuse_long_ints stepping its digit count by 2", CLI,
        "            digits += 1\n",
        "            digits += 2\n",
        (T_CLI + "test_refused_numbers_are_named_with_their_digit_count",),
    ),
    # the process entry
    Mutant(
        "main() freezing the heap itself", CLI,
        "    if argv is None:\n        argv = sys.argv[1:]\n",
        "    gc.freeze()\n    if argv is None:\n        argv = sys.argv[1:]\n",
        (T_CLI + "test_main_in_process_leaves_the_collector_alone",),
    ),
)

EQUIVALENT = (
    Equivalent(
        "stability test without the x_0^d comparison", MA,
        "    if gens[0][0] != d:\n        return None\n",
        "",
        "a hit is a generator dividing the exchange, so the pass accepts only "
        "stable ideals; one whose first generator is not x_0^d lacks x_0^d, "
        "is not stable and is refused later in the pass; only speed changes",
    ),
    Equivalent(
        "one-degree ideals walked forward", MA,
        "order = gens[::-1] if sum(gens[-1]) == d else gens",
        "order = gens",
        "in an ideal of one degree no generator divides an exchange but the "
        "exchange itself, which the set lookup finds, so no key lookup hits "
        "in either order, and the order decides only where a refusal stops",
    ),
    Equivalent(
        "largest exponent kept per prefix key", MA,
        "keys[u[:k]] = u[k]",
        "keys[u[:k]] = max(keys.get(u[:k], 0), u[k])",
        "no two minimal generators share a key (of two, one would divide the "
        "other), so each key is set once",
    ),
    Equivalent(
        "growth steps never read off the step before", THEO,
        "            if e - 1 in growth:\n",
        "            if False:\n",
        "the step at e - 1 holds H(e) and rho(e) as computed from the same "
        "record, so computing them again gives the same step; only speed changes",
    ),
)


def _run_tests(copy: Path, tests: tuple[str, ...], timeout: float | None = None) -> int:
    """pytest's exit code on the tests in the copy, or -1 when the run is
    stopped at the timeout (in seconds; None waits)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", *tests,
    ]
    try:
        done = subprocess.run(
            command, cwd=copy, env=env, capture_output=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return -1
    return done.returncode


def main() -> int:
    mutants = list(MUTANTS)
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        for m in mutants + list(EQUIVALENT):
            count = (copy / m.file).read_text().count(m.snippet)
            if count != 1:
                problems.append(f"{m.name}: snippet found {count} times in {m.file}")
        if problems:
            print("\n".join(problems))
            return 1
        # each set of named tests, run once unmutated, sizes the timeout of
        # every mutant that names it
        timeouts = {}
        for tests in dict.fromkeys(m.tests for m in mutants):
            start = time.perf_counter()
            if _run_tests(copy, tests) != 0:
                print(f"the named tests fail on the unmutated copy: {' '.join(tests)}")
                return 1
            timeouts[tests] = max(MIN_TIMEOUT_S, TIMEOUT_FACTOR * (time.perf_counter() - start))
        for m in mutants:
            path = copy / m.file
            original = path.read_text()
            path.write_text(original.replace(m.snippet, m.replacement))
            code = _run_tests(copy, m.tests, timeouts[m.tests])
            path.write_text(original)
            # 0: every test passed; 5: none was collected
            killed = code not in (0, 5)
            how = f" (stopped after {timeouts[m.tests]:.0f} s)" if code == -1 else ""
            print(f"{'killed' if killed else 'SURVIVED'}: {m.name}{how}", flush=True)
            if not killed:
                problems.append(m.name)
    for e in EQUIVALENT:
        print(f"equivalent: {e.name}: {e.argument}")
    print(f"{len(mutants) - len(problems)} of {len(mutants)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
