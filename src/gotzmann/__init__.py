"""Binomial representations of Hilbert functions and polynomials for graded
free modules over polynomial rings, with mechanically checked growth,
hyperplane-restriction, persistence, regularity, and Chern-class bounds.

All arithmetic is exact (integers and fractions); no floating point anywhere.

Each export is loaded from its submodule on first access (PEP 562), so
``import gotzmann`` loads no submodule, and a CLI call loads only the
modules its command uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# export -> the submodule that defines it
_SUBMODULE = {
    "AdjustedGotzmannRep": "numpoly",
    "BettiTable": "resolution",
    "BudgetExceeded": "errors",
    "ChernData": "chern",
    "CheckReport": "theorems",
    "EmbeddingDims": "numpoly",
    "GotzmannRep": "numpoly",
    "GradedFreeModule": "monomial_algebra",
    "HilbertSeries": "monomial_algebra",
    "InvariantViolated": "errors",
    "MacaulayRep": "combinatorics",
    "Monomial": "monomial_algebra",
    "MonomialIdeal": "monomial_algebra",
    "MonomialSubmodule": "monomial_algebra",
    "NonIntegralChern": "errors",
    "NotAchievable": "errors",
    "NotAdmissible": "errors",
    "NumPoly": "numpoly",
    "PreconditionViolated": "errors",
    "RankMismatch": "errors",
    "ZeroModule": "errors",
    "adjusted_gotzmann_rep": "numpoly",
    "adjusted_hf_decomposition": "monomial_algebra",
    "binomial": "combinatorics",
    "binomial_poly": "numpoly",
    "check_chern_bound": "chern",
    "check_gasharov": "theorems",
    "check_gotzmann_regularity_adjusted": "theorems",
    "check_green_adjusted": "theorems",
    "check_macaulay_adjusted": "theorems",
    "check_persistence_adjusted": "theorems",
    "check_sharpness": "theorems",
    "chern_from_hilbert": "chern",
    "generic_hyperplane_hf": "monomial_algebra",
    "gotzmann_number": "numpoly",
    "gotzmann_rep": "numpoly",
    "grassmannian_embedding_dims": "numpoly",
    "green_transform": "combinatorics",
    "hf_direct": "monomial_algebra",
    "hilbert_polynomial": "monomial_algebra",
    "hilbert_series": "monomial_algebra",
    "ideal_from_dict": "monomial_algebra",
    "ideal_to_dict": "monomial_algebra",
    "is_lex_ideal": "lex",
    "is_lex_piece": "lex",
    "koszul_betti": "resolution",
    "lex_segment": "lex",
    "lexify": "lex",
    "macaulay_rep": "combinatorics",
    "macaulay_transform": "combinatorics",
    "module_from_dict": "monomial_algebra",
    "module_to_dict": "monomial_algebra",
    "monomial_from_string": "monomial_algebra",
    "poly_from_dict": "numpoly",
    "poly_to_dict": "numpoly",
    "random_submodule": "theorems",
    "rank": "monomial_algebra",
    "regularity": "resolution",
    "saturate": "monomial_algebra",
    "saturated_lex_ideal": "lex",
    "saturated_lex_module": "lex",
    "series_to_polynomial": "numpoly",
    "stabilization_degree": "monomial_algebra",
    "sweep": "theorems",
}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
