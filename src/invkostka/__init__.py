"""Exact inverse Kostka matrix entries, three ways, with cross-validation.

The package computes the coefficients that expand monomial symmetric
functions over Schur functions: two independent recurrences and a signed
brute-force enumeration, closed forms for structured shapes, the chain
models whose signed counts reproduce the entries, and the mod-p coefficient
rows of Steenrod operations on Chern and Stiefel-Whitney classes.
All arithmetic is exact.
"""

import sys

from .closedforms import (
    FormulaDomainError,
    corollary3,
    corollary4,
    corollary5,
    g_polynomial,
    h_coefficient_check,
    h_polynomial,
    h_polynomial_matrix,
    lemma5,
    lemma6,
)
from .inverse import (
    ChainS,
    ChainT,
    SolutionPair,
    cancellation_zero,
    enumerate_chains_S,
    enumerate_chains_T,
    f_polynomial,
    inv_kostka_bruteforce,
    inv_kostka_duan,
    inv_kostka_er,
    inverse_kostka_matrix,
    kostka_matrix,
    monomial_to_schur,
    solution_pairs,
    tail_reduction,
    verify_corollary1,
)
from .partitions import (
    Partition,
    PartitionParseError,
    WeightMismatchError,
    enumerate_partitions,
    er_reduction,
    last_nonzero_compare,
    remove_part,
    vertical_strip_predecessors,
    vertical_strip_successors,
)
from .steenrod import (
    EPolynomial,
    ModPExpansion,
    epoly_to_polynomial,
    epoly_to_schur,
    expansion_mod,
    giambelli_hook2,
    integral_wu_lift,
    steenrod_P,
    steenrod_Sq,
    wu_rhs,
)
from .symfunc import (
    SchurExpansion,
    SparsePolynomial,
    alternant,
    elementary_symmetric,
    eliminate_last,
    expansion_to_polynomial,
    kostka_number,
    monomial_symmetric,
    pieri_multiply,
    schur,
    staircase,
)
from .unipoly import UniPolynomial
from .verify import VerifyReport, exact_integer_inverse, verify_suite

__version__ = "0.1.0"


# every memo in the package by id, collected once all its modules are imported
# above, so that a wrapper later rebound over a module-level name cannot hide one
_MEMOS = {
    id(obj): obj
    for name, module in list(sys.modules.items()) if name.startswith(__name__ + ".")
    for obj in vars(module).values() if callable(getattr(obj, "cache_clear", None))
}


def clear_caches() -> None:
    """Empty every memo (``functools.lru_cache``) in the package.

    The engines keep their memos for the life of the process; a long-lived
    caller frees that memory with this call, and later calls rebuild what
    they need.
    """
    for memo in _MEMOS.values():
        memo.cache_clear()


# every public name imported above from the package's own modules
__all__ = sorted(
    name
    for name, obj in globals().items()
    if not name.startswith("_") and getattr(obj, "__module__", "").startswith("invkostka")
)
