"""Mod-p cohomology rings of elementary abelian p-groups at cochain level.

The library computes with explicit cochain representatives: normalized
cochains on tuples of group elements and, equivalently, linear functionals
on tensor powers of the augmentation ideal.  It realizes every monomial
basis class of the cohomology ring as an explicit cocycle, inverts that
realization by closed formulas evaluated on cochain values, and checks
everything against an independent rank/kernel oracle over F_p.

Every public name is resolved on first access (PEP 562) from the
submodule that defines it, so importing the package loads no submodule:
a CLI process compiles only the modules its command runs, and only
``d`` (the coboundary kernel) loads numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": (
        "AlgebraElem", "compositions", "count_terms", "count_terms_closed_form",
        "invert", "invert_normalized", "invert_normalized_counted", "monomial_mul",
        "realize",
    ),
    "cochain": ("ICochain", "NormalizedCochain", "cup_many"),
    "generators": (
        "bockstein_cocycle", "bockstein_pair_value", "exponent_cocycle", "probe_tensor",
        "probe_tensor_split", "q_choices",
    ),
    "graded": ("CohomologyReport", "cohomology_report", "graded_dimension"),
    "group_ring": (
        "DEFAULT_MAX_ENTRIES", "INTEGERS", "MOD_P", "BudgetExceededError",
        "GroupContext", "NotACocycleError", "is_prime", "shifted_monomial",
    ),
    "oracle": (
        "classes_equal", "cochain_basis", "is_coboundary", "random_cocycle",
    ),
}

# public name -> the submodule it is read from
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(_MODULE_OF))
