"""Mod-p cohomology rings of elementary abelian p-groups at cochain level.

The library computes with explicit cochain representatives: normalized
cochains on tuples of group elements and, equivalently, linear functionals
on tensor powers of the augmentation ideal.  It realizes every monomial
basis class of the cohomology ring as an explicit cocycle, inverts that
realization by closed formulas evaluated on cochain values, and checks
everything against an independent rank/kernel oracle over F_p.
"""

from .algebra import (
    AlgebraElem,
    compositions,
    count_terms,
    count_terms_closed_form,
    graded_dimension,
    invert,
    invert_class,
    invert_normalized,
    invert_normalized_counted,
    invert_via_shuffles,
    monomial_mul,
    perm_sign,
    realize,
    shuffle_count,
    shuffles,
)
from .cochain import (
    DEFAULT_MAX_ENTRIES,
    BudgetExceededError,
    ICochain,
    NormalizedCochain,
    NotACocycleError,
    Tensor,
    cup_many,
)
from .generators import (
    bockstein_cocycle,
    bockstein_pair_value,
    carry_cocycle,
    carry_cocycle_over_z,
    exponent_cocycle,
    generator_power_cocycle,
    probe_tensor,
    probe_tensor_split,
    probe_tuple,
    q_choices,
)
from .group_ring import (
    INTEGERS,
    MOD_P,
    GroupContext,
    RingElem,
    as_difference_basis,
    augmentation,
    is_prime,
    shifted_generator,
    shifted_monomial,
)

__version__ = "0.1.0"

# Names resolved on first access (PEP 562), so that importing the package
# loads neither the oracle, which needs numpy, nor the block oracle, which
# only ``dims`` and the checks use.
_GRADED_NAMES = frozenset({"CohomologyReport", "cohomology_report"})
_ORACLE_NAMES = frozenset({
    "FpMatrix",
    "classes_equal",
    "cochain_basis",
    "d_matrix",
    "is_coboundary",
    "kernel_basis",
    "random_cocycle",
    "rank",
    "vectorize",
})


def __getattr__(name: str):
    if name in _GRADED_NAMES:
        from . import graded as module
    elif name in _ORACLE_NAMES:
        from . import oracle as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
