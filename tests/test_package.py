"""The public surface of the package: what it exports, and what it no longer does."""

import inspect

import pytest

import icochains
from icochains import cochain, generators, group_ring

EAGER_NAMES = {
    "AlgebraElem", "BudgetExceededError", "DEFAULT_MAX_ENTRIES", "GroupContext",
    "ICochain", "INTEGERS", "MOD_P", "NormalizedCochain", "NotACocycleError",
    "RingElem", "Tensor", "as_difference_basis", "augmentation", "bockstein_cocycle",
    "bockstein_pair_value", "carry_cocycle", "carry_cocycle_over_z", "compositions",
    "count_terms", "count_terms_closed_form", "cup_many", "exponent_cocycle",
    "generator_power_cocycle", "graded_dimension", "invert", "invert_class",
    "invert_normalized", "invert_normalized_counted", "invert_via_shuffles",
    "is_prime", "monomial_mul", "perm_sign", "probe_tensor", "probe_tensor_split",
    "probe_tuple", "q_choices", "realize", "shifted_generator", "shifted_monomial",
    "shuffle_count", "shuffles",
}
ORACLE_NAMES = {
    "FpMatrix", "classes_equal", "cochain_basis", "d_matrix", "is_coboundary",
    "kernel_basis", "random_cocycle", "rank", "vectorize",
}
GRADED_NAMES = {"CohomologyReport", "cohomology_report"}

# Helpers that no command, no acceptance criterion and no part of the
# paper's trivial-module construction used, with the module each lived in.
REMOVED = {
    "signed_permute": cochain, "perm_compose": cochain, "perm_inverse": cochain,
    "Action": cochain, "binomial_mod_p": generators,
    "in_augmentation_ideal": group_ring, "ShiftedPolynomial": group_ring,
    "to_shifted_basis": group_ring, "from_shifted_basis": group_ring,
    "MultiIndex": group_ring,
}


def test_public_names_are_pinned():
    eager = {name for name, value in vars(icochains).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert eager == EAGER_NAMES
    assert icochains._ORACLE_NAMES == ORACLE_NAMES
    assert icochains._GRADED_NAMES == GRADED_NAMES


def test_lazy_names_resolve():
    for name in sorted(ORACLE_NAMES | GRADED_NAMES):
        assert getattr(icochains, name) is not None, name


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_are_gone(name):
    with pytest.raises(AttributeError):
        getattr(icochains, name)
    assert not hasattr(REMOVED[name], name)
