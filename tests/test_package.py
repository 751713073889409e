"""The public surface of the package: what it exports, and what it no longer does."""

import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import icochains
from icochains import algebra, cli, cochain, generators, graded, group_ring, oracle

# Every public name, by the submodule it is read from on first access.
PUBLIC_NAMES = {
    "algebra": {
        "AlgebraElem", "compositions", "count_terms", "count_terms_closed_form", "invert",
        "invert_normalized", "invert_normalized_counted", "monomial_mul", "realize",
    },
    "cochain": {"ICochain", "NormalizedCochain", "cup_many"},
    "generators": {
        "bockstein_cocycle", "bockstein_pair_value", "exponent_cocycle", "probe_tensor",
        "probe_tensor_split", "q_choices",
    },
    "graded": {"CohomologyReport", "cohomology_report", "graded_dimension"},
    "group_ring": {
        "BudgetExceededError", "DEFAULT_MAX_ENTRIES", "GroupContext", "INTEGERS", "MOD_P",
        "NotACocycleError", "is_prime", "shifted_monomial",
    },
    "oracle": {"classes_equal", "cochain_basis", "is_coboundary", "random_cocycle"},
}
MODULE_OF = {name: module for module, names in PUBLIC_NAMES.items() for name in names}

# Helpers that no command, no acceptance criterion and no part of the
# paper's trivial-module construction used, with the module each lived in.
# Ideal elements have one form, a dict on the difference basis, so the
# group-ring class and its conversions are gone.  The degree-2 generator has
# one builder, ``bockstein_cocycle``, so the carry cocycles and the mod-p
# reduction they ran through are gone, and so are the second builders of
# generator powers and split probes.  No command reads an algebra document.
# The dense oracle keeps its matrices as plain lists of sparse columns and
# its vectors as sparse dicts, so the matrix type and the dense-vector
# conversions are gone.
REMOVED = {
    "signed_permute": cochain, "perm_compose": cochain, "perm_inverse": cochain,
    "Action": cochain, "binomial_mod_p": generators,
    "in_augmentation_ideal": group_ring, "ShiftedPolynomial": group_ring,
    "to_shifted_basis": group_ring, "from_shifted_basis": group_ring,
    "MultiIndex": group_ring, "NormExpansion": group_ring,
    "invert_via_shuffles": algebra, "invert_class": algebra,
    "perm_sign": algebra, "shuffle_count": algebra, "shuffles": algebra,
    "RingElem": group_ring, "Tensor": cochain, "augmentation": group_ring,
    "as_difference_basis": group_ring, "shifted_generator": group_ring,
    "carry_cocycle": generators, "carry_cocycle_over_z": generators,
    "generator_power_cocycle": generators, "probe_tuple": generators,
    "mod_p": cochain.ICochain,
    "parse_algebra_document": cli, "from_dense": oracle, "unit": algebra.AlgebraElem,
    "FpMatrix": oracle, "vectorize": oracle, "cochain_from_vector": oracle,
}


def test_public_names_are_pinned():
    assert icochains._MODULE_OF == MODULE_OF
    assert icochains.__all__ == sorted(MODULE_OF)
    assert set(MODULE_OF) <= set(dir(icochains))
    # importing the package loads none of the modules the names live in
    probe = "import sys, icochains; print(sorted(m for m in sys.modules if 'icochains.' in m))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=60)
    assert result.stdout == "[]\n", result.stderr


def test_lazy_names_resolve():
    for name, module in MODULE_OF.items():
        assert getattr(icochains, name) is getattr(sys.modules[f"icochains.{module}"], name)
    namespace: dict = {}
    exec("from icochains import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(MODULE_OF)
    # each name is read from the module that defines it; none of these
    # modules re-exports a name it does not use
    for module, names in ((cochain, ("DEFAULT_MAX_ENTRIES", "BudgetExceededError",
                                     "NotACocycleError")),
                          (graded, ("BudgetExceededError",)),
                          (oracle, ("CohomologyReport", "cohomology_report",
                                    "DEFAULT_MAX_ENTRIES", "BudgetExceededError"))):
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
    # one inverse map serves both cochain kinds, under both names
    assert algebra.invert_normalized is algebra.invert


def test_readme_lists_every_public_name():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    # the bulleted paragraph after the line that introduces it
    bullets = readme[readme.index("The package exports"):].split("\n\n")[1]
    listed = {}
    for line in re.split(r"^\* ", bullets, flags=re.M)[1:]:
        module, names = line.split(":", 1)
        listed[module.strip("`")] = set(re.findall(r"`(\w+)`", names))
    assert listed == PUBLIC_NAMES


def test_no_export_takes_a_budget():
    # the entry budget is the constant DEFAULT_MAX_ENTRIES; no public
    # function, class or method takes a parameter that changes it
    callables = []
    for names in icochains._EXPORTS.values():
        for name in names:
            obj = getattr(icochains, name)
            if callable(obj):
                callables.append((name, obj))
            if inspect.isclass(obj):
                callables += [(f"{name}.{attr}", getattr(obj, attr)) for attr in vars(obj)
                              if callable(getattr(obj, attr))]
    assert any(name == "AlgebraElem.monomial" for name, _ in callables)
    for name, obj in callables:
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # builtins without a signature
            continue
        assert not {"max_entries", "budget"} & set(parameters), name


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_are_gone(name):
    with pytest.raises(AttributeError):
        getattr(icochains, name)
    assert not hasattr(REMOVED[name], name)


def test_removed_parameters_are_gone():
    # every document vector is a key slot, so none may be the identity
    assert "allow_zero" not in inspect.signature(cli._check_vector).parameters


def test_one_cochain_class():
    # a normalized cochain stores the same values as the ideal-tensor
    # functional, so it is the same class and nothing converts between them
    assert cochain.NormalizedCochain is cochain.ICochain
    for name in ("to_icochain", "to_normalized"):
        assert not hasattr(cochain.ICochain, name)
    assert not hasattr(cochain, "_Cochain")
