"""The exception taxonomy: three families and nine leaves, one name per
failure; the CLI maps each family to its exit code."""

import inspect

import pytest

from alleekit import errors

FAMILIES = {
    errors.ConfigError: ("ParseError", "ValidationError", "OutOfRange",
                         "HypothesisFailed"),
    errors.NumericalError: ("NonFinite", "SingularJacobian"),
    errors.ConvergenceError: ("NoRoot", "NoConvergence", "Inconclusive"),
}


def test_all_names_the_root_the_families_and_the_leaves():
    expected = {"ToolkitError", *(f.__name__ for f in FAMILIES)}
    for leaves in FAMILIES.values():
        expected.update(leaves)
    assert sorted(errors.__all__) == sorted(expected)
    assert len(expected) == 13
    # no exception class outside __all__ either
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, Exception)}
    assert defined == expected


@pytest.mark.parametrize("family,leaf", [
    (family, leaf) for family, leaves in FAMILIES.items() for leaf in leaves])
def test_each_leaf_subclasses_exactly_one_family(family, leaf):
    assert family.__bases__ == (errors.ToolkitError,)
    assert getattr(errors, leaf).__bases__ == (family,)
