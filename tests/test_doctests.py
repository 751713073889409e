"""Keep the docstring examples honest."""

import doctest

import icochains.generators
import icochains.group_ring
import icochains.inverse


def test_doctests():
    for module in (icochains.group_ring, icochains.generators, icochains.inverse):
        result = doctest.testmod(module)
        assert result.attempted > 0, module.__name__
        assert result.failed == 0, module.__name__
