"""Shared fixtures, dense-vector helpers and hypothesis strategies of the test suite."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from nonassoc.catalog import builtin_loop
from nonassoc.dist import DistBialgebra

# dense vectors (length-dim tuples of Fractions), as the public API returns them


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_scale(c: Fraction, a):
    return tuple(c * x for x in a)


def vec_is_zero(a) -> bool:
    return all(x == 0 for x in a)


# small rationals, vectors of the plane, and the structure constants of a
# random 2-dimensional algebra (the input of `loop_from_algebra`)
rationals = st.fractions(min_value=-2, max_value=2, max_denominator=3)
plane = st.tuples(rationals, rationals)
plane_structure_constants = st.tuples(st.tuples(plane, plane), st.tuples(plane, plane))


@pytest.fixture(scope="session")
def jordan_loop_4():
    return builtin_loop("jordan-k3-loop", 4)


@pytest.fixture(scope="session")
def jordan_loop_5():
    return builtin_loop("jordan-k3-loop", 5)


@pytest.fixture(scope="session")
def jordan_bialgebra_4(jordan_loop_4):
    return DistBialgebra.from_loop(jordan_loop_4)


@pytest.fixture(scope="session")
def jordan_bialgebra_5(jordan_loop_5):
    return DistBialgebra.from_loop(jordan_loop_5)


@pytest.fixture(scope="session")
def octonion_loop_4():
    return builtin_loop("split-octonion-loop", 4)


@pytest.fixture(scope="session")
def octonion_bialgebra_4(octonion_loop_4):
    return DistBialgebra.from_loop(octonion_loop_4)


@pytest.fixture(scope="session")
def nonlinear_loop_5():
    return builtin_loop("nonlinear-f-loop", 5)


@pytest.fixture(scope="session")
def xsqy_loop_6():
    return builtin_loop("x-squared-y-loop", 6)


@pytest.fixture(scope="session")
def dual_loop_4():
    return builtin_loop("dual-numbers-loop", 4)


@pytest.fixture(scope="session")
def spin_loop_6():
    return builtin_loop("jordan-spin-loop", 6)


@pytest.fixture(scope="session")
def spin_bialgebra_6(spin_loop_6):
    return DistBialgebra.from_loop(spin_loop_6)
