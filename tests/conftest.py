"""Shared fixtures, dense-vector helpers and hypothesis strategies of the test suite."""

from fractions import Fraction
from itertools import product as iter_product
from math import prod

import pytest
from hypothesis import Phase
from hypothesis import strategies as st

from nonassoc.catalog import builtin_loop
from nonassoc.dist import DistBialgebra
from nonassoc.lincomb import add_into
from nonassoc.maps import FormalMap, multidegree_of
from nonassoc.scalars import ONE, basis_vector, to_dense, zero_vector
from nonassoc.symalg import SymElement, monomial_degree, monomial_splits, monomials_up_to
from nonassoc.words import LDiv, Mul, RDiv, Unit, Var

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

# every phase but shrinking, for properties whose examples are slow: a failure
# is reported as first found, in seconds rather than minutes
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


# the full-image composition: every ordered split of every monomial tuple,
# each part through the full prolongation `Prolongation.at`, nothing pruned


def _ordered_splits(monos, parts):
    """Ordered splits of a monomial tuple into `parts` sub-tuples, with binomial weights."""
    if parts == 1:
        yield (monos,), 1
        return
    for combo in iter_product(*(monomial_splits(mono) for mono in monos)):
        head = tuple(split[0] for split in combo)
        rest = tuple(split[1] for split in combo)
        for tail, weight in _ordered_splits(rest, parts - 1):
            yield (head,) + tail, prod(split[2] for split in combo) * weight


def reference_compose(G, thetas):
    """G(theta_1, ..., theta_m), to compare with `maps.compose`."""
    dims, N = thetas[0].dims, G.N
    prols = [theta.prolongation() for theta in thetas]
    comps = {}
    for monos in iter_product(*(list(monomials_up_to(d, N)) for d in dims)):
        if not 1 <= sum(multidegree_of(monos)) <= N:
            continue
        value = {}
        for parts, weight in _ordered_splits(monos, len(thetas)):
            add_into(value, G.on_elements([p.at(part) for p, part in zip(prols, parts)]), weight)
        if value:
            comps.setdefault(multidegree_of(monos), {})[monos] = to_dense(G.target_dim, value)
    return FormalMap(dims, G.target_dim, N, comps)


# the linearized evaluator without its shortcuts: every slot is split by the
# coproduct at every node, and the children's values are combined with the
# bilinear `B.product` / `B.divide`


def reference_linearized(B, word, monos, memo=None):
    """The value of `word`'s linearization on a monomial tuple, to compare with
    `LinearizedEvaluator.on_monomials`."""
    memo = {} if memo is None else memo
    key = (word, monos)
    if key in memo:
        return memo[key]
    match word:
        case Var(index):
            rest = [m for k, m in enumerate(monos) if k != index - 1]
            out = SymElement.zero(B.dim)
            if all(monomial_degree(m) == 0 for m in rest):
                out = SymElement(B.dim, {monos[index - 1]: ONE})
        case Unit():
            out = B.one() if all(monomial_degree(m) == 0 for m in monos) else SymElement.zero(B.dim)
        case Mul(a, b) | LDiv(a, b) | RDiv(a, b):
            out = SymElement.zero(B.dim)
            for combo in iter_product(*(monomial_splits(m) for m in monos)):
                lv = reference_linearized(B, a, tuple(x for x, _, _ in combo), memo)
                rv = reference_linearized(B, b, tuple(x for _, x, _ in combo), memo)
                if isinstance(word, Mul):
                    value = B.product(lv, rv)
                else:
                    value = B.divide(lv, rv, "left" if isinstance(word, LDiv) else "right")
                out = out + value.scale(prod(w for _, _, w in combo))
    out = out.truncate(B.N)
    memo[key] = out
    return out


# every bracket on basis tuples evaluated directly, mirrored pairs included, to
# compare with the tables of `su_ops.basis_bracket_table`


def reference_bracket_table(dim, arity, entry):
    """{(i_1 .. i_m, j, k): entry([e_{i_1} .. e_{i_m}], e_j, e_k)} on every basis tuple."""
    table = {}
    for idx in iter_product(range(dim), repeat=arity + 2):
        xs = [basis_vector(dim, i) for i in idx[:arity]]
        table[idx] = entry(xs, basis_vector(dim, idx[-2]), basis_vector(dim, idx[-1]))
    return table


# the covariant derivative by its literal formula, through the public dense
# API: the four-fold coproduct as nested splits, and the pulled-back vector
# mu_(3) \* B(mu_(4)) recomputed for every split


def _four_splits(mono):
    for a, rest1, c1 in monomial_splits(mono):
        for b, rest2, c2 in monomial_splits(rest1):
            for c, d, c3 in monomial_splits(rest2):
                yield a, b, c, d, c1 * c2 * c3


def _times_basis(mono, i):
    return mono[:i] + (mono[i] + 1,) + mono[i + 1:]


def reference_covariant_derivative(conn, a, b, mono):
    """nabla_A(B)(mono) = sum B(mu_(1) A(mu_(2))) - (mu_(1) A(mu_(2))) * (mu_(3) \\* B(mu_(4)))."""
    out = zero_vector(conn.dim)
    for m1, m2, coeff in monomial_splits(mono):
        for i, c in enumerate(a.at(m2)):
            if c:
                out = vec_add(out, vec_scale(coeff * c, b.at(_times_basis(m1, i))))
    for m1, m2, m3, m4, coeff in _four_splits(mono):
        pulled = conn.inv_star_vec(m3, b.at(m4))
        for i, c in enumerate(a.at(m2)):
            if c:
                out = vec_add(out, vec_scale(-coeff * c, conn.star_vec(_times_basis(m1, i), pulled)))
    return out


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
