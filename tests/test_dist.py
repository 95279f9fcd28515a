import random
from fractions import Fraction as F
from functools import reduce
from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NO_SHRINK, plane_structure_constants, rationals
from nonassoc.catalog import (
    AlgebraTable,
    builtin_algebra,
    loop_from_algebra,
    x_squared_y_loop,
)
from nonassoc.dist import (
    DistBialgebra,
    brackets_invariance_check,
    check_linearized_identity,
    dist_su_ops,
    make_similar_product,
    pbw_span_check,
    random_distribution,
    su_bracket_table,
    su_multioperator_tables,
)
from nonassoc.maps import (
    FormalLoop,
    FormalMap,
    check_loop_identity,
    right_alt_modify,
    similarity_between,
)
from nonassoc.scalars import basis_vector
from nonassoc.symalg import (
    SymElement,
    SymTensor,
    monomial_degree,
    monomial_splits,
    monomials_up_to,
)
from nonassoc.words import parse_identity

MOUFANG = "(x1 * (x2 * (x1 * x3))) = (((x1 * x2) * x1) * x3)"
ASSOC = "((x1 * x2) * x3) = (x1 * (x2 * x3))"
RIGHT_ALT = "(x1 * (x2 * x2)) = ((x1 * x2) * x2)"
LEFT_DIVISION = "(x1 \\ (x1 * x2)) = x2"
RIGHT_DIVISION = "((x2 / x1) * x1) = x2"


@pytest.fixture(scope="module")
def affine_1d():
    table = AlgebraTable(1, (((F(1),),),), {"associative": True})
    return DistBialgebra.from_loop(loop_from_algebra(table, 5))


def mono_elem(dim, mono):
    return SymElement(dim, {mono: F(1)})


# -- the convolution product -----------------------------------------------------------


def test_product_unitality(affine_1d):
    B = affine_1d
    mu = SymElement(1, {(3,): F(2), (1,): F(1), (0,): F(5)})
    assert B.product(mu, B.one()) == mu
    assert B.product(B.one(), mu) == mu


def test_product_chain_rule_example(affine_1d):
    # d_x d_y f(x + y + xy) at 0 equals f'' + f'
    e = affine_1d.basis(0)
    assert affine_1d.product(e, e) == SymElement(1, {(1,): F(1), (2,): F(1)})


def test_product_primitive_part_is_bilinear_component(jordan_loop_4, jordan_bialgebra_4):
    table = builtin_algebra("jordan-k3")
    B = jordan_bialgebra_4
    for i in range(3):
        for j in range(3):
            value = B.product(B.basis(i), B.basis(j)).primitive_part()
            assert value == table.basis_product(i, j)


def test_product_matches_prolongation_route(jordan_loop_4):
    fast = DistBialgebra.from_loop(jordan_loop_4)
    slow = DistBialgebra.from_loop_prolonged(jordan_loop_4)
    for m1 in monomials_up_to(3, 2):
        for m2 in monomials_up_to(3, 2):
            assert fast.product_mono(m1, m2) == slow.product_mono(m1, m2)


def test_product_is_coalgebra_morphism(jordan_bialgebra_4):
    B = jordan_bialgebra_4
    for m1 in monomials_up_to(3, 2):
        for m2 in monomials_up_to(3, 1):
            if sum(m1) + sum(m2) > 3:
                continue
            value = B.product_mono(m1, m2)
            lhs = value.coproduct()
            rhs_terms = {}
            for a1, b1, c1 in monomial_splits(m1):
                for a2, b2, c2 in monomial_splits(m2):
                    left = B.product_mono(a1, a2)
                    right = B.product_mono(b1, b2)
                    for mL, cL in left.terms.items():
                        for mR, cR in right.terms.items():
                            if sum(mL) + sum(mR) > B.N:
                                continue
                            key = (mL, mR)
                            rhs_terms[key] = rhs_terms.get(key, F(0)) + c1 * c2 * cL * cR
            assert lhs == SymTensor((3, 3), rhs_terms)


# -- divisions ----------------------------------------------------------------------------


def test_division_base_cases(affine_1d):
    B = affine_1d
    nu = SymElement(1, {(2,): F(3)})
    assert B.divide(B.one(), nu, "left") == nu
    assert B.divide(nu, B.one(), "right") == nu


def assert_division_laws(B, mu, nu):
    r"""The four counit identities of the divisions, at the distributions mu and nu.

    sum mu_(1) \ (mu_(2) nu) = sum mu_(1) (mu_(2) \ nu) = counit(mu) nu, and
    sum (mu nu_(1)) / nu_(2) = sum (mu / nu_(1)) nu_(2) = counit(nu) mu.
    """
    dim = B.dim
    laws = [SymElement.zero(dim) for _ in range(4)]
    for m1, m2, coeff in mu.coproduct_terms():
        a = mono_elem(dim, m1)
        b = mono_elem(dim, m2)
        laws[0] = laws[0] + B.divide(a, B.product(b, nu), "left").scale(coeff)
        laws[1] = laws[1] + B.product(a, B.divide(b, nu, "left")).scale(coeff)
    for m1, m2, coeff in nu.coproduct_terms():
        a = mono_elem(dim, m1)
        b = mono_elem(dim, m2)
        laws[2] = laws[2] + B.divide(B.product(mu, a), b, "right").scale(coeff)
        laws[3] = laws[3] + B.product(B.divide(mu, a, "right"), b).scale(coeff)
    assert laws[0] == nu.scale(mu.counit())
    assert laws[1] == nu.scale(mu.counit())
    assert laws[2] == mu.scale(nu.counit())
    assert laws[3] == mu.scale(nu.counit())


def test_division_laws_to_truncation(jordan_bialgebra_4):
    rng = random.Random(2)
    for _ in range(4):
        mu = random_distribution(rng, 3, 2)
        nu = random_distribution(rng, 3, 2)
        assert_division_laws(jordan_bialgebra_4, mu, nu)


# distributions on the plane of degree at most 2, so that products stay within N = 4
_plane_distributions = st.dictionaries(
    st.sampled_from(list(monomials_up_to(2, 2))), rationals.filter(bool), min_size=1, max_size=4
).map(lambda terms: SymElement(2, terms))


@settings(max_examples=25, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(constants=plane_structure_constants, mu=_plane_distributions, nu=_plane_distributions)
def test_division_laws_on_random_structure_constants(constants, mu, nu):
    B = DistBialgebra.from_loop(loop_from_algebra(AlgebraTable(2, constants), 4))
    assert_division_laws(B, mu, nu)


@settings(max_examples=12, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(constants=plane_structure_constants)
def test_divisions_are_the_prolonged_division_maps_on_random_structure_constants(constants):
    loop = loop_from_algebra(AlgebraTable(2, constants), 4)
    B = DistBialgebra.from_loop(loop)
    pairs = [
        (m1, m2)
        for m1 in monomials_up_to(2, 4)
        for m2 in monomials_up_to(2, 4 - monomial_degree(m1))
    ]
    for side, entry in (("left", B.ldiv_mono), ("right", B.rdiv_mono)):
        prolonged = loop.division(side).prolongation()
        for m1, m2 in pairs:
            assert entry(m1, m2) == prolonged.at((m1, m2)).truncate(4), (side, m1, m2)


def test_division_matches_prolonged_division_map(octonion_loop_4, octonion_bialgebra_4):
    division = octonion_loop_4.division("left")
    pr = division.prolongation()
    pairs = [
        ((1, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0)),
        ((1, 1, 0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0, 0)),
        ((2, 0, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0)),
        ((0, 0, 1, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 0, 1, 0)),
    ]
    for m1, m2 in pairs:
        assert octonion_bialgebra_4.ldiv_mono(m1, m2) == pr.at((m1, m2)).truncate(4)


def test_abelian_divisions_are_translations():
    zero2 = tuple(tuple((F(0),) * 2 for _ in range(2)) for _ in range(2))
    B = DistBialgebra.from_loop(loop_from_algebra(AlgebraTable(2, zero2, {}), 4))
    mu = SymElement(2, {(2, 0): F(1)})
    nu = SymElement(2, {(0, 1): F(1)})
    total = SymElement.zero(2)
    for m1, m2, coeff in mu.coproduct_terms():
        total = total + B.product(
            mono_elem(2, m1), B.divide(mono_elem(2, m2), nu, "left")
        ).scale(coeff)
    assert total == nu.scale(mu.counit())


# -- primitive operations ---------------------------------------------------------------


def test_su_bracket_table_rejects_a_negative_arity(jordan_bialgebra_4):
    with pytest.raises(ValueError, match="arity must be >= 0"):
        su_bracket_table(jordan_bialgebra_4, -1)


def test_binary_bracket_is_negative_commutator(jordan_bialgebra_4):
    table = builtin_algebra("jordan-k3")
    ops = dist_su_ops(jordan_bialgebra_4)
    for i, j in iter_product(range(3), repeat=2):
        bracket = ops.bracket_vector([], basis_vector(3, i), basis_vector(3, j))
        commutator = tuple(
            a - b for a, b in zip(table.basis_product(i, j), table.basis_product(j, i))
        )
        assert bracket == tuple(-c for c in commutator)


def test_jordan_spin_p_values(spin_bialgebra_6):
    spin = builtin_algebra("jordan-spin-normalized")
    a = spin.distinguished["a"]
    b = spin.distinguished["b"]
    unit = spin.distinguished["unit"]
    ops = dist_su_ops(spin_bialgebra_6)
    assert ops.p([a], [b], b).value == SymElement.from_vector(tuple(2 * c for c in b))
    assert ops.p([a, a], [b], b).value == SymElement.from_vector(
        tuple(-8 * c for c in unit)
    )
    assert ops.p([a, a, a], [b], b).value == SymElement.from_vector(
        tuple(24 * c for c in a)
    )
    assert ops.p([a, a, a, a], [b], b).value.is_zero()


def test_p_vanishes_on_associative_algebras(dual_loop_4):
    ops = dist_su_ops(DistBialgebra.from_loop(dual_loop_4))
    e0, e1 = basis_vector(2, 0), basis_vector(2, 1)
    assert ops.p([e0], [e1], e0).value.is_zero()
    assert ops.p([e0, e1], [e1], e0).value.is_zero()


def test_p_values_are_primitive(jordan_bialgebra_4):
    ops = dist_su_ops(jordan_bialgebra_4)
    vecs = [basis_vector(3, i) for i in range(3)]
    for xs, ys, z in [
        ([vecs[0]], [vecs[1]], vecs[2]),
        ([vecs[0], vecs[1]], [vecs[2]], vecs[0]),
        ([vecs[0]], [vecs[1], vecs[2]], vecs[1]),
    ]:
        assert ops.p(xs, ys, z).is_primitive()


def p_reference(B, xs, ys, z):
    """p by its defining Sweedler sum on whole elements, with no memo."""
    u = reduce(B.product, xs)
    v = reduce(B.product, ys)
    total = SymElement.zero(B.dim)
    for u1, u2, cu in u.coproduct_terms():
        for v1, v2, cv in v.coproduct_terms():
            a, b = mono_elem(B.dim, u2), mono_elem(B.dim, v2)
            assoc = B.product(B.product(a, b), z) - B.product(a, B.product(b, z))
            head = B.product(mono_elem(B.dim, u1), mono_elem(B.dim, v1))
            total = total + B.divide(head, assoc, "left").scale(cu * cv)
    return total


@pytest.mark.parametrize("loop_name", ["jordan_loop_4", "nonlinear_loop_5"])
def test_p_on_rational_combinations_matches_defining_sum(loop_name, request):
    B = DistBialgebra.from_loop(request.getfixturevalue(loop_name))
    ops = dist_su_ops(B)
    rng = random.Random(5)

    def vector():
        return SymElement.from_vector(
            tuple(F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(B.dim))
        )

    for m, n in iter_product((1, 2), repeat=2):
        for _ in range(2):
            xs = [vector() for _ in range(m)]
            ys = [vector() for _ in range(n)]
            z = vector()
            assert ops.p(xs, ys, z).value == p_reference(B, xs, ys, z)


def test_p_requires_primitive_arguments(jordan_bialgebra_4):
    ops = dist_su_ops(jordan_bialgebra_4)
    bad = SymElement(3, {(2, 0, 0): F(1)})
    with pytest.raises(ValueError):
        ops.p([bad], [basis_vector(3, 0)], basis_vector(3, 1))


def test_bracket_antisymmetry_and_multioperator_symmetry(jordan_bialgebra_4):
    ops = dist_su_ops(jordan_bialgebra_4)
    e = [basis_vector(3, i) for i in range(3)]
    for i, j in iter_product(range(3), repeat=2):
        forward = ops.bracket([e[0]], e[i], e[j])
        backward = ops.bracket([e[0]], e[j], e[i])
        assert forward.value == -backward.value
    assert ops.multioperator([e[0], e[1]], [e[2], e[2]]).value == ops.multioperator(
        [e[1], e[0]], [e[2], e[2]]
    ).value


def test_dist_element_wrapper(jordan_bialgebra_4, octonion_bialgebra_4):
    B = jordan_bialgebra_4
    mu = B.element(B.basis(0))
    nu = B.element(B.basis(1))
    assert (mu * nu).value == B.product(mu.value, nu.value)
    assert B.element(B.one()).ldiv(nu).value == nu.value
    assert nu.rdiv(B.element(B.one())).value == nu.value
    assert mu.is_primitive() and not (mu * mu).is_primitive()
    other = octonion_bialgebra_4.element(octonion_bialgebra_4.basis(0))
    with pytest.raises(ValueError):
        mu * other


# -- linearized identities ---------------------------------------------------------------


def test_linearized_right_alternativity_on_modified_loop():
    loop = x_squared_y_loop(5)
    modified = right_alt_modify(loop).modified
    B = DistBialgebra.from_loop(modified)
    verdict = check_linearized_identity(parse_identity(RIGHT_ALT, 2), B, samples=10, seed=3)
    assert verdict.holds
    assert verdict.seed == 3


def test_linearized_associativity_fails_with_witness():
    B = DistBialgebra.from_loop(x_squared_y_loop(5))
    verdict = check_linearized_identity(parse_identity(ASSOC, 3), B, samples=5, seed=1)
    assert not verdict.holds
    assert verdict.witness is not None
    assert verdict.to_json()["witness"]["kind"] in ("monomials", "random")


@pytest.mark.parametrize("seed", range(5))
def test_linearized_sampling_stays_within_the_truncation(seed):
    # F = (x+y)/(1+xy) is associative but not polynomial: sampled tuples above
    # total degree N would read loop components that truncation dropped.
    N = 4
    series = {}
    for k in range(N):
        series[((k + 1,), (k,))] = (F((-1) ** k),)
        series[((k,), (k + 1,))] = (F((-1) ** k),)
    loop = FormalLoop.from_map(FormalMap.from_series((1, 1), 1, N, series))
    assert check_loop_identity(parse_identity(ASSOC, 3), loop).holds
    verdict = check_linearized_identity(
        parse_identity(ASSOC, 3), DistBialgebra.from_loop(loop), samples=25, seed=seed
    )
    assert verdict.holds, verdict.witness


@settings(max_examples=10, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(constants=plane_structure_constants)
def test_loop_mode_agrees_with_bialgebra_mode_on_random_structure_constants(constants):
    # at N = 4 the bialgebra sweep covers every monomial tuple up to N, so the
    # two verdicts agree exactly, not only with high probability
    loop = loop_from_algebra(AlgebraTable(2, constants), 4)
    B = DistBialgebra.from_loop(loop)
    for text, nvars in ((LEFT_DIVISION, 2), (RIGHT_DIVISION, 2), (ASSOC, 3)):
        identity = parse_identity(text, nvars)
        in_loop = check_loop_identity(identity, loop).holds
        in_bialgebra = check_linearized_identity(identity, B, samples=3, seed=0).holds
        assert in_loop == in_bialgebra, text
        assert in_loop or text == ASSOC, text


def test_linearized_moufang_on_associative_loop(dual_loop_4):
    B = DistBialgebra.from_loop(dual_loop_4)
    verdict = check_linearized_identity(parse_identity(MOUFANG, 3), B, samples=5, seed=0)
    assert verdict.holds


def test_random_distribution_is_seed_deterministic():
    a = random_distribution(random.Random(9), 3, 2)
    b = random_distribution(random.Random(9), 3, 2)
    assert a == b


# -- similarity invariance ---------------------------------------------------------------


def test_brackets_invariance_for_modified_jordan(jordan_loop_4, jordan_bialgebra_4):
    modified = right_alt_modify(jordan_loop_4).modified
    assert modified != jordan_loop_4  # content: jordan-k3 is not right alternative
    similarity = similarity_between(modified, jordan_loop_4)
    assert similarity.similar
    B_mod = DistBialgebra.from_loop(modified)
    verdict = brackets_invariance_check(B_mod, jordan_bialgebra_4, similarity.phi)
    assert verdict.holds


def test_brackets_invariance_trivial_case(jordan_loop_4, jordan_bialgebra_4):
    from nonassoc.maps import SimilarityMap

    verdict = brackets_invariance_check(
        jordan_bialgebra_4, jordan_bialgebra_4, SimilarityMap.identity(3, 4)
    )
    assert verdict.holds


def test_similar_products_agree_on_primitive_slot(jordan_bialgebra_4):
    B = jordan_bialgebra_4
    B_zero = make_similar_product(B, {})
    for mono in monomials_up_to(3, 3):
        for j in range(3):
            alpha = SymElement.basis(3, j)
            mu = mono_elem(3, mono)
            assert B_zero.product(mu, alpha) == B.product(mu, alpha)


# -- the prescribed-multioperator construction ----------------------------------------------


def test_make_similar_product_fixed_point(jordan_bialgebra_4):
    B = jordan_bialgebra_4
    rebuilt = make_similar_product(B, su_multioperator_tables(B))
    for m1 in monomials_up_to(3, 4):
        for m2 in monomials_up_to(3, 4):
            if sum(m1) + sum(m2) > 4:
                continue
            assert rebuilt.product_mono(m1, m2) == B.product_mono(m1, m2)


def test_make_similar_product_zero_multioperator(jordan_bialgebra_4):
    B = jordan_bialgebra_4
    B_zero = make_similar_product(B, {})
    assert su_multioperator_tables(B_zero) == {}
    for arity in range(0, 3):
        assert su_bracket_table(B, arity) == su_bracket_table(B_zero, arity)


def test_psi_is_counit_tensor_identity_on_primitives(jordan_bialgebra_4):
    from nonassoc.dist import _PsiBuilder

    builder = _PsiBuilder(jordan_bialgebra_4, lambda mx, my: None)
    for mono in monomials_up_to(3, 3):
        for j in range(3):
            value = builder.psi(mono, tuple(1 if k == j else 0 for k in range(3)))
            if sum(mono) == 0:
                assert value == SymElement.basis(3, j)
            else:
                assert value.is_zero()


def test_make_similar_product_validation(jordan_bialgebra_4):
    with pytest.raises(ValueError):
        make_similar_product(
            jordan_bialgebra_4, {((1, 0, 0), (0, 1, 0)): basis_vector(3, 0)}
        )  # y-degree 1
    with pytest.raises(ValueError):
        make_similar_product(
            jordan_bialgebra_4, {((0, 0, 0), (0, 2, 0)): basis_vector(3, 0)}
        )  # x-degree 0


# -- jordan-specific relations ---------------------------------------------------------------


def _subset_parts(factors):
    n = len(factors)
    for mask in range(2**n):
        inside = tuple(factors[i] for i in range(n) if mask >> i & 1)
        outside = tuple(factors[i] for i in range(n) if not mask >> i & 1)
        yield inside, outside


def test_jordan_derivation_relation(spin_bialgebra_6):
    # p(a, xc, b) = -sum p(c, x_(1), p(a, x_(2), b)) + eps(x)(a, c, b) with the
    # blocks tracked through factor sequences of products of primitives.
    B = spin_bialgebra_6
    ops = dist_su_ops(B)
    spin = builtin_algebra("jordan-spin-normalized")
    a = spin.distinguished["a"]
    b = spin.distinguished["b"]
    rng = random.Random(41)
    for k in (1, 2, 3):
        factors = [
            tuple(F(rng.randint(-1, 1)) for _ in range(3)) for _ in range(k)
        ]
        factors = [f if any(f) else basis_vector(3, 0) for f in factors]
        c = basis_vector(3, rng.randrange(3))
        lhs = ops.p([a], list(factors) + [c], b).value
        rhs = SymElement.zero(3)
        for inside, outside in _subset_parts(factors):
            if not inside:
                continue  # p with an empty middle block vanishes
            inner = ops.p([a], list(outside), b).value if outside else None
            if outside:
                inner_vec = inner.primitive_part()
                rhs = rhs - ops.p([c], list(inside), inner_vec).value
        assert lhs == rhs  # eps(x) = 0 for k >= 1


def test_jordan_associator_relation(spin_bialgebra_6):
    # (a, xc, b) = (a, x, b) c + x (a, c, b) with products in the bialgebra
    B = spin_bialgebra_6
    spin = builtin_algebra("jordan-spin-normalized")
    a = SymElement.from_vector(spin.distinguished["a"])
    b = SymElement.from_vector(spin.distinguished["b"])
    rng = random.Random(13)

    def assoc(x, y, z):
        return B.product(B.product(x, y), z) - B.product(x, B.product(y, z))

    for k in (1, 2, 3):
        x = B.one()
        for _ in range(k):
            x = B.product(x, SymElement.basis(3, rng.randrange(3)))
        c = SymElement.basis(3, rng.randrange(3))
        lhs = assoc(a, B.product(x, c), b)
        rhs = B.product(assoc(a, x, b), c) + B.product(x, assoc(a, c, b))
        assert lhs == rhs


def test_jordan_bracket_relations(spin_bialgebra_6):
    # <c; a, b> = -(a, c, b), and the derivation-style relation for <xc; a, b>
    B = spin_bialgebra_6
    ops = dist_su_ops(spin_bialgebra_6)
    spin = builtin_algebra("jordan-spin-normalized")
    a = spin.distinguished["a"]
    b = spin.distinguished["b"]

    def assoc_vec(x_elem, y_elem, z_elem):
        return (
            B.product(B.product(x_elem, y_elem), z_elem)
            - B.product(x_elem, B.product(y_elem, z_elem))
        )

    for j in range(3):
        c = basis_vector(3, j)
        lhs = ops.bracket([c], a, b).value
        rhs = -assoc_vec(
            SymElement.from_vector(a),
            SymElement.from_vector(c),
            SymElement.from_vector(b),
        )
        assert lhs == rhs
    rng = random.Random(29)
    for k in (1, 2):
        factors = [basis_vector(3, rng.randrange(3)) for _ in range(k)]
        c = basis_vector(3, rng.randrange(3))
        lhs = ops.bracket(list(factors) + [c], a, b).value
        rhs = SymElement.zero(3)
        for inside, outside in _subset_parts(factors):
            inner = ops.bracket(list(outside), a, b)
            if not inner.is_primitive():
                raise AssertionError("inner bracket not primitive")
            value = ops.bracket(list(inside), c, inner.primitive_part())
            rhs = rhs + value.value
        assert lhs == rhs


# -- the filtration rank check -------------------------------------------------------------


def test_pbw_abelian_loop():
    zero1 = (((F(0),),),)
    B = DistBialgebra.from_loop(loop_from_algebra(AlgebraTable(1, zero1, {}), 4))
    verdict = pbw_span_check(B, 4)
    assert verdict.holds


def test_pbw_affine_loop_rank_four(affine_1d):
    verdict = pbw_span_check(affine_1d, 3)
    assert verdict.holds
    assert verdict.ranks[3] == (4, 4)


def test_pbw_jordan_spin_full_rank(spin_bialgebra_6):
    verdict = pbw_span_check(spin_bialgebra_6, 3)
    assert verdict.holds
    assert verdict.ranks[3] == (20, 20)


def test_pbw_degree_bound(affine_1d):
    with pytest.raises(ValueError):
        pbw_span_check(affine_1d, 9)
