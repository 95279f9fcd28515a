"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every comparison is `==` on rationals (tolerance zero).  Each test prints
one PASS line with its timing; run with `pytest tests/test_acceptance.py -v -s`
to see them as they complete.
"""

import time
from fractions import Fraction as F
from itertools import product as iter_product

from conftest import reference_bracket_table, vec_is_zero
from nonassoc.catalog import builtin_algebra, loop_from_algebra, nonlinear_loop_F, phi_G_to_F
from nonassoc.connection import (
    adapted_field,
    connection_from_loop,
    covariant_derivative,
    ms_bracket_table,
    ms_brackets,
    torsion,
)
from nonassoc.dist import (
    DistBialgebra,
    check_linearized_identity,
    dist_su_ops,
    make_similar_product,
    pbw_span_check,
    random_distribution,
    su_bracket_table,
    su_multioperator_tables,
)
from nonassoc.freealg import (
    fa_associator,
    fa_commutator,
    fa_exp,
    fa_log,
    p_operation,
    su_multioperator_component,
)
from nonassoc.maps import (
    RIGHT_ALTERNATIVE,
    FormalMap,
    check_loop_identity,
    compose,
    multioperator_ms,
    right_alt_modify,
    similarity_between,
)
from nonassoc.catalog import check_homomorphism
from nonassoc.scalars import basis_vector
from nonassoc.symalg import (
    SymElement,
    SymTensor,
    monomial_splits,
    monomials,
    monomials_up_to,
    split_slot,
)
from nonassoc.trees import bernoulli_tree_sum, enumerate_trees
from nonassoc.words import parse_identity

MOUFANG = "(x1 * (x2 * (x1 * x3))) = (((x1 * x2) * x1) * x3)"


def report(number: int, label: str, started: float) -> None:
    print(f"ACCEPTANCE {number:02d} PASS  {label}  ({time.monotonic() - started:.1f}s)")


def test_criterion_01_bernoulli_tree_identity():
    started = time.monotonic()
    for n in range(1, 9):
        assert bernoulli_tree_sum(n) == F((-1) ** (n + 1), n)
    assert len(enumerate_trees(8)) == 429
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s, budget 1s"
    report(1, "tree Bernoulli sums equal (-1)^(n+1)/n for n <= 8", started)


def test_criterion_02_nonassociative_logarithm():
    started = time.monotonic()
    by_trees = fa_log(8)
    by_inversion = fa_log(8, method="inversion")
    assert by_trees == by_inversion
    alg = by_trees.alg
    assert fa_exp(by_trees) == alg.one() + alg.gen(0)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s, budget 30s"
    report(2, "log(1+x) to degree 8: tree sum == series inversion, exp round trip", started)


def test_criterion_03_ms_equals_su(
    octonion_loop_4, octonion_bialgebra_4, jordan_loop_5, jordan_bialgebra_5, nonlinear_loop_5
):
    started = time.monotonic()
    settings = [
        (octonion_loop_4, octonion_bialgebra_4, 4),
        (jordan_loop_5, jordan_bialgebra_5, 5),
        (nonlinear_loop_5, DistBialgebra.from_loop(nonlinear_loop_5), 5),
    ]
    for loop, bialgebra, max_total in settings:
        ops = dist_su_ops(bialgebra)
        dim = loop.dim
        for arity in range(0, max_total - 1):
            su_table = su_bracket_table(bialgebra, arity)
            ms_table = ms_bracket_table(loop, arity)
            # every basis tuple by both routes, the mirrored (y, z) pairs included
            ms_direct = reference_bracket_table(dim, arity, lambda xs, y, z: ms_brackets(loop, xs, y, z))
            su_direct = reference_bracket_table(dim, arity, ops.bracket_vector)
            assert ms_direct == su_direct, (dim, [i for i in ms_direct if ms_direct[i] != su_direct[i]][:1])
            assert su_table == ms_table == ms_direct, (dim, arity)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.2f}s, budget 120s"
    report(3, "connection brackets == primitive-operation brackets on all three loops", started)


def test_criterion_04_jordan_p_values(spin_bialgebra_6):
    started = time.monotonic()
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
    report(4, "spin-factor p values 2b, -8e, 24a, 0", started)


def test_criterion_05_moufang_pipeline(octonion_loop_4, octonion_bialgebra_4):
    started = time.monotonic()
    identity = parse_identity(MOUFANG, 3)
    assert check_loop_identity(identity, octonion_loop_4).holds
    verdict = check_linearized_identity(identity, octonion_bialgebra_4, samples=25, seed=2024)
    assert verdict.holds
    assert verdict.samples == 25
    report(5, "Moufang identity and its linearization on the split-octonion loop", started)


def test_criterion_06_right_alternative_modification(xsqy_loop_6):
    started = time.monotonic()
    loop = xsqy_loop_6
    result = right_alt_modify(loop)
    modified = result.modified
    # q2 = x y^2 + x^3 y^2 in the series view, from the y-degree-2 equation
    assert modified.series_value(((1,), (2,))) == (F(1),)
    assert modified.series_value(((3,), (2,))) == (F(1),)
    # back substitution through the similarity reproduces the original loop
    p1 = FormalMap.slot_projection((1, 1), 0, 6)
    assert compose(modified, [p1, result.similarity]).components == loop.components
    # right alternativity to degree 6
    assert check_loop_identity(parse_identity(RIGHT_ALTERNATIVE, 2), modified).holds

    def power_word(base, k):
        if k == 0:
            return "e"
        text = base
        for _ in range(k - 1):
            text = f"({text} * {base})"
        return text

    for k in range(0, 6):
        for l in range(0, 6):
            if k + l == 0 or k + l > 5:
                continue
            yk, yl = power_word("x2", k), power_word("x2", l)
            identity = parse_identity(f"(x1 * ({yk} * {yl})) = ((x1 * {yk}) * {yl})", 2)
            assert check_loop_identity(identity, modified).holds, (k, l)
    report(6, "right alternative modification of x + y + x^2 y with its power identity", started)


def test_criterion_07_multioperator_bidegree_1_3():
    started = time.monotonic()
    ms = multioperator_ms(4)
    alpha, beta = ms.algebra.gens()
    abb = fa_associator(alpha, beta, beta)
    expected = fa_commutator(beta, abb).scale(F(-1, 12)) + p_operation(
        [alpha], [beta, beta], beta
    ).scale(F(-1, 6))
    actual = ms.component(1, 3)
    assert actual == expected
    symmetrized = su_multioperator_component(alpha, beta, 1, 3)
    assert symmetrized == p_operation([alpha], [beta, beta], beta).scale(F(1, 6))
    assert actual != symmetrized
    report(7, "geodesic (1,3) component matches its closed form and differs from the symmetrized one", started)


def test_criterion_08_similarity_invariance(jordan_loop_4, jordan_bialgebra_4):
    started = time.monotonic()
    loop, bialgebra = jordan_loop_4, jordan_bialgebra_4
    # brackets of the loop and of its right alternative modification agree
    modified = right_alt_modify(loop).modified
    assert modified != loop  # the comparison has content on this loop
    b_modified = DistBialgebra.from_loop(modified)
    similarity = similarity_between(modified, loop)
    assert similarity.similar
    for arity in range(0, 3):  # total degree <= 4
        assert su_bracket_table(b_modified, arity) == su_bracket_table(bialgebra, arity)
    # installing the loop's own multioperator is the identity transformation
    rebuilt = make_similar_product(bialgebra, su_multioperator_tables(bialgebra))
    for m1 in monomials_up_to(3, 4):
        for m2 in monomials_up_to(3, 4):
            if sum(m1) + sum(m2) > 4:
                continue
            assert rebuilt.product_mono(m1, m2) == bialgebra.product_mono(m1, m2)
    # installing zero kills the multioperator and keeps the brackets
    b_zero = make_similar_product(bialgebra, {})
    assert su_multioperator_tables(b_zero) == {}
    for arity in range(0, 3):
        assert su_bracket_table(b_zero, arity) == su_bracket_table(bialgebra, arity)
    report(8, "similar products share brackets; prescribed multioperators install exactly", started)


def test_criterion_09_quotient_homomorphism():
    started = time.monotonic()
    degree = 6
    source = loop_from_algebra(builtin_algebra("jordan-k3"), degree)
    target = nonlinear_loop_F(degree)
    phi = phi_G_to_F(degree)
    assert check_homomorphism(phi, source, target).holds
    report(9, "the quotient map intertwines the two loops to degree 6", started)


def test_criterion_10_structural_suites(
    jordan_loop_4, jordan_bialgebra_4, dual_loop_4, xsqy_loop_6
):
    started = time.monotonic()
    import random

    # coassociativity, cocommutativity and counit laws (d <= 3, degree <= 5)
    for dim in (1, 2, 3):
        for degree in range(0, 6):
            for mono in monomials(dim, degree):
                two = SymElement(dim, {mono: F(1)}).coproduct()
                assert split_slot(two, 0, 2) == split_slot(two, 1, 2)
                assert SymTensor(two.dims, {(b, a): c for (a, b), c in two.terms.items()}) == two
                left = SymElement.zero(dim)
                right = SymElement.zero(dim)
                for m1, m2, coeff in SymElement(dim, {mono: F(1)}).coproduct_terms():
                    left = left + SymElement(dim, {m2: coeff}).scale(
                        F(1) if sum(m1) == 0 else F(0)
                    )
                    right = right + SymElement(dim, {m1: coeff}).scale(
                        F(1) if sum(m2) == 0 else F(0)
                    )
                assert left == SymElement(dim, {mono: F(1)})
                assert right == SymElement(dim, {mono: F(1)})

    # bialgebra compatibility of the convolution product (degree <= 3)
    B = jordan_bialgebra_4
    for m1 in monomials_up_to(3, 2):
        for m2 in monomials_up_to(3, 1):
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

    # all four division laws, in loops (as word identities) and on distributions
    laws = [
        r"(x1 \ (x1 * x2)) = x2",
        r"(x1 * (x1 \ x2)) = x2",
        "((x2 * x1) / x1) = x2",
        "((x2 / x1) * x1) = x2",
    ]
    for loop in (jordan_loop_4, dual_loop_4, xsqy_loop_6):
        for law in laws:
            assert check_loop_identity(parse_identity(law, 2), loop).holds
    rng = random.Random(10)
    for _ in range(3):
        mu = random_distribution(rng, 3, 2)
        nu = random_distribution(rng, 3, 2)
        checks = [SymElement.zero(3) for _ in range(4)]
        for m1, m2, coeff in mu.coproduct_terms():
            a, b = SymElement(3, {m1: F(1)}), SymElement(3, {m2: F(1)})
            checks[0] = checks[0] + B.divide(a, B.product(b, nu), "left").scale(coeff)
            checks[1] = checks[1] + B.product(a, B.divide(b, nu, "left")).scale(coeff)
        for m1, m2, coeff in nu.coproduct_terms():
            a, b = SymElement(3, {m1: F(1)}), SymElement(3, {m2: F(1)})
            checks[2] = checks[2] + B.divide(B.product(mu, a), b, "right").scale(coeff)
            checks[3] = checks[3] + B.product(B.divide(mu, a, "right"), b).scale(coeff)
        assert checks[0] == nu.scale(mu.counit())
        assert checks[1] == nu.scale(mu.counit())
        assert checks[2] == mu.scale(nu.counit())
        assert checks[3] == mu.scale(nu.counit())

    # primitivity of p, bracket antisymmetry, multioperator block symmetry
    ops = dist_su_ops(B)
    e = [basis_vector(3, i) for i in range(3)]
    for xs, ys, z in [
        ([e[0]], [e[1]], e[2]),
        ([e[0], e[1]], [e[2]], e[0]),
        ([e[0]], [e[1], e[2]], e[1]),
    ]:
        assert ops.p(xs, ys, z).is_primitive()
    for i, j in iter_product(range(3), repeat=2):
        assert ops.bracket([e[0]], e[i], e[j]).value == -(
            ops.bracket([e[0]], e[j], e[i]).value
        )
    assert (
        ops.multioperator([e[0], e[1]], [e[2], e[2]]).value
        == ops.multioperator([e[1], e[0]], [e[2], e[2]]).value
    )
    assert (
        ops.multioperator([e[0]], [e[1], e[2]]).value
        == ops.multioperator([e[0]], [e[2], e[1]]).value
    )

    # adapted fields are parallel, and the torsion has its distribution form
    conn = connection_from_loop(jordan_loop_4)
    v = adapted_field(conn, (F(1), F(-1), F(2)))
    w = adapted_field(conn, basis_vector(3, 0))
    nabla = covariant_derivative(conn, v, w)
    for mono in monomials_up_to(3, nabla.max_degree):
        assert vec_is_zero(nabla.at(mono))
    x_vec, y_vec = basis_vector(3, 1), basis_vector(3, 2)
    t = torsion(conn, adapted_field(conn, x_vec), adapted_field(conn, y_vec))
    ex, ey = SymElement.from_vector(x_vec), SymElement.from_vector(y_vec)
    for mono in monomials_up_to(3, t.max_degree):
        m = SymElement(3, {mono: F(1)})
        expected = (
            B.product(B.product(m, ey), ex) - B.product(B.product(m, ex), ey)
        ).primitive_part()
        assert t.at(mono) == expected

    # ordered left-normed products span the filtration to degree 4 (d <= 3)
    one_d = DistBialgebra.from_loop(xsqy_loop_6)
    assert pbw_span_check(one_d, 4).holds
    assert pbw_span_check(jordan_bialgebra_4, 4).holds
    two_d = DistBialgebra.from_loop(dual_loop_4)
    assert pbw_span_check(two_d, 4).holds

    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"criterion 10 took {elapsed:.2f}s, budget 300s"
    report(10, "structural suites: coalgebra laws, divisions, primitivity, connection, PBW", started)
