import random
from fractions import Fraction as F
from functools import lru_cache, reduce
from itertools import permutations, product as iter_product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NO_SHRINK,
    ReferencePsiBuilder,
    is_canonical,
    plane,
    plane_structure_constants,
    rationals,
    reference_linearized,
    reference_multioperator,
    reference_similar_product,
)
from nonassoc import dist, su_ops
from nonassoc.catalog import (
    AlgebraTable,
    builtin_algebra,
    builtin_loop,
    loop_from_algebra,
    x_squared_y_loop,
)
from nonassoc.dist import (
    DistBialgebra,
    LinearizedEvaluator,
    _rank,
    brackets_invariance_check,
    check_linearized_identity,
    dist_su_ops,
    make_similar_product,
    pbw_span_check,
    random_distribution,
    su_bracket_table,
    su_multioperator_tables,
)
from nonassoc.freealg import FreeAlgebra
from nonassoc.lincomb import add_into
from nonassoc.maps import (
    MEMORY_CAP_ENV,
    FormalLoop,
    FormalMap,
    SimilarityMap,
    check_loop_identity,
    right_alt_modify,
    similarity_between,
    tensor_monomials,
)
from nonassoc.scalars import basis_vector
from nonassoc.su_ops import basis_bracket_table
from nonassoc.symalg import (
    SymElement,
    SymTensor,
    basis_monomial,
    monomial_degree,
    monomial_letters,
    monomial_splits,
    monomials,
    monomials_up_to,
    unit_monomial,
)
from nonassoc.words import LDiv, Mul, RDiv, Unit, Var, parse_identity

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


@pytest.mark.parametrize("loop_name", ["nonlinear_loop_5", "xsqy_loop_6"])
def test_product_matches_prolongation_route_on_wider_support(loop_name, request):
    # components above (1, 1): nonlinear-f at (2, 1), (1, 2), (2, 3), (3, 2); x^2 y at (2, 1)
    loop = request.getfixturevalue(loop_name)
    fast = DistBialgebra.from_loop(loop)
    slow = DistBialgebra.from_loop_prolonged(loop)
    # up to total degree N + 1, where a tail of degree N meets the front F itself:
    # the recursion on ids, which `product_mono` stores as it is, builds no term above N.
    # A monomial above N has no id, so its product raises instead of reading as zero.
    index = fast._index
    above = (loop.N + 1,) + (0,) * (loop.dim - 1)
    for B in (fast, slow):
        with pytest.raises(ValueError, match="beyond the truncation"):
            B.product_mono(unit_monomial(loop.dim), above)
    for m1 in monomials_up_to(loop.dim, loop.N):
        for m2 in monomials_up_to(loop.dim, min(loop.N, loop.N + 1 - sum(m1))):
            expected = slow.product_mono(m1, m2)
            assert fast.product_mono(m1, m2) == expected, (m1, m2)
            value = fast._product_fn(index.id(m1), index.id(m2))
            assert index.to_monomials(value) == expected.terms, (m1, m2)


# series coefficients of a plane loop at (1, 1), (2, 1), (1, 2) and (2, 2),
# on top of the unital components
_PLANE_UNIT = {
    ((1, 0), (0, 0)): (1, 0),
    ((0, 1), (0, 0)): (0, 1),
    ((0, 0), (1, 0)): (1, 0),
    ((0, 0), (0, 1)): (0, 1),
}
_PLANE_WIDE = [
    monos for md in ((1, 1), (2, 1), (1, 2), (2, 2)) for monos in tensor_monomials((2, 2), md)
]
wide_plane_loops = st.lists(plane, min_size=len(_PLANE_WIDE), max_size=len(_PLANE_WIDE)).map(
    lambda values: FormalLoop.from_map(
        FormalMap.from_series((2, 2), 2, 4, {**_PLANE_UNIT, **dict(zip(_PLANE_WIDE, values))})
    )
)


@settings(max_examples=10, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(loop=wide_plane_loops)
def test_product_matches_prolongation_route_on_random_plane_loops(loop):
    fast = DistBialgebra.from_loop(loop)
    slow = DistBialgebra.from_loop_prolonged(loop)
    for m1 in monomials_up_to(2, 4):
        for m2 in monomials_up_to(2, 4 - sum(m1)):
            assert fast.product_mono(m1, m2) == slow.product_mono(m1, m2), (m1, m2)
    # rational loops reach the Fraction branch of exact_div; every stored
    # coefficient stays in canonical exact form
    for value in fast._prod_memo.values():
        assert all(is_canonical(c) for c in value.values()), value


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
    B = jordan_bialgebra_4
    nu = B.basis(1)
    assert B.divide(B.one(), nu, "left") == nu
    assert B.divide(nu, B.one(), "right") == nu
    rng = random.Random(2)
    for _ in range(4):
        mu = random_distribution(rng, 3, 2)
        nu = random_distribution(rng, 3, 2)
        assert_division_laws(B, mu, nu)


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


@settings(max_examples=10, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(loop=wide_plane_loops)
def test_divisions_are_the_prolonged_division_maps_on_random_plane_loops(loop):
    # the id kernel's divisions, on loops with components above (1, 1), against the
    # independent tuple route: the prolongation of the loop's own division maps
    B = DistBialgebra.from_loop(loop)
    pairs = [(m1, m2) for m1 in monomials_up_to(2, 4) for m2 in monomials_up_to(2, 4 - sum(m1))]
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


def _rational_plane_loop():
    """x + y plus six rational plane components up to degree 4 (series view)."""
    components = {
        ((1, 0), (1, 0)): (F(1, 3), 0),
        ((1, 0), (0, 1)): (F(1, 2), F(1, 3)),
        ((0, 1), (1, 0)): (F(-2, 3), F(1, 2)),
        ((0, 1), (0, 1)): (0, F(3, 2)),
        ((1, 0), (0, 2)): (F(1, 6), F(1, 2)),
        ((1, 1), (0, 1)): (F(1, 2), F(-1, 3)),
    }
    return FormalLoop.from_map(FormalMap.from_series((2, 2), 2, 4, {**_PLANE_UNIT, **components}))


@pytest.mark.parametrize(
    "name, N, text, nvars",
    [("jordan-k3-loop", 4, LEFT_DIVISION, 2), ("split-octonion-loop", 3, MOUFANG, 3)],
)
def test_kernel_memos_hold_canonical_ints_and_the_api_returns_fractions(evaluators, name, N, text, nvars):
    B = DistBialgebra.from_loop(builtin_loop(name, N))
    identity = parse_identity(text, nvars)
    assert check_linearized_identity(identity, B, samples=3, seed=0).holds
    brackets = su_bracket_table(B, 1)

    def fractions_only(values):
        return all(type(c) is F for c in values)

    dim = B.dim
    rng = random.Random(3)
    x, y = random_distribution(rng, dim, 1), random_distribution(rng, dim, 1)
    m1 = (1,) + (0,) * (dim - 1)
    assert fractions_only(B.product(x, y).terms.values())
    for side in ("left", "right"):
        assert fractions_only(B.divide(x, y, side).terms.values())
    # bracket_vector fills the bracket table and multioperator_mono these
    # tables, which are empty for the octonions at N = 3
    multioperators = list(su_multioperator_tables(B).values())
    assert any(map(any, brackets.values())) and (multioperators or name == "split-octonion-loop")
    assert all(map(fractions_only, brackets.values())) and all(map(fractions_only, multioperators))
    # a nonzero bracket <x; y, z> = p(x; z; y) - p(x; y; z) has a nonzero p term
    x1, y1, z1 = (basis_vector(dim, i) for i in next(idx for idx, v in brackets.items() if any(v)))
    ps = [dist_su_ops(B).p([x1], [b], c) for b, c in ((z1, y1), (y1, z1))]
    assert any(p.terms for p in ps) and all(fractions_only(p.terms.values()) for p in ps)
    ev = LinearizedEvaluator(B, nvars)
    assert fractions_only(ev.on_monomials(identity.lhs, (m1,) * nvars).terms.values())
    assert fractions_only(ev.on_elements(identity.rhs, [x] * nvars).terms.values())
    # the public calls above also fill the division memos
    # similar products with zero tables and with the loop's own tables keep the
    # brackets; they are `from_loop` bialgebras, so their memos are canonical too
    memos = [B._prod_memo, B._ldiv_memo, B._rdiv_memo, B._p_memo, B._assoc_memo, evaluators[0]._memo]
    for tables in ({}, su_multioperator_tables(B)):
        similar = make_similar_product(B, tables)
        assert all(su_bracket_table(similar, a) == su_bracket_table(B, a) for a in range(N - 1))
        memos += [similar._prod_memo, similar._ldiv_memo, similar._p_memo, similar._assoc_memo]
    # division entries and the values of an explicit product function are stored
    # canonical too: a rational loop's divisions sum Fractions that may be integral,
    # and the prolonged product has Fraction coefficients
    if name == "jordan-k3-loop":
        series = {((1,), (0,)): (1,), ((0,), (1,)): (1,), ((1,), (1,)): (F(1, 2),),
                  ((2,), (1,)): (F(1, 3),), ((1,), (2,)): (F(-2, 3),)}
        rational = DistBialgebra.from_loop(
            FormalLoop.from_map(FormalMap.from_series((1, 1), 1, 4, series))
        )
        prolonged = DistBialgebra.from_loop_prolonged(builtin_loop(name, N))
        fills = ((rational, ("ldiv_mono", "rdiv_mono")), (prolonged, ("product_mono", "ldiv_mono")))
        for bialgebra, entries in fills:
            for m1 in monomials_up_to(bialgebra.dim, N):
                for m2 in monomials_up_to(bialgebra.dim, N - sum(m1)):
                    for entry in entries:
                        getattr(bialgebra, entry)(m1, m2)
        memos += [rational._ldiv_memo, rational._rdiv_memo, prolonged._prod_memo, prolonged._ldiv_memo]
        assert any(type(c) is F for value in rational._ldiv_memo.values() for c in value.values())
        # so are the p and associator entries of a rational plane loop, whose sums of
        # Fractions come out integral at some coefficients
        plane_loop = DistBialgebra.from_loop(_rational_plane_loop())
        for arity in range(3):
            su_bracket_table(plane_loop, arity)
        su_multioperator_tables(plane_loop)
        memos += [plane_loop._p_memo, plane_loop._assoc_memo]
        for memo, size in ((plane_loop._p_memo, 45), (plane_loop._assoc_memo, 64)):
            coefficients = [c for value in memo.values() for c in value.values()]
            assert len(coefficients) == size and any(type(c) is F for c in coefficients)
    for memo in memos:
        assert memo
        for key, value in memo.items():
            assert all(is_canonical(c) for c in value.values()), (key, value)


def test_su_ops_hand_the_engine_exact_coefficients(jordan_bialgebra_4):
    B = jordan_bialgebra_4
    ops = dist_su_ops(B)
    half = SymElement(3, {(1, 0, 0): F(1, 2)})
    for x, terms in (
        ((F(0), F(4, 2), "-1/3"), {(0, 1, 0): 2, (0, 0, 1): F(-1, 3)}),
        (basis_vector(3, 0), {(1, 0, 0): 1}),
        (half, {(1, 0, 0): F(1, 2)}),
    ):
        coerced = B._index.to_monomials(ops._coerce(x).terms)
        assert coerced == terms and [type(c) for c in coerced.values()] == [
            type(c) for c in terms.values()
        ]
    # the weight 1/(m! n!) of the multioperator is applied once, to the sum
    (mx, my), entry = next(iter(su_multioperator_tables(B).items()))
    xs = [basis_vector(3, i) for i in monomial_letters(mx)]
    ys = [basis_vector(3, i) for i in monomial_letters(my)]
    total = SymElement.zero(3)
    for tau in permutations(xs):
        for sigma in permutations(ys):
            total = total + ops.p(list(tau), list(sigma[:-1]), sigma[-1])
    value = ops.multioperator(xs, ys)
    assert value == total.scale(F(1, factorial(len(xs)) * factorial(len(ys))))
    assert value.primitive_part() == entry and all(type(c) is F for c in value.terms.values())


# -- the p and associator fills on memo entries ------------------------------------------


def assert_fills_are_the_element_formulas(alg, keys_by_degree, N):
    """On every triple of basis keys of total degree <= N, the associator fill is
    (ab)c - a(bc) on `key_element`s and the p fill is the defining Sweedler sum
    sum cu cv (mu_(1) nu_(1)) \\ assoc(mu_(2), nu_(2), zeta) on elements."""
    element = alg.key_element

    def assoc(a, b, c):
        return su_ops.associator(alg, element(a), element(b), element(c))

    for da, db, dc in iter_product(range(N + 1), repeat=3):
        if da + db + dc > N:
            continue
        for a, b, c in iter_product(keys_by_degree[da], keys_by_degree[db], keys_by_degree[dc]):
            assert su_ops._assoc_on_keys(alg, a, b, c) == assoc(a, b, c).terms, (a, b, c)
            expected = {}
            for mu1, mu2, cu in alg.key_coproduct(a):
                for nu1, nu2, cv in alg.key_coproduct(b):
                    head = alg.mul(element(mu1), element(nu1))
                    add_into(expected, su_ops.divide(alg, head, assoc(mu2, nu2, c), "left").terms, cu * cv)
            assert su_ops._p_on_keys(alg, a, b, c) == expected, (a, b, c)


def _bialgebra_keys(B):
    return [[B._index.id(m) for m in monomials(B.dim, d)] for d in range(B.N + 1)]


def test_fills_are_the_element_formulas_on_jordan(jordan_loop_4):
    B = DistBialgebra.from_loop(jordan_loop_4)
    assert_fills_are_the_element_formulas(B, _bialgebra_keys(B), 4)
    assert any(B._p_memo.values()) and any(B._assoc_memo.values())


# at N = 5 a p fill first divides by a product of two letters, mu_(1) nu_(1) = a b or b a
@pytest.mark.parametrize("N, counts", [(4, [1, 2, 4, 16, 80]), (5, [1, 2, 4, 16, 80, 448])])
def test_fills_are_the_element_formulas_in_the_free_algebra(N, counts):
    alg = FreeAlgebra(("a", "b"), N)
    words = [[None], [0, 1]]
    for d in range(2, N + 1):
        words.append([(u, v) for k in range(1, d) for u in words[k] for v in words[d - k]])
    assert [len(w) for w in words] == counts
    assert_fills_are_the_element_formulas(alg, words, N)
    assert any(alg._p_memo.values()) and any(alg._assoc_memo.values())


@settings(max_examples=8, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(loop=wide_plane_loops)
def test_fills_are_the_element_formulas_on_random_plane_loops(loop):
    B = DistBialgebra.from_loop(loop)
    assert_fills_are_the_element_formulas(B, _bialgebra_keys(B), 4)


# the memo entries the `brackets` tables fill; a change that fills more entries does more work
@pytest.mark.parametrize(
    "name, N, arity, sizes",
    [("split-octonion-loop", 4, 1, (649, 7, 448, 576)), ("jordan-k3-loop", 5, 3, (205, 52, 114, 180))],
)
def test_bracket_tables_fill_the_pinned_memo_entries(name, N, arity, sizes):
    B = DistBialgebra.from_loop(builtin_loop(name, N))
    su_bracket_table(B, arity)
    assert tuple(map(len, (B._prod_memo, B._ldiv_memo, B._p_memo, B._assoc_memo))) == sizes


@pytest.mark.parametrize("name", ["jordan-k3-loop", "nonlinear-f-loop"])
def test_su_bracket_table_on_kernel_letters_is_bracket_vector_on_public_elements(name):
    loop = builtin_loop(name, 5)
    B = DistBialgebra.from_loop(loop)
    ops = dist_su_ops(DistBialgebra.from_loop(loop))
    basis = [SymElement.basis(loop.dim, i) for i in range(loop.dim)]
    for arity in range(4):
        table = su_bracket_table(B, arity)
        assert table == {
            idx: ops.bracket_vector([basis[i] for i in idx[:arity]], basis[idx[-2]], basis[idx[-1]])
            for idx in iter_product(range(loop.dim), repeat=arity + 2)
        }, arity


def test_coerce_takes_its_own_kernel_elements_and_refuses_others(jordan_loop_4, jordan_loop_5, nonlinear_loop_5):
    B = DistBialgebra.from_loop(jordan_loop_5)
    ops = dist_su_ops(B)
    for letter in B._letters() + DistBialgebra.from_loop(jordan_loop_5)._letters():
        assert ops._coerce(letter) is letter
    for other in (jordan_loop_4, nonlinear_loop_5):
        letters = DistBialgebra.from_loop(other)._letters()
        with pytest.raises(ValueError, match="kernel element of"):
            ops._coerce(letters[0])
        with pytest.raises(ValueError, match="kernel element of"):
            ops.bracket_vector([], letters[0], letters[1])


def _letters(elements):
    """The letter of each kernel basis element."""
    return tuple(monomial_letters(e.index.monos[next(iter(e.terms))])[0] for e in elements)


def kernel_basis(B):
    """The kernel's basis elements e_0 .. e_{dim-1}, keyed by monomial id."""
    return [B.key_element(B._index.id(basis_monomial(B.dim, i))) for i in range(B.dim)]


@pytest.mark.parametrize(
    "mx, my, orderings",
    [
        # the y-block e1 e1 e2 has 3 distinct orderings of its 3! permutations
        ((1, 0, 0), (0, 2, 1), {((0,), (1, 1), (2,)), ((0,), (1, 2), (1,)), ((0,), (2, 1), (1,))}),
        ((1, 1, 0), (0, 0, 2), {((0, 1), (2,), (2,)), ((1, 0), (2,), (2,))}),
        ((2, 0, 0), (0, 2, 0), {((0, 0), (1,), (1,))}),
    ],
)
def test_multioperator_mono_evaluates_p_once_per_distinct_ordering(
    jordan_bialgebra_4, monkeypatch, mx, my, orderings
):
    calls = []
    p_operation = su_ops.p_operation

    def counted(alg, xs, ys, z):
        calls.append((_letters(xs), _letters(ys), _letters([z])))
        return p_operation(alg, xs, ys, z)

    monkeypatch.setattr(su_ops, "p_operation", counted)
    ops = dist_su_ops(jordan_bialgebra_4)
    ops.multioperator_mono(mx, my)
    assert len(calls) == len(orderings) and set(calls) == orderings
    calls.clear()
    e = kernel_basis(jordan_bialgebra_4)
    su_ops.multioperator_component(jordan_bialgebra_4, e[0], e[1], 1, 3)
    assert calls == [((0,), (1, 1), (1,))]


def test_multioperator_tables_are_the_literal_symmetrization(jordan_bialgebra_5):
    B = jordan_bialgebra_5
    e = kernel_basis(B)
    expected = {}
    for mx in monomials_up_to(3, 3):
        for my in monomials_up_to(3, 5 - monomial_degree(mx)):
            if monomial_degree(mx) >= 1 and monomial_degree(my) >= 2:
                value = reference_multioperator(
                    B, [e[i] for i in monomial_letters(mx)], [e[i] for i in monomial_letters(my)]
                )
                if value.terms:
                    expected[(mx, my)] = B._public(value.terms).primitive_part()
    assert su_multioperator_tables(B) == expected


@settings(max_examples=25, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(constants=plane_structure_constants, data=st.data())
def test_multioperator_is_the_literal_symmetrization_on_random_structure_constants(constants, data):
    B = DistBialgebra.from_loop(loop_from_algebra(AlgebraTable(2, constants), 4))
    # few letters, so blocks repeat them; (1, -2) is primitive and distinct from e0 and e1
    pool = [B._kernel(SymElement.from_vector(v)) for v in [(1, 0), (0, 1), (1, -2)]]
    m = data.draw(st.integers(1, 2), label="m")
    n = data.draw(st.integers(2, 4 - m), label="n")
    xs = data.draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m), label="xs")
    ys = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n), label="ys")
    assert su_ops.multioperator(B, xs, ys) == reference_multioperator(B, xs, ys)
    assert su_ops.multioperator_component(B, xs[0], ys[0], m, n) == reference_multioperator(
        B, [xs[0]] * m, [ys[0]] * n
    ).scale(F(1, factorial(m) * factorial(n)))


def test_multioperator_mono_reads_only_monomials_of_the_bialgebra(jordan_bialgebra_4):
    ops = dist_su_ops(jordan_bialgebra_4)
    assert ops.multioperator_mono((0, 1, 0), (0, 1, 1)) == (0, F(-1, 2), 0)
    # unchecked, `monomial_letters` reads each of these as (0, 1, 0), another key's entry
    for mx in [(0, 1), (-1, 1, 0), (0, True, 0)]:
        with pytest.raises(ValueError, match="is not a monomial of dimension 3"):
            ops.multioperator_mono(mx, (0, 1, 1))
    with pytest.raises(ValueError, match="is not a monomial of dimension 3"):
        ops.multioperator_mono((0, 1, 0), (0, 1, 1, 0))


def test_su_ops_reject_float_vectors(jordan_bialgebra_4):
    ops = dist_su_ops(jordan_bialgebra_4)
    with pytest.raises(TypeError):
        ops.bracket([], (0.1, 0, 0), basis_vector(3, 1))


def test_small_bracket_tables_give_ids_only_to_the_monomials_they_read(monkeypatch):
    # a fresh index, which grows on demand: the arity-0 table of the split octonions at
    # N = 4 reads the 72 products of two letters, so it names the 45 monomials of
    # degree <= 2 and not all 495 of degree <= 4
    monkeypatch.setattr(dist, "_monomial_index", lru_cache(maxsize=None)(dist._MonomialIndex))
    B = DistBialgebra.from_loop(builtin_loop("split-octonion-loop", 4))
    su_bracket_table(B, 0)
    index = B._index
    assert len(index.monos) <= 45 and max(index.degrees) == 2
    assert len(B._prod_memo) == 72
    assert all(index.degrees[k // index.size] + index.degrees[k % index.size] <= 2 for k in B._prod_memo)


def test_index_splits_are_the_monomial_splits():
    for dim, N in ((1, 6), (3, 5), (8, 3)):
        index = dist._MonomialIndex(dim, N)
        for mono in monomials_up_to(dim, N):
            i = index.id(mono)
            splits = [(index.monos[a], index.monos[b], c) for a, b, c in index.splits(i)]
            assert sorted(splits) == sorted(monomial_splits(mono)), mono
            for degree, group in enumerate(index.groups(i)):
                assert all(index.degrees[a] == degree for a, _, _ in group)
            shifts = index.shifts(i)
            assert len(shifts) == (0 if sum(mono) == N else dim)
            for j, k in enumerate(shifts):
                assert index.monos[k] == tuple(e + (l == j) for l, e in enumerate(mono))


@pytest.mark.parametrize("bad", [(1, True, 0), (1.0, 1, 0), (F(1), 1, 0)])
def test_a_key_equal_to_a_monomial_is_refused_before_and_after_it_has_an_id(monkeypatch, bad):
    # each of these hashes and compares equal to (1, 1, 0); the answer must not depend on
    # whether the index has already met (1, 1, 0)
    monkeypatch.setattr(dist, "_monomial_index", lru_cache(maxsize=None)(dist._MonomialIndex))
    B = DistBialgebra.from_loop(builtin_loop("jordan-k3-loop", 3))
    ev = LinearizedEvaluator(B, 2)
    word = Mul(Var(1), Var(2))
    unit = (0, 0, 0)
    calls = [
        lambda: B.product_mono(bad, unit),
        lambda: B.ldiv_mono(unit, bad),
        lambda: B.rdiv_mono(bad, unit),
        lambda: ev.on_monomials(word, (bad, unit)),
    ]
    for known in (False, True):
        assert ((1, 1, 0) in B._index.ids) is known
        for call in calls:
            with pytest.raises(ValueError, match="is not a monomial of dimension 3"):
                call()
        assert B.product_mono((1, 1, 0), unit) == mono_elem(3, (1, 1, 0))


def test_su_bracket_table_rejects_a_negative_arity(jordan_bialgebra_4):
    with pytest.raises(ValueError, match="arity must be >= 0"):
        su_bracket_table(jordan_bialgebra_4, -1)


def test_bracket_table_and_multioperator_component_refuse_a_bool_degree(jordan_bialgebra_4):
    # read as ints, these were the arity-1 table and the (1, 3) component
    B = DistBialgebra.from_loop(builtin_loop("jordan-k3-loop", 3))
    with pytest.raises(ValueError, match="bracket arity must be >= 0 .an int, not a bool., got True"):
        su_bracket_table(B, True)
    e = kernel_basis(jordan_bialgebra_4)
    for i, j in [(True, 3), (1, True), (1.0, 3)]:
        with pytest.raises(ValueError, match="multioperator components need i >= 1 and j >= 2"):
            su_ops.multioperator_component(jordan_bialgebra_4, e[0], e[1], i, j)


@pytest.mark.parametrize("dim, arity", [(3, 0), (2, 1), (3, 2)])
def test_basis_bracket_table_calls_entry_on_the_callers_basis(dim, arity):
    basis = [object() for _ in range(dim)]
    calls = []

    def entry(xs, y, z):
        calls.append((xs, y, z))
        return (F(len(calls)),) + (F(-7),) * (dim - 1)

    table = basis_bracket_table(basis, arity + 2, arity, entry)
    assert len(table) == dim ** (arity + 2)
    # every argument is one of the caller's own objects (a KeyError otherwise)
    index = {id(b): i for i, b in enumerate(basis)}
    called = [tuple(index[id(x)] for x in (*xs, y, z)) for xs, y, z in calls]
    # once per tuple with j < k, in lexicographic order
    assert called == [idx for idx in iter_product(range(dim), repeat=arity + 2) if idx[-2] < idx[-1]]
    for n, idx in enumerate(called, start=1):
        *head, j, k = idx
        assert table[idx] == (n,) + (-7,) * (dim - 1)
        assert table[(*head, k, j)] == (-n,) + (7,) * (dim - 1)
        assert table[(*head, j, j)] == table[(*head, k, k)] == (0,) * dim
    with pytest.raises(ValueError, match=f"bracket arity {arity} needs degree {arity + 2} <= {arity + 1}"):
        basis_bracket_table(basis, arity + 1, arity, entry)
    assert len(calls) == len(called)


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
    assert ops.p([a], [b], b) == SymElement.from_vector(tuple(2 * c for c in b))
    assert ops.p([a, a], [b], b) == SymElement.from_vector(
        tuple(-8 * c for c in unit)
    )
    assert ops.p([a, a, a], [b], b) == SymElement.from_vector(
        tuple(24 * c for c in a)
    )
    assert ops.p([a, a, a, a], [b], b).is_zero()


def test_p_vanishes_on_associative_algebras(dual_loop_4):
    ops = dist_su_ops(DistBialgebra.from_loop(dual_loop_4))
    e0, e1 = basis_vector(2, 0), basis_vector(2, 1)
    assert ops.p([e0], [e1], e0).is_zero()
    assert ops.p([e0, e1], [e1], e0).is_zero()


def test_p_values_are_primitive(jordan_bialgebra_4):
    ops = dist_su_ops(jordan_bialgebra_4)
    vecs = [basis_vector(3, i) for i in range(3)]
    for xs, ys, z in [
        ([vecs[0]], [vecs[1]], vecs[2]),
        ([vecs[0], vecs[1]], [vecs[2]], vecs[0]),
        ([vecs[0]], [vecs[1], vecs[2]], vecs[1]),
    ]:
        assert ops.p(xs, ys, z).is_primitive()
    mu = jordan_bialgebra_4.basis(0)
    assert mu.is_primitive()
    assert not jordan_bialgebra_4.product(mu, mu).is_primitive()


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
            if m + n + 1 > B.N:
                with pytest.raises(ValueError, match=f"p of degree {m + n + 1} beyond the truncation {B.N}"):
                    ops.p(xs, ys, z)
            else:
                assert ops.p(xs, ys, z) == p_reference(B, xs, ys, z)


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
        assert forward == -backward
    assert ops.multioperator([e[0], e[1]], [e[2], e[2]]) == ops.multioperator(
        [e[1], e[0]], [e[2], e[2]]
    )


@pytest.fixture(scope="module")
def nonlinear_bialgebra_3():
    return DistBialgebra.from_loop(builtin_loop("nonlinear-f-loop", 3))


_e1, _e2 = SymElement.basis(2, 0), SymElement.basis(2, 1)
_e1e2 = SymElement(2, {(1, 1): F(1)})

# each public operation at degree N = 3, where it answers, and at degree 4, where it raises
ABOVE_N = {
    "product": (lambda B, ops: B.product(_e1, _e1), lambda B, ops: B.product(_e1e2, _e1e2), "product"),
    "divide": (lambda B, ops: B.divide(_e1e2, _e1, "left"), lambda B, ops: B.divide(_e1e2, _e1e2, "right"),
               "division"),
    "p": (lambda B, ops: ops.p([_e1], [_e1], _e2), lambda B, ops: ops.p([_e1, _e1], [_e1], _e2), "p"),
    "bracket": (lambda B, ops: ops.bracket([_e1], _e1, _e2), lambda B, ops: ops.bracket([_e1, _e1], _e1, _e2),
                "bracket"),
    "bracket_vector": (lambda B, ops: ops.bracket_vector([_e1], _e1, _e2),
                       lambda B, ops: ops.bracket_vector([_e1, _e2], _e1, _e2), "bracket"),
    "multioperator": (lambda B, ops: ops.multioperator([_e1], [_e1, _e2]),
                      lambda B, ops: ops.multioperator([_e1, _e2], [_e1, _e2]), "multioperator"),
    "multioperator_mono": (lambda B, ops: ops.multioperator_mono((1, 0), (1, 1)),
                           lambda B, ops: ops.multioperator_mono((1, 1), (0, 2)), "multioperator"),
}


@pytest.mark.parametrize("name", ABOVE_N)
def test_operations_raise_above_the_truncation(nonlinear_bialgebra_3, name):
    within, above, operation = ABOVE_N[name]
    B = nonlinear_bialgebra_3
    ops = dist_su_ops(B)
    within(B, ops)
    with pytest.raises(ValueError, match=f"{operation} of degree 4 beyond the truncation 3"):
        above(B, ops)


def test_product_above_the_truncation_is_refused_not_truncated():
    # at N=2 the truncated product(e1, e1e2) reads 0; within degree 2 the truth is -e1
    B = DistBialgebra.from_loop(builtin_loop("nonlinear-f-loop", 2))
    with pytest.raises(ValueError, match="product of degree 3 beyond the truncation 2"):
        B.product(_e1, _e1e2)
    wide = DistBialgebra.from_loop(builtin_loop("nonlinear-f-loop", 4))
    assert wide.product(_e1, _e1e2).truncate(2) == _e1.scale(-1)


# -- linearized identities ---------------------------------------------------------------


@pytest.mark.parametrize("samples", [-4, True])
def test_linearized_check_refuses_a_sample_count_that_is_not_a_count(jordan_bialgebra_4, samples):
    identity = parse_identity(MOUFANG, 3)
    with pytest.raises(ValueError, match=f"samples must be an int >= 0, got {samples}"):
        check_linearized_identity(identity, jordan_bialgebra_4, samples=samples, seed=0)
    assert check_linearized_identity(parse_identity(RIGHT_ALT, 2), jordan_bialgebra_4, samples=0).samples == 0


@pytest.mark.parametrize("seed", [True, 1.5, "7"])
def test_linearized_check_refuses_a_seed_that_is_not_an_int(jordan_bialgebra_4, seed):
    # random.Random("7") draws other samples than random.Random(7), so the report could not replay
    with pytest.raises(ValueError, match=f"seed must be an int, got {seed!r}"):
        check_linearized_identity(parse_identity(RIGHT_ALT, 2), jordan_bialgebra_4, samples=1, seed=seed)


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


@pytest.mark.parametrize("seed", range(3))
def test_linearized_sweep_reaches_the_truncation_by_default(seed):
    # x + y + x1^2 y2^3 e3 is not associative, and the only failing tuples have
    # total degree 5 = N, which a sweep stopping at degree 4 and the sparse
    # samples miss
    N = 5
    series = {((2, 0, 0), (0, 3, 0)): (F(0), F(0), F(1))}
    for j in range(3):
        e, v = tuple(int(i == j) for i in range(3)), basis_vector(3, j)
        series[(e, (0, 0, 0))] = series[((0, 0, 0), e)] = v
    loop = FormalLoop.from_map(FormalMap.from_series((3, 3), 3, N, series))
    identity = parse_identity(ASSOC, 3)
    assert not check_loop_identity(identity, loop).holds
    verdict = check_linearized_identity(identity, DistBialgebra.from_loop(loop), seed=seed)
    assert not verdict.holds
    assert verdict.exhaustive_degree == N
    assert verdict.witness["kind"] == "monomials"


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


# a unit leaf under each of *, \ and /; leaves as split children of a shared slot,
# once beside a slot that neither child uses; leaves at the root
LEAF_WORDS = (
    LDiv(Mul(Unit(), Var(1)), RDiv(Var(2), Unit())),  # ((e * x1) \ (x2 / e))
    Mul(LDiv(Var(1), Unit()), RDiv(Unit(), Var(2))),  # ((x1 \ e) * (e / x2))
    Mul(Var(1), RDiv(Var(1), Var(2))),  # (x1 * (x1 / x2))
    Mul(Var(1), Var(1)),
    Var(2),
    Unit(),
)


@settings(max_examples=10, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(constants=plane_structure_constants)
def test_linearized_evaluator_matches_the_bilinear_reference(constants):
    # rational, non-unit structure constants reach add_into's general case too
    B = DistBialgebra.from_loop(loop_from_algebra(AlgebraTable(2, constants), 4))
    for text, nvars in ((RIGHT_DIVISION, 2), (LEFT_DIVISION, 2), (MOUFANG, 3)):
        identity = parse_identity(text, nvars)
        words = [identity.lhs, identity.rhs]
        if nvars == 2:
            words += LEAF_WORDS
        ev, memo = LinearizedEvaluator(B, nvars), {}
        for monos in iter_product(*[list(monomials_up_to(2, 4))] * nvars):
            if sum(map(monomial_degree, monos)) > 4:
                continue
            for word in words:
                assert ev.on_monomials(word, monos) == reference_linearized(B, word, monos, memo), (
                    text, word, monos
                )


def test_evaluator_memoizes_no_root_and_no_leaf(evaluators, jordan_bialgebra_4):
    B = jordan_bialgebra_4
    pool = list(monomials_up_to(3, 4))
    tuples = [m for m in iter_product(pool, repeat=2) if sum(map(monomial_degree, m)) <= 4]
    elements = [SymElement.of_terms(3, {(1, 0, 0): F(1), (0, 1, 1): F(-2)}), SymElement.basis(3, 2)]

    def stored_nodes(ev):
        return {key[0] for key in ev._memo}

    # on_monomials and on_elements at every word of LEAF_WORDS, leaves at the root included
    for word in LEAF_WORDS:
        ev = LinearizedEvaluator(B, 2)
        for monos in tuples:
            ev.on_monomials(word, monos)
        ev.on_elements(word, elements)
        root = ev._node(word)
        leaves = {node.id for node in ev._nodes.values() if node.method is None}
        assert root.id not in stored_nodes(ev) and not stored_nodes(ev) & leaves, word
        # the subwords between the root and the leaves are stored, under flat keys
        inner = {node.id for node in ev._nodes.values() if node.method is not None} - {root.id}
        assert stored_nodes(ev) == inner, word
        assert all(len(key) == 3 for key in ev._memo)
    # a sweep and its samples store neither side's root, nor any leaf
    for text, nvars, holds in ((RIGHT_DIVISION, 2, True), (LEFT_DIVISION, 2, True), (ASSOC, 3, False)):
        identity = parse_identity(text, nvars)
        assert check_linearized_identity(identity, B, samples=5).holds is holds
        ev = evaluators[-1]
        roots = {ev._node(identity.lhs).id, ev._node(identity.rhs).id}
        leaves = {node.id for node in ev._nodes.values() if node.method is None}
        assert ev._memo and not stored_nodes(ev) & (roots | leaves), text


def test_a_value_that_is_one_product_entry_is_that_entry(jordan_bialgebra_4):
    # the child (x1 * x2) of ((x1 * x2) * x3), at a monomial pair and the unit in
    # slot 3, is one product entry at coefficient 1: the evaluator stores the
    # bialgebra's memo entry itself, not a copy
    B = jordan_bialgebra_4
    ev = LinearizedEvaluator(B, 3)
    child = Mul(Var(1), Var(2))
    word = Mul(child, Var(3))
    unit = B._index.id((0, 0, 0))
    for monos in (((1, 0, 0), (0, 1, 0)), ((2, 0, 0), (0, 1, 1)), ((0, 0, 0), (1, 1, 0))):
        ev.on_monomials(word, monos + ((0, 0, 0),))
        i, j = map(B._index.id, monos)
        entry = ev._memo[(ev._node(child).id, i, j, unit)]
        assert entry is B._prod_memo[i * B._index.size + j]
        assert B._public(entry) == B.product_mono(*monos)


def test_evaluator_shares_nodes_between_equal_words(jordan_bialgebra_4):
    # equal subwords share one node, so an equal word built again reads the memo
    first, second = Mul(Mul(Var(1), Var(2)), Var(3)), Mul(Mul(Var(1), Var(2)), Var(3))
    assert first == second and first is not second
    ev = LinearizedEvaluator(jordan_bialgebra_4, 3)
    monos = ((1, 0, 0), (0, 1, 0), (1, 0, 1))
    value = ev.on_monomials(first, monos)
    entries = len(ev._memo)
    assert ev.on_monomials(second, monos) == value
    assert len(ev._memo) == entries


@pytest.mark.parametrize(
    "monos",
    [
        ((1, 0, 0), (0, 1, 0)),  # too few slots
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)),  # too many slots
        ((2, 0, 0), (2, 0, 0), (1, 0, 0)),  # total degree 5 > N = 4
    ],
)
def test_evaluator_rejects_tuples_it_cannot_evaluate(jordan_bialgebra_4, monos):
    ev = LinearizedEvaluator(jordan_bialgebra_4, 3)
    with pytest.raises(ValueError):
        ev.on_monomials(Mul(Mul(Var(1), Var(2)), Var(3)), monos)


def test_on_elements_refuses_arguments_whose_degrees_sum_past_n(jordan_loop_4):
    # x = e1^2 and y = e2^2 at N = 3: x * y has degree 4, and its part of degree <= 3,
    # read from the N = 4 bialgebra, is not zero, so no answer within N = 3 is right
    x, y = (SymElement.of_terms(3, {mono: F(1)}) for mono in ((2, 0, 0), (0, 2, 0)))
    word = Mul(Var(1), Var(2))
    truth = DistBialgebra.from_loop(jordan_loop_4).product(x, y).truncate(3)
    assert truth == SymElement.of_terms(3, {(0, 2, 0): F(2), (1, 2, 0): F(4)})
    B = DistBialgebra.from_loop(builtin_loop("jordan-k3-loop", 3))
    ev = LinearizedEvaluator(B, 2)
    with pytest.raises(ValueError, match="degree 4 beyond the truncation 3"):
        ev.on_elements(word, [x, y])
    with pytest.raises(ValueError):
        B.product(x, y)
    with pytest.raises(ValueError):
        ev.on_monomials(word, ((2, 0, 0), (0, 2, 0)))
    # the top degrees decide, whatever the other terms
    with pytest.raises(ValueError):
        ev.on_elements(word, [x, y + SymElement.basis(3, 2) - SymElement.one(3)])
    # within N the call answers, as `product` does
    z = SymElement.basis(3, 1) - SymElement.one(3)
    assert ev.on_elements(word, [x, z]) == B.product(x, z) != SymElement.of_terms(3, {})


def test_evaluator_rejects_words_outside_its_slots(jordan_bialgebra_4):
    # a variable beyond the slots, and an identity with no slot at all
    ev = LinearizedEvaluator(jordan_bialgebra_4, 3)
    with pytest.raises(ValueError):
        ev.on_monomials(Mul(Var(1), Var(4)), ((1, 0, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError):
        check_linearized_identity(parse_identity("e = e", 0), jordan_bialgebra_4)


def test_a_variable_count_that_is_a_bool_is_refused(jordan_bialgebra_4):
    with pytest.raises(ValueError, match="variable count must be an int >= 0, got True"):
        parse_identity("(x1 * e) = x1", True)
    with pytest.raises(ValueError, match="variable count must be an int >= 0, got -1"):
        parse_identity("e = e", -1)
    with pytest.raises(ValueError, match="variable count of a linearized word must be an int >= 1, got True"):
        LinearizedEvaluator(jordan_bialgebra_4, True)


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
    verdict = brackets_invariance_check(
        jordan_bialgebra_4, jordan_bialgebra_4, SimilarityMap.identity(3, 4)
    )
    assert verdict.holds


def test_brackets_invariance_reads_the_similarity_equation_up_to_the_truncation(jordan_bialgebra_5):
    """Phi differs from y only at bidegree (1, 4), which breaks the similarity
    equation at (mu, nu) = (e1, e1^4): the check must look at y-degree 4."""
    identity = {monos: value for _, monos, value in SimilarityMap.identity(3, 5).sorted_entries()}
    phi = SimilarityMap(3, 5, {(0, 1): identity, (1, 4): {((1, 0, 0), (4, 0, 0)): (1, 0, 0)}})
    verdict = brackets_invariance_check(jordan_bialgebra_5, jordan_bialgebra_5, phi)
    assert not verdict.holds
    assert verdict.witness["kind"] == "linphi"
    assert (verdict.witness["mu"], verdict.witness["nu"]) == ([1, 0, 0], [4, 0, 0])


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
    # the reference recursion: Psi(x, e_j) = eps(x) e_j on the coalgebra level
    builder = ReferencePsiBuilder(jordan_bialgebra_4, lambda mx, my: None)
    for mono in monomials_up_to(3, 3):
        for j in range(3):
            value = builder.psi(mono, tuple(1 if k == j else 0 for k in range(3)))
            if sum(mono) == 0:
                assert value == SymElement.basis(3, j)
            else:
                assert value.is_zero()
    # the graded solve: psi is y on 1 (x) V and has no block of y-degree 1
    psi = dist._PsiBuilder(jordan_bialgebra_4, {}).psi()
    assert psi.components[(0, 1)] == FormalMap.slot_projection((3, 3), 1, 4).components[(0, 1)]
    assert not [md for md in psi.components if md[1] == 1 and md[0] >= 1]
    assert len(psi.components) > 1  # zero tables need a nontrivial psi on this loop


def _doubled(tables):
    return {key: tuple(2 * c for c in value) for key, value in tables.items()}


def _nonzero(tables):
    return {key: tuple(value) for key, value in tables.items() if any(value)}


@pytest.mark.parametrize("N, which", [(4, "own"), (4, "zero"), (4, "doubled"), (5, "doubled")])
def test_make_similar_product_matches_the_reference_recursion(jordan_bialgebra_4, jordan_bialgebra_5, N, which):
    B = jordan_bialgebra_4 if N == 4 else jordan_bialgebra_5
    own = su_multioperator_tables(B)
    tables = {"own": own, "zero": {}, "doubled": _doubled(own)}[which]
    similar = make_similar_product(B, tables)
    reference = reference_similar_product(B, tables)
    pairs = [(m1, m2) for m1 in monomials_up_to(3, N) for m2 in monomials_up_to(3, N - sum(m1))]
    assert len(pairs) == {4: 210, 5: 462}[N]
    for m1, m2 in pairs:
        assert similar.product_mono(m1, m2) == reference.product_mono(m1, m2), (m1, m2)
    assert su_multioperator_tables(similar) == _nonzero(tables)


def test_make_similar_product_needs_a_loop(jordan_bialgebra_4):
    B = jordan_bialgebra_4
    loopless = DistBialgebra(B.dim, B.N, B.product_mono)
    with pytest.raises(ValueError, match="loop"):
        make_similar_product(loopless, {})


def test_make_similar_product_names_the_tables_for_a_callable_phi(jordan_bialgebra_4):
    with pytest.raises(TypeError, match=r"dict of multioperator tables .*got function"):
        make_similar_product(jordan_bialgebra_4, lambda mx, my: None)


def test_make_similar_product_keeps_the_memory_cap_the_loop_passed(monkeypatch, jordan_bialgebra_4):
    # the similar loop has the size of the given one, so a cap lowered after
    # the loop was built does not refuse it
    monkeypatch.setenv(MEMORY_CAP_ENV, "1")
    similar = make_similar_product(jordan_bialgebra_4, {})
    assert su_multioperator_tables(similar) == {}


def test_make_similar_product_installs_on_an_installed_product(jordan_bialgebra_4):
    B = jordan_bialgebra_4
    first = make_similar_product(B, {})
    assert first.loop is not None
    tables = _doubled(su_multioperator_tables(B))
    second = make_similar_product(first, tables)
    assert su_multioperator_tables(second) == tables
    for arity in range(B.N - 1):
        assert su_bracket_table(second, arity) == su_bracket_table(B, arity)


_PLANE_TABLE_KEYS = [
    (mx, my) for i, j in ((1, 2), (1, 3), (2, 2)) for mx in monomials(2, i) for my in monomials(2, j)
]
_small = st.integers(min_value=-2, max_value=2)


@settings(max_examples=10, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(
    constants=plane_structure_constants,
    tables=st.dictionaries(st.sampled_from(_PLANE_TABLE_KEYS), st.tuples(_small, _small), max_size=8),
)
def test_installed_tables_come_back_and_brackets_stay_on_plane_loops(constants, tables):
    B = DistBialgebra.from_loop(loop_from_algebra(AlgebraTable(2, constants), 4))
    similar = make_similar_product(B, tables)
    assert su_multioperator_tables(similar) == _nonzero(tables)
    for arity in range(B.N - 1):
        assert su_bracket_table(similar, arity) == su_bracket_table(B, arity)


def test_make_similar_product_validation(jordan_bialgebra_4):
    with pytest.raises(ValueError):
        make_similar_product(
            jordan_bialgebra_4, {((1, 0, 0), (0, 1, 0)): basis_vector(3, 0)}
        )  # y-degree 1
    with pytest.raises(ValueError, match="is not a pair of monomials of dimension 3"):
        make_similar_product(
            jordan_bialgebra_4, {((-1, 2, 0), (0, 2, 0)): basis_vector(3, 0)}
        )  # degree 1, with a negative exponent
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
        lhs = ops.p([a], list(factors) + [c], b)
        rhs = SymElement.zero(3)
        for inside, outside in _subset_parts(factors):
            if not inside:
                continue  # p with an empty middle block vanishes
            inner = ops.p([a], list(outside), b) if outside else None
            if outside:
                inner_vec = inner.primitive_part()
                rhs = rhs - ops.p([c], list(inside), inner_vec)
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
        lhs = ops.bracket([c], a, b)
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
        lhs = ops.bracket(list(factors) + [c], a, b)
        rhs = SymElement.zero(3)
        for inside, outside in _subset_parts(factors):
            inner = ops.bracket(list(outside), a, b)
            if not inner.is_primitive():
                raise AssertionError("inner bracket not primitive")
            value = ops.bracket(list(inside), c, inner.primitive_part())
            rhs = rhs + value
        assert lhs == rhs


# -- the filtration rank check -------------------------------------------------------------


def test_rank_is_exact_on_int_rows():
    # a float pivot inverse rounds 10**17 + 1 to 10**17 and loses a rank
    assert _rank([[1, 10**17], [1, 10**17 + 1]]) == 2
    assert _rank([[F(1), F(10**17)], [F(1), F(10**17 + 1)]]) == 2
    assert _rank([[2, 4], [1, 2]]) == 1


def _gauss_rank(rows):
    """Rank by Gaussian elimination over Fractions: the reference for `_rank`."""
    matrix = [[F(c) for c in row] for row in rows]
    rank = 0
    for col in range(len(matrix[0]) if matrix else 0):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [x * inv for x in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def test_rank_matches_gaussian_elimination_on_random_matrices():
    rng = random.Random(29)
    ranks = set()
    for trial in range(300):
        nrows, ncols, inner = rng.randint(0, 7), rng.randint(1, 7), rng.randint(0, 5)

        def entry():
            if trial % 2:
                return F(rng.randint(-4, 4), rng.randint(1, 4))
            return rng.randint(-4, 4)

        # a product of random factors has rank <= inner; zero columns and
        # repeated rows make the elimination skip columns and run out of pivots
        left = [[entry() for _ in range(inner)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(inner)]
        rows = [[sum((row[k] * right[k][j] for k in range(inner)), 0) for j in range(ncols)] for row in left]
        if rows and rng.random() < 0.3:
            dead = rng.randrange(ncols)
            rows = [row[:dead] + [0] + row[dead + 1:] for row in rows]
        if rows and rng.random() < 0.3:
            rows.append(list(rows[0]))
        expected = _gauss_rank(rows)
        assert _rank(rows) == expected, rows
        ranks.add(expected)
    assert ranks == set(range(6))


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


@pytest.mark.parametrize("degree", [-1, True, False])
def test_pbw_refuses_a_degree_that_is_no_int_from_zero(affine_1d, degree):
    # -1 would check no rank and pass, and True would read as 1
    with pytest.raises(ValueError, match=f"degree must be an int >= 0, got {degree}"):
        pbw_span_check(affine_1d, degree)
    assert pbw_span_check(affine_1d, 0).ranks == {0: (1, 1)}

