import copy
import json
import os
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from conftest import (
    NO_SHRINK, is_canonical, plane_structure_constants, reference_compose, reference_multioperator_ms, series_json,
)
from nonassoc import maps
from nonassoc.catalog import (
    AlgebraTable,
    builtin_loop,
    loop_from_algebra,
    loop_from_spec,
    x_squared_y_loop,
)
from nonassoc.dist import DistBialgebra, LinearizedEvaluator
from nonassoc.freealg import (
    fa_associator,
    fa_commutator,
    p_operation,
    su_multioperator_component,
)
from nonassoc.maps import (
    DEFAULT_MEMORY_CAP,
    RIGHT_ALTERNATIVE,
    FormalLoop,
    FormalMap,
    InvariantError,
    MemoryCapError,
    SimilarityMap,
    check_loop_identity,
    check_memory_cap,
    compose,
    eval_word,
    loop_division,
    multioperator_ms,
    prolong,
    resolve_memory_cap,
    right_alt_modify,
    similarity_between,
    table_cells,
)
from nonassoc.symalg import (
    SymElement,
    monomials_up_to,
    split_slot,
    SymTensor,
)
from nonassoc.su_ops import left_normed_product
from nonassoc.words import LDiv, Mul, RDiv, Unit, Var, parse_identity


def loop_1d(series, degree):
    terms = {((i,), (j,)): (F(c),) for (i, j), c in series.items()}
    return FormalLoop.from_map(FormalMap.from_series((1, 1), 1, degree, terms))


@pytest.fixture
def fxy():
    return loop_1d({(1, 0): 1, (0, 1): 1, (1, 1): 1}, 6)


# -- prolongation --------------------------------------------------------------------


def test_prolong_projection_is_identity():
    proj = FormalMap.slot_projection((2,), 0, 4)
    pr = prolong(proj)
    for mono in monomials_up_to(2, 4):
        assert pr.at((mono,)) == SymElement(2, {mono: F(1)})


def test_prolong_zero_map_is_counit():
    zero = FormalMap.zero_map((2,), 2, 4)
    pr = prolong(zero)
    assert pr.at(((0, 0),)) == SymElement.one(2)
    assert pr.at(((2, 1),)).is_zero()


def test_prolong_linear_map_is_symmetric_power():
    ell = FormalMap(
        (2,), 2, 4,
        {(1,): {((1, 0),): (F(1), F(1)), ((0, 1),): (F(0), F(1))}},
    )
    pr = prolong(ell)
    assert pr.at(((1, 1),)) == SymElement(2, {(1, 1): F(1), (0, 2): F(1)})
    assert pr.at(((2, 0),)) == SymElement(2, {(2, 0): F(1), (1, 1): F(2), (0, 2): F(1)})


def test_prolongation_is_coalgebra_morphism(fxy):
    pr = fxy.prolongation()
    for m1 in monomials_up_to(1, 2):
        for m2 in monomials_up_to(1, 2):
            target = pr.at((m1, m2))
            lhs = target.coproduct()
            pair = SymTensor.of(
                SymElement(1, {m1: F(1)}), SymElement(1, {m2: F(1)})
            )
            four = split_slot(split_slot(pair, 1, 2), 0, 2)  # mu1',mu1'',mu2',mu2''
            rhs_terms = {}
            for (a1, a2, b1, b2), coeff in four.terms.items():
                left = pr.at((a1, b1))
                right = pr.at((a2, b2))
                for mL, cL in left.terms.items():
                    for mR, cR in right.terms.items():
                        key = (mL, mR)
                        rhs_terms[key] = rhs_terms.get(key, F(0)) + coeff * cL * cR
            rhs = SymTensor((1, 1), rhs_terms)
            assert lhs == rhs
            assert target.counit() == (F(1) if sum(m1) + sum(m2) == 0 else F(0))


# -- composition ------------------------------------------------------------------------


def test_compose_unitality(fxy):
    p1 = FormalMap.slot_projection((1, 1), 0, 6)
    zero = FormalMap.zero_map((1, 1), 1, 6)
    assert compose(fxy, [p1, zero]) == p1


def test_compose_diagonal_of_addition():
    add = loop_1d({(1, 0): 1, (0, 1): 1}, 4)
    proj = FormalMap.slot_projection((1,), 0, 4)
    diag = compose(add, [proj, proj])
    assert diag == FormalMap((1,), 1, 4, {(1,): {((1,),): (F(2),)}})


def test_associativity_word_series(fxy):
    identity = parse_identity("((x1 * x2) * x3) = (x1 * (x2 * x3))", 3)
    lhs = eval_word(identity.lhs, fxy, 3)
    rhs = eval_word(identity.rhs, fxy, 3)
    assert lhs == rhs
    # (1+x)(1+y)(1+z) - 1 has all multilinear coefficients 1
    for monos in [((1,), (1,), (0,)), ((1,), (0,), (1,)), ((1,), (1,), (1,))]:
        assert lhs.series_value(monos) == (F(1),)


MOUFANG = parse_identity("(x1 * (x2 * (x1 * x3))) = (((x1 * x2) * x1) * x3)", 3)


def _reference_eval(word, loop, nvars):
    """`eval_word` on products of variables, with every composition by `reference_compose`."""
    if isinstance(word, Var):
        return FormalMap.slot_projection((loop.dim,) * nvars, word.index - 1, loop.N)
    assert isinstance(word, Mul)
    inner = [_reference_eval(part, loop, nvars) for part in (word.left, word.right)]
    return reference_compose(loop, inner)


@settings(max_examples=10, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(constants=plane_structure_constants)
def test_compose_matches_the_full_image_reference_on_random_structure_constants(constants):
    N = 4
    loop = loop_from_algebra(AlgebraTable(2, constants), N)
    P1 = FormalMap.slot_projection(loop.dims, 0, N)
    diagonal = FormalMap.slot_projection((2,), 0, N)
    square = compose(loop, [diagonal, diagonal])
    for outer, inner in ((loop, [P1, loop]), (loop.division("left"), [P1, loop]), (square, [loop])):
        # the one-degree composes run first on the same inner maps, so a power
        # cached at a lower degree cap cannot stand in for a full one
        pieces = [compose(outer, inner, _degree=n) for n in range(1, N + 1)]
        full = compose(outer, inner)
        assert full == reference_compose(outer, inner)
        for n, piece in enumerate(pieces, start=1):
            assert piece == full.filter_components(lambda md: sum(md) == n), n
    for side in (MOUFANG.lhs, MOUFANG.rhs):
        assert eval_word(side, loop, 3) == _reference_eval(side, loop, 3)


# `compose` keys each term by its exponent vector packed in radix N + 1; these
# composites carry exponents equal to N, the largest digit the radix holds


def test_compose_packs_exponents_up_to_n_in_one_dimensional_slots():
    N = 6
    G = FormalMap.from_series((1, 1), 1, N, {
        ((1,), (0,)): (1,), ((0,), (1,)): (1,), ((1,), (1,)): (1,), ((6,), (0,)): (1,), ((0,), (6,)): (2,),
    })
    thetas = [
        FormalMap.from_series((1, 1), 1, N, {((1,), (0,)): (1,), ((0,), (6,)): (-1,), ((3,), (2,)): (1,)}),
        FormalMap.from_series((1, 1), 1, N, {((0,), (1,)): (1,), ((6,), (0,)): (3,), ((1,), (1,)): (1,)}),
    ]
    composite = compose(G, thetas)
    assert composite == reference_compose(G, thetas)
    assert composite.value(((6,), (0,))) != (0,) and composite.value(((0,), (6,))) != (0,)


def test_compose_packs_a_three_slot_word_on_split_octonions():
    loop = builtin_loop("split-octonion-loop", 3)
    x1, x2, x3 = Var(1), Var(2), Var(3)
    word = Mul(Mul(Mul(x1, x2), x1), Mul(x1, x3))  # x1 * x1 is 2 x1 + x1^2, so x1 appears cubed
    composite = eval_word(word, loop, 3)
    assert composite == _reference_eval(word, loop, 3)
    assert composite.value(((3, 0, 0, 0, 0, 0, 0, 0), (0,) * 8, (0,) * 8)) != (0,) * 8


def test_compose_packs_the_x_squared_y_loop_at_degree_6():
    loop = x_squared_y_loop(6)
    P1 = FormalMap.slot_projection(loop.dims, 0, 6)
    # the loop is odd, so an even inner map is what puts x^6 into a composite
    even = FormalMap.from_series((1, 1), 1, 6, {((2,), (0,)): (1,), ((0,), (2,)): (-1,), ((1,), (1,)): (1,)})
    for outer, inner in ((loop, [P1, loop]), (loop, [even, even]), (loop.division("left"), [P1, even])):
        composite = compose(outer, inner)
        assert composite == reference_compose(outer, inner)
    assert composite.value(((6,), (0,))) != (0,)


def _divided_powers_of(monkeypatch, run):
    """`run()`'s output, and each prolongation it builds with that prolongation's cached coefficients."""
    made = []

    class Recording(maps.Prolongation):
        def __init__(self, fmap):
            super().__init__(fmap)
            made.append(self)

    monkeypatch.setattr(maps, "Prolongation", Recording)
    outputs = run()
    powers = [
        (prol, [c for series in prol._cache.values() for terms in series.values() for c in terms.values()])
        for prol in made
    ]
    return powers, outputs


def _solve_words_and_raltify(loop):
    return [eval_word(side, loop, 3) for side in (MOUFANG.lhs, MOUFANG.rhs)] + [right_alt_modify(loop).modified]


def _has_integral_tables(fmap):
    return all(c.denominator == 1 for table in fmap.components.values() for v in table.values() for c in v.values())


@pytest.mark.parametrize("name, degree, all_integral", [
    ("jordan-k3-loop", 5, False),  # the modification halves its y-degree-2 block
    ("split-octonion-loop", 3, True),  # alternative, so its own modification
])
def test_divided_powers_of_integral_maps_are_ints(monkeypatch, name, degree, all_integral):
    powers, outputs = _divided_powers_of(monkeypatch, lambda: _solve_words_and_raltify(builtin_loop(name, degree)))
    integral = [coeffs for prol, coeffs in powers if _has_integral_tables(prol.fmap)]
    assert sum(map(len, integral)) > 500
    assert all(type(c) is int for coeffs in integral for c in coeffs)
    assert all(is_canonical(c) for _, coeffs in powers for c in coeffs)
    assert (len(integral) == len(powers)) == all_integral
    for fmap in outputs:
        _assert_sparse_tables(fmap)


def test_divided_powers_with_denominators_are_canonical(monkeypatch):
    constants = (((F(1, 2), F(0)), (F(1, 3), F(1))), ((F(0), F(-1, 2)), (F(2, 3), F(1, 3))))
    loop = loop_from_algebra(AlgebraTable(2, constants), 5)
    assert {c.denominator for t in loop.components.values() for v in t.values() for c in v.values()} == {1, 2, 3}
    powers, outputs = _divided_powers_of(monkeypatch, lambda: _solve_words_and_raltify(loop))
    coeffs = [c for _, cs in powers for c in cs]
    assert all(is_canonical(c) for c in coeffs)
    assert any(type(c) is F for c in coeffs) and any(type(c) is int for c in coeffs)
    for fmap in outputs:
        _assert_sparse_tables(fmap)


def test_compose_signature_errors(fxy):
    p1 = FormalMap.slot_projection((1, 1), 0, 6)
    with pytest.raises(ValueError):
        compose(fxy, [p1])
    bad = FormalMap.slot_projection((1, 1), 0, 5)
    with pytest.raises(ValueError):
        compose(fxy, [p1, bad])


# -- divisions ------------------------------------------------------------------------------


def test_division_series_for_affine_loop(fxy):
    div = fxy.division("left")
    # x \ y = (y - x) / (1 + x)
    assert div.series_value(((1,), (0,))) == (F(-1),)
    assert div.series_value(((2,), (0,))) == (F(1),)
    assert div.series_value(((2,), (1,))) == (F(1),)
    p1 = FormalMap.slot_projection((1, 1), 0, 6)
    p2 = FormalMap.slot_projection((1, 1), 1, 6)
    assert compose(fxy, [p1, div]) == p2


def test_division_of_abelian_loop():
    add = loop_1d({(1, 0): 1, (0, 1): 1}, 5)
    div = loop_division(add, "left")
    expected = FormalMap.slot_projection((1, 1), 1, 5) - FormalMap.slot_projection(
        (1, 1), 0, 5
    )
    assert div == expected


def test_right_division_by_back_substitution(fxy):
    div = fxy.division("right")
    p1 = FormalMap.slot_projection((1, 1), 0, 6)
    p2 = FormalMap.slot_projection((1, 1), 1, 6)
    assert compose(fxy, [div, p2]) == p1
    # this loop is commutative, so x / y shares the series of y \ x
    left = fxy.division("left")
    for monos in [((1,), (1,)), ((2,), (1,)), ((3,), (2,))]:
        assert div.series_value((monos[1], monos[0])) == left.series_value(monos)


DIVISION_LAWS = [
    r"(x1 \ (x1 * x2)) = x2",
    r"(x1 * (x1 \ x2)) = x2",
    "((x2 * x1) / x1) = x2",
    "((x2 / x1) * x1) = x2",
]


def test_all_four_division_laws_as_words(fxy, jordan_loop_4):
    for loop in (fxy, jordan_loop_4):
        for law in DIVISION_LAWS:
            assert check_loop_identity(parse_identity(law, 2), loop).holds, law


def test_division_laws_across_the_catalog(
    octonion_loop_4, nonlinear_loop_5, spin_loop_6, dual_loop_4, xsqy_loop_6
):
    from nonassoc.catalog import builtin_loop

    upper = builtin_loop("assoc-2x2-uppertriangular-loop", 4)
    for loop in (octonion_loop_4, nonlinear_loop_5, spin_loop_6, dual_loop_4, xsqy_loop_6, upper):
        for law in DIVISION_LAWS:
            assert check_loop_identity(parse_identity(law, 2), loop).holds, (loop, law)


# -- word evaluation -------------------------------------------------------------------------


def test_eval_word_examples(fxy):
    p1 = FormalMap.slot_projection((1, 1), 0, 6)
    p2 = FormalMap.slot_projection((1, 1), 1, 6)
    assert eval_word(LDiv(Var(1), Mul(Var(1), Var(2))), fxy, 2) == p2
    assert eval_word(Mul(Var(1), LDiv(Var(1), Unit())), fxy, 1).is_zero()
    assert eval_word(RDiv(Unit(), LDiv(Var(1), Unit())), fxy, 1) == FormalMap.slot_projection((1,), 0, 6)


def test_eval_word_variable_range(fxy):
    with pytest.raises(ValueError):
        eval_word(Mul(Var(1), Var(2)), fxy, 1)


def test_eval_word_commutes_with_prolongation(jordan_loop_4):
    # prolong-after-evaluate against the linearized evaluator, degree <= 3
    loop = jordan_loop_4
    word = Mul(Mul(Var(1), Var(2)), Var(1))
    fmap = eval_word(word, loop, 2)
    pr = fmap.prolongation()
    ev = LinearizedEvaluator(DistBialgebra.from_loop(loop), 2)
    for m1 in monomials_up_to(3, 2):
        for m2 in monomials_up_to(3, 1):
            if sum(m1) + sum(m2) > 3:
                continue
            assert pr.at((m1, m2)).truncate(4) == ev.on_monomials(word, (m1, m2))


def test_check_loop_identity_right_alternative_failure():
    loop = x_squared_y_loop(6)
    verdict = check_loop_identity(parse_identity(RIGHT_ALTERNATIVE, 2), loop)
    assert not verdict.holds
    assert verdict.multidegree == (1, 2)
    assert verdict.monomials == (((1,), (2,)))
    assert verdict.series_difference == (F(-2),)
    data = verdict.to_json()
    assert data["witness"]["multidegree"] == [1, 2]


def test_check_loop_identity_associativity_transfers(dual_loop_4):
    identity = parse_identity("((x1 * x2) * x3) = (x1 * (x2 * x3))", 3)
    assert check_loop_identity(identity, dual_loop_4).holds


# -- right alternative modification --------------------------------------------------------------


def test_right_alt_modify_of_x_squared_y():
    loop = x_squared_y_loop(6)
    result = right_alt_modify(loop)
    modified = result.modified
    assert modified.series_value(((1,), (2,))) == (F(1),)  # x y^2
    assert modified.series_value(((3,), (2,))) == (F(1),)  # x^3 y^2
    # canonical connection unchanged
    keep = lambda md: md[1] <= 1
    assert modified.filter_components(keep) == loop.filter_components(keep)
    # oracle: the y-degree-2 equation 2 q2 = 2xy^2 + 2x^3y^2 solved by back substitution
    assert check_loop_identity(parse_identity(RIGHT_ALTERNATIVE, 2), modified).holds
    p1 = FormalMap.slot_projection((1, 1), 0, 6)
    rebuilt = compose(modified, [p1, result.similarity])
    assert rebuilt.components == loop.components


def test_right_alt_modify_idempotent():
    loop = x_squared_y_loop(6)
    modified = right_alt_modify(loop).modified
    again = right_alt_modify(modified)
    assert again.modified == modified
    assert again.similarity == SimilarityMap.identity(1, 6)


def test_right_alt_modify_fixed_point_on_alternative_loop(octonion_loop_4):
    result = right_alt_modify(octonion_loop_4)
    assert result.modified == FormalLoop.from_map(octonion_loop_4)
    assert result.similarity == SimilarityMap.identity(8, 4)


def test_monoalternativity_of_modification():
    loop = x_squared_y_loop(6)
    modified = right_alt_modify(loop).modified

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
            identity = parse_identity(
                f"(x1 * ({yk} * {yl})) = ((x1 * {yk}) * {yl})", 2
            )
            assert check_loop_identity(identity, modified).holds, (k, l)


# -- similarity ------------------------------------------------------------------------------------


def test_similarity_of_identical_loops(fxy):
    result = similarity_between(fxy, fxy)
    assert result.similar
    assert result.phi == SimilarityMap.identity(1, 6)


def test_similarity_not_similar_witness():
    add = loop_1d({(1, 0): 1, (0, 1): 1}, 6)
    fxy = loop_1d({(1, 0): 1, (0, 1): 1, (1, 1): 1}, 6)
    result = similarity_between(add, fxy)
    assert not result.similar
    assert result.multidegree == (1, 1)


def test_similarity_back_substitution():
    loop = x_squared_y_loop(6)
    modified = right_alt_modify(loop).modified
    result = similarity_between(modified, loop)
    assert result.similar
    p1 = FormalMap.slot_projection((1, 1), 0, 6)
    rebuilt = compose(modified, [p1, result.phi])
    assert rebuilt.components == loop.components
    # the similarity has no components at bidegrees (i, 0) or (i, 1), i >= 1
    for md in result.phi.components:
        assert md == (0, 1) or (md[0] >= 1 and md[1] >= 2)


# -- geodesic multioperator -----------------------------------------------------------------------


def test_multioperator_ms_low_components():
    ms = multioperator_ms(4)
    alpha, beta = ms.algebra.gens()
    assert ms.component(0, 1) == beta
    for i in range(1, 4):
        assert ms.component(i, 1).is_zero()


def test_multioperator_ms_1_3_closed_form():
    ms = multioperator_ms(4)
    alpha, beta = ms.algebra.gens()
    abb = fa_associator(alpha, beta, beta)
    expected = fa_commutator(beta, abb).scale(F(-1, 12)) + p_operation(
        [alpha], [beta, beta], beta
    ).scale(F(-1, 6))
    assert ms.component(1, 3) == expected


def test_multioperator_ms_differs_from_symmetrized():
    ms = multioperator_ms(4)
    alpha, beta = ms.algebra.gens()
    su_13 = su_multioperator_component(alpha, beta, 1, 3)
    assert su_13 == p_operation([alpha], [beta, beta], beta).scale(F(1, 6))
    assert ms.component(1, 3) != su_13


def test_multioperator_printed_formula_readings():
    # the printed (2, 3) component leaves v undeclared: of v = alpha or beta, with the last
    # term -1/12 as printed or +1/12, only v = beta as printed is the recursion's component
    ms = multioperator_ms(5)
    alpha, beta = ms.algebra.gens()
    abb = fa_associator(alpha, beta, beta)
    head = fa_associator(alpha, beta, abb).scale(F(-1, 12)) + fa_associator(alpha, abb, beta).scale(F(1, 12))
    p21 = p_operation([alpha, alpha], [beta], beta)
    p22 = p_operation([alpha, alpha], [beta, beta], beta)
    readings = {
        (name, last): head + fa_commutator(v, p21).scale(F(-1, 24)) + p22.scale(F(last, 12))
        for name, v in (("alpha", alpha), ("beta", beta))
        for last in (-1, 1)
    }
    assert [key for key, expr in readings.items() if expr == ms.component(2, 3)] == [("beta", -1)]


def test_multioperator_bidegree_bounds():
    ms = multioperator_ms(4)
    with pytest.raises(ValueError):
        ms.component(2, 3)
    for i, j in ((-1, 3), (3, -1), (True, 2), (2, False), (1.0, 2)):
        with pytest.raises(ValueError, match="bidegree entry must be an int >= 0"):
            ms.component(i, j)
    assert ms.component(1, 2) == ms.components[(1, 2)]


@pytest.mark.parametrize(
    "at_pass, degree, fails_at", [(1, 1, 1), (1, 2, 2), (2, 3, 3), (3, 1, 3), (3, 4, 4), (1, 4, None)]
)
def test_multioperator_ms_guards_the_solved_degrees(monkeypatch, at_pass, degree, fails_at):
    """A pass whose candidate moves a degree <= its own number is an invariant failure."""
    real = maps.fa_loop_divide
    calls = []

    def perturbed(a, z, side):
        out = real(a, z, side)
        calls.append(side)
        if len(calls) == at_pass:
            alpha = a.alg.gen(0)
            out = out + left_normed_product(a.alg, [alpha] * degree)
        return out

    monkeypatch.setattr(maps, "fa_loop_divide", perturbed)
    if fails_at is None:
        ms = multioperator_ms(5)
        monkeypatch.undo()
        assert ms.phi == multioperator_ms(5).phi
    else:
        with pytest.raises(InvariantError, match=f"changed degree <= {fails_at} at pass {fails_at}$"):
            multioperator_ms(5)


@pytest.mark.parametrize("max_degree", range(2, 8))
def test_multioperator_ms_matches_the_literal_series(max_degree):
    assert multioperator_ms(max_degree).phi == reference_multioperator_ms(max_degree)


# -- loop validation, caps and serialization ------------------------------------------------------


def test_unitality_validation():
    broken = {(1, 0): {(((1,), (0,))): (F(2),)}, (0, 1): {(((0,), (1,))): (F(1),)}}
    with pytest.raises(ValueError):
        FormalLoop(1, 3, broken)
    extra = dict(FormalLoop.unital_components(1))
    extra[(2, 0)] = {(((2,), (0,))): (F(1),)}
    with pytest.raises(ValueError):
        FormalLoop(1, 3, extra)


@pytest.mark.parametrize(
    "md, table, message",
    [
        ((0, 1), {(((0,), (1,))): (F(-1),)}, r"not unital: component \(0, 1\) must restrict to the identity"),
        ((0, 3), {(((0,), (3,))): (F(1),)}, r"not unital: nonzero component at \(0, 3\)"),
    ],
)
def test_unitality_validation_on_the_second_slot(md, table, message):
    components = {**FormalLoop.unital_components(1), md: table}
    with pytest.raises(ValueError, match=f"^{message}$"):
        FormalLoop(1, 3, components)


def test_similarity_rejects_a_broken_identity_block():
    for block in [{(((0,), (1,))): (F(2),)}, {}]:
        with pytest.raises(ValueError, match=r"^a similarity restricts to the identity on 1 \(x\) k\[V\]$"):
            SimilarityMap(1, 4, {(0, 1): block, (1, 2): {(((1,), (2,))): (F(1),)}})


def test_similarity_shape_validation():
    bad = dict(FormalLoop.unital_components(1))
    with pytest.raises(ValueError):
        SimilarityMap(1, 4, bad)  # has a (1, 0) component


@pytest.mark.parametrize("cap", [True, False, -1, 1.5])
def test_a_memory_cap_that_is_not_an_int_at_least_0_is_refused(cap):
    with pytest.raises(ValueError, match="--memory-cap must be an int >= 0"):
        resolve_memory_cap(cap)


@pytest.mark.parametrize("value", ["abc", "-3", "1.5", "", "1_000"])
def test_a_memory_cap_variable_that_is_not_a_decimal_count_is_refused(monkeypatch, value):
    monkeypatch.setenv("NONASSOC_MEMORY_CAP", value)
    with pytest.raises(ValueError, match="NONASSOC_MEMORY_CAP must be a decimal int >= 0"):
        resolve_memory_cap()


def test_memory_cap_sources_in_order(monkeypatch):
    monkeypatch.delenv("NONASSOC_MEMORY_CAP", raising=False)
    assert resolve_memory_cap() == DEFAULT_MEMORY_CAP
    monkeypatch.setenv("NONASSOC_MEMORY_CAP", " 0 ")
    assert resolve_memory_cap() == 0 and resolve_memory_cap(7) == 7


def test_memory_cap():
    assert table_cells(8, 4) == 38752
    check_memory_cap(8, 4)
    with pytest.raises(MemoryCapError):
        check_memory_cap(8, 5)
    check_memory_cap(8, 5, cap=10**9)
    os.environ["NONASSOC_MEMORY_CAP"] = "10"
    try:
        with pytest.raises(MemoryCapError):
            check_memory_cap(2, 2)
    finally:
        del os.environ["NONASSOC_MEMORY_CAP"]


def test_loop_json_round_trip(jordan_loop_4, fxy):
    data = jordan_loop_4.to_json()
    assert data["view"] == "distribution"
    rebuilt = FormalLoop.from_map(FormalMap.from_json(data))
    assert rebuilt == FormalLoop.from_map(jordan_loop_4)
    # the series view, read as outside input; x_squared_y and the division of F = x + y + xy
    # have exponents above 1, where the two views differ
    for fmap in (jordan_loop_4, x_squared_y_loop(4), fxy.division("left")):
        rebuilt_series = FormalMap.from_json(series_json(fmap))
        assert rebuilt_series.components == fmap.components
    text = json.dumps(data, sort_keys=True)
    assert json.dumps(FormalMap.from_json(json.loads(text)).to_json(), sort_keys=True) == json.dumps(
        data, sort_keys=True
    )


def test_division_solve_degree_assertion(fxy):
    # the fixed point must not disturb already-settled degrees; reaching a
    # stable map twice is the cheap observable consequence
    first = loop_division(fxy, "left")
    second = loop_division(fxy, "left")
    assert first == second


@pytest.mark.parametrize("side", ["left", "right"])
def test_division_solve_raises_when_a_degree_slice_is_wrong(fxy, monkeypatch, side):
    # drop one entry of the degree-3 slice; the final full composition must see it
    real = maps.compose
    dropped = []

    def dropping(G, thetas, *, _degree=None):
        out = real(G, thetas, _degree=_degree)
        if _degree == 3:
            md, monos, value = next(out.sorted_entries())
            dropped.append(monos)
            out = out - FormalMap(out.dims, out.target_dim, out.N, {md: {monos: value}})
        return out

    monkeypatch.setattr(maps, "compose", dropping)
    with pytest.raises(InvariantError, match="not a fixed point at degree 3"):
        loop_division(fxy, side)
    assert dropped


# -- sparse values inside, dense values outside ---------------------------------------------


def test_on_elements_rejects_elements_of_the_wrong_dimension():
    with pytest.raises(ValueError):
        FormalMap.slot_projection((3,), 0, 3).on_elements([SymElement.basis(2, 0)])
    two = FormalMap.slot_projection((3, 2), 1, 3)
    with pytest.raises(ValueError):
        two.on_elements([SymElement.basis(3, 0), SymElement.basis(3, 1)])
    assert two.on_elements([SymElement.one(3), SymElement.basis(2, 1)]) == {1: F(1)}


def test_on_elements_refuses_elements_whose_degrees_sum_past_n():
    loop = builtin_loop("jordan-k3-loop", 3)
    x, y = SymElement.of_terms(3, {(2, 0, 0): 1}), SymElement.of_terms(3, {(0, 2, 0): 1})
    with pytest.raises(ValueError, match="top degrees summing to 4 beyond the truncation 3"):
        loop.on_elements([x, y])
    assert loop.on_elements([x, SymElement.basis(3, 1)]) == builtin_loop("jordan-k3-loop", 4).on_elements(
        [x, SymElement.basis(3, 1)]
    )


@pytest.mark.parametrize("monos, message", [
    (((1, 0, 0),), "1 monomials for a map of 2 slots"),
    (((1, 0, 0, 0), (0, 1, 0)), r"\(1, 0, 0, 0\) is not a monomial of a 3-dimensional slot"),
    (((True, 0, 0), (0, 1, 0)), r"\(True, 0, 0\) is not a monomial of a 3-dimensional slot"),
    (((5, 0, 0), (0, 1, 0)), "total degree 6 beyond the truncation 3"),
    (((2, 0, 0), (0, 2, 0)), "total degree 4 beyond the truncation 3"),
], ids=["one-slot", "long-monomial", "bool-exponent", "degree-6", "degree-4"])
def test_value_refuses_what_the_map_does_not_hold(monos, message):
    loop = builtin_loop("jordan-k3-loop", 3)
    for read in (loop.value, loop.series_value):
        with pytest.raises(ValueError, match=message):
            read(monos)
    within = ((0, 0, 0), (3, 0, 0))
    assert loop.value(within) == (F(0),) * 3 and loop.series_value(within) == (F(0),) * 3


def _assert_sparse_tables(fmap):
    for md, table in fmap.components.items():
        assert table and 1 <= sum(md) <= fmap.N
        for monos, value in table.items():
            assert type(value) is dict and value, (md, monos)
            for i, c in value.items():
                assert i in range(fmap.target_dim) and type(c) is F and c != 0, value


def _assert_dense(value, dim):
    assert type(value) is tuple and len(value) == dim
    assert all(type(c) is F for c in value), value


def test_sparse_values_inside_dense_values_outside(fxy):
    loop = FormalLoop.from_map(FormalMap.from_json(builtin_loop("jordan-k3-loop", 4).to_json()))
    stored = copy.deepcopy(loop.components)
    p1 = FormalMap.slot_projection(loop.dims, 0, loop.N)
    modification = right_alt_modify(loop)
    maps = [
        loop,
        loop.division("left"),
        loop.division("right"),
        compose(loop, [p1, loop]),
        loop - loop.interaction_part(),
        loop + loop,
        loop.scale(F(-2, 3)),
        modification.modified,
        modification.similarity,
        FormalMap.from_json(series_json(loop)),
        fxy.division("left"),
    ]
    for fmap in maps:
        assert not fmap.is_zero()
        _assert_sparse_tables(fmap)
        for md, monos, value in fmap.sorted_entries():
            _assert_dense(value, fmap.target_dim)
            assert fmap.value(monos) == value
            _assert_dense(fmap.series_value(monos), fmap.target_dim)
        for comp in series_json(fmap)["components"]:
            assert all(len(e["value"]) == fmap.target_dim for e in comp["entries"])
    absent = ((0, 0, 0), (4, 0, 0))
    assert loop.value(absent) == (F(0),) * 3 and loop.series_value(absent) == (F(0),) * 3
    assert (loop - loop).components == {} and loop.scale(0).components == {}
    assert loop.components == stored


def _loop_json_with_interaction_monomial(mono):
    """The jordan-k3 loop at N=3 as JSON, with `mono` as the x-monomial of its first xy entry."""
    data = builtin_loop("jordan-k3-loop", 3).to_json()
    interaction = data["components"][-1]
    assert interaction["multidegree"] == [1, 1]
    interaction["entries"][0]["monomials"][0] = list(mono)
    return data


# (slot dimension, stored monomial, malformed monomial of the same degree)
MALFORMED_MONOMIALS = [(3, (1, 0, 0), (1, 0)), (3, (1, 0, 0), (2, -1, 0)), (3, (1, 0, 0), (1, 0, 0, 0))]


@pytest.mark.parametrize("dim, good, bad", MALFORMED_MONOMIALS)
def test_formal_map_rejects_malformed_monomials(dim, good, bad):
    assert FormalMap((dim,), 2, 3, {(1,): {(good,): (1, 0)}}).value((good,)) == (1, 0)
    with pytest.raises(ValueError, match="not a monomial of a 3-dimensional slot"):
        FormalMap((dim,), 2, 3, {(1,): {(bad,): (1, 0)}})
    with pytest.raises(ValueError):
        FormalMap.from_series((dim,), 2, 3, {(bad,): (1, 0)})
    assert loop_from_spec({"type": "components", **_loop_json_with_interaction_monomial(good)}, 3)
    data = _loop_json_with_interaction_monomial(bad)
    with pytest.raises(ValueError, match="not a monomial of a 3-dimensional slot"):
        FormalMap.from_json(data)
    with pytest.raises(ValueError, match="not a monomial of a 3-dimensional slot"):
        loop_from_spec({"type": "components", **data}, 3)


def test_formal_map_rejects_non_integer_exponents():
    with pytest.raises(ValueError, match="not a monomial of a 2-dimensional slot"):
        FormalMap((2,), 2, 3, {(1,): {((1.0, 0),): (1, 0)}})
    # a bool hashes like its int, but it is not an exponent
    with pytest.raises(ValueError, match=r"\(True,\) is not a monomial of a 1-dimensional slot"):
        FormalMap((1,), 1, 2, {(1,): {((True,),): (1,)}})
    assert list(FormalMap((1,), 1, 2, {(1,): {((1,),): (1,)}}).components[(1,)]) == [((1,),)]


# (components, what is wrong) at multidegree (2,) of a map k^3 -> k^2 truncated at N = 1
ABOVE_THE_TRUNCATION = [
    ({(2,): {((5, -9, 0, 1),): (1, 0, 7)}}, "everything"),
    ({(2,): {((2, 0),): (1, 0)}}, "monomial length"),
    ({(2,): {((2, 0.0, 0),): (1, 0)}}, "exponent type"),
    ({(2,): {((1, 0, 0),): (1, 0)}}, "multidegree"),
    ({(2,): {((2, 0, 0),): (1, 0, 7)}}, "value length"),
]


@pytest.mark.parametrize("components, wrong", ABOVE_THE_TRUNCATION)
def test_components_above_the_truncation_are_checked_before_they_are_dropped(components, wrong):
    with pytest.raises(ValueError):
        FormalMap((3,), 2, 1, components)
    assert FormalMap((3,), 2, 1, {(2,): {((2, 0, 0),): (1, 0)}}).is_zero()


@pytest.mark.parametrize("degree", [True, False, -1])
def test_a_truncation_degree_that_is_no_int_from_zero_is_refused(degree):
    # every constructor reaches FormalMap._setup, the trusted one included
    message = f"truncation degree must be an int >= 0, got {degree}"
    with pytest.raises(ValueError, match=message):
        FormalMap((1,), 1, degree, {})
    with pytest.raises(ValueError, match=message):
        FormalMap._of_sparse((1,), 1, degree, {})
    with pytest.raises(ValueError, match=message):
        SimilarityMap.identity(2, degree)
    with pytest.raises(ValueError, match=message):
        builtin_loop("x-squared-y-loop", degree)


def test_a_loop_needs_truncation_degree_one():
    # at N = 0 a loop has no room for its unital components, and the error names the degree
    makers = (
        lambda: builtin_loop("x-squared-y-loop", 0),
        lambda: loop_from_algebra(AlgebraTable(1, (((F(0),),),)), 0),
    )
    for make in makers:
        with pytest.raises(ValueError, match="a formal loop needs truncation degree >= 1, got 0"):
            make()
    assert FormalMap.zero_map((1,), 1, 0).is_zero()
    assert builtin_loop("x-squared-y-loop", 1).N == 1


def test_from_json_checks_components_above_its_truncation():
    data = _loop_json_with_interaction_monomial((1, 0))
    data["N"] = 1
    with pytest.raises(ValueError, match="not a monomial of a 3-dimensional slot"):
        FormalMap.from_json(data)
    with pytest.raises(ValueError):
        FormalMap.from_series((3,), 2, 1, {((2, 0),): (1, 0)})
    good = _loop_json_with_interaction_monomial((1, 0, 0))
    good["N"] = 1
    assert FormalMap.from_json(good).support() == {(1, 0), (0, 1)}
