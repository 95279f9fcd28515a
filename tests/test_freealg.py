import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NO_SHRINK, associative_collapse, rationals, reference_exp_inverse, reference_fa_product,
    reference_multioperator,
)
from nonassoc.freealg import (
    FAElement,
    FATensor,
    FreeAlgebra,
    fa_associator,
    fa_commutator,
    fa_divide,
    fa_exp,
    fa_exp_inverse,
    fa_log,
    fa_loop_divide,
    mono_degree,
    mono_encode,
    p_operation,
    parse_fa_monomial,
    su_bracket,
    su_multioperator,
    su_multioperator_component,
)
from nonassoc.su_ops import left_normed_product


@pytest.fixture
def alg():
    return FreeAlgebra(("x", "y", "z"), 5)


def random_element(rng, alg, max_degree, nterms=3):
    pool = [None] + [i for i in range(len(alg.names))]
    elems = [alg.one()] + [alg.gen(i) for i in range(len(alg.names))]

    def random_monomial(degree):
        if degree <= 1:
            return elems[rng.randrange(1, len(elems))] if degree == 1 else alg.one()
        split = rng.randint(1, degree - 1)
        return random_monomial(split) * random_monomial(degree - split)

    total = alg.zero()
    for _ in range(nterms):
        total = total + random_monomial(rng.randint(0, max_degree)).scale(
            F(rng.randint(-2, 2))
        )
    return total


def test_unit_laws_and_bilinearity(alg):
    x, y, z = alg.gens()
    assert x * alg.one() == x
    assert alg.one() * x == x
    assert (x + y) * x == x * x + y * x
    assert (x * y).terms == {((0, 1)): F(1)}


def test_truncation_drops_high_degrees():
    alg = FreeAlgebra(("x",), 3)
    x = alg.gen(0)
    p = ((x * x) * x) * x
    assert p.is_zero()


def test_coproduct_examples(alg):
    x, y, _ = alg.gens()
    s = x
    d = s.coproduct()
    assert d == FATensor.of(s, alg.one()) + FATensor.of(alg.one(), s)
    dxy = (x * y).coproduct()
    expected = (
        FATensor.of(x * y, alg.one())
        + FATensor.of(x, y)
        + FATensor.of(y, x)
        + FATensor.of(alg.one(), x * y)
    )
    assert dxy == expected


def test_counit(alg):
    x, y, _ = alg.gens()
    assert (alg.one() + (x * y).scale(F(3))).counit() == 1
    assert x.counit() == 0


def test_bialgebra_compatibility_random(alg):
    rng = random.Random(17)
    for _ in range(6):
        a = random_element(rng, alg, 2)
        b = random_element(rng, alg, 3)
        assert (a * b).coproduct() == a.coproduct() * b.coproduct()
        assert (a * b).counit() == a.counit() * b.counit()


def test_division_base_cases(alg):
    x, y, _ = alg.gens()
    v = y * y + y
    assert fa_divide(alg.one(), v, "left") == v
    assert fa_divide(x, v, "left") == -(x * v)
    lhs = fa_divide(x * y, y, "left")
    assert lhs == x * (y * y) + y * (x * y) - (x * y) * y


def assert_fa_division_laws(u, v):
    r"""sum u_(1) \ (u_(2) v) = sum u_(1) (u_(2) \ v) = counit(u) v, and the right analogues."""
    alg = u.alg
    laws = [alg.zero() for _ in range(4)]
    for (a, b), coeff in u.coproduct().terms.items():
        ea = FAElement(alg, {a: F(1)})
        eb = FAElement(alg, {b: F(1)})
        laws[0] = laws[0] + fa_divide(ea, eb * v, "left").scale(coeff)
        laws[1] = laws[1] + (ea * fa_divide(eb, v, "left")).scale(coeff)
    for (a, b), coeff in v.coproduct().terms.items():
        ea = FAElement(alg, {a: F(1)})
        eb = FAElement(alg, {b: F(1)})
        laws[2] = laws[2] + fa_divide(u * ea, eb, "right").scale(coeff)
        laws[3] = laws[3] + (fa_divide(u, ea, "right") * eb).scale(coeff)
    assert laws[0] == v.scale(u.counit())
    assert laws[1] == v.scale(u.counit())
    assert laws[2] == u.scale(v.counit())
    assert laws[3] == u.scale(v.counit())


def test_division_laws_random(alg):
    rng = random.Random(23)
    for _ in range(4):
        u = random_element(rng, alg, 2, nterms=2)
        v = random_element(rng, alg, 2, nterms=2)
        assert_fa_division_laws(u, v)


def fa_monomials(degree: int, ngens: int = 2) -> list:
    """Every monomial (tree) of the given degree in the first `ngens` generators."""
    if degree == 0:
        return [None]
    if degree == 1:
        return list(range(ngens))
    return [
        (a, b)
        for k in range(1, degree)
        for a in fa_monomials(k, ngens)
        for b in fa_monomials(degree - k, ngens)
    ]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data(), max_degree=st.integers(2, 4), excess=st.integers(0, 1))
def test_division_of_terms_at_the_truncation(data, max_degree, excess):
    """Term pairs whose degrees add up to max_degree (kept) or max_degree + 1 (zero)."""
    alg = FreeAlgebra(("x", "y"), max_degree)
    total = max_degree + excess
    du = data.draw(st.integers(excess, max_degree), label="deg u")
    u = FAElement(alg, {data.draw(st.sampled_from(fa_monomials(du))): data.draw(rationals.filter(bool))})
    v = FAElement(
        alg, {data.draw(st.sampled_from(fa_monomials(total - du))): data.draw(rationals.filter(bool))}
    )
    assert_fa_division_laws(u, v)
    for side in ("left", "right"):
        quotient = fa_divide(u, v, side)
        assert quotient == quotient.graded_piece(max_degree)
        if excess:
            assert quotient.is_zero()
    # a pair above the truncation is answered by the early exit, never stored
    for a, b in [*alg._ldiv_memo, *alg._rdiv_memo]:
        assert mono_degree(a) + mono_degree(b) <= max_degree


def test_associator_and_commutator(alg):
    x, y, z = alg.gens()
    assert fa_associator(x, y, z) == (x * y) * z - x * (y * z)
    assert fa_associator(alg.one(), y, z).is_zero()
    assert fa_commutator(y, z) == y * z - z * y


def test_p_on_generators_is_associator(alg):
    x, y, z = alg.gens()
    assert p_operation([x], [y], z) == fa_associator(x, y, z)


def test_p_collapses_in_associative_quotient(alg):
    x, y, z = alg.gens()
    value = p_operation([x, y], [z], x)
    assert associative_collapse(value) == {}


def p_oracle(alg, xs, ys, z):
    """Solve the defining relation for p by recursion over subsets.

    (u, v, z) = sum u_(1) v_(1) . p(parts of u_(2); parts of v_(2); z) with
    p vanishing whenever a block is empty; the top term is isolated.
    """

    def subsets(seq):
        n = len(seq)
        for mask in range(2**n):
            inside = tuple(seq[i] for i in range(n) if mask >> i & 1)
            outside = tuple(seq[i] for i in range(n) if not mask >> i & 1)
            yield inside, outside

    def normed(seq):
        return left_normed_product(alg, seq)

    def solve(xs_part, ys_part):
        if not xs_part or not ys_part:
            return alg.zero()
        total = fa_associator(normed(xs_part), normed(ys_part), z)
        for s_in, s_out in subsets(xs_part):
            for t_in, t_out in subsets(ys_part):
                if not s_in and not t_in:
                    continue
                inner = solve(s_out, t_out)
                if inner.is_zero():
                    continue
                total = total - (normed(s_in) * normed(t_in)) * inner
        return total

    return solve(tuple(xs), tuple(ys))


def test_p_two_block_against_independent_oracle(alg):
    x, y, z = alg.gens()
    assert p_operation([x, y], [z], x) == p_oracle(alg, [x, y], [z], x)
    assert p_operation([x], [y, z], x) == p_oracle(alg, [x], [y, z], x)
    assert p_operation([x, y], [z, z], x) == p_oracle(alg, [x, y], [z, z], x)


def test_p_defining_relation_total_degree_five(alg):
    x, y, z = alg.gens()
    for xs, ys in [([x], [y]), ([x, y], [z]), ([x], [y, z]), ([x, y], [z, x])]:
        assert p_operation(xs, ys, z) == p_oracle(alg, xs, ys, z)


def test_p_values_are_primitive(alg):
    x, y, z = alg.gens()
    assert p_operation([x], [y], z).is_primitive()
    assert p_operation([x, y], [z], x).is_primitive()
    assert p_operation([x, x], [y, y], z).is_primitive()


def test_p_rejects_non_primitive(alg):
    x, y, _ = alg.gens()
    with pytest.raises(ValueError):
        p_operation([x * y], [y], x)


def test_su_bracket_examples(alg):
    x, y, z = alg.gens()
    assert su_bracket([], y, z) == -(fa_commutator(y, z))
    assert su_bracket([x], y, z) == -fa_associator(x, y, z) + fa_associator(x, z, y)
    assert su_bracket([x], y, y).is_zero()
    assert su_bracket([x, y], z, z).is_zero()


def test_multioperator_block_symmetry(alg):
    x, y, z = alg.gens()
    assert su_multioperator([x, y], [z, z]) == su_multioperator([y, x], [z, z])
    assert su_multioperator([x], [y, z]) == su_multioperator([x], [z, y])


def test_multioperator_definition_small(alg):
    x, y, z = alg.gens()
    expected = (p_operation([x], [y], z) + p_operation([x], [z], y)).scale(F(1, 2))
    assert su_multioperator([x], [y, z]) == expected
    # at repeated arguments the symmetrization collapses
    assert su_multioperator([x], [y, y]) == p_operation([x], [y], y)
    assert su_multioperator_component(x, y, 1, 2) == p_operation([x], [y], y).scale(
        F(1, 2)
    )


_ALG5 = FreeAlgebra(("x", "y", "z"), 5)


@settings(max_examples=40, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(data=st.data())
def test_multioperator_is_the_literal_symmetrization(data):
    alg = _ALG5
    x, y, z = alg.gens()
    # few letters, so blocks repeat them; x - 2y is primitive and distinct from x and y
    pool = [x, y, z, x - y.scale(2)]
    m = data.draw(st.integers(1, 3), label="m")
    n = data.draw(st.integers(2, alg.max_degree - m), label="n")
    xs = data.draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m), label="xs")
    ys = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n), label="ys")
    assert su_multioperator(xs, ys) == reference_multioperator(alg, xs, ys)
    a, b = data.draw(st.sampled_from(pool), label="a"), data.draw(st.sampled_from(pool), label="b")
    assert su_multioperator_component(a, b, m, n) == reference_multioperator(
        alg, [a] * m, [b] * n
    ).scale(F(1, factorial(m) * factorial(n)))


def test_exp_series_to_degree_four():
    alg = FreeAlgebra(("x",), 4)
    x = alg.gen(0)
    xx = x * x
    expected = (
        alg.one()
        + x
        + xx.scale(F(1, 2))
        + (xx * x).scale(F(1, 6))
        + ((xx * x) * x).scale(F(1, 24))
    )
    assert fa_exp(x) == expected
    assert fa_exp(alg.zero()) == alg.one()


def test_exp_based_at_point():
    alg = FreeAlgebra(("x", "y"), 4)
    x, y = alg.gens()
    base = alg.one() + x
    assert fa_exp(alg.zero(), base=base) == base
    # geodesic series term by term: b + X + X(b\X)/2 + ...
    X = y
    step = fa_loop_divide(base, X, "left")
    explicit = base + X + (X * step).scale(F(1, 2)) + ((X * step) * step).scale(F(1, 6)) + (((X * step) * step) * step).scale(F(1, 24))
    assert fa_exp(X, base=base) == explicit


def test_exp_rejects_constant_terms():
    alg = FreeAlgebra(("x",), 3)
    with pytest.raises(ValueError):
        fa_exp(alg.one())
    with pytest.raises(ValueError):
        fa_exp(alg.gen(0), base=alg.gen(0))


def test_loop_division():
    alg = FreeAlgebra(("x", "y"), 4)
    x, y = alg.gens()
    a = alg.one() + x
    assert fa_loop_divide(a, a * y, "left") == y
    assert fa_loop_divide(alg.one(), y, "left") == y
    inv = fa_loop_divide(a, alg.one(), "left")
    assert a * inv == alg.one()
    right = fa_loop_divide(a, y * a, "right")
    assert right == y
    with pytest.raises(ValueError):
        fa_loop_divide(x, y, "left")


def test_log_tree_coefficients():
    log5 = fa_log(5)
    names = log5.alg.names
    by_encoding = {mono_encode(m, names): c for m, c in log5.terms.items()}
    assert by_encoding["(x x)"] == F(-1, 2)
    assert by_encoding["((x x) x)"] == F(1, 12)
    assert by_encoding["(x (x x))"] == F(1, 4)


@st.composite
def fa_monomial_of_degree(draw, ngens, degree):
    if degree == 0:
        return None
    if degree == 1:
        return draw(st.integers(0, ngens - 1))
    split = draw(st.integers(1, degree - 1))
    left = draw(fa_monomial_of_degree(ngens, split))
    return (left, draw(fa_monomial_of_degree(ngens, degree - split)))


@st.composite
def fa_elements(draw, alg, unit=None):
    """A unit term (coefficient `unit`, or drawn nonzero) plus 1-5 terms of mixed degrees."""
    ngens = len(alg.names)
    terms = {None: F(unit) if unit is not None else draw(rationals.filter(bool))}
    for degree in draw(st.lists(st.integers(1, alg.max_degree), min_size=1, max_size=5)):
        terms[draw(fa_monomial_of_degree(ngens, degree))] = draw(rationals.filter(bool))
    return FAElement(alg, terms)


free_algebras = st.builds(
    FreeAlgebra, st.integers(1, 3).map(lambda n: ("x", "y", "z")[:n]), st.integers(2, 6)
)


@settings(max_examples=60, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(data=st.data(), alg=free_algebras)
def test_graded_product_matches_the_pairwise_product(data, alg):
    a = data.draw(fa_elements(alg), label="a")
    b = data.draw(fa_elements(alg), label="b")
    assert a * b == reference_fa_product(a, b)
    assert b * a == reference_fa_product(b, a)


@settings(max_examples=50, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(data=st.data(), alg=free_algebras)
def test_graded_exp_inverse_matches_the_fixed_point_iteration(data, alg):
    g = data.draw(fa_elements(alg, unit=1), label="g")
    log = fa_exp_inverse(g)
    assert log == reference_exp_inverse(g)
    assert log.counit() == 0
    assert fa_exp(log) == g


@pytest.mark.parametrize(
    "mono",
    [5, 2, -1, True, False, (0, 1, 1), (0,), (), "x", (0, "x"), (0, 2), (None, 0), (0, None), 1.0],
    ids=repr,
)
def test_constructors_reject_malformed_monomials(mono):
    alg = FreeAlgebra(("x", "y"), 3)
    with pytest.raises(ValueError):
        FAElement(alg, {mono: 1})
    with pytest.raises(ValueError):
        FAElement(alg, {mono: F(1)})
    with pytest.raises(ValueError):
        FATensor(alg, {(mono, None): F(1)})
    with pytest.raises(ValueError):
        FATensor(alg, {(0, mono): F(1)})


def test_constructors_accept_well_formed_monomials():
    alg = FreeAlgebra(("x", "y"), 4)
    x, y = alg.gens()
    elem = FAElement(alg, {None: 2, 1: 1, (0, 1): "1/2", ((1, 1), 0): -1, ((0, 0), (0, 0)): 5})
    assert elem == alg.one().scale(2) + y + (x * y).scale(F(1, 2)) - (y * y) * x + ((x * x) * (x * x)).scale(5)
    assert FAElement.from_json(alg, elem.to_json()) == elem
    assert FATensor(alg, {(None, (0, 1)): F(1)}) == FATensor.of(alg.one(), x * y)


def test_constructors_refuse_a_monomial_above_the_truncation():
    alg = FreeAlgebra(("x", "y"), 2)
    x, y = alg.gens()
    message = r"monomial \(\(x y\) x\) has degree 3, above the truncation 2"
    with pytest.raises(ValueError, match=message):
        FAElement(alg, {((0, 1), 0): 1})
    with pytest.raises(ValueError, match=message):
        FAElement.from_json(alg, [{"monomial": "((x y) x)", "coeff": "1"}])
    with pytest.raises(ValueError, match=message):
        FATensor(alg, {(((0, 1), 0), None): 1})
    with pytest.raises(ValueError, match=message):
        FATensor(alg, {(0, ((0, 1), 0)): 1})
    # a zero coefficient is no term, and products still truncate
    assert FAElement(alg, {((0, 1), 0): 0}).is_zero()
    assert FATensor(alg, {(((0, 1), 0), None): 0}).is_zero()
    assert ((x * y) * x).is_zero()
    assert (FATensor.of(x * y, x) * FATensor.of(x, y)).is_zero()


def test_from_json_rejects_a_unit_inside_a_pair():
    alg = FreeAlgebra(("x", "y"), 3)
    with pytest.raises(ValueError):
        FAElement.from_json(alg, [{"monomial": "(1 x)", "coeff": "1"}])


@pytest.mark.parametrize(
    "data, message",
    [
        ({"monomial": "x", "coeff": "1"}, "a free-algebra element must be a JSON array, got dict"),
        ("x", "a free-algebra element must be a JSON array, got str"),
        ([["x", "1"]], "a free-algebra element must hold JSON objects, got list"),
        ([{"monomial": "x"}], "a term needs a 'coeff' field"),
        ([{"coeff": "1"}], "a term needs a 'monomial' field"),
        ([{"monomial": 0, "coeff": "1"}], "a term field 'monomial' must be a JSON string, got int"),
        ([{"monomial": "x", "coeff": 0.5}], "a term field 'coeff' must be a JSON string or integer, got float"),
        ([{"monomial": "x", "coeff": True}], "a term field 'coeff' must be a JSON string or integer, got bool"),
    ],
)
def test_from_json_names_a_missing_or_mistyped_field(data, message):
    with pytest.raises(ValueError, match=message):
        FAElement.from_json(FreeAlgebra(("x", "y"), 3), data)


def test_log_inversion_agreement_and_exp_round_trip():
    for degree in range(1, 10):
        tree_version = fa_log(degree)
        inversion = fa_log(degree, method="inversion")
        assert tree_version == inversion
        alg = tree_version.alg
        assert fa_exp(tree_version) == alg.one() + alg.gen(0)


def test_log_associative_collapse():
    collapsed = associative_collapse(fa_log(7))
    for n in range(1, 8):
        assert collapsed[(n,)] == F((-1) ** (n + 1), n)


def test_primitivity_checks(alg):
    x, y, z = alg.gens()
    assert p_operation([x], [y], z).is_primitive()
    assert not (x * y).is_primitive()
    assert fa_commutator(y, z).is_primitive()
    assert alg.zero().is_primitive()
    assert not alg.one().is_primitive()


def truncate_total(t: FATensor, max_degree: int) -> dict:
    """The terms of a tensor whose two degrees add up to at most max_degree."""
    return {(a, b): c for (a, b), c in t.terms.items() if mono_degree(a) + mono_degree(b) <= max_degree}


def test_exp_of_primitive_is_group_like():
    alg = FreeAlgebra(("x", "y"), 4)
    x, y = alg.gens()
    X = x + y.scale(F(2))
    g = fa_exp(X)
    lhs = g.coproduct()
    rhs = FATensor.of(g, g)
    assert truncate_total(lhs, 4) == truncate_total(rhs, 4)
    # conversely, the log of a group-like element is primitive to the truncation
    L = fa_exp_inverse(g)
    assert L == X


def test_exp_inverse_of_non_group_like_is_not_primitive():
    alg = FreeAlgebra(("x", "y"), 4)
    x, y = alg.gens()
    g = alg.one() + x * y  # not group-like
    L = fa_exp_inverse(g)
    assert fa_exp(L) == g
    assert not L.is_primitive()


def test_context_mismatch_errors():
    a1 = FreeAlgebra(("x",), 3)
    a2 = FreeAlgebra(("x",), 4)
    with pytest.raises(ValueError):
        a1.gen(0) * a2.gen(0)
    with pytest.raises(ValueError):
        a1.gen(0) + a2.gen(0)
    with pytest.raises(ValueError):
        a1.gen(0).coproduct() - a2.gen(0).coproduct()
    with pytest.raises(ValueError):
        a1.gen(0).coproduct() * a2.gen(0).coproduct()


def test_monomial_encoding_round_trip(alg):
    x, y, z = alg.gens()
    elem = ((x * y) * z) * (x * x)
    for mono in elem.terms:
        text = mono_encode(mono, alg.names)
        assert parse_fa_monomial(text, alg.names) == mono
    assert parse_fa_monomial("1", alg.names) is None


def test_element_json_round_trip(alg):
    x, y, _ = alg.gens()
    elem = (x * y).scale(F(3, 7)) - y + alg.one()
    data = elem.to_json()
    assert FAElement.from_json(alg, data) == elem
