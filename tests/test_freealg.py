import random
from fractions import Fraction as F

import pytest

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
    is_primitive,
    left_normed,
    mono_encode,
    p_operation,
    parse_fa_monomial,
    su_bracket,
    su_multioperator,
    su_multioperator_component,
)


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


def test_division_laws_random(alg):
    rng = random.Random(23)
    for _ in range(4):
        u = random_element(rng, alg, 2, nterms=2)
        v = random_element(rng, alg, 2, nterms=2)
        eu, ev = u.counit(), v.counit()
        l1 = alg.zero()
        l2 = alg.zero()
        r1 = alg.zero()
        r2 = alg.zero()
        for (a, b), coeff in u.coproduct().terms.items():
            ea = FAElement(alg, {a: F(1)})
            eb = FAElement(alg, {b: F(1)})
            l1 = l1 + fa_divide(ea, eb * v, "left").scale(coeff)
            l2 = l2 + (ea * fa_divide(eb, v, "left")).scale(coeff)
        for (a, b), coeff in v.coproduct().terms.items():
            ea = FAElement(alg, {a: F(1)})
            eb = FAElement(alg, {b: F(1)})
            r1 = r1 + fa_divide(u * ea, eb, "right").scale(coeff)
            r2 = r2 + (fa_divide(u, ea, "right") * eb).scale(coeff)
        assert l1 == v.scale(eu)
        assert l2 == v.scale(eu)
        assert r1 == u.scale(ev)
        assert r2 == u.scale(ev)


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
    assert value.associative_collapse() == {}


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
        return left_normed(seq) if seq else alg.one()

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


def test_log_inversion_agreement_and_exp_round_trip():
    for degree in (3, 5, 6):
        tree_version = fa_log(degree)
        inversion = fa_log(degree, method="inversion")
        assert tree_version == inversion
        alg = tree_version.alg
        assert fa_exp(tree_version) == alg.one() + alg.gen(0)


def test_log_associative_collapse():
    collapsed = fa_log(7).associative_collapse()
    for n in range(1, 8):
        assert collapsed[(n,)] == F((-1) ** (n + 1), n)


def test_primitivity_checks(alg):
    x, y, z = alg.gens()
    assert is_primitive(p_operation([x], [y], z))
    assert not is_primitive(x * y)
    assert is_primitive(fa_commutator(y, z))
    assert is_primitive(alg.zero())
    assert not is_primitive(alg.one())


def test_exp_of_primitive_is_group_like():
    alg = FreeAlgebra(("x", "y"), 4)
    x, y = alg.gens()
    X = x + y.scale(F(2))
    g = fa_exp(X)
    lhs = g.coproduct()
    rhs = FATensor.of(g, g)
    assert lhs.truncate_total(4) == rhs.truncate_total(4)
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
