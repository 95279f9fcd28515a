import random
from fractions import Fraction as F
from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NO_SHRINK,
    field_applied_to_function,
    function_times_field,
    is_canonical,
    plane,
    plane_structure_constants,
    rationals,
    reference_covariant_derivative,
    reference_pulled,
    vec_is_zero,
    vec_scale,
)
from nonassoc import connection
from nonassoc.catalog import AlgebraTable, builtin_algebra, builtin_loop, loop_from_algebra
from nonassoc.connection import (
    FlatConnection,
    FormalVectorField,
    adapted_field,
    connection_from_loop,
    covariant_derivative,
    ms_bracket_table,
    ms_brackets,
    torsion,
    vf_bracket,
)
from nonassoc.dist import DistBialgebra, dist_su_ops, su_bracket_table
from nonassoc.scalars import basis_vector, to_dense, zero_vector
from nonassoc.symalg import SymElement, monomials_up_to, unit_monomial


def random_field(rng, dim, max_degree):
    table = {
        mono: tuple(F(rng.randint(-2, 2)) for _ in range(dim))
        for mono in monomials_up_to(dim, max_degree)
    }
    return FormalVectorField.from_table(dim, max_degree, table)


def random_function(rng, dim, max_degree):
    return {mono: F(rng.randint(-2, 2)) for mono in monomials_up_to(dim, max_degree)}


@pytest.fixture(scope="module")
def jordan_setting(request):
    loop = loop_from_algebra(builtin_algebra("jordan-k3"), 5)
    return loop, connection_from_loop(loop), DistBialgebra.from_loop(loop)


def test_connection_from_loop_base_cases(jordan_setting):
    loop, conn, _ = jordan_setting
    table = builtin_algebra("jordan-k3")
    for j in range(3):
        assert conn.star(unit_monomial(3), j) == basis_vector(3, j)
    for i in range(3):
        for j in range(3):
            mono = tuple(1 if k == i else 0 for k in range(3))
            assert conn.star(mono, j) == table.basis_product(i, j)


@pytest.mark.parametrize(
    "build, bound",
    [
        (lambda: FormalVectorField(2, True, lambda mono: {}), "True"),
        (lambda: FlatConnection(2, True, lambda mono, j: {j: 1}), "True"),
        (lambda: FlatConnection(2, -1, lambda mono, j: {j: 1}), "-1"),
    ],
    ids=["field-bool", "connection-bool", "connection-negative"],
)
def test_a_degree_bound_that_is_not_an_int_at_least_0_is_refused(build, bound):
    with pytest.raises(ValueError, match=f"degree bound must be an int >= 0, got {bound}$"):
        build()


def test_connection_vanishes_on_high_degrees_for_bilinear_loops(jordan_setting):
    loop, conn, _ = jordan_setting
    for mono in monomials_up_to(3, conn.max_degree):
        if sum(mono) >= 2:
            for j in range(3):
                assert vec_is_zero(conn.star(mono, j))


def test_adapted_field_matches_distribution_product(jordan_setting):
    loop, conn, B = jordan_setting
    v = (F(1), F(-2), F(0))
    field = adapted_field(conn, v)
    assert field.at(unit_monomial(3)) == v
    for mono in monomials_up_to(3, 3):
        expected = B.product(
            SymElement(3, {mono: F(1)}), SymElement.from_vector(v)
        ).primitive_part()
        assert field.at(mono) == expected


def test_adapted_field_one_dimensional_cross_check():
    table = AlgebraTable(1, (((F(1),),),), {"associative": True})
    loop = loop_from_algebra(table, 5)
    conn = connection_from_loop(loop)
    B = DistBialgebra.from_loop(loop)
    e = (F(1),)
    field = adapted_field(conn, e)
    for k in range(conn.max_degree + 1):
        expected = B.product(SymElement(1, {(k,): F(1)}), B.basis(0)).primitive_part()
        assert field.at((k,)) == expected


def test_vf_bracket_antisymmetry_and_value_at_one(jordan_setting):
    loop, conn, _ = jordan_setting
    table = builtin_algebra("jordan-k3")
    fx = adapted_field(conn, basis_vector(3, 1))
    fy = adapted_field(conn, basis_vector(3, 2))
    assert all(
        vec_is_zero(vf_bracket(fx, fx).at(m))
        for m in monomials_up_to(3, conn.max_degree - 1)
    )
    value = vf_bracket(fx, fy).at(unit_monomial(3))
    xy = table.multiply(basis_vector(3, 1), basis_vector(3, 2))
    yx = table.multiply(basis_vector(3, 2), basis_vector(3, 1))
    assert value == tuple(a - b for a, b in zip(xy, yx))


def test_vf_bracket_jacobi_on_random_fields():
    rng = random.Random(31)
    fields = [random_field(rng, 2, 3) for _ in range(3)]
    a, b, c = fields
    jacobi = (
        vf_bracket(a, vf_bracket(b, c))
        + vf_bracket(b, vf_bracket(c, a))
        + vf_bracket(c, vf_bracket(a, b))
    )
    for mono in monomials_up_to(2, jacobi.max_degree):
        assert vec_is_zero(jacobi.at(mono))


def test_bracket_module_rule():
    # [A, fB] = A(f) B + f [A, B]
    rng = random.Random(7)
    dim = 2
    a = random_field(rng, dim, 3)
    b = random_field(rng, dim, 3)
    f = random_function(rng, dim, 2)
    lhs = vf_bracket(a, function_times_field(f, b))
    af = field_applied_to_function(a, f)
    rhs = function_times_field(af, b) + function_times_field(f, vf_bracket(a, b))
    for mono in monomials_up_to(dim, min(lhs.max_degree, rhs.max_degree)):
        assert lhs.at(mono) == rhs.at(mono)


def test_inverse_transport(jordan_setting):
    loop, conn, _ = jordan_setting
    table = builtin_algebra("jordan-k3")
    for j in range(3):
        assert conn.inv_star(unit_monomial(3), j) == basis_vector(3, j)
    for i in range(3):
        mono = tuple(1 if k == i else 0 for k in range(3))
        for j in range(3):
            assert conn.inv_star(mono, j) == vec_scale(
                F(-1), table.basis_product(i, j)
            )
    # both defining relations on all monomials
    from nonassoc.symalg import monomial_splits

    for mono in monomials_up_to(3, conn.max_degree):
        for j in range(3):
            first = zero_vector(3)
            second = zero_vector(3)
            for m1, m2, coeff in monomial_splits(mono):
                first = tuple(
                    x + F(coeff) * y
                    for x, y in zip(first, conn.inv_star_vec(m1, conn.star(m2, j)))
                )
                second = tuple(
                    x + F(coeff) * y
                    for x, y in zip(second, conn.star_vec(m1, conn.inv_star(m2, j)))
                )
            expected = basis_vector(3, j) if sum(mono) == 0 else zero_vector(3)
            assert first == expected
            assert second == expected


def test_backslash_star_table_export(jordan_setting):
    _, conn, _ = jordan_setting
    table = conn.inverse_table()
    assert table[(unit_monomial(3), 0)] == basis_vector(3, 0)
    assert len(table) == sum(1 for _ in monomials_up_to(3, conn.max_degree)) * 3


def test_covariant_derivative_of_adapted_fields_vanishes(jordan_setting):
    loop, conn, _ = jordan_setting
    v = adapted_field(conn, (F(1), F(2), F(-1)))
    w = adapted_field(conn, basis_vector(3, 0))
    nabla = covariant_derivative(conn, v, w)
    for mono in monomials_up_to(3, nabla.max_degree):
        assert vec_is_zero(nabla.at(mono))


def test_covariant_derivative_module_rules(jordan_setting):
    loop, conn, _ = jordan_setting
    rng = random.Random(19)
    a = random_field(rng, 3, 3)
    b = random_field(rng, 3, 3)
    f = random_function(rng, 3, 2)
    lhs = covariant_derivative(conn, function_times_field(f, a), b)
    rhs = function_times_field(f, covariant_derivative(conn, a, b))
    for mono in monomials_up_to(3, min(lhs.max_degree, rhs.max_degree)):
        assert lhs.at(mono) == rhs.at(mono)
    lhs = covariant_derivative(conn, a, function_times_field(f, b))
    rhs = function_times_field(field_applied_to_function(a, f), b) + function_times_field(
        f, covariant_derivative(conn, a, b)
    )
    for mono in monomials_up_to(3, min(lhs.max_degree, rhs.max_degree)):
        assert lhs.at(mono) == rhs.at(mono)


def test_covariant_derivative_of_non_adapted_field(jordan_setting):
    loop, conn, _ = jordan_setting
    proj = FormalVectorField(3, conn.max_degree, lambda mono: {mono.index(1): 1} if sum(mono) == 1 else {})
    v = adapted_field(conn, basis_vector(3, 0))
    nabla = covariant_derivative(conn, v, proj)
    # hand expansion at degree <= 1: at 1 the formula collapses to
    # proj(e0) - e0 * proj(1) = e0 - 0 = e0
    assert nabla.at(unit_monomial(3)) == basis_vector(3, 0)
    assert any(
        not vec_is_zero(nabla.at(mono)) for mono in monomials_up_to(3, nabla.max_degree)
    )


def test_torsion_of_adapted_fields(jordan_setting):
    loop, conn, B = jordan_setting
    x = basis_vector(3, 1)
    y = basis_vector(3, 2)
    fx, fy = adapted_field(conn, x), adapted_field(conn, y)
    t = torsion(conn, fx, fy)
    neg_bracket = vf_bracket(fx, fy).scale(F(-1))
    for mono in monomials_up_to(3, t.max_degree):
        assert t.at(mono) == neg_bracket.at(mono)
        # distribution form of the torsion
        m = SymElement(3, {mono: F(1)})
        ex = SymElement.from_vector(x)
        ey = SymElement.from_vector(y)
        expected = (
            B.product(B.product(m, ey), ex) - B.product(B.product(m, ex), ey)
        ).primitive_part()
        assert t.at(mono) == expected
    # antisymmetry
    t_rev = torsion(conn, fy, fx)
    for mono in monomials_up_to(3, t.max_degree):
        assert t.at(mono) == vec_scale(F(-1), t_rev.at(mono))


def test_ms_brackets_base_cases(jordan_setting):
    loop, conn, B = jordan_setting
    table = builtin_algebra("jordan-k3")
    for j, k in iter_product(range(3), repeat=2):
        value = ms_brackets(loop, [], basis_vector(3, j), basis_vector(3, k))
        jk = table.multiply(basis_vector(3, j), basis_vector(3, k))
        kj = table.multiply(basis_vector(3, k), basis_vector(3, j))
        assert value == tuple(b - a for a, b in zip(jk, kj))


def test_ms_brackets_vanish_for_associative_loops(dual_loop_4):
    for i, j, k in iter_product(range(2), repeat=3):
        value = ms_brackets(
            dual_loop_4, [basis_vector(2, i)], basis_vector(2, j), basis_vector(2, k)
        )
        assert vec_is_zero(value)


def test_ms_equals_su_small(jordan_setting):
    loop, conn, B = jordan_setting
    ops = dist_su_ops(B)
    for idx in iter_product(range(3), repeat=3):
        xs = [basis_vector(3, idx[0])]
        y, z = basis_vector(3, idx[1]), basis_vector(3, idx[2])
        assert ms_brackets(loop, xs, y, z) == ops.bracket_vector(xs, y, z)


def test_ms_equals_su_rest_of_catalog(xsqy_loop_6, spin_loop_6):
    upper = builtin_loop("assoc-2x2-uppertriangular-loop", 5)
    for loop in (xsqy_loop_6, spin_loop_6, upper):
        B = DistBialgebra.from_loop(loop)
        ops = dist_su_ops(B)
        dim = loop.dim
        cap = min(5, loop.N)
        for arity in range(0, cap - 1):
            for idx in iter_product(range(dim), repeat=arity + 2):
                xs = [basis_vector(dim, i) for i in idx[:arity]]
                y, z = basis_vector(dim, idx[-2]), basis_vector(dim, idx[-1])
                assert ms_brackets(loop, xs, y, z) == ops.bracket_vector(xs, y, z), (
                    dim,
                    idx,
                )


def test_field_table_totality_enforced():
    with pytest.raises(ValueError):
        FormalVectorField.from_table(2, 2, {unit_monomial(2): (F(1), F(0))})
    table = {
        mono: (F(0), F(0)) for mono in monomials_up_to(2, 2)
    }
    field = FormalVectorField.from_table(2, 2, table)
    with pytest.raises(ValueError):
        field.at((3, 0))


def test_connection_identity_restriction_enforced():
    with pytest.raises(ValueError):
        FlatConnection(2, 1, lambda mono, j: {})


def test_ms_brackets_degree_overflow(jordan_setting):
    loop, _, _ = jordan_setting
    xs = [basis_vector(3, 0)] * 4
    with pytest.raises(ValueError):
        ms_brackets(loop, xs, basis_vector(3, 1), basis_vector(3, 2))


def test_vector_arguments_must_have_the_space_dimension():
    loop = builtin_loop("split-octonion-loop", 3)
    conn = connection_from_loop(loop)
    ops = dist_su_ops(DistBialgebra.from_loop(loop))
    e1, e2 = basis_vector(8, 1), basis_vector(8, 2)
    ms_brackets(loop, [], e1, e2)  # a wrong length must not slip through a cache hit
    short = (e1[:7], e2[:7])
    padded = (e1 + (F(0),), e2 + (F(0),))
    for y, z in (short, padded):
        for args in (([], y, z), ([], y, e2), ([], e1, z), ([y], e1, e2)):
            with pytest.raises(ValueError):
                ms_brackets(loop, *args)
            with pytest.raises(ValueError):
                ops.bracket_vector(*args)
        with pytest.raises(ValueError):
            ops.bracket_vector([], SymElement.from_vector(y), e2)
        with pytest.raises(ValueError):
            adapted_field(conn, y)
        with pytest.raises(ValueError):
            conn.star_vec(unit_monomial(8), y)
        with pytest.raises(ValueError):
            conn.inv_star_vec(unit_monomial(8), y)


def _assert_sparse(value, dim):
    """A cached sparse vector: basis indices to nonzero coefficients in canonical exact form."""
    assert type(value) is dict
    for i, c in value.items():
        assert i in range(dim) and is_canonical(c), value


def _assert_dense(value, dim):
    assert type(value) is tuple and len(value) == dim
    assert all(type(c) is F for c in value), value


def _thirds_loop(N):
    """A plane loop whose structure constants have denominators 2 and 3."""
    constants = (((F(1, 2), F(0)), (F(-1, 3), F(1))), ((F(2, 3), F(1, 2)), (F(0), F(-3, 2))))
    return loop_from_algebra(AlgebraTable(2, constants), N)


def _cached_values(loop, conn):
    """Every sparse vector the connection and the loop's fields have cached or hold."""
    cached = [*conn._star_cache.values(), *conn._inv_cache.values()]
    cached += [field._adapted[1] for field in loop._adapted_field_cache.values()]
    for field in [*loop._ms_field_cache.values(), *loop._adapted_field_cache.values()]:
        cached.extend(field._cache.values())
        cached.extend(field._pulled_cache.values())
    return cached


def test_sparse_values_inside_dense_values_outside():
    for loop in (builtin_loop("jordan-k3-loop", 5), _thirds_loop(5)):
        dim = loop.dim
        conn = connection_from_loop(loop)
        for idx in iter_product(range(dim), repeat=3):
            ms_brackets(loop, [basis_vector(dim, idx[0])], basis_vector(dim, idx[1]), basis_vector(dim, idx[2]))
        # the integral loop computes on ints alone, the other needs Fractions too
        types = {type(c) for value in _cached_values(loop, conn) for c in value.values()}
        assert types == ({int} if dim == 3 else {int, F}), types

        v = (F(1), F(-2), F(0))[:dim]
        field = adapted_field(conn, v)
        high = (2,) + (0,) * (dim - 1)
        assert conn.star(high, 1) == zero_vector(dim)
        assert field.at(high) == zero_vector(dim)
        dense = [
            ms_brackets(loop, [], v, v),
            ms_brackets(loop, [v], (F(1, 2),) * dim, v),
            field.at(unit_monomial(dim)),
            field.at(high),
            conn.star(high, 1),
            conn.inv_star(high, 0),
            conn.star_vec(high, v),
            conn.inv_star_vec(high, v),
            *field.table().values(),
            *conn.inverse_table().values(),
        ]
        # the field of <v; 1/2, v> on every monomial, which pulls back the torsion there too
        fields = list(loop._ms_field_cache.values())
        assert len(fields) == dim * dim + dim ** 3 + 3
        dense += fields[-1].table().values()
        assert any(map(any, dense)) and not all(map(any, dense))
        for value in dense:
            _assert_dense(value, dim)

        # every key entry, zeros included, is an int or a Fraction with denominator > 1
        for key in [*loop._ms_field_cache, *((k,) for k in loop._adapted_field_cache)]:
            for vec in key:
                assert all(type(c) is int or is_canonical(c) for c in vec), key
        cached = _cached_values(loop, conn)
        assert len(cached) > len(fields)
        for value in cached:
            _assert_sparse(value, dim)


def test_pulled_vector_matches_the_literal_sum():
    loops = [builtin_loop("jordan-k3-loop", 5), builtin_loop("split-octonion-loop", 4), _thirds_loop(5)]
    rng = random.Random(11)
    for loop in loops:
        dim = loop.dim
        conn = connection_from_loop(loop)
        vectors = [basis_vector(dim, dim - 1), *_rational_vectors(rng, dim, 1)]
        fields = [adapted_field(conn, v) for v in vectors]
        # fields that are not adapted take the general sum
        fields += [torsion(conn, *fields), fields[0].scale(2)]
        # an adapted field of another connection is not adapted along conn
        other = connection_from_loop(loop_from_algebra(AlgebraTable(dim, _zero_constants(dim)), loop.N))
        fields.append(adapted_field(other, vectors[1]))
        for field in fields:
            for mono in monomials_up_to(dim, field.max_degree):
                got = to_dense(dim, connection._pulled(conn, field, mono))
                assert got == reference_pulled(conn, field, mono), (field, mono)


def _zero_constants(dim):
    return tuple(tuple((F(0),) * dim for _ in range(dim)) for _ in range(dim))


def _rational_vectors(rng, dim, count):
    """Rational vectors with zero and negative entries, none of them a basis vector."""
    out = []
    while len(out) < count:
        v = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
        if sorted(v) != [0] * (dim - 1) + [1]:
            out.append(v)
    return out


@pytest.mark.parametrize(
    "name, degree, count", [("jordan-k3-loop", 5, 6), ("split-octonion-loop", 4, 3)]
)
def test_ms_equals_su_off_the_basis(name, degree, count):
    loop = builtin_loop(name, degree)
    ops = dist_su_ops(DistBialgebra.from_loop(loop))
    rng = random.Random(17)
    for arity in (0, 1):
        for _ in range(count):
            *xs, y, z = _rational_vectors(rng, loop.dim, arity + 2)
            assert ms_brackets(loop, xs, y, z) == ops.bracket_vector(xs, y, z), (xs, y, z)


_off_basis = plane.filter(lambda v: sorted(v) != [0, 1])


@settings(max_examples=12, derandomize=True, deadline=None)
@given(
    constants=plane_structure_constants,
    xs=st.lists(_off_basis, max_size=2),
    y=_off_basis,
    z=_off_basis,
)
def test_ms_equals_su_on_random_structure_constants(constants, xs, y, z):
    loop = loop_from_algebra(AlgebraTable(2, constants), 4)
    ops = dist_su_ops(DistBialgebra.from_loop(loop))
    assert ms_brackets(loop, xs, y, z) == ops.bracket_vector(xs, y, z)


@settings(max_examples=10, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(
    constants=plane_structure_constants,
    v=plane,
    w=plane,
    f=st.lists(rationals, min_size=10, max_size=10),
)
def test_covariant_derivative_matches_the_four_split_formula(constants, v, w, f):
    loop = loop_from_algebra(AlgebraTable(2, constants), 5)
    conn = connection_from_loop(loop)
    a, b = adapted_field(conn, v), adapted_field(conn, w)
    # an adapted field pulls back to 0 off degree 0; f b does not
    fb = function_times_field(dict(zip(monomials_up_to(2, 3), f)), b)
    for x, y in ((a, b), (b, a), (a, fb), (fb, a), (fb, fb)):
        nabla = covariant_derivative(conn, x, y)
        for mono in monomials_up_to(2, nabla.max_degree):
            assert nabla.at(mono) == reference_covariant_derivative(conn, x, y, mono), (x, y, mono)


def test_ms_bracket_table_checks_the_arity(jordan_setting):
    loop, _, _ = jordan_setting
    with pytest.raises(ValueError, match="arity must be >= 0"):
        ms_bracket_table(loop, -1)
    with pytest.raises(ValueError, match="needs degree 6 <= 5"):
        ms_bracket_table(loop, 4)


def test_ms_brackets_build_one_adapted_field_per_vector(monkeypatch):
    loop = builtin_loop("jordan-k3-loop", 4)
    built = []

    def recorded(conn, v):
        built.append(v)
        return adapted_field(conn, v)

    monkeypatch.setattr(connection, "adapted_field", recorded)
    table = ms_bracket_table(loop, 1)
    basis = [basis_vector(3, i) for i in range(3)]
    assert sorted(built) == sorted(basis)
    assert set(loop._adapted_field_cache) == set(basis)
    # the field cache holds the 3 torsions (y < z) and their 9 derivatives only
    assert len(loop._ms_field_cache) == 12
    assert table == su_bracket_table(DistBialgebra.from_loop(loop), 1)


def test_connection_creates_its_loop_caches_on_first_use():
    loop = builtin_loop("jordan-k3-loop", 3)
    names = ("_canonical_connection", "_ms_field_cache", "_adapted_field_cache")
    assert not [name for name in names if hasattr(loop, name)]
    conn = connection_from_loop(loop)
    assert loop._canonical_connection is conn and connection_from_loop(loop) is conn
    assert not hasattr(loop, "_ms_field_cache")
    basis = [basis_vector(3, i) for i in range(3)]
    ms_brackets(loop, [], basis[0], basis[1])
    assert set(loop._adapted_field_cache) == {basis[0], basis[1]}
    assert list(loop._ms_field_cache) == [(basis[0], basis[1])]
    assert connection_from_loop(loop) is conn
