import random
from fractions import Fraction as F
from itertools import product as iter_product

import pytest

from conftest import vec_add, vec_scale
from nonassoc.catalog import (
    BUILTIN_ALGEBRAS,
    AlgebraTable,
    builtin_algebra,
    builtin_loop,
    check_homomorphism,
    loop_from_algebra,
    loop_from_spec,
    nonlinear_loop_F,
    phi_G_to_F,
    x_squared_y_loop,
)
from nonassoc.dist import dist_su_ops
from nonassoc.freealg import FreeAlgebra
from nonassoc.maps import FormalMap, MemoryCapError, check_loop_identity
from nonassoc.scalars import basis_vector, zero_vector
from nonassoc.words import parse_identity

ASSOC = "((x1 * x2) * x3) = (x1 * (x2 * x3))"
MOUFANG = "(x1 * (x2 * (x1 * x3))) = (((x1 * x2) * x1) * x3)"


def test_jordan_k3_table_and_flags():
    table = builtin_algebra("jordan-k3")
    assert table.basis_product(1, 2) == (F(1), F(0), F(0))  # e2 * e3 = e1
    assert table.basis_product(0, 1) == (F(0), F(1), F(0))
    assert table.flags == {"jordan": True, "commutative": True, "associative": False}


def test_jordan_spin_normalized_pair():
    spin = builtin_algebra("jordan-spin-normalized")
    a, b = spin.distinguished["a"], spin.distinguished["b"]
    assert spin.multiply(a, a) == zero_vector(3)
    assert spin.multiply(b, b) == zero_vector(3)
    # the pairing (a, b) = 2, read off from a * b = (a, b) e
    assert spin.multiply(a, b) == vec_scale(F(2), spin.distinguished["unit"])


def test_split_octonion_flags():
    table = builtin_algebra("split-octonion")
    assert table.flags == {"alternative": True, "associative": False}
    assert table.dim == 8
    # e0 is the unit of the doubled algebra
    for j in range(8):
        assert table.basis_product(0, j) == basis_vector(8, j)
        assert table.basis_product(j, 0) == basis_vector(8, j)


def test_split_octonion_is_split():
    # the norm form is isotropic over the rationals: (e1 + e...)? the doubled
    # unit satisfies e1^2 = e0 with e1 != +-e0, giving zero divisors
    table = builtin_algebra("split-octonion")
    e1_sq = table.basis_product(1, 1)
    assert e1_sq == basis_vector(8, 0)
    idem = vec_scale(F(1, 2), vec_add(basis_vector(8, 0), basis_vector(8, 1)))
    comp = vec_scale(F(1, 2), tuple(a - b for a, b in zip(basis_vector(8, 0), basis_vector(8, 1))))
    assert table.multiply(idem, comp) == zero_vector(8)


def test_associative_baselines():
    dual = builtin_algebra("dual-numbers")
    assert dual.flags == {"associative": True, "commutative": True}
    upper = builtin_algebra("assoc-2x2-uppertriangular")
    assert upper.flags == {"associative": True, "commutative": False}


def test_flag_verification_rejects_wrong_declarations():
    constants = builtin_algebra("jordan-k3").constants
    with pytest.raises(ValueError):
        AlgebraTable(3, constants, {"associative": True})
    with pytest.raises(ValueError):
        AlgebraTable(3, constants, {"jordan": False})
    for name in BUILTIN_ALGEBRAS:
        table = builtin_algebra(name)
        assert table.flags
        for flag, declared in table.flags.items():
            with pytest.raises(ValueError, match=flag):
                AlgebraTable(table.dim, table.constants, {flag: not declared}, table.distinguished)


def test_multiply_rejects_vectors_of_the_wrong_length():
    table = builtin_algebra("jordan-k3")
    e = basis_vector(3, 0)
    for bad in [(F(1),), (F(1), F(0), F(0), F(0)), ()]:
        with pytest.raises(ValueError):
            table.multiply(bad, bad)
        with pytest.raises(ValueError):
            table.multiply(e, bad)
        with pytest.raises(ValueError):
            table.multiply(bad, e)


def test_from_json_rejects_distinguished_vectors_of_the_wrong_length():
    data = builtin_algebra("jordan-spin-normalized").to_json()
    for bad in [["1", "0"], ["1", "0", "0", "0"]]:
        broken = {**data, "distinguished": {**data["distinguished"], "a": bad}}
        with pytest.raises(ValueError):
            AlgebraTable.from_json(broken)


def _rational_vector(rng, dim):
    return tuple(F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(dim))


def test_multiply_is_the_bilinear_expansion():
    rng = random.Random(11)
    drawn = []
    for name in BUILTIN_ALGEBRAS:
        table = builtin_algebra(name)
        d = table.dim
        for _ in range(12):
            x, y = _rational_vector(rng, d), _rational_vector(rng, d)
            drawn.extend(x + y)
            expected = [F(0)] * d
            for i in range(d):
                for j in range(d):
                    for k in range(d):
                        expected[k] += x[i] * y[j] * F(table.constants[i][j][k])
            assert table.multiply(x, y) == tuple(expected), name
    assert 0 in drawn and min(drawn) < 0


def test_sparse_rows_inside_dense_values_outside():
    for name in BUILTIN_ALGEBRAS:
        table = builtin_algebra(name)
        d = table.dim
        assert len(table._rows) == d
        for i, row in enumerate(table._rows):
            assert len(row) == d
            for j, value in enumerate(row):
                assert type(value) is dict
                assert all(k in range(d) and type(c) is F and c != 0 for k, c in value.items())
                dense = table.basis_product(i, j)
                assert type(dense) is tuple and len(dense) == d and all(type(c) is F for c in dense)
                assert dense == tuple(value.get(k, 0) for k in range(d))
        product = table.multiply(basis_vector(d, d - 1), tuple(F(k) for k in range(d)))
        assert type(product) is tuple and len(product) == d and all(type(c) is F for c in product)


def test_unknown_names_rejected():
    with pytest.raises(ValueError):
        builtin_algebra("nope")
    with pytest.raises(ValueError):
        builtin_loop("nope", 4)


def test_loop_from_algebra_components(jordan_loop_4):
    table = builtin_algebra("jordan-k3")
    for i in range(3):
        mono = tuple(1 if k == i else 0 for k in range(3))
        unit = (0, 0, 0)
        assert jordan_loop_4.value((mono, unit)) == basis_vector(3, i)
        assert jordan_loop_4.value((unit, mono)) == basis_vector(3, i)
        for j in range(3):
            monoj = tuple(1 if k == j else 0 for k in range(3))
            assert jordan_loop_4.value((mono, monoj)) == table.basis_product(i, j)


def test_associativity_transfers_to_the_loop(dual_loop_4):
    assert check_loop_identity(parse_identity(ASSOC, 3), dual_loop_4).holds
    upper = builtin_loop("assoc-2x2-uppertriangular-loop", 4)
    assert check_loop_identity(parse_identity(ASSOC, 3), upper).holds


def test_moufang_transfers_from_alternative_algebras(octonion_loop_4):
    assert check_loop_identity(parse_identity(MOUFANG, 3), octonion_loop_4).holds


def test_nonlinear_loop_unitality_and_series(nonlinear_loop_5):
    loop = nonlinear_loop_5
    unit = (0, 0)
    for j in range(2):
        mono = tuple(1 if k == j else 0 for k in range(2))
        assert loop.value((mono, unit)) == basis_vector(2, j)
        assert loop.value((unit, mono)) == basis_vector(2, j)
    # coefficient of x2 y3 y2 in the first output is -1
    assert loop.series_value(((1, 0), (1, 1)))[0] == F(-1)


def test_nonlinear_loop_division_laws(nonlinear_loop_5):
    laws = [
        r"(x1 \ (x1 * x2)) = x2",
        r"(x1 * (x1 \ x2)) = x2",
        "((x2 * x1) / x1) = x2",
        "((x2 / x1) * x1) = x2",
    ]
    for law in laws:
        assert check_loop_identity(parse_identity(law, 2), nonlinear_loop_5).holds


def test_phi_map_shape():
    phi = phi_G_to_F(5)
    assert phi.value(((1, 0, 0),)) == (F(0), F(0))  # drops x1
    assert phi.value(((0, 1, 0),)) == (F(1), F(0))
    assert phi.value(((0, 0, 1),)) == (F(0), F(1))
    assert phi.series_value(((1, 1, 0),)) == (F(-1), F(0))


def test_phi_is_homomorphism_and_perturbation_fails():
    degree = 5
    source = loop_from_algebra(builtin_algebra("jordan-k3"), degree)
    target = nonlinear_loop_F(degree)
    phi = phi_G_to_F(degree)
    assert check_homomorphism(phi, source, target).holds
    perturbed = {md: {monos: phi.value(monos) for monos in tab} for md, tab in phi.components.items()}
    perturbed[(1,)][((1, 0, 0),)] = (F(1), F(0))
    bad = FormalMap((3,), 2, degree, perturbed)
    verdict = check_homomorphism(bad, source, target)
    assert not verdict.holds
    assert verdict.multidegree is not None


def test_identity_map_is_homomorphism(jordan_loop_4):
    identity = FormalMap.slot_projection((3,), 0, 4)
    assert check_homomorphism(identity, jordan_loop_4, jordan_loop_4).holds


def evaluate_fa_in_algebra(elem, table, assignment):
    """Evaluate a free non-associative polynomial in a concrete algebra."""

    def mono_value(mono):
        if mono is None:
            raise ValueError("the unit has no image in a non-unital evaluation")
        if isinstance(mono, int):
            return assignment[mono]
        return table.multiply(mono_value(mono[0]), mono_value(mono[1]))

    total = zero_vector(table.dim)
    for mono, coeff in elem.terms.items():
        total = vec_add(total, vec_scale(coeff, mono_value(mono)))
    return total


def test_loop_brackets_match_algebra_brackets(jordan_bialgebra_4):
    # the primitive brackets of k[G] against the same operations evaluated
    # directly in the algebra, for total degree <= 4
    from nonassoc.freealg import su_bracket

    table = builtin_algebra("jordan-k3")
    ops = dist_su_ops(jordan_bialgebra_4)
    for m in range(0, 3):
        nargs = m + 2
        alg = FreeAlgebra(tuple(f"g{k}" for k in range(nargs)), nargs + 1)
        gens = alg.gens()
        formula = su_bracket(list(gens[:m]), gens[-2], gens[-1])
        for idx in iter_product(range(3), repeat=nargs):
            assignment = [basis_vector(3, i) for i in idx]
            direct = evaluate_fa_in_algebra(formula, table, assignment)
            via_loop = ops.bracket_vector(
                [basis_vector(3, i) for i in idx[:m]],
                basis_vector(3, idx[-2]),
                basis_vector(3, idx[-1]),
            )
            assert direct == via_loop, idx


def test_loop_spec_round_trips(tmp_path):
    table = builtin_algebra("dual-numbers")
    by_builtin = loop_from_spec({"type": "builtin", "name": "dual-numbers-loop"}, 4)
    by_table = loop_from_spec({"type": "from-algebra", "table": table.to_json()}, 4)
    assert by_builtin == by_table
    components = {"type": "components", **by_builtin.to_json()}
    by_components = loop_from_spec(components, 4)
    assert by_components == by_builtin
    with pytest.raises(ValueError):
        loop_from_spec({"type": "mystery"}, 4)


def test_components_spec_below_the_requested_degree_is_rejected():
    spec = {"type": "components", **nonlinear_loop_F(5).to_json()}
    assert loop_from_spec(spec, 3) == nonlinear_loop_F(3)  # trimming from above stays
    short = {"type": "components", **nonlinear_loop_F(3).to_json()}
    with pytest.raises(ValueError, match="N=3, below the requested degree 5"):
        loop_from_spec(short, 5)


@pytest.mark.parametrize("name, degree", [("nonlinear-f-loop", 5), ("x-squared-y-loop", 6)])
def test_series_builtin_loops_honour_the_memory_cap(name, degree):
    with pytest.raises(MemoryCapError):
        builtin_loop(name, degree, memory_cap=10)
    assert builtin_loop(name, degree, memory_cap=10**6) == builtin_loop(name, degree)


def test_algebra_table_json_round_trip():
    spin = builtin_algebra("jordan-spin-normalized")
    rebuilt = AlgebraTable.from_json(spin.to_json())
    assert rebuilt.constants == spin.constants
    assert rebuilt.distinguished == spin.distinguished
    assert rebuilt.flags == spin.flags


def test_x_squared_y_loop_series():
    loop = x_squared_y_loop(5)
    assert loop.series_value(((2,), (1,))) == (F(1),)
    assert loop.value(((2,), (1,))) == (F(2),)  # distribution view carries 2!
