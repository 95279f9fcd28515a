import random
import re
from fractions import Fraction as F
from math import comb

import pytest

from nonassoc.symalg import (
    SymElement,
    SymTensor,
    is_monomial,
    iterated_coproduct,
    merge_slots,
    monomial_splits,
    monomials,
    monomials_up_to,
    split_slot,
    submonomials,
    sym_dim,
    unit_monomial,
)


def random_element(rng, dim, max_degree, terms=4):
    data = {}
    pool = list(monomials_up_to(dim, max_degree))
    for _ in range(terms):
        data[pool[rng.randrange(len(pool))]] = F(rng.randint(-2, 2))
    return SymElement(dim, data)


def test_product_examples():
    e1 = SymElement.basis(2, 0)
    e2 = SymElement.basis(2, 1)
    assert (e1 * e1).terms == {(2, 0): F(1)}
    assert (e1 * e2).terms == {(1, 1): F(1)}
    mu = SymElement(2, {(1, 1): F(3), (0, 0): F(2)})
    assert SymElement.one(2) * mu == mu


def test_product_commutative_associative():
    rng = random.Random(11)
    for _ in range(10):
        a = random_element(rng, 3, 2)
        b = random_element(rng, 3, 2)
        c = random_element(rng, 3, 2)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_coproduct_examples():
    e1 = SymElement.basis(2, 0)
    e2 = SymElement.basis(2, 1)
    unit = unit_monomial(2)
    d = e1.coproduct()
    assert d.terms == {((1, 0), unit): F(1), (unit, (1, 0)): F(1)}
    d2 = (e1 * e1).coproduct()
    assert d2.terms == {
        ((2, 0), unit): F(1),
        ((1, 0), (1, 0)): F(2),
        (unit, (2, 0)): F(1),
    }
    d12 = (e1 * e2).coproduct()
    assert d12.terms == {
        ((1, 1), unit): F(1),
        ((1, 0), (0, 1)): F(1),
        ((0, 1), (1, 0)): F(1),
        (unit, (1, 1)): F(1),
    }


def test_counit_and_primitive_projection():
    mu = SymElement(3, {(0, 0, 0): F(3), (1, 0, 0): F(2), (1, 1, 0): F(1)})
    assert mu.counit() == 3
    assert mu.primitive_part() == (F(2), F(0), F(0))
    assert SymElement.one(3).primitive_part() == (F(0), F(0), F(0))


def test_coassociativity_and_cocommutativity():
    for dim in (1, 2, 3):
        for degree in range(0, 6):
            for mono in monomials(dim, degree):
                elem = SymElement(dim, {mono: F(1)})
                two = elem.coproduct()
                left = split_slot(two, 0, 2)
                right = split_slot(two, 1, 2)
                assert left == right  # coassociativity
                flipped = SymTensor(
                    two.dims, {(b, a): c for (a, b), c in two.terms.items()}
                )
                assert flipped == two  # cocommutativity


def test_counit_laws():
    rng = random.Random(5)
    for _ in range(10):
        mu = random_element(rng, 3, 4)
        left = SymElement.zero(3)
        right = SymElement.zero(3)
        for m1, m2, coeff in mu.coproduct_terms():
            left = left + SymElement(3, {m2: coeff * SymElement(3, {m1: F(1)}).counit()})
            right = right + SymElement(3, {m1: coeff * SymElement(3, {m2: F(1)}).counit()})
        assert left == mu
        assert right == mu


def test_coproduct_is_algebra_morphism():
    rng = random.Random(7)
    for _ in range(8):
        mu = random_element(rng, 2, 4)
        nu = random_element(rng, 2, 4)
        assert (mu * nu).coproduct() == mu.coproduct() * nu.coproduct()


def test_graded_dimension():
    for dim in (1, 2, 3, 4):
        for degree in range(6):
            count = sum(1 for _ in monomials(dim, degree))
            assert count == sym_dim(dim, degree) == comb(degree + dim - 1, dim - 1)


def test_merge_and_split_regrouping():
    e1 = SymElement.basis(2, 0)
    t = SymTensor.of(e1, e1)
    merged = merge_slots(t, [[0, 1]])
    assert merged.terms == {((2, 0),): F(1)}
    square = SymTensor.of(e1 * e1)
    assert split_slot(square, 0, 2) == (e1 * e1).coproduct()
    ident = merge_slots(t, [[0], [1]])
    assert ident == t


def test_regroup_counit_compatibility():
    rng = random.Random(3)
    mu = random_element(rng, 2, 3)
    nu = random_element(rng, 2, 3)
    t = SymTensor.of(mu, nu)
    assert merge_slots(t, [[0, 1]]).counit() == t.counit()
    assert split_slot(t, 0, 2).counit() == t.counit()


def test_regroup_rejects_malformed_partitions():
    t = SymTensor.of(SymElement.basis(2, 0), SymElement.basis(2, 1))
    with pytest.raises(ValueError):
        merge_slots(t, [[0]])
    with pytest.raises(ValueError):
        merge_slots(t, [[0, 0], [1]])
    with pytest.raises(ValueError):
        split_slot(t, 5, 2)


def test_iterated_coproduct_matches_split_count():
    mu = SymElement(2, {(2, 1): F(1)})
    three = iterated_coproduct(mu, 3)
    total = sum(three.terms.values())
    # multinomial expansion of (1+1+1)^(2+1) coordinatewise
    assert total == F(3**3)


def test_dimension_mismatch_errors():
    with pytest.raises(ValueError):
        SymElement.basis(2, 0) * SymElement.basis(3, 0)
    with pytest.raises(ValueError):
        SymElement.basis(2, 0) + SymElement.basis(3, 0)
    with pytest.raises(ValueError):
        SymElement.basis(2, 0) - SymElement.basis(3, 0)
    with pytest.raises(ValueError):
        SymElement.basis(2, 0).coproduct() + SymElement.basis(3, 0).coproduct()
    with pytest.raises(ValueError):
        SymElement.basis(2, 0).coproduct() * SymElement.basis(3, 0).coproduct()


def test_json_round_trip():
    mu = SymElement(2, {(1, 0): F(-2, 3), (0, 2): F(5)})
    data = mu.to_json()
    assert SymElement.from_json(data) == mu
    assert all(isinstance(item["coeff"], str) for item in data["terms"])


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "an element must be a JSON object, got list"),
        ({"dim": 2}, "an element needs a 'terms' field"),
        ({"terms": []}, "an element needs a 'dim' field"),
        ({"dim": "2", "terms": []}, "an element field 'dim' must be a JSON integer, got str"),
        ({"dim": 2, "terms": {}}, "an element field 'terms' must be a JSON array, got dict"),
        ({"dim": 2, "terms": [[1, 0]]}, "an element field 'terms' must hold JSON objects, got list"),
        ({"dim": 2, "terms": [{"coeff": "1"}]}, "a term needs an 'exps' field"),
        ({"dim": 2, "terms": [{"exps": [1, 0]}]}, "a term needs a 'coeff' field"),
        ({"dim": 2, "terms": [{"exps": "10", "coeff": "1"}]}, "a term field 'exps' must be a JSON array, got str"),
        ({"dim": 2, "terms": [{"exps": [1, "0"], "coeff": "1"}]}, "a term field 'exps' must hold JSON integers"),
        ({"dim": 2, "terms": [{"exps": [1, 0], "coeff": 0.5}]},
         "a term field 'coeff' must be a JSON string or integer, got float"),
    ],
)
def test_from_json_names_a_missing_or_mistyped_field(data, message):
    with pytest.raises(ValueError, match=message):
        SymElement.from_json(data)


def test_negative_exponents_are_refused():
    message = r"monomial \(-1, 0\) has an exponent that is not a non-negative integer"
    with pytest.raises(ValueError, match=message):
        SymElement(2, {(-1, 0): 1})
    with pytest.raises(ValueError, match=message):
        SymElement.from_json({"dim": 2, "terms": [{"exps": [-1, 0], "coeff": "1"}]})


@pytest.mark.parametrize(
    "mono, dim, expected",
    [
        ((0, 2, 1), 3, True),
        ((), 0, True),
        ((0, 1), 3, False),
        ((0, 1, 0, 0), 3, False),
        ((-1, 1, 0), 3, False),
        ((True, 0), 2, False),
        ((1.0, 0), 2, False),
    ],
)
def test_is_monomial_wants_dim_non_negative_int_exponents(mono, dim, expected):
    assert is_monomial(mono, dim) is expected
    if expected:
        assert SymElement(dim, {mono: 1}).terms == {mono: 1}
    else:
        with pytest.raises(ValueError, match=rf"monomial {re.escape(str(mono))} has "):
            SymElement(dim, {mono: 1})


def test_monomial_splits_weights():
    splits = dict(((a, b), c) for a, b, c in monomial_splits((2, 1)))
    assert splits[((1, 0), (1, 1))] == 2
    assert splits[((0, 0), (2, 1))] == 1
    assert sum(splits.values()) == 8  # product over coordinates of 2^(a_i)


def test_submonomials_are_the_splits_of_one_degree():
    for mono in monomials_up_to(3, 4):
        for degree in range(-1, sum(mono) + 2):
            expected = tuple(split for split in monomial_splits(mono) if sum(split[0]) == degree)
            assert submonomials(mono, degree) == expected, (mono, degree)
