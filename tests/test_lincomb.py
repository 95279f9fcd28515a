"""Invariants of the sparse linear-combination kernel under the element classes.

Internal results skip the validating constructors, so these pin what the
kernel itself must keep: no stored coefficient is zero, every stored
coefficient is a Fraction, equal elements hash equal, and free-algebra
results never hold a monomial above the truncation.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NO_SHRINK
from nonassoc.freealg import FAElement, FATensor, FreeAlgebra, fa_divide, mono_degree
from nonassoc.lincomb import add_into, sum_into
from nonassoc.symalg import SymElement, SymTensor, monomials_up_to

SEEDS = range(6)


def assert_clean(x, cap=None):
    for key, coeff in x.terms.items():
        assert isinstance(coeff, F) and coeff != 0, (key, coeff)
        if cap is not None:
            parts = key if isinstance(x, FATensor) else (key,)
            assert all(mono_degree(m) <= cap for m in parts), key


def random_sym(rng, dim=2, max_degree=3):
    pool = list(monomials_up_to(dim, max_degree))
    return SymElement(dim, {pool[rng.randrange(len(pool))]: F(rng.choice([-2, -1, 1, 2])) for _ in range(4)})


def random_fa(rng, alg, max_degree=3):
    pool = [alg.one(), *alg.gens()]
    for _ in range(6):
        pool.append(pool[rng.randrange(len(pool))] * pool[rng.randrange(1, len(pool))])
    total = alg.zero()
    for _ in range(4):
        piece = pool[rng.randrange(len(pool))]
        if piece.max_degree() <= max_degree:
            total = total + piece.scale(rng.choice([-2, -1, 1, 2]))
    return total


def random_pair(kind, rng):
    """Two elements of one space; y shares terms with -x, so x + y cancels."""
    if kind == "SymElement":
        x, z = random_sym(rng), random_sym(rng)
    elif kind == "SymTensor":
        x, z = random_sym(rng).coproduct(), SymTensor.of(random_sym(rng), random_sym(rng))
    else:
        alg = FreeAlgebra(("x", "y"), 4)
        if kind == "FAElement":
            x, z = random_fa(rng, alg), random_fa(rng, alg)
        else:
            x, z = random_fa(rng, alg).coproduct(), FATensor.of(random_fa(rng, alg), random_fa(rng, alg))
    return x, z - x, z


KINDS = ["SymElement", "SymTensor", "FAElement", "FATensor"]


@pytest.mark.parametrize("kind", KINDS)
def test_linear_structure_keeps_the_invariants(kind):
    for seed in SEEDS:
        x, y, z = random_pair(kind, random.Random(seed))
        cap = 4 if kind.startswith("FA") else None
        results = [x + y, y + x, x - y, -x, x.scale(F(-3, 2)), 2 * x, x.scale(0), x - x]
        for r in results:
            assert_clean(r, cap)
        assert x + y == z and y + x == z
        assert hash(x + y) == hash(z) == hash(y + x)
        assert (x - x).is_zero() and x - x == x.scale(0) == y.scale(0)
        assert x - y + y == x
        assert -(-x) == x and hash(-(-x)) == hash(x)


def test_products_and_coproducts_keep_the_invariants():
    for seed in SEEDS:
        rng = random.Random(seed)
        x, y = random_sym(rng), random_sym(rng)
        for r in (x * y, (x + y) * (x - y), x.coproduct(), x.coproduct() * y.coproduct()):
            assert_clean(r)
        assert (x + y) * (x - y) == x * x - y * y

        alg = FreeAlgebra(("x", "y"), 4)
        u, v = random_fa(rng, alg), random_fa(rng, alg)
        one = alg.one()
        for r in (u * v, (one + u) * (u - one), u.coproduct(), u.coproduct() * v.coproduct()):
            assert_clean(r, cap=4)
        for side in ("left", "right"):
            assert_clean(fa_divide(one + u, v, side), cap=4)
            assert_clean(fa_divide(u, u, side), cap=4)


def test_bialgebra_results_keep_the_invariants(jordan_bialgebra_4):
    B = jordan_bialgebra_4
    for seed in SEEDS:
        rng = random.Random(seed)
        x, y = random_sym(rng, 3, 2), random_sym(rng, 3, 2)
        one = B.one()
        for r in (B.product(x, y), B.product(one + x, x - one)):
            assert_clean(r)
            assert r.max_degree() <= B.N
        for side in ("left", "right"):
            assert_clean(B.divide(one + x, y, side))
            assert_clean(B.divide(x, x, side))
        assert B.product(one + x, x - one) == B.product(x, x) - one


FLOAT_ENTRY_POINTS = {
    "SymElement": lambda: SymElement(1, {(1,): 0.1}),
    "SymElement.from_vector": lambda: SymElement.from_vector((0.0, 1)),
    "SymTensor": lambda: SymTensor((1, 1), {((1,), (0,)): 0.1}),
    "FAElement": lambda: FAElement(FreeAlgebra(("x",), 2), {0: 0.1}),
    "FATensor": lambda: FATensor(FreeAlgebra(("x",), 2), {(0, 0): 0.1}),
    "LinComb.scale": lambda: SymElement.of_terms(1, {(1,): F(1)}).scale(0.1),
}


@pytest.mark.parametrize("entry", FLOAT_ENTRY_POINTS)
def test_public_constructors_and_scale_reject_floats(entry):
    # a float would otherwise be stored as its binary fraction 3602879701896397/2**55
    with pytest.raises(TypeError):
        FLOAT_ENTRY_POINTS[entry]()


def test_add_into_deletes_cancelled_keys():
    acc = {"a": F(1), "b": F(2)}
    assert add_into(acc, {"a": F(1, 2), "c": F(3)}, -2) == {"b": F(2), "c": F(-6)}
    assert add_into(acc, {"b": F(5)}, 0) == {"b": F(2), "c": F(-6)}
    assert all(isinstance(c, F) for c in add_into({}, {"d": F(1)}, 7).values())


@pytest.mark.parametrize("coeff", [1, -1, F(1), F(-1), 2, F(-3, 2)])
def test_add_into_matches_a_naive_sum(coeff):
    rng = random.Random(7)
    for _ in range(20):
        acc = {k: F(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2])) for k in rng.sample(range(8), 5)}
        terms = {k: F(rng.choice([-2, -1, 1, 3]), rng.choice([1, 3])) for k in rng.sample(range(8), 5)}
        # make one key cancel exactly
        key = next(iter(terms))
        acc[key] = -coeff * terms[key]
        expected = {k: acc.get(k, 0) + coeff * terms.get(k, 0) for k in acc.keys() | terms.keys()}
        expected = {k: c for k, c in expected.items() if c != 0}
        before = dict(terms)
        out = add_into(acc, terms, coeff)
        assert out is acc and acc == expected and key not in acc
        assert all(type(c) is F and c != 0 for c in acc.values()), acc
        assert terms == before


# kernel coefficients: nonzero ints and Fractions; a part's coefficient may
# also be 0 or a unit, as int or Fraction
nonzero = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3)).filter(bool)
combos = st.dictionaries(st.integers(0, 5), nonzero, max_size=5)
part_coeffs = st.one_of(st.sampled_from([0, 1, -1, F(0), F(1), F(-1)]), nonzero)


@settings(max_examples=150, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(
    start=combos,
    parts=st.lists(st.tuples(combos, part_coeffs), max_size=6),
    echoes=st.lists(st.integers(0, 5), max_size=3),
)
def test_sum_into_equals_successive_add_into(start, parts, echoes):
    # an echo repeats an earlier part at the negated coefficient, so whole parts cancel
    if parts:
        parts += [(parts[i % len(parts)][0], -parts[i % len(parts)][1]) for i in echoes]
    before = (dict(start), [(dict(t), c) for t, c in parts])
    expected = dict(start)
    for terms, coeff in parts:
        add_into(expected, terms, coeff)
    naive = dict(start)
    for terms, coeff in parts:
        for key, c in terms.items():
            naive[key] = naive.get(key, 0) + coeff * c
    got = sum_into(dict(start), parts)
    assert got == expected == {k: c for k, c in naive.items() if c}
    assert list(got) == list(expected)
    assert all(type(c) in (int, F) and c != 0 for c in got.values()), got
    assert (start, parts) == before
    assert sum_into(dict(got), [(terms, 0 * coeff) for terms, coeff in parts]) == got
