"""Invariants of the sparse linear-combination kernel under the element classes.

Internal results skip the validating constructors, so these pin what the
kernel itself must keep: no stored coefficient is zero, every stored
coefficient is a Fraction, equal elements hash equal, and free-algebra
results never hold a monomial above the truncation.
"""

import random
from fractions import Fraction as F

import pytest

from nonassoc.freealg import FATensor, FreeAlgebra, fa_divide, mono_degree
from nonassoc.lincomb import add_into
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


def test_add_into_deletes_cancelled_keys():
    acc = {"a": F(1), "b": F(2)}
    assert add_into(acc, {"a": F(1, 2), "c": F(3)}, -2) == {"b": F(2), "c": F(-6)}
    assert add_into(acc, {"b": F(5)}, 0) == {"b": F(2), "c": F(-6)}
    assert all(isinstance(c, F) for c in add_into({}, {"d": F(1)}, 7).values())
