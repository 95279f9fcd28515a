"""Primitive operations, brackets, the block-symmetric multioperator and the divisions.

These are polynomial expressions in a product and its left division, so
they make sense in any unital bialgebra with divisions.  The functions
here take the algebra itself as their first argument; `DistBialgebra`
(keys are monomials) and `FreeAlgebra` (keys are words) implement the
contract

    one() mul(a,b) is_primitive(a)
    key_element(k) -> the basis element of the basis key k
    key_coproduct(k) -> iterable of (k1, k2, coeff), the Sweedler terms of k
    key_degree(k) -> the degree of k
    key_product(k1, k2) -> the terms dict of k1 k2, truncated by the algebra
    key_ldiv(k1, k2), key_rdiv(k1, k2) -> the algebra's memoized entries for
        k1 \\ k2 and k1 / k2 on basis keys, which call `ldiv_on_keys` and
        `rdiv_on_keys` here

and own the four memo dicts this module reads and fills, one set per
algebra instance: `_ldiv_memo` and `_rdiv_memo`, keyed by basis-key pairs,
and `_p_memo` and `_assoc_memo`, keyed by basis-key triples.

Elements are `lincomb.LinComb` instances: the engine uses their `+`, `-`
and `scale`, and sums linear combinations of them with `add_into` on
their `terms`, the dicts from basis key to coefficient.

Left and right division are defined by the counit recursions, the
non-associative stand-in for an antipode:

    sum u_(1) \\ (u_(2) v) = counit(u) v,    sum (u / v_(1)) v_(2) = counit(v) u.

On basis keys the split u_(1) = u, u_(2) = 1 of the first is u \\ v itself
and every other split has a first factor of smaller degree, so u \\ v is
solved by induction on the degree of u (1 \\ v = v); likewise u / v by
induction on the degree of v.  Both extend bilinearly (`divide`).

The defining formula of the primitive operations, with u and v
left-normed products of the argument blocks and all arguments primitive,
is

    p(x1..xm; y1..yn; z) = sum (u_(1) v_(1)) \\ assoc(u_(2), v_(2), z)

where assoc(a, b, c) = (ab)c - a(bc).  It is linear in each of u, v and
z, so p is evaluated as a combination of its values P on triples of basis
keys; P and the associators inside it are memoized on the algebra, which
shares them across every bracket and multioperator entry.  The binary
bracket is the negated commutator; higher brackets antisymmetrize p in its
last two slots, and the multioperator symmetrizes p over both blocks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import Sequence

from .lincomb import add_into, bilinear
from .scalars import ONE


def left_normed_product(alg, factors: Sequence) -> object:
    if not factors:
        return alg.one()
    out = factors[0]
    for factor in factors[1:]:
        out = alg.mul(out, factor)
    return out


def associator(alg, a, b, c):
    return alg.mul(alg.mul(a, b), c) - alg.mul(a, alg.mul(b, c))


def commutator(alg, a, b):
    return alg.mul(a, b) - alg.mul(b, a)


def _require_primitive(alg, elements: Sequence) -> None:
    for elem in elements:
        if not alg.is_primitive(elem):
            raise ValueError(f"primitive operations need primitive arguments, got {elem!r}")


def ldiv_on_keys(alg, u, v):
    r"""u \ v on basis keys, by the left counit recursion; memoized in alg._ldiv_memo."""
    key = (u, v)
    hit = alg._ldiv_memo.get(key)
    if hit is None:
        du = alg.key_degree(u)
        if du == 0:
            acc = {v: ONE}
        else:
            acc = {}
            for u1, u2, c in alg.key_coproduct(u):
                d1 = alg.key_degree(u1)
                if d1 == du:
                    continue
                prod = alg.key_product(u2, v)
                if d1 == 0:
                    add_into(acc, prod, -c)
                else:
                    for w, cw in prod.items():
                        add_into(acc, alg.key_ldiv(u1, w).terms, -c * cw)
        hit = alg.one()._like(acc)
        alg._ldiv_memo[key] = hit
    return hit


def rdiv_on_keys(alg, u, v):
    """u / v on basis keys, by the right counit recursion; memoized in alg._rdiv_memo."""
    key = (u, v)
    hit = alg._rdiv_memo.get(key)
    if hit is None:
        dv = alg.key_degree(v)
        if dv == 0:
            acc = {u: ONE}
        else:
            acc = {}
            for v1, v2, c in alg.key_coproduct(v):
                d1 = alg.key_degree(v1)
                if d1 == dv:
                    continue
                if d1 == 0:
                    add_into(acc, alg.key_product(u, v2), -c)
                else:
                    for w, cw in alg.key_rdiv(u, v1).terms.items():
                        add_into(acc, alg.key_product(w, v2), -c * cw)
        hit = alg.one()._like(acc)
        alg._rdiv_memo[key] = hit
    return hit


def divide(alg, a, b, side: str):
    """The bilinear extension of the division on basis keys; side is 'left' or 'right'."""
    if side == "left":
        return bilinear(alg.key_ldiv, a, b)
    if side == "right":
        return bilinear(alg.key_rdiv, a, b)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _assoc_on_keys(alg, a, b, c):
    key = (a, b, c)
    hit = alg._assoc_memo.get(key)
    if hit is None:
        hit = associator(alg, alg.key_element(a), alg.key_element(b), alg.key_element(c))
        alg._assoc_memo[key] = hit
    return hit


def _p_on_keys(alg, mu, nu, zeta):
    """The defining Sweedler sum with u, v and z the basis elements mu, nu and zeta."""
    key = (mu, nu, zeta)
    hit = alg._p_memo.get(key)
    if hit is None:
        acc: dict = {}
        for mu1, mu2, cu in alg.key_coproduct(mu):
            for nu1, nu2, cv in alg.key_coproduct(nu):
                assoc = _assoc_on_keys(alg, mu2, nu2, zeta)
                if assoc.terms:
                    head = alg.mul(alg.key_element(mu1), alg.key_element(nu1))
                    add_into(acc, divide(alg, head, assoc, "left").terms, cu * cv)
        hit = alg.one()._like(acc)
        alg._p_memo[key] = hit
    return hit


def p_operation(alg, xs: Sequence, ys: Sequence, z) -> object:
    if not xs or not ys:
        raise ValueError("p needs non-empty argument blocks")
    _require_primitive(alg, list(xs) + list(ys) + [z])
    u = left_normed_product(alg, xs)
    v = left_normed_product(alg, ys)
    acc: dict = {}
    for mu, cu in u.terms.items():
        for nu, cv in v.terms.items():
            for zeta, cz in z.terms.items():
                add_into(acc, _p_on_keys(alg, mu, nu, zeta).terms, cu * cv * cz)
    return z._like(acc)


def bracket(alg, xs: Sequence, y, z) -> object:
    """The bracket <x1..xm; y, z>; with an empty block it is minus the commutator."""
    _require_primitive(alg, list(xs) + [y, z])
    if not xs:
        return alg.mul(z, y) - alg.mul(y, z)
    return p_operation(alg, xs, [z], y) - p_operation(alg, xs, [y], z)


def multioperator(alg, xs: Sequence, ys: Sequence) -> object:
    """The multilinear multioperator, symmetrized over both blocks.

    (1/m! n!) sum over permutations of p(x_t(1)..x_t(m); y_s(1)..y_s(n-1); y_s(n)),
    for m >= 1 and n >= 2.
    """
    m, n = len(xs), len(ys)
    if m < 1 or n < 2:
        raise ValueError(f"multioperator needs m >= 1 and n >= 2, got ({m}, {n})")
    _require_primitive(alg, list(xs) + list(ys))
    weight = Fraction(1, factorial(m) * factorial(n))
    acc: dict = {}
    for tau in permutations(range(m)):
        xs_p = [xs[i] for i in tau]
        for sigma in permutations(range(n)):
            ys_p = [ys[i] for i in sigma]
            add_into(acc, p_operation(alg, xs_p, ys_p[:-1], ys_p[-1]).terms, weight)
    return ys[0]._like(acc)


def multioperator_component(alg, x, y, i: int, j: int) -> object:
    """Bidegree-(i, j) polynomial component of the multioperator at (x, y).

    Equals multioperator on i copies of x and j copies of y divided by
    i! j!; at repeated arguments every symmetrization term coincides, so
    this is p(x..x; y..y; y) / (i! j!).
    """
    if i < 1 or j < 2:
        raise ValueError(f"multioperator components need i >= 1 and j >= 2, got ({i}, {j})")
    value = p_operation(alg, [x] * i, [y] * (j - 1), y)
    return value.scale(Fraction(1, factorial(i) * factorial(j)))
