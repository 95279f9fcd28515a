"""Primitive operations, brackets and the block-symmetric multioperator.

These are polynomial expressions in a product and its left division, so
they make sense in any unital bialgebra with divisions.  The functions
here are generic over an adapter object providing

    one() sub(a,b) scale(a,c) mul(a,b) ldiv(a,b) is_primitive(a)
    sum_terms(iterable of (a, coeff)) -> the linear combination
    key_element(k) -> the basis element of the basis key k
    key_coproduct(k) -> iterable of (k1, k2, coeff), the Sweedler terms of k
    p_memo, assoc_memo -> dicts owned by the algebra, keyed by basis-key triples

Elements expose `terms`, a dict from basis key to coefficient.  The engine
is shared by the free algebra (keys are words) and by distribution
bialgebras (keys are monomials).

The defining formula, with u and v left-normed products of the argument
blocks and all arguments primitive, is

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


def left_normed_product(ops, factors: Sequence) -> object:
    if not factors:
        return ops.one()
    out = factors[0]
    for factor in factors[1:]:
        out = ops.mul(out, factor)
    return out


def associator(ops, a, b, c):
    return ops.sub(ops.mul(ops.mul(a, b), c), ops.mul(a, ops.mul(b, c)))


def commutator(ops, a, b):
    return ops.sub(ops.mul(a, b), ops.mul(b, a))


def _require_primitive(ops, elements: Sequence) -> None:
    for elem in elements:
        if not ops.is_primitive(elem):
            raise ValueError(f"primitive operations need primitive arguments, got {elem!r}")


def _assoc_on_keys(ops, a, b, c):
    key = (a, b, c)
    hit = ops.assoc_memo.get(key)
    if hit is None:
        hit = associator(ops, ops.key_element(a), ops.key_element(b), ops.key_element(c))
        ops.assoc_memo[key] = hit
    return hit


def _p_on_keys(ops, mu, nu, zeta):
    """The defining Sweedler sum with u, v and z the basis elements mu, nu and zeta."""
    key = (mu, nu, zeta)
    hit = ops.p_memo.get(key)
    if hit is None:
        terms = []
        for mu1, mu2, cu in ops.key_coproduct(mu):
            for nu1, nu2, cv in ops.key_coproduct(nu):
                assoc = _assoc_on_keys(ops, mu2, nu2, zeta)
                if assoc.terms:
                    head = ops.mul(ops.key_element(mu1), ops.key_element(nu1))
                    terms.append((ops.ldiv(head, assoc), cu * cv))
        hit = ops.sum_terms(terms)
        ops.p_memo[key] = hit
    return hit


def p_operation(ops, xs: Sequence, ys: Sequence, z) -> object:
    if not xs or not ys:
        raise ValueError("p needs non-empty argument blocks")
    _require_primitive(ops, list(xs) + list(ys) + [z])
    u = left_normed_product(ops, xs)
    v = left_normed_product(ops, ys)
    return ops.sum_terms(
        (_p_on_keys(ops, mu, nu, zeta), cu * cv * cz)
        for mu, cu in u.terms.items()
        for nu, cv in v.terms.items()
        for zeta, cz in z.terms.items()
    )


def bracket(ops, xs: Sequence, y, z) -> object:
    """The bracket <x1..xm; y, z>; with an empty block it is minus the commutator."""
    _require_primitive(ops, list(xs) + [y, z])
    if not xs:
        return ops.sub(ops.mul(z, y), ops.mul(y, z))
    return ops.sub(p_operation(ops, xs, [z], y), p_operation(ops, xs, [y], z))


def multioperator(ops, xs: Sequence, ys: Sequence) -> object:
    """The multilinear multioperator, symmetrized over both blocks.

    (1/m! n!) sum over permutations of p(x_t(1)..x_t(m); y_s(1)..y_s(n-1); y_s(n)),
    for m >= 1 and n >= 2.
    """
    m, n = len(xs), len(ys)
    if m < 1 or n < 2:
        raise ValueError(f"multioperator needs m >= 1 and n >= 2, got ({m}, {n})")
    _require_primitive(ops, list(xs) + list(ys))
    weight = Fraction(1, factorial(m) * factorial(n))
    terms = []
    for tau in permutations(range(m)):
        xs_p = [xs[i] for i in tau]
        for sigma in permutations(range(n)):
            ys_p = [ys[i] for i in sigma]
            terms.append((p_operation(ops, xs_p, ys_p[:-1], ys_p[-1]), weight))
    return ops.sum_terms(terms)


def multioperator_component(ops, x, y, i: int, j: int) -> object:
    """Bidegree-(i, j) polynomial component of the multioperator at (x, y).

    Equals multioperator on i copies of x and j copies of y divided by
    i! j!; at repeated arguments every symmetrization term coincides, so
    this is p(x..x; y..y; y) / (i! j!).
    """
    if i < 1 or j < 2:
        raise ValueError(f"multioperator components need i >= 1 and j >= 2, got ({i}, {j})")
    value = p_operation(ops, [x] * i, [y] * (j - 1), y)
    return ops.scale(value, Fraction(1, factorial(i) * factorial(j)))
