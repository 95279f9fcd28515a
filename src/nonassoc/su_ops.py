"""Primitive operations, brackets, the block-symmetric multioperator and the divisions.

These are polynomial expressions in a product and its left division, so
they make sense in any unital bialgebra with divisions.  The functions
here take the algebra itself as their first argument; `DistBialgebra`
(keys are monomial ids) and `FreeAlgebra` (keys are words) implement the
contract

    one() mul(a,b) is_primitive(a)
    key_element(k) -> the basis element of the basis key k
    key_coproduct(k) -> iterable of (k1, k2, coeff), the Sweedler terms of k
    key_degree(k) -> the degree of k
    key_product(k1, k2) -> the terms dict of k1 k2, truncated by the algebra
    key_ldiv(k1, k2), key_rdiv(k1, k2) -> the terms dicts of the algebra's
        memoized entries for k1 \\ k2 and k1 / k2 on basis keys, which it
        fills with `ldiv_on_keys` and `rdiv_on_keys` here
    triple_key(k1, k2, k3) -> the memo key of a triple of basis keys
    canonical(terms) -> terms as a memo stores them: every division, p and
        associator fill here goes through it (`scalars.exact_terms` in
        `DistBialgebra`, the computed `Fraction`s as they are in `FreeAlgebra`)

and own the two memo dicts this module reads and fills, one pair per
algebra instance: `_p_memo` and `_assoc_memo`, keyed by `triple_key` and
holding terms dicts.  Each division, associator and p fill is one list of
(memo entry, weight) pairs summed by one `sum_into`: a division entry from
product and division entries at smaller degree, an associator entry from
product entries, a p entry from product, associator and left division
entries, with no element built on the way.

Elements are `lincomb.LinComb` instances: the engine uses their `+`, `-`
and `scale`, and sums linear combinations of them with `sum_into` and
`add_into` on their `terms`, the dicts from basis key to coefficient.  The
division recursions start from `key_element`, so their entries carry the
algebra's own coefficients: `int | Fraction` in `DistBialgebra`,
`Fraction` in `FreeAlgebra`.  The operations multiply and add the
coefficients of their arguments and never divide them, so on the
`int`-coefficient elements that `dist.DistSUOps` passes in they stay ints,
and `canonical` stores them so; only `multioperator` scales its sum by
1/(m! n!), once, at the end, and `multioperator_component` that value by
1/(i! j!).

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
last two slots, and the multioperator symmetrizes p over both blocks,
evaluating p once per distinct ordering of its arguments.

`basis_bracket_table` builds the basis table of any bracket route from a
basis the caller supplies: `dist.su_bracket_table` passes the bialgebra's
kernel letters and `connection.ms_bracket_table` dense `int` basis vectors,
and the route's `entry` runs on those objects as they are.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import permutations, product as iter_product
from math import factorial
from typing import Callable, Sequence

from .lincomb import add_into, bilinear, sum_into
from .scalars import Vector, zero_vector


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


def ldiv_on_keys(alg, u, v) -> dict:
    r"""The terms of u \ v on basis keys, by the left counit recursion from the entries at smaller u."""
    du = alg.key_degree(u)
    if du == 0:
        return dict(alg.key_element(v).terms)
    parts = []
    for u1, u2, c in alg.key_coproduct(u):
        d1 = alg.key_degree(u1)
        if d1 == du:
            continue
        prod = alg.key_product(u2, v)
        if d1 == 0:
            parts.append((prod, -c))
        else:
            for w, cw in prod.items():
                parts.append((alg.key_ldiv(u1, w), -cw if c == 1 else -c * cw))
    return alg.canonical(sum_into({}, parts))


def rdiv_on_keys(alg, u, v) -> dict:
    """The terms of u / v on basis keys, by the right counit recursion from the entries at smaller v."""
    dv = alg.key_degree(v)
    if dv == 0:
        return dict(alg.key_element(u).terms)
    parts = []
    for v1, v2, c in alg.key_coproduct(v):
        d1 = alg.key_degree(v1)
        if d1 == dv:
            continue
        if d1 == 0:
            parts.append((alg.key_product(u, v2), -c))
        else:
            for w, cw in alg.key_rdiv(u, v1).items():
                parts.append((alg.key_product(w, v2), -cw if c == 1 else -c * cw))
    return alg.canonical(sum_into({}, parts))


def divide(alg, a, b, side: str):
    """The bilinear extension of the division on basis keys; side is 'left' or 'right'."""
    if side == "left":
        return bilinear(alg.key_ldiv, a, b)
    if side == "right":
        return bilinear(alg.key_rdiv, a, b)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _assoc_on_keys(alg, a, b, c) -> dict:
    """(ab)c - a(bc) on basis keys, summed from the product entries."""
    key = alg.triple_key(a, b, c)
    hit = alg._assoc_memo.get(key)
    if hit is None:
        product = alg.key_product
        parts = [(product(w, c), cw) for w, cw in product(a, b).items()]
        parts += [(product(a, w), -cw) for w, cw in product(b, c).items()]
        hit = alg._assoc_memo[key] = alg.canonical(sum_into({}, parts))
    return hit


def _p_on_keys(alg, mu, nu, zeta) -> dict:
    """The defining Sweedler sum with u, v and z the basis elements mu, nu and zeta, summed
    from the product, associator and left division entries."""
    key = alg.triple_key(mu, nu, zeta)
    hit = alg._p_memo.get(key)
    if hit is None:
        parts = []
        for mu1, mu2, cu in alg.key_coproduct(mu):
            for nu1, nu2, cv in alg.key_coproduct(nu):
                assoc = _assoc_on_keys(alg, mu2, nu2, zeta)
                if assoc:
                    for w, cw in alg.key_product(mu1, nu1).items():
                        weight = cu * cv * cw
                        parts += [(alg.key_ldiv(w, k), weight * ck) for k, ck in assoc.items()]
        hit = alg._p_memo[key] = alg.canonical(sum_into({}, parts))
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
                add_into(acc, _p_on_keys(alg, mu, nu, zeta), cu * cv * cz)
    return z._like(acc)


def bracket(alg, xs: Sequence, y, z) -> object:
    """The bracket <x1..xm; y, z>; with an empty block it is minus the commutator."""
    _require_primitive(alg, list(xs) + [y, z])
    if not xs:
        return commutator(alg, z, y)
    return p_operation(alg, xs, [z], y) - p_operation(alg, xs, [y], z)


def basis_bracket_table(
    basis: Sequence, N: int, arity: int, entry: Callable[[list, object, object], Vector]
) -> dict[tuple[int, ...], Vector]:
    """All brackets <e_{i_1} .. e_{i_m}; e_j, e_k> on basis tuples, each (j, k) pair once.

    `basis[i]` is the caller's own e_i, in whatever form `entry` takes, and
    `entry(xs, y, z)` evaluates one bracket on those objects to a dense
    vector, only for j < k; the entry at j > k is the negated entry at
    (.., k, j), and at j == k it is zero.  That is exactly what direct
    evaluation gives for a bracket antisymmetric in (y, z) by its formula,
    as `bracket`, p(xs; z; y) - p(xs; y; z), is.  An m-ary bracket needs
    m + 2 <= N.
    """
    if type(arity) is not int or arity < 0:
        raise ValueError(f"bracket arity must be >= 0 (an int, not a bool), got {arity!r}")
    if arity + 2 > N:
        raise ValueError(f"bracket arity {arity} needs degree {arity + 2} <= {N}")
    dim = len(basis)
    table: dict[tuple[int, ...], Vector] = {}
    # lexicographic order visits (.., k, j) before (.., j, k) whenever k < j
    for idx in iter_product(range(dim), repeat=arity + 2):
        *head, j, k = idx
        if j < k:
            table[idx] = entry([basis[i] for i in head], basis[j], basis[k])
        elif j == k:
            table[idx] = zero_vector(dim)
        else:
            table[idx] = tuple(-c for c in table[(*head, k, j)])
    return table


def multioperator(alg, xs: Sequence, ys: Sequence) -> object:
    """The multilinear multioperator, symmetrized over both blocks.

    (1/m! n!) sum over permutations of p(x_t(1)..x_t(m); y_s(1)..y_s(n-1); y_s(n)),
    for m >= 1 and n >= 2, evaluating p (which checks that the arguments are
    primitive) once per distinct ordering, weighted by its number of permutations.
    """
    m, n = len(xs), len(ys)
    if m < 1 or n < 2:
        raise ValueError(f"multioperator needs m >= 1 and n >= 2, got ({m}, {n})")
    # each block's distinct orderings as index tuples (equal arguments share an index), counted
    x_orders, y_orders = (Counter(permutations([b.index(a) for a in b])) for b in (xs, ys))
    acc: dict = {}
    for tau, tau_count in x_orders.items():
        xs_p = [xs[i] for i in tau]
        for sigma, sigma_count in y_orders.items():
            ys_p = [ys[i] for i in sigma]
            add_into(acc, p_operation(alg, xs_p, ys_p[:-1], ys_p[-1]).terms, tau_count * sigma_count)
    # the weight 1/(m! n!) once, on the sum, so the summands keep the algebra's coefficients
    return ys[0]._like(acc).scale(Fraction(1, factorial(m) * factorial(n)))


def multioperator_component(alg, x, y, i: int, j: int) -> object:
    """Bidegree-(i, j) polynomial component of the multioperator at (x, y).

    The multioperator on i copies of x and j copies of y, divided by i! j!;
    those arguments have one distinct ordering, so this is one p evaluation.
    i and j must be ints (not bools) with i >= 1 and j >= 2; otherwise ValueError.
    """
    if type(i) is not int or type(j) is not int or i < 1 or j < 2:
        raise ValueError(f"multioperator components need i >= 1 and j >= 2, got ({i!r}, {j!r})")
    return multioperator(alg, [x] * i, [y] * j).scale(Fraction(1, factorial(i) * factorial(j)))
