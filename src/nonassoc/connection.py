"""Formal vector fields, flat connections, torsion and the induced brackets.

A formal vector field is a linear map k[V] -> V given by a table on the
monomials up to a degree bound; fields combine through the symmetric
algebra product of k[V] (never the loop product).  A flat connection is a
table (monomial, tangent vector) -> vector restricting to the identity on
1 (x) V; the one of a loop is the restriction of the loop to k[V] (x) V.

Covariant differentiation consumes one degree of the bound per
application, which is why an n-fold bracket needs n + 2 <= N.

Internally every field value and transport is a sparse vector (`scalars`),
accumulated with `lincomb.add_into`, whose coefficients are in the
canonical form of `scalars.exact`: an int when integral, else a Fraction.
Each value is put in that form once, as its cache stores it (`_at`,
`_star`, `_inv_star` and the pulled-back vectors), so the canonical
connection of an integral loop, and every field built on it, computes on
ints.  The public API stays dense: `at`, `star`, `inv_star`, `star_vec`,
`inv_star_vec`, `table`, `inverse_table` and `ms_brackets` return
length-`dim` Fraction tuples (`scalars.to_dense`).  The constructors of
`FormalVectorField` and `FlatConnection` take functions returning sparse
vectors, which are never mutated; dense input comes in through their
`from_table`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .lincomb import add_into
from .maps import FormalLoop
from .scalars import (
    SparseVector, Vector, basis_vector, exact, exact_terms, rat, to_dense, to_sparse,
)
from .su_ops import basis_bracket_table
from .symalg import (
    Monomial,
    basis_monomial,
    monomial_degree,
    monomial_splits,
    monomials_up_to,
    unit_monomial,
)

def _times_basis(mono: Monomial, i: int) -> Monomial:
    """The monomial mono * e_i of k[V]."""
    return mono[:i] + (mono[i] + 1,) + mono[i + 1:]


def _on_vector(transport: Callable, mono: Monomial, v: SparseVector) -> SparseVector:
    """sum_j v_j transport(mono, e_j): a transport extended linearly in the vector."""
    out: SparseVector = {}
    for j, c in v.items():
        add_into(out, transport(mono, j), c)
    return out


class FormalVectorField:
    """A linear map k[V] -> V, total on monomials up to its degree bound.

    Derived fields (brackets, covariant derivatives) are defined by their
    formulas and evaluated on demand with caching; fields built from an
    explicit table must be total and reject anything partial up front.
    `fn` returns sparse vectors that are never mutated.
    """

    def __init__(self, dim: int, max_degree: int, fn: Callable[[Monomial], SparseVector]):
        if max_degree < 0:
            raise ValueError("vector field degree bound must be >= 0")
        self.dim = dim
        self.max_degree = max_degree
        self._fn = fn
        self._cache: dict[Monomial, SparseVector] = {}
        self._pulled_cache: dict[tuple[FlatConnection, Monomial], SparseVector] = {}
        # (conn, v) when this is the field mu -> mu * v of `adapted_field`
        self._adapted: tuple[FlatConnection, SparseVector] | None = None

    @classmethod
    def from_table(cls, dim: int, max_degree: int, table: dict[Monomial, Vector]) -> "FormalVectorField":
        data = {tuple(m): exact_terms(to_sparse(dim, v)) for m, v in table.items()}
        for mono in monomials_up_to(dim, max_degree):
            if mono not in data:
                raise ValueError(f"partial table: no value at monomial {mono}")
        return cls(dim, max_degree, data.__getitem__)

    def at(self, mono: Monomial) -> Vector:
        return to_dense(self.dim, self._at(tuple(mono)))

    def _at(self, mono: Monomial) -> SparseVector:
        hit = self._cache.get(mono)
        if hit is None:
            if monomial_degree(mono) > self.max_degree:
                raise ValueError(
                    f"monomial of degree {monomial_degree(mono)} beyond the field bound {self.max_degree}"
                )
            hit = exact_terms(self._fn(mono))
            self._cache[mono] = hit
        return hit

    def table(self) -> dict[Monomial, Vector]:
        return {mono: self.at(mono) for mono in monomials_up_to(self.dim, self.max_degree)}

    def __add__(self, other: "FormalVectorField") -> "FormalVectorField":
        self._compatible(other)
        bound = min(self.max_degree, other.max_degree)
        return FormalVectorField(self.dim, bound, lambda m: add_into(dict(self._at(m)), other._at(m)))

    def __sub__(self, other: "FormalVectorField") -> "FormalVectorField":
        self._compatible(other)
        bound = min(self.max_degree, other.max_degree)
        return FormalVectorField(self.dim, bound, lambda m: add_into(dict(self._at(m)), other._at(m), -1))

    def scale(self, c: Fraction) -> "FormalVectorField":
        c = exact(rat(c))
        return FormalVectorField(self.dim, self.max_degree, lambda m: add_into({}, self._at(m), c))

    def _compatible(self, other: "FormalVectorField") -> None:
        if self.dim != other.dim:
            raise ValueError("vector fields on different spaces")

    def __repr__(self) -> str:
        return f"FormalVectorField(dim={self.dim}, max_degree={self.max_degree})"


class FlatConnection:
    """A linear map k[V] (x) V -> V whose restriction to 1 (x) V is the identity.

    `star_fn(mono, j)` returns the sparse vector mono * e_j, never mutated.
    """

    def __init__(self, dim: int, max_degree: int, star_fn: Callable[[Monomial, int], SparseVector]):
        self.dim = dim
        self.max_degree = max_degree  # bound on the k[V] argument
        self._fn = star_fn
        self._star_cache: dict[tuple[Monomial, int], SparseVector] = {}
        self._inv_cache: dict[tuple[Monomial, int], SparseVector] = {}
        for j in range(dim):
            if self._star(unit_monomial(dim), j) != {j: 1}:
                raise ValueError("a flat connection restricts to the identity on 1 (x) V")

    @classmethod
    def from_table(cls, dim: int, max_degree: int, table: dict[tuple[Monomial, int], Vector]) -> "FlatConnection":
        data = {(tuple(m), j): exact_terms(to_sparse(dim, v)) for (m, j), v in table.items()}
        for mono in monomials_up_to(dim, max_degree):
            for j in range(dim):
                if (mono, j) not in data:
                    raise ValueError(f"partial table: no value at ({mono}, {j})")
        return cls(dim, max_degree, lambda mono, j: data[(mono, j)])

    def star(self, mono: Monomial, j: int) -> Vector:
        return to_dense(self.dim, self._star(tuple(mono), j))

    def _star(self, mono: Monomial, j: int) -> SparseVector:
        key = (mono, j)
        hit = self._star_cache.get(key)
        if hit is None:
            if monomial_degree(mono) > self.max_degree:
                raise ValueError(
                    f"monomial of degree {monomial_degree(mono)} beyond the connection bound {self.max_degree}"
                )
            hit = exact_terms(self._fn(mono, j))
            self._star_cache[key] = hit
        return hit

    def star_vec(self, mono: Monomial, v: Vector) -> Vector:
        return to_dense(self.dim, _on_vector(self._star, tuple(mono), to_sparse(self.dim, v)))

    def inv_star(self, mono: Monomial, j: int) -> Vector:
        r"""The inverse transport mu \* v, solved by induction on deg mu."""
        return to_dense(self.dim, self._inv_star(tuple(mono), j))

    def _inv_star(self, mono: Monomial, j: int) -> SparseVector:
        key = (mono, j)
        hit = self._inv_cache.get(key)
        if hit is None:
            degree = monomial_degree(mono)
            if degree == 0:
                hit = {j: 1}
            else:
                # sum over splits of mu of mu_(1) \* (mu_(2) * v) vanishes off degree 0
                hit = {}
                for a, b, coeff in monomial_splits(mono):
                    if monomial_degree(a) == degree:
                        continue
                    for i, c in self._star(b, j).items():
                        add_into(hit, self._inv_star(a, i), -coeff * c)
                hit = exact_terms(hit)
            self._inv_cache[key] = hit
        return hit

    def inv_star_vec(self, mono: Monomial, v: Vector) -> Vector:
        return to_dense(self.dim, _on_vector(self._inv_star, tuple(mono), to_sparse(self.dim, v)))

    def inverse_table(self) -> dict[tuple[Monomial, int], Vector]:
        return {
            (mono, j): self.inv_star(mono, j)
            for mono in monomials_up_to(self.dim, self.max_degree)
            for j in range(self.dim)
        }


def connection_from_loop(loop: FormalLoop) -> FlatConnection:
    """The canonical connection: the loop restricted to k[V] (x) V.

    Cached in the loop's `_canonical_connection`, which this function
    creates on first use, so repeated bracket evaluations share the
    transport tables.
    """
    conn = vars(loop).get("_canonical_connection")
    if conn is None:

        def star_fn(mono: Monomial, j: int) -> SparseVector:
            return loop._value((mono, basis_monomial(loop.dim, j)))

        conn = loop._canonical_connection = FlatConnection(loop.dim, loop.N - 1, star_fn)
    return conn


def adapted_field(conn: FlatConnection, v: Vector) -> FormalVectorField:
    """The field adapted to a tangent vector: mu -> mu * v."""
    v = exact_terms(to_sparse(conn.dim, v))
    field = FormalVectorField(conn.dim, conn.max_degree, lambda mono: _on_vector(conn._star, mono, v))
    field._adapted = (conn, v)
    return field


def _b_after_a(a: FormalVectorField, b: FormalVectorField, mono: Monomial) -> SparseVector:
    """sum B(mu_(1) A(mu_(2))) at mu = mono, with mu_(1) e_i for each entry i of A(mu_(2))."""
    out: SparseVector = {}
    for m1, m2, coeff in monomial_splits(mono):
        for i, c in a._at(m2).items():
            add_into(out, b._at(_times_basis(m1, i)), coeff * c)
    return out


def vf_bracket(a: FormalVectorField, b: FormalVectorField) -> FormalVectorField:
    """[A, B](mu) = sum B(mu_(1) A(mu_(2))) - A(mu_(1) B(mu_(2)))."""
    a._compatible(b)
    bound = min(a.max_degree, b.max_degree) - 1
    return FormalVectorField(
        a.dim, bound, lambda mono: add_into(_b_after_a(a, b, mono), _b_after_a(b, a, mono), -1)
    )


def _pulled(conn: FlatConnection, b: FormalVectorField, mono: Monomial) -> SparseVector:
    r"""sum mono_(1) \* B(mono_(2)), cached on the field B per connection.

    For the field B(mu) = mu * v adapted along conn the sum is
    sum mono_(1) \* (mono_(2) * v) = counit(mono) v, the recursion that
    defines `_inv_star`: v at degree 0 and 0 above, with nothing to sum.
    """
    if b._adapted is not None and b._adapted[0] is conn:
        return {} if any(mono) else b._adapted[1]
    hit = b._pulled_cache.get((conn, mono))
    if hit is None:
        hit = {}
        for m1, m2, coeff in monomial_splits(mono):
            add_into(hit, _on_vector(conn._inv_star, m1, b._at(m2)), coeff)
        hit = exact_terms(hit)
        b._pulled_cache[(conn, mono)] = hit
    return hit


def covariant_derivative(
    conn: FlatConnection, a: FormalVectorField, b: FormalVectorField
) -> FormalVectorField:
    """nabla_A(B)(mu) = sum B(mu_(1) A(mu_(2)))
    - (mu_(1) A(mu_(2))) * (mu_(3) \\* B(mu_(4))), the four-fold coproduct taken
    as (Delta (x) Delta) Delta: mu = L (x) R, and the sum over the splits of R
    read from B's cache (`_pulled`)."""
    if conn.dim != a.dim or conn.dim != b.dim:
        raise ValueError("connection and fields live on different spaces")
    bound = min(conn.max_degree, a.max_degree, b.max_degree) - 1

    def fn(mono: Monomial) -> SparseVector:
        out = _b_after_a(a, b, mono)
        for left, right, c0 in monomial_splits(mono):
            pulled = _pulled(conn, b, right)
            if not pulled:
                continue
            for m1, m2, c1 in monomial_splits(left):
                for i, c in a._at(m2).items():
                    add_into(out, _on_vector(conn._star, _times_basis(m1, i), pulled), -c0 * c1 * c)
        return out

    return FormalVectorField(a.dim, bound, fn)


def torsion(conn: FlatConnection, a: FormalVectorField, b: FormalVectorField) -> FormalVectorField:
    """T(A, B) = nabla_A(B) - nabla_B(A) - [A, B]; antisymmetric."""
    return covariant_derivative(conn, a, b) - covariant_derivative(conn, b, a) - vf_bracket(a, b)


def ms_brackets(
    loop: FormalLoop, xs: Sequence[Vector], y: Vector, z: Vector
) -> Vector:
    """The connection-side bracket <x_1 .. x_n; y, z> of a loop.

    Covariant derivatives are applied innermost first (the x_n one hits the
    torsion field first) and the result is evaluated at 1.  Each derivative
    consumes a degree, so n + 2 must not exceed the truncation.  A vector
    whose length is not `loop.dim` never matches a cached key, so it
    reaches `adapted_field`, which raises ValueError.

    Torsion and derivative fields are cached in the loop's
    `_ms_field_cache`, which this function creates on first use, keyed by
    their argument chain (y, z, x_n, ..., x_1) as dense tuples of exact
    coefficients (`scalars.exact`), so sweeping over basis tuples shares all
    intermediate tables.  The benchmark tracer (`perfbench/tracer.py`)
    counts its entries under that name.  The adapted fields have their own
    cache, `_adapted_field_cache` (`_adapted`), one field per vector, so
    every torsion and derivative that reads the field of a vector shares its
    value and pulled-back caches.
    """
    if len(xs) + 2 > loop.N:
        raise ValueError(
            f"bracket of arity {len(xs)} needs degree {len(xs) + 2} <= {loop.N}"
        )
    conn = connection_from_loop(loop)
    cache = vars(loop).setdefault("_ms_field_cache", {})
    y, z = _exact_vector(y), _exact_vector(z)
    key: tuple = (y, z)
    field = cache.get(key)
    if field is None:
        field = torsion(conn, _adapted(loop, conn, y), _adapted(loop, conn, z))
        cache[key] = field
    for x in reversed([_exact_vector(v) for v in xs]):
        key = key + (x,)
        nxt = cache.get(key)
        if nxt is None:
            nxt = covariant_derivative(conn, _adapted(loop, conn, x), field)
            cache[key] = nxt
        field = nxt
    return field.at(unit_monomial(loop.dim))


def _exact_vector(v: Vector) -> tuple:
    """A dense vector with its entries in the canonical form of `scalars.exact`."""
    return tuple(exact(rat(c)) for c in v)


def _adapted(loop: FormalLoop, conn: FlatConnection, v: tuple) -> FormalVectorField:
    """The adapted field of a dense exact vector, built once per loop in its
    `_adapted_field_cache`, created on first use (`adapted_field` raises on a
    wrong length, and only built fields are cached)."""
    cache = vars(loop).setdefault("_adapted_field_cache", {})
    field = cache.get(v)
    if field is None:
        field = cache[v] = adapted_field(conn, v)
    return field


def ms_bracket_table(loop: FormalLoop, arity: int) -> dict[tuple[int, ...], Vector]:
    """`ms_brackets` on every basis tuple, by `su_ops.basis_bracket_table`; mirroring (y, z)
    is exact, as the torsion is antisymmetric by its formula and nabla_x is linear."""
    basis = [basis_vector(loop.dim, i) for i in range(loop.dim)]
    return basis_bracket_table(basis, loop.N, arity, lambda xs, y, z: ms_brackets(loop, xs, y, z))
