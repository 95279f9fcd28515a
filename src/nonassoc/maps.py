"""Formal maps and formal loops as truncated multidegree-graded tables.

A formal map with argument dimensions (d1, ..., dn) and target dimension d
is a linear map k[V1] (x) ... (x) k[Vn] -> W vanishing on 1, truncated at a
total degree N.  Storage is the distribution view: the component at
multidegree (i1, ..., in) is a table sending each tuple of exponent-vector
monomials (of those degrees) to a vector; the value at a monomial tuple is
the value of the map on the corresponding product of derivative operators.
The series view (coefficients of the associated power series) differs by
the product of the exponent factorials; `from_json` reads either view.

Stored values are sparse vectors (`scalars`), shared between maps and never
mutated; a table holds no zero vector and no table is empty.  Constructor
inputs, `value`, `series_value`, `sorted_entries`, `to_json` and verdict
witnesses are dense.  `_of_sparse` is the trusted constructor.  `value`,
`series_value` and `on_elements` refuse to read above N.

Maps prolong to coalgebra morphisms between symmetric coalgebras and
compose by substituting the inner maps' series into the outer map's
(shared variables are shared by the series).  The substitution works in
divided-power coordinates x^(e) = x^e / e!, in which the distribution view
is the coefficient list, so no factorial is divided out or multiplied back
and an integral map composes on int coefficients.  A series term is keyed by
its exponent vector packed into one int in radix N + 1 (`_pack`): no kept
term has a digit above N, so multiplying two terms adds their keys, and
`compose` unpacks each distinct key of its result once.  A unital two-slot
map is a formal loop with two-sided divisions obtained as degree-graded
fixed points.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import accumulate, product as iter_product
from math import factorial, prod
from typing import Callable, Iterator, Sequence

from .scalars import (
    ONE,
    SparseVector,
    Vector,
    _json_field,
    _json_items,
    exact,
    exact_div,
    exact_terms,
    format_rational,
    parse_rational,
    rat,
    to_dense,
    to_sparse,
)
from .symalg import (
    Monomial,
    SymElement,
    basis_monomial,
    is_monomial,
    monomial_degree,
    monomials,
    submonomials,
    sym_dim,
    unit_monomial,
)
from .freealg import FAElement, FreeAlgebra, fa_exp, fa_loop_divide, mono_degree, mono_letter_counts
from .lincomb import add_into
from .words import Identity, LDiv, LoopWord, Mul, RDiv, Unit, Var, parse_identity

MonoTuple = tuple[Monomial, ...]
Multidegree = tuple[int, ...]
Tables = dict[Multidegree, dict[MonoTuple, SparseVector]]
# a scalar series in the arguments of a map, in divided-power coordinates: total degree ->
# {packed e: the coefficient of x^(e) = x^e / e!}, in `scalars.exact` form, e being the
# concatenation of the slots' monomials packed by `_pack` in radix N + 1
Series = dict[int, dict[int, int | Fraction]]

DEFAULT_MEMORY_CAP = 100_000
MEMORY_CAP_ENV = "NONASSOC_MEMORY_CAP"


class MemoryCapError(ValueError):
    """Raised when a requested (dimension, degree) table would be too large."""


class InvariantError(AssertionError):
    """Raised when an internal invariant of a computation fails: a bug, not a verdict."""


def table_cells(dim: int, max_degree: int) -> int:
    """Rational slots a full two-slot component table could hold."""
    total = 0
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            if i == j == 0:
                continue
            total += sym_dim(dim, i) * sym_dim(dim, j) * dim
    return total


def resolve_memory_cap(cap: int | None = None) -> int:
    """`cap` when given (the CLI's --memory-cap), else the value of NONASSOC_MEMORY_CAP, else
    the default.  A cap that is not an int >= 0 (a bool included), or an environment value
    that is not a decimal int >= 0, raises ValueError naming its source."""
    if cap is None:
        env = os.environ.get(MEMORY_CAP_ENV)
        if env is None:
            return DEFAULT_MEMORY_CAP
        if not (env.strip().isascii() and env.strip().isdigit()):
            raise ValueError(f"{MEMORY_CAP_ENV} must be a decimal int >= 0, got {env!r}")
        return int(env)
    if type(cap) is not int or cap < 0:
        raise ValueError(f"--memory-cap must be an int >= 0, got {cap!r}")
    return cap


def check_memory_cap(dim: int, max_degree: int, cap: int | None = None) -> None:
    limit = resolve_memory_cap(cap)
    cells = table_cells(dim, max_degree)
    if cells > limit:
        raise MemoryCapError(
            f"component tables for dimension {dim} at degree {max_degree} need "
            f"{cells} rational slots, over the cap of {limit}"
        )


def multidegree_of(monos: MonoTuple) -> Multidegree:
    return tuple(monomial_degree(m) for m in monos)


def _series_weight(monos: MonoTuple) -> int:
    """The factor between the distribution and the series view at a monomial tuple."""
    return prod(map(factorial, sum(monos, ())))


def _pack(exps: Sequence[int], radix: int) -> int:
    """The exponent vector as one int, exps[0] its most significant digit in `radix`.

    Each digit must be below the radix.  A series truncated at total degree
    N packs in radix N + 1: then every digit of a kept product term is at
    most N, so the packed sum of two terms is the sum of their packed keys.
    """
    key = 0
    for e in exps:
        key = key * radix + e
    return key


class _Memo(dict):
    """A dict that fills a missing key with `fill(key)`."""

    def __init__(self, fill: Callable):
        self.fill = fill

    def __missing__(self, key):
        self[key] = value = self.fill(key)
        return value


@cache
def _packed_factorials(radix: int) -> _Memo:
    """packed e -> prod_i e_i!, the factor between x^e and x^(e), for keys packed in `radix`."""

    def fill(key: int) -> int:
        weight = 1
        while key:
            key, e = divmod(key, radix)
            weight *= factorial(e)
        return weight

    return _Memo(fill)


@cache
def _unpacked(dims: tuple[int, ...], radix: int) -> _Memo:
    """packed key -> (multidegree, slot monomials), `_pack` inverted for the slots `dims`."""
    bounds = list(accumulate(dims, initial=0))

    def fill(key: int) -> tuple[Multidegree, MonoTuple]:
        exps = [0] * bounds[-1]
        for i in reversed(range(bounds[-1])):
            key, exps[i] = divmod(key, radix)
        monos = tuple(tuple(exps[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
        return tuple(map(sum, monos)), monos

    return _Memo(fill)


def _check_monomials(monos: MonoTuple, dims: Sequence[int]) -> None:
    for mono, dim in zip(monos, dims):
        if not is_monomial(mono, dim):
            raise ValueError(f"{mono} is not a monomial of a {dim}-dimensional slot")


def _identity_block(dims: Sequence[int], slot: int) -> dict[MonoTuple, SparseVector]:
    """The table e_j (in slot `slot`, 1 elsewhere) -> e_j of the primitive part of one slot."""
    units = [unit_monomial(d) for d in dims]
    return {
        tuple(basis_monomial(dims[slot], j) if i == slot else u for i, u in enumerate(units)): {j: ONE}
        for j in range(dims[slot])
    }


def tensor_monomials(dims: Sequence[int], multidegree: Multidegree) -> Iterator[MonoTuple]:
    yield from iter_product(*(monomials(d, k) for d, k in zip(dims, multidegree)))


def tuple_submonomials(
    monos: MonoTuple, multidegree: Multidegree
) -> Iterator[tuple[MonoTuple, MonoTuple, int]]:
    """All sub-tuples of the given multidegree with remainder and binomial weight."""
    per_slot = [submonomials(m, k) for m, k in zip(monos, multidegree)]
    for combo in iter_product(*per_slot):
        yield (
            tuple(split[0] for split in combo),
            tuple(split[1] for split in combo),
            prod(split[2] for split in combo),
        )


class FormalMap:
    """A truncated formal map stored as multidegree-graded tables."""

    def __init__(
        self,
        dims: Sequence[int],
        target_dim: int,
        max_degree: int,
        components: dict[Multidegree, dict[MonoTuple, Vector]] | None = None,
    ):
        dims = tuple(dims)
        clean: Tables = {}
        for md, table in (components or {}).items():
            md = tuple(md)
            if len(md) != len(dims):
                raise ValueError(f"multidegree {md} does not match {len(dims)} slots")
            total = sum(md)
            if total == 0:
                raise ValueError("a formal map vanishes on 1; no degree-0 component allowed")
            entries: dict[MonoTuple, SparseVector] = {}
            for monos, value in table.items():
                monos = tuple(monos)
                _check_monomials(monos, dims)
                if multidegree_of(monos) != md:
                    raise ValueError(f"monomials {monos} do not have multidegree {md}")
                value = to_sparse(target_dim, value)
                if value:
                    entries[monos] = value
            if entries and total <= max_degree:
                clean[md] = entries
        self._setup(dims, target_dim, max_degree, clean)

    def _setup(self, dims: tuple[int, ...], target_dim: int, max_degree: int, components: Tables):
        if type(max_degree) is not int or max_degree < 0:
            raise ValueError(f"truncation degree must be an int >= 0, got {max_degree!r}")
        self.dims = dims
        self.target_dim = target_dim
        self.N = max_degree
        self.components = components
        self._prolongation: "Prolongation | None" = None

    @classmethod
    def _of_sparse(cls, dims: Sequence[int], target_dim: int, max_degree: int, components: Tables):
        """Trusted constructor: keeps `components` (nonempty sparse tables, degrees 1..N)."""
        out = object.__new__(cls)
        out._setup(tuple(dims), target_dim, max_degree, components)
        return out

    def _like(self, components: Tables) -> "FormalMap":
        return FormalMap._of_sparse(self.dims, self.target_dim, self.N, components)

    # -- basic access -----------------------------------------------------------
    def value(self, monos: MonoTuple) -> Vector:
        """The value at a tuple of slot monomials of total degree <= N; an absent entry reads 0.

        A wrong number of slots, a malformed monomial or a total degree above N
        raises ValueError: the map knows nothing there.
        """
        monos = tuple(monos)
        if len(monos) != len(self.dims):
            raise ValueError(f"{len(monos)} monomials for a map of {len(self.dims)} slots")
        _check_monomials(monos, self.dims)
        total = sum(map(sum, monos))
        if total > self.N:
            raise ValueError(f"monomials {monos} of total degree {total} beyond the truncation {self.N}")
        return to_dense(self.target_dim, self._value(monos))

    def _value(self, monos: MonoTuple) -> SparseVector:
        return self.components.get(multidegree_of(monos), {}).get(monos) or {}

    def series_value(self, monos: MonoTuple) -> Vector:
        """`value` in the series view, with the same refusals."""
        value = self.value(monos)
        return tuple(c / _series_weight(tuple(monos)) for c in value)

    def support(self) -> set[Multidegree]:
        return set(self.components.keys())

    def is_zero(self) -> bool:
        return not self.components

    def on_elements(self, elems: Sequence[SymElement]) -> SparseVector:
        """Apply to a pure tensor of coalgebra elements by linear extension.

        The value is a fresh sparse vector: the sum of `_value(monos)`, times
        the product of the terms' coefficients, over every tuple of terms.
        Elements whose top degrees sum past N raise ValueError, since some
        tuples of their terms would be read above the truncation.
        """
        if len(elems) != len(self.dims):
            raise ValueError("slot count mismatch")
        for e, d in zip(elems, self.dims):
            if e.dim != d:
                raise ValueError(f"element of dimension {e.dim} in a slot of dimension {d}")
        top = sum(e.max_degree() for e in elems)
        if top > self.N:
            raise ValueError(f"elements of top degrees summing to {top} beyond the truncation {self.N}")
        out: SparseVector = {}
        for combo in iter_product(*(e.terms.items() for e in elems)):
            value = self._value(tuple(mono for mono, _ in combo))
            if value:
                add_into(out, value, prod(c for _, c in combo))
        return out

    # -- linear structure ---------------------------------------------------------
    def _check(self, other: "FormalMap") -> None:
        if (self.dims, self.target_dim, self.N) != (other.dims, other.target_dim, other.N):
            raise ValueError("formal map signatures differ")

    def _plus(self, other: "FormalMap", coeff: int) -> "FormalMap":
        """self + coeff * other; entries of self that other leaves alone are shared."""
        self._check(other)
        comps = {md: dict(tab) for md, tab in self.components.items()}
        for md, table in other.components.items():
            dst = comps.setdefault(md, {})
            for monos, value in table.items():
                total = add_into(dict(dst.get(monos, {})), value, coeff)
                if total:
                    dst[monos] = total
                else:
                    del dst[monos]
            if not dst:
                del comps[md]
        return self._like(comps)

    def __add__(self, other: "FormalMap") -> "FormalMap":
        return self._plus(other, 1)

    def __sub__(self, other: "FormalMap") -> "FormalMap":
        return self._plus(other, -1)

    def scale(self, c: int | Fraction) -> "FormalMap":
        c = rat(c)
        if c == 0:
            return self._like({})
        return self._like(
            {
                md: {monos: {i: c * x for i, x in v.items()} for monos, v in tab.items()}
                for md, tab in self.components.items()
            }
        )

    def filter_components(self, keep: Callable[[Multidegree], bool]) -> "FormalMap":
        return self._like({md: dict(tab) for md, tab in self.components.items() if keep(md)})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FormalMap)
            and self.dims == other.dims
            and self.target_dim == other.target_dim
            and self.N == other.N
            and self.components == other.components
        )

    def sorted_entries(self) -> Iterator[tuple[Multidegree, MonoTuple, Vector]]:
        """Every entry, ordered by total degree, multidegree, then monomials.

        The first entry is the witness the identity, similarity and
        homomorphism checks report for a nonzero difference.
        """
        for md in sorted(self.components, key=lambda m: (sum(m), m)):
            table = self.components[md]
            for monos in sorted(table):
                yield md, monos, to_dense(self.target_dim, table[monos])

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(dims={self.dims}, target_dim={self.target_dim}, "
            f"N={self.N}, multidegrees={sorted(self.components)})"
        )

    # -- prolongation ----------------------------------------------------------------
    def prolongation(self) -> "Prolongation":
        if self._prolongation is None:
            self._prolongation = Prolongation(self)
        return self._prolongation

    # -- constructors -------------------------------------------------------------------
    @classmethod
    def zero_map(cls, dims: Sequence[int], target_dim: int, max_degree: int) -> "FormalMap":
        return cls(dims, target_dim, max_degree, {})

    @classmethod
    def slot_projection(cls, dims: Sequence[int], slot: int, max_degree: int) -> "FormalMap":
        """The map picking out the primitive part of one argument slot."""
        if not 0 <= slot < len(dims):
            raise ValueError(f"slot {slot} out of range")
        md = tuple(1 if i == slot else 0 for i in range(len(dims)))
        comps = {md: _identity_block(dims, slot)} if max_degree >= 1 else {}
        return cls._of_sparse(dims, dims[slot], max_degree, comps)

    @classmethod
    def from_series(
        cls,
        dims: Sequence[int],
        target_dim: int,
        max_degree: int,
        series_terms: dict[MonoTuple, Vector],
    ) -> "FormalMap":
        """Build from power-series coefficients (multiplies in the factorials)."""
        comps: dict[Multidegree, dict[MonoTuple, Vector]] = {}
        for monos, coeffs in series_terms.items():
            monos = tuple(monos)
            md = multidegree_of(monos)
            weight = _series_weight(monos)
            comps.setdefault(md, {})[monos] = tuple(weight * rat(c) for c in coeffs)
        return cls(dims, target_dim, max_degree, comps)

    # -- serialization ---------------------------------------------------------------------
    def to_json(self) -> dict:
        """The map in the distribution view; `from_json` also reads the series view."""
        components = []
        for md in sorted(self.components, key=lambda m: (sum(m), m)):
            table = self.components[md]
            entries = []
            for monos in sorted(table):
                entries.append(
                    {
                        "monomials": [list(m) for m in monos],
                        "value": [format_rational(v) for v in to_dense(self.target_dim, table[monos])],
                    }
                )
            components.append({"multidegree": list(md), "entries": entries})
        return {
            "dims": list(self.dims),
            "target_dim": self.target_dim,
            "N": self.N,
            "view": "distribution",
            "components": components,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FormalMap":
        dims = tuple(_json_field(data, "dims", list, "a formal map", items=int))
        view = _json_field(data, "view", str, "a formal map", "distribution")
        if view not in ("distribution", "series"):
            raise ValueError(f"unknown view {view!r}")
        comps: dict[Multidegree, dict[MonoTuple, Vector]] = {}
        for comp in _json_field(data, "components", list, "a formal map"):
            md = tuple(_json_field(comp, "multidegree", list, "a component", items=int))
            table: dict[MonoTuple, Vector] = {}
            for entry in _json_field(comp, "entries", list, "a component"):
                monos = tuple(
                    tuple(_json_items(m, int, "a monomial"))
                    for m in _json_field(entry, "monomials", list, "an entry", items=list)
                )
                value = tuple(parse_rational(v) for v in _json_field(entry, "value", list, "an entry"))
                if view == "series":
                    weight = _series_weight(monos)
                    value = tuple(weight * c for c in value)
                table[monos] = value
            comps[md] = table
        target_dim = _json_field(data, "target_dim", int, "a formal map")
        return cls(dims, target_dim, _json_field(data, "N", int, "a formal map"), comps)


class Prolongation:
    """The coalgebra morphism induced by a formal map, and the divided powers of its series.

    Each route has its own cache.  `at(mu)` is the image

        theta'(mu) = sum over n >= 0 of (1/n!) times the sum over ordered
        splits of mu into n parts of positive degree of the product
        theta(part_1) ... theta(part_n) in the target symmetric algebra,

    whose n-th term is the piece of target degree n; `_parts_cache` holds
    each (tuple, n) sum, and splits are pruned to the multidegree support of
    theta.  The other route works in divided-power coordinates: a series is
    sum_e c_e x^(e) with x^(e) = x^e / e!, so `_coords[k]`, theta's k-th
    coordinate series, holds the stored distribution-view values as they
    are, each under its exponent vector packed in `radix` = N + 1 (the
    concatenated slot monomials, `_pack`).  `_power(b, cap)` is the divided power
    gamma_b(theta) = prod_k theta_k^b_k / b_k!, without the terms above total
    degree `cap`, which is what `compose` substitutes; `_cache` holds each
    one by (b, cap), built as gamma_(b - e_k)(theta) times theta_k, divided
    exactly by b_k.  Coefficients are in the `scalars.exact` form, so an
    integral theta without constant term has integral divided powers and
    runs on ints.
    """

    def __init__(self, fmap: FormalMap):
        self.fmap = fmap
        self.support = sorted(fmap.components.keys())
        self._cache: dict[tuple[Monomial, int], Series] = {}
        self._parts_cache: dict[tuple[MonoTuple, int], SymElement] = {}
        self.radix = fmap.N + 1
        self._coords: list[Series] = [{} for _ in range(fmap.target_dim)]
        for md, table in fmap.components.items():
            for monos, vec in table.items():
                key = _pack(sum(monos, ()), self.radix)
                for k, c in vec.items():
                    self._coords[k].setdefault(sum(md), {})[key] = exact(c)

    def at(self, monos: MonoTuple) -> SymElement:
        monos = tuple(monos)
        total = sum(map(sum, monos))
        acc: dict[Monomial, Fraction] = {}
        for k in range(1 if total else 0, total + 1):
            add_into(acc, self._ordered_parts(monos, k).terms, Fraction(1, factorial(k)))
        return SymElement.of_terms(self.fmap.target_dim, acc)

    def _ordered_parts(self, monos: MonoTuple, k: int) -> SymElement:
        """Sum over ordered splits of monos into k parts of positive degree.

        k = 0 is asked only of the unit tuple, whose one split has no parts.
        """
        key = (monos, k)
        hit = self._parts_cache.get(key)
        if hit is not None:
            return hit
        target = self.fmap.target_dim
        md = multidegree_of(monos)
        total = sum(md)
        if k == 0:
            out = SymElement.one(target)
        elif k == 1:
            out = SymElement.from_sparse(target, self.fmap._value(monos))
        else:
            acc: dict[Monomial, Fraction] = {}
            for sup in self.support:
                if sum(sup) > total - (k - 1):
                    continue
                if any(s > m for s, m in zip(sup, md)):
                    continue
                for part, rest, coeff in tuple_submonomials(monos, sup):
                    vec = self.fmap._value(part)
                    if not vec:
                        continue
                    tail = self._ordered_parts(rest, k - 1)
                    if tail.is_zero():
                        continue
                    add_into(acc, (SymElement.from_sparse(target, vec) * tail).terms, coeff)
            out = SymElement.of_terms(target, acc)
        self._parts_cache[key] = out
        return out

    def _power(self, b: Monomial, cap: int) -> Series:
        key = (b, cap)
        hit = self._cache.get(key)
        if hit is None:
            if not any(b):
                hit = {0: {0: 1}}
            else:
                k = next(i for i, e in enumerate(b) if e)
                lower = b[:k] + (b[k] - 1,) + b[k + 1 :]
                product = _truncated_product(self._power(lower, cap), self._coords[k], cap, self.radix)
                hit = {d: {e: exact_div(c, b[k]) for e, c in terms.items()} for d, terms in product.items()}
            self._cache[key] = hit
        return hit

    def table(self) -> dict[MonoTuple, SymElement]:
        out: dict[MonoTuple, SymElement] = {}
        for total in range(self.fmap.N + 1):
            for md in monomials(len(self.fmap.dims), total):
                for monos in tensor_monomials(self.fmap.dims, md):
                    out[monos] = self.at(monos)
        return out


def _truncated_product(a: Series, b: Series, cap: int, radix: int) -> Series:
    """The product of two divided-power series without the terms above total degree `cap`.

    x^(e) x^(f) = C(e + f, e) x^(e + f), C(e + f, e) = prod_i C(e_i + f_i, e_i)
    being (e + f)! / (e! f!).  The keys are packed in `radix` > cap, so the
    key of e + f is the sum of the keys, and the factorials are read from
    `_packed_factorials` by key.
    """
    fact = _packed_factorials(radix)
    out: Series = {}
    for da, ta in a.items():
        for db, tb in b.items():
            if da + db > cap:
                continue
            acc = out.setdefault(da + db, {})
            weighted = [(kb, cb, fact[kb]) for kb, cb in tb.items()]
            for ka, ca in ta.items():
                wa = fact[ka]
                add_into(acc, {
                    k: cb * (fact[k] // (wa * wb))
                    for kb, cb, wb in weighted
                    for k in (ka + kb,)
                }, ca)
    return {d: terms for d, terms in out.items() if terms}


def prolong(fmap: FormalMap) -> Prolongation:
    """Public entry point for the induced coalgebra morphism."""
    return fmap.prolongation()


def compose(G: FormalMap, thetas: Sequence[FormalMap], *, _degree: int | None = None) -> FormalMap:
    """G(theta_1, ..., theta_m) over the thetas' shared argument list.

    All thetas must share one argument signature.  In divided-power
    coordinates, where the distribution view is the coefficient list, the
    composite is the substitution

        G(theta) = sum over entries M of G of G(M) prod_i gamma_M_i(theta_i),

    M_i being the monomial of slot i and gamma_M_i(theta_i) a divided power
    cached on theta_i's `Prolongation`; a variable shared between the thetas
    is simply shared by their series.  Every product drops the terms above
    the cap N.  The sums, keyed by exponent vectors packed in radix N + 1 and
    in `scalars.exact` form, become Fractions once, and each distinct key is
    unpacked into slot monomials and a multidegree once (`_unpacked`).
    `_degree` sets the cap to one total degree and keeps only that degree of
    the result; it is for the graded solve in `loop_division`.
    """
    m = len(G.dims)
    if len(thetas) != m:
        raise ValueError(f"{m} inner maps expected, got {len(thetas)}")
    if not thetas:
        raise ValueError("compose needs at least one inner map")
    dims = thetas[0].dims
    N = G.N
    for i, theta in enumerate(thetas):
        if theta.dims != dims:
            raise ValueError("inner maps must share one argument signature")
        if theta.N != N:
            raise ValueError("inner maps must share the truncation degree")
        if theta.target_dim != G.dims[i]:
            raise ValueError(
                f"slot {i}: inner target dimension {theta.target_dim} "
                f"does not match outer argument dimension {G.dims[i]}"
            )
    cap = N if _degree is None else _degree
    prols = [theta.prolongation() for theta in thetas]
    radix = prols[0].radix  # N + 1 for every theta
    # output coordinate -> the composite's divided-power series in that coordinate
    sums: list[dict[int, int | Fraction]] = [{} for _ in range(G.target_dim)]
    for J, table in G.components.items():
        if sum(J) > cap:
            continue
        for outer, value in table.items():
            powers = [prol._power(mono, cap) for prol, mono in zip(prols, outer) if any(mono)]
            series = powers[0]
            for power in powers[1:]:
                series = _truncated_product(series, power, cap, radix)
            coeffs = exact_terms(value)
            for degree, terms in series.items():
                if _degree is None or degree == _degree:
                    for j, g in coeffs.items():
                        add_into(sums[j], terms, g)
    unpacked = _unpacked(dims, radix)
    comps: Tables = {}
    for j, terms in enumerate(sums):
        for key, c in terms.items():
            md, monos = unpacked[key]
            comps.setdefault(md, {}).setdefault(monos, {})[j] = Fraction(c) if type(c) is int else c
    return FormalMap._of_sparse(dims, G.target_dim, N, comps)


# -- loops ----------------------------------------------------------------------------


class FormalLoop(FormalMap):
    """A unital formal multiplication on one space, with cached divisions."""

    def __init__(
        self,
        dim: int,
        max_degree: int,
        components: dict[Multidegree, dict[MonoTuple, Vector]],
        memory_cap: int | None = None,
    ):
        check_memory_cap(dim, max_degree, memory_cap)
        super().__init__((dim, dim), dim, max_degree, components)

    def _setup(self, dims, target_dim, max_degree, components):
        super()._setup(dims, target_dim, max_degree, components)
        if max_degree < 1:
            raise ValueError(f"a formal loop needs truncation degree >= 1, got {max_degree}")
        self.dim = target_dim
        self._validate_unital()
        self._divisions: dict[str, FormalMap] = {}

    def _validate_unital(self) -> None:
        for slot, md1 in enumerate(((1, 0), (0, 1))):
            if self.components.get(md1) != _identity_block(self.dims, slot):
                raise ValueError(f"not unital: component {md1} must restrict to the identity")
        for md in self.components:
            if 0 in md and sum(md) >= 2:
                raise ValueError(f"not unital: nonzero component at {md}")

    @classmethod
    def from_map(cls, fmap: FormalMap, memory_cap: int | None = None) -> "FormalLoop":
        if len(fmap.dims) != 2 or fmap.dims[0] != fmap.dims[1] or fmap.target_dim != fmap.dims[0]:
            raise ValueError("a formal loop is a two-slot map on a single space")
        check_memory_cap(fmap.target_dim, fmap.N, memory_cap)
        return cls._of_sparse(fmap.dims, fmap.target_dim, fmap.N, fmap.components)

    @classmethod
    def unital_components(cls, dim: int) -> dict[Multidegree, dict[MonoTuple, Vector]]:
        """The two identity components every loop shares."""
        return {
            md: {monos: to_dense(dim, v) for monos, v in _identity_block((dim, dim), slot).items()}
            for slot, md in enumerate(((1, 0), (0, 1)))
        }

    def interaction_part(self) -> FormalMap:
        """Components of bidegree at least (1, 1); what remains after unitality."""
        return self.filter_components(lambda md: md[0] >= 1 and md[1] >= 1)

    def division(self, side: str) -> FormalMap:
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        if side not in self._divisions:
            self._divisions[side] = loop_division(self, side)
        return self._divisions[side]


class SimilarityMap(FormalMap):
    """A two-slot map of the shape y + (terms of x-degree >= 1, y-degree >= 2)."""

    def __init__(
        self,
        dim: int,
        max_degree: int,
        components: dict[Multidegree, dict[MonoTuple, Vector]],
    ):
        super().__init__((dim, dim), dim, max_degree, components)

    def _setup(self, dims, target_dim, max_degree, components):
        super()._setup(dims, target_dim, max_degree, components)
        self.dim = target_dim
        if self.components.get((0, 1)) != _identity_block(self.dims, 1):
            raise ValueError("a similarity restricts to the identity on 1 (x) k[V]")
        for md in self.components:
            if md != (0, 1) and (md[0] == 0 or md[1] <= 1):
                raise ValueError(f"a similarity has no component at bidegree {md}")

    @classmethod
    def from_map(cls, fmap: FormalMap) -> "SimilarityMap":
        if len(fmap.dims) != 2 or fmap.dims[0] != fmap.dims[1] or fmap.target_dim != fmap.dims[0]:
            raise ValueError("a similarity is a two-slot map on a single space")
        return cls._of_sparse(fmap.dims, fmap.target_dim, fmap.N, fmap.components)

    @classmethod
    def identity(cls, dim: int, max_degree: int) -> "SimilarityMap":
        comps = {(0, 1): FormalLoop.unital_components(dim)[(0, 1)]}
        return cls(dim, max_degree, comps)


def loop_division(F: FormalLoop, side: str) -> FormalMap:
    """The division map of a unital formal multiplication.

    For 'left' the result D satisfies F(x, D(x, y)) = y and is the unique
    fixed point of D = y - x - F_int(x, D); for 'right' it satisfies
    F(D(x, y), y) = x.  F_int has bidegree at least (1, 1), so the degree-n
    part of F_int(x, D) reads only the parts of D below degree n: D is
    solved one degree at a time, n = 2..N, each from a composition limited
    to target degree n.  One full composition then checks the fixed point;
    a mismatch is a bug and raises.
    """
    dims = F.dims
    N = F.N
    P1 = FormalMap.slot_projection(dims, 0, N)
    P2 = FormalMap.slot_projection(dims, 1, N)
    interaction = F.interaction_part()
    base = P2 - P1 if side == "left" else P1 - P2

    def correction(D: FormalMap, degree: int | None = None) -> FormalMap:
        return compose(interaction, [P1, D] if side == "left" else [D, P2], _degree=degree)

    current = base
    for n in range(2, N + 1):
        current = current - correction(current, n)
    residue = base - correction(current) - current
    if not residue.is_zero():
        wrong = min(sum(md) for md in residue.support())
        raise InvariantError(f"{side} division is not a fixed point at degree {wrong}")
    return current


def eval_word(word: LoopWord, F: FormalLoop, nvars: int) -> FormalMap:
    """The formal map of a loop word, by structural recursion.

    Variables become slot projections, the unit the zero map, and the
    binary nodes compositions with the loop or its divisions; a variable
    shared by both subwords is shared by their series inside compose.
    """
    dims = (F.dim,) * nvars

    def rec(node: LoopWord) -> FormalMap:
        match node:
            case Var(index):
                if not 1 <= index <= nvars:
                    raise ValueError(f"variable x{index} out of range for {nvars} variables")
                return FormalMap.slot_projection(dims, index - 1, F.N)
            case Unit():
                return FormalMap.zero_map(dims, F.dim, F.N)
            case Mul(a, b):
                return compose(F, [rec(a), rec(b)])
            case LDiv(a, b):
                return compose(F.division("left"), [rec(a), rec(b)])
            case RDiv(a, b):
                return compose(F.division("right"), [rec(a), rec(b)])
        raise TypeError(f"not a loop word: {node!r}")

    return rec(word)


@dataclass
class IdentityVerdict:
    """Whether two formal maps agree within the truncation, with the smallest failing witness."""

    holds: bool
    max_degree: int
    multidegree: Multidegree | None = None
    monomials: MonoTuple | None = None
    difference: Vector | None = None
    series_difference: Vector | None = None

    def to_json(self) -> dict:
        out: dict = {"holds": self.holds, "max_degree": self.max_degree}
        if not self.holds:
            out["witness"] = {
                "multidegree": list(self.multidegree),
                "monomials": [list(m) for m in self.monomials],
                "difference": [format_rational(v) for v in self.difference],
                "series_difference": [format_rational(v) for v in self.series_difference],
            }
        return out


def _compare_maps(lhs: FormalMap, rhs: FormalMap) -> IdentityVerdict:
    """Compare two maps componentwise up to their truncation; the witness is lhs - rhs's first entry."""
    diff = lhs - rhs
    if diff.is_zero():
        return IdentityVerdict(holds=True, max_degree=lhs.N)
    md, monos, value = next(diff.sorted_entries())
    return IdentityVerdict(
        holds=False,
        max_degree=lhs.N,
        multidegree=md,
        monomials=monos,
        difference=value,
        series_difference=diff.series_value(monos),
    )


def check_loop_identity(identity: Identity, F: FormalLoop) -> IdentityVerdict:
    """Compare the two word maps componentwise up to the loop's truncation."""
    n = identity.nvars
    return _compare_maps(eval_word(identity.lhs, F, n), eval_word(identity.rhs, F, n))


RIGHT_ALTERNATIVE = "(x1 * (x2 * x2)) = ((x1 * x2) * x2)"


@dataclass
class RightAltModification:
    modified: FormalLoop
    similarity: SimilarityMap


def right_alt_modify(F: FormalLoop) -> RightAltModification:
    """The unique right alternative loop with the same canonical connection.

    Components of y-degree at most 1 are kept; for each y-degree n >= 2 the
    unknown block enters the right-alternativity equation with coefficient
    2 on one side and 2^n on the other, so it is solved from the residue of
    the equation at that y-degree.  The similarity Phi satisfies
    F(x, y) = F_mod(x, Phi(x, y)).
    """
    P1 = FormalMap.slot_projection(F.dims, 0, F.N)
    P2 = FormalMap.slot_projection(F.dims, 1, F.N)
    current = FormalLoop.from_map(F.filter_components(lambda md: md[1] <= 1))
    for n in range(2, F.N):
        residue = compose(current, [current, P2]) - compose(current, [P1, compose(current, [P2, P2])])
        block = residue.filter_components(lambda md: md[1] == n)
        if not block.is_zero():
            current = FormalLoop.from_map(current + block.scale(Fraction(1, 2**n - 2)))
    verdict = check_loop_identity(parse_identity(RIGHT_ALTERNATIVE, 2), current)
    if not verdict.holds:
        raise InvariantError(f"right alternative modification failed: {verdict}")
    return RightAltModification(current, similarity_between(current, F).phi)


@dataclass
class SimilarityResult:
    """Either the similarity between two loops or the first connection mismatch."""

    similar: bool
    phi: SimilarityMap | None = None
    multidegree: Multidegree | None = None
    monomials: MonoTuple | None = None
    values: tuple[Vector, Vector] | None = None


def similarity_between(F1: FormalLoop, F2: FormalLoop) -> SimilarityResult:
    """The similarity Phi with F1(x, Phi(x, y)) = F2(x, y), when it exists.

    It exists exactly when the canonical connections (components of
    y-degree <= 1) agree; otherwise the first differing component is
    reported.
    """
    if (F1.dims, F1.N) != (F2.dims, F2.N):
        raise ValueError("loops must share dimension and truncation")
    low1 = F1.filter_components(lambda md: md[1] <= 1)
    low2 = F2.filter_components(lambda md: md[1] <= 1)
    diff = low1 - low2
    if not diff.is_zero():
        md, monos, _ = next(diff.sorted_entries())
        return SimilarityResult(
            similar=False,
            multidegree=md,
            monomials=monos,
            values=(F1.value(monos), F2.value(monos)),
        )
    P1 = FormalMap.slot_projection(F1.dims, 0, F1.N)
    phi = compose(F1.division("left"), [P1, F2])
    return SimilarityResult(similar=True, phi=SimilarityMap.from_map(phi))


# -- the geodesic multioperator in the free loop of power series ---------------------


@dataclass
class MsMultioperator:
    """Bidegree components of the geodesic multioperator on two generators."""

    algebra: FreeAlgebra
    phi: FAElement
    components: dict[tuple[int, int], FAElement]

    def component(self, i: int, j: int) -> FAElement:
        """The component of bidegree (i, j); each an int >= 0 (not a bool), i + j <= N."""
        for d in (i, j):
            if type(d) is not int or d < 0:
                raise ValueError(f"a bidegree entry must be an int >= 0, got {d!r}")
        if i + j > self.algebra.max_degree:
            raise ValueError(
                f"bidegree ({i}, {j}) beyond the truncation {self.algebra.max_degree}"
            )
        return self.components.get((i, j), self.algebra.zero())


def multioperator_ms(max_degree: int) -> MsMultioperator:
    """Solve exp_a(a Phi) = a b for Phi in the free loop of power series.

    a = exp(alpha), b = exp(beta), and exp_a(a Phi) = a + a Phi + sum_k (1/k!)
    of the left-normed products (a Phi) Phi ... Phi is `fa_exp` based at a
    (a \\ (a Phi) = Phi).  Each pass adds a \\ (a b - exp_a(a Phi)) to Phi,
    which pins Phi degree by degree (the unknown enters linearly through
    a Phi, everything else quadratically).
    The components of bidegree (i, 1) vanish for i >= 1, which is asserted.
    """
    alg = FreeAlgebra(("a", "b"), max_degree)
    alpha, beta = alg.gens()
    a = fa_exp(alpha)
    b = fa_exp(beta)
    ab = a * b
    phi = beta
    for step in range(1, max_degree + 1):
        delta = fa_loop_divide(a, ab - fa_exp(a * phi, base=a), "left")
        if delta.is_zero():
            break
        if any(0 < mono_degree(m) <= step for m in delta.terms):
            raise InvariantError(f"multioperator solve changed degree <= {step} at pass {step}")
        phi = phi + delta
    ngens = 2
    comp_terms: dict[tuple[int, int], dict] = {}
    for mono, coeff in phi.terms.items():
        comp_terms.setdefault(mono_letter_counts(mono, ngens), {})[mono] = coeff
    comps = {ij: FAElement.of_terms(alg, terms) for ij, terms in comp_terms.items()}
    for (i, j), piece in comps.items():
        if j <= 1 and (i, j) != (0, 1):
            raise InvariantError(f"unexpected multioperator component at bidegree {(i, j)}")
    return MsMultioperator(alg, phi, comps)

