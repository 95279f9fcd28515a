"""Catalog of concrete algebras and the formal loops they generate.

An AlgebraTable is a bilinear product on a finite-dimensional rational
space given by structure constants; declared structural flags are verified
exhaustively at construction (multilinear identities on basis tuples,
polynomial identities through their full polarizations, which is enough in
characteristic zero).  Each algebra seeds the loop x + y + x*y, and two
rational-function loops and the quotient map between them are generated
from closed-form geometric series.

Products and flag checks run on sparse rows of the structure constants
(`scalars`); the constants and every vector crossing the API are dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product as iter_product

from .lincomb import add_into
from .maps import FormalLoop, FormalMap, MonoTuple, compose
from .scalars import (
    ONE,
    ZERO,
    SparseVector,
    Vector,
    basis_vector,
    format_rational,
    parse_rational,
    to_dense,
    to_sparse,
    zero_vector,
)
from .symalg import SymElement, basis_monomial

BUILTIN_ALGEBRAS = (
    "jordan-k3",
    "jordan-spin-normalized",
    "split-octonion",
    "dual-numbers",
    "assoc-2x2-uppertriangular",
)

BUILTIN_LOOPS = (
    "jordan-k3-loop",
    "jordan-spin-loop",
    "split-octonion-loop",
    "dual-numbers-loop",
    "assoc-2x2-uppertriangular-loop",
    "nonlinear-f-loop",
    "x-squared-y-loop",
)


@dataclass(frozen=True)
class AlgebraTable:
    """Structure constants of a bilinear product, with verified flags.

    `constants` and `distinguished` are kept as given; products are computed
    on the sparse rows `_rows[i][j]` = e_i * e_j built from them.
    """

    dim: int
    constants: tuple[tuple[Vector, ...], ...]  # constants[i][j] = e_i * e_j
    flags: dict[str, bool] = dataclass_field(default_factory=dict)
    distinguished: dict[str, Vector] = dataclass_field(default_factory=dict)
    _rows: tuple[tuple[SparseVector, ...], ...] = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.constants) != self.dim or any(len(row) != self.dim for row in self.constants):
            raise ValueError("structure constants do not form a dim x dim x dim table")
        rows = tuple(tuple(to_sparse(self.dim, v) for v in row) for row in self.constants)
        object.__setattr__(self, "_rows", rows)
        for name, v in self.distinguished.items():
            if len(v) != self.dim:
                raise ValueError(f"distinguished vector {name!r} does not have dimension {self.dim}")
        for name, expected in self.flags.items():
            actual = _check_flag(self, name)
            if actual != expected:
                raise ValueError(
                    f"flag {name!r} declared {expected} but verification found {actual}"
                )

    def multiply(self, x: Vector, y: Vector) -> Vector:
        return to_dense(self.dim, self._mul(to_sparse(self.dim, x), to_sparse(self.dim, y)))

    def _mul(self, x: SparseVector, y: SparseVector) -> SparseVector:
        return _combine(x, {i: _combine(y, self._rows[i]) for i in x})

    def basis_product(self, i: int, j: int) -> Vector:
        return self.constants[i][j]

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "constants": [
                [[format_rational(c) for c in vec] for vec in row] for row in self.constants
            ],
            "flags": dict(self.flags),
            "distinguished": {
                k: [format_rational(c) for c in v] for k, v in self.distinguished.items()
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "AlgebraTable":
        constants = tuple(
            tuple(tuple(parse_rational(c) for c in vec) for vec in row)
            for row in data["constants"]
        )
        distinguished = {
            k: tuple(parse_rational(c) for c in v)
            for k, v in data.get("distinguished", {}).items()
        }
        return cls(data["dim"], constants, dict(data.get("flags", {})), distinguished)


def _combine(coeffs: SparseVector, vectors) -> SparseVector:
    """sum_k coeffs[k] * vectors[k], for sparse vectors indexed like the coefficients."""
    out: SparseVector = {}
    for k, c in coeffs.items():
        add_into(out, vectors[k], c)
    return out


def _check_flag(table: AlgebraTable, name: str) -> bool:
    checks = {
        "associative": _is_associative,
        "commutative": _is_commutative,
        "alternative": _is_alternative,
        "jordan": _is_jordan,
    }
    if name not in checks:
        raise ValueError(f"unknown algebra flag {name!r}")
    return checks[name](table)


def _basis(table: AlgebraTable) -> list[SparseVector]:
    return [{i: ONE} for i in range(table.dim)]


def _is_associative(table: AlgebraTable) -> bool:
    basis = _basis(table)
    mul = table._mul
    for a, b, c in iter_product(basis, repeat=3):
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            return False
    return True


def _is_commutative(table: AlgebraTable) -> bool:
    basis = _basis(table)
    for a, b in iter_product(basis, repeat=2):
        if table._mul(a, b) != table._mul(b, a):
            return False
    return True


def _is_alternative(table: AlgebraTable) -> bool:
    # Both alternator identities are quadratic in the repeated slot; the
    # polarized forms below on basis triples are equivalent in char 0.
    basis = _basis(table)
    mul = table._mul
    for a, b, y in iter_product(basis, repeat=3):
        sym = add_into(mul(a, b), mul(b, a))
        if add_into(mul(a, mul(b, y)), mul(b, mul(a, y))) != mul(sym, y):
            return False
        if add_into(mul(mul(y, a), b), mul(mul(y, b), a)) != mul(y, sym):
            return False
    return True


def _is_jordan(table: AlgebraTable) -> bool:
    # Commutativity plus the full polarization (cubic in the repeated slot)
    # of (x y) x^2 = x (y x^2) on basis 4-tuples.
    if not _is_commutative(table):
        return False
    basis = _basis(table)
    mul = table._mul
    for y in basis:
        for x1, x2, x3 in iter_product(basis, repeat=3):
            total: SparseVector = {}
            for p1, p2, p3 in permutations((x1, x2, x3)):
                p23 = mul(p2, p3)
                add_into(total, mul(mul(p1, y), p23))
                add_into(total, mul(p1, mul(y, p23)), -1)
            if total:
                return False
    return True


# -- builtin algebras ---------------------------------------------------------------


def _jordan_k3_constants() -> tuple[tuple[Vector, ...], ...]:
    # x * y = (x1 y1 + x2 y3 + x3 y2, x1 y2 + x2 y1, x1 y3 + x3 y1): e_i * e_j = e_k
    k_of = {(0, 0): 0, (1, 2): 0, (2, 1): 0, (0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2}
    return tuple(
        tuple(to_dense(3, {k_of[i, j]: ONE} if (i, j) in k_of else {}) for j in range(3))
        for i in range(3)
    )


def _cayley_dickson(constants, conj, gamma: Fraction):
    """One doubling step on sparse tables: pairs (a, b) with the product
    (a, b)(c, d) = (a c + gamma conj(d) b, d a + b conj(c))."""
    d = len(conj)

    def emb(v: SparseVector, slot: int) -> SparseVector:
        return {slot * d + k: c for k, c in v.items()}

    new_constants = []
    for i in range(2 * d):
        row = []
        si, bi = divmod(i, d)
        for j in range(2 * d):
            sj, bj = divmod(j, d)
            if si == 0 and sj == 0:
                row.append(emb(constants[bi][bj], 0))
            elif si == 0 and sj == 1:
                # (a,0)(0,d) = (0, d a)
                row.append(emb(constants[bj][bi], 1))
            elif si == 1 and sj == 0:
                # (0,b)(c,0) = (0, b conj(c))
                row.append(emb(_combine(conj[bj], constants[bi]), 1))
            else:
                # (0,b)(0,d) = (gamma conj(d) b, 0)
                column = [constants[k][bi] for k in range(d)]
                row.append(emb(add_into({}, _combine(conj[bj], column), gamma), 0))
        new_constants.append(tuple(row))
    new_conj = [emb(conj[bi], 0) for bi in range(d)] + [{d + bi: -ONE} for bi in range(d)]
    return tuple(new_constants), tuple(new_conj)


def _split_octonion_constants() -> tuple[tuple[Vector, ...], ...]:
    constants = (({0: ONE},),)
    conj = ({0: ONE},)
    for _ in range(3):
        constants, conj = _cayley_dickson(constants, conj, Fraction(1))
    return tuple(tuple(to_dense(8, v) for v in row) for row in constants)


@lru_cache(maxsize=None)
def builtin_algebra(name: str) -> AlgebraTable:
    if name == "jordan-k3":
        return AlgebraTable(
            3,
            _jordan_k3_constants(),
            {"jordan": True, "commutative": True, "associative": False},
        )
    if name == "jordan-spin-normalized":
        # Same table; the distinguished pair is scaled so the bilinear form
        # pairing them equals 2, matching the normalized identities.
        return AlgebraTable(
            3,
            _jordan_k3_constants(),
            {"jordan": True, "commutative": True, "associative": False},
            {
                "unit": basis_vector(3, 0),
                "a": basis_vector(3, 1),
                "b": (ZERO, ZERO, Fraction(2)),
            },
        )
    if name == "split-octonion":
        return AlgebraTable(
            8,
            _split_octonion_constants(),
            {"alternative": True, "associative": False},
        )
    if name == "dual-numbers":
        z = zero_vector(2)
        e, eps = basis_vector(2, 0), basis_vector(2, 1)
        return AlgebraTable(
            2,
            ((e, eps), (eps, z)),
            {"associative": True, "commutative": True},
        )
    if name == "assoc-2x2-uppertriangular":
        z = zero_vector(3)
        e11, e12, e22 = (basis_vector(3, i) for i in range(3))
        constants = (
            (e11, e12, z),
            (z, z, e12),
            (z, z, e22),
        )
        return AlgebraTable(3, constants, {"associative": True, "commutative": False})
    raise ValueError(f"unknown builtin algebra {name!r}; known: {BUILTIN_ALGEBRAS}")


# -- loops --------------------------------------------------------------------------


def loop_from_algebra(table: AlgebraTable, max_degree: int, memory_cap: int | None = None) -> FormalLoop:
    """The loop x y = x + y + x*y of a bilinear product."""
    d = table.dim
    comps = FormalLoop.unital_components(d)
    comps[(1, 1)] = {
        (basis_monomial(d, i), basis_monomial(d, j)): table.basis_product(i, j)
        for i in range(d)
        for j in range(d)
    }
    return FormalLoop(d, max_degree, comps, memory_cap)


def nonlinear_loop_F(max_degree: int, memory_cap: int | None = None) -> FormalLoop:
    """The two-dimensional loop (x2+y2, x3+y3) / (1 + x2 y3 + x3 y2).

    The geometric series of the denominator is expanded exactly through the
    truncation degree; variables are ordered (x2, x3, y2, y3).
    """
    N = max_degree
    x2, x3, y2, y3 = (SymElement.basis(4, k) for k in range(4))
    s = x2 * y3 + x3 * y2
    inverse = SymElement.one(4)
    power = SymElement.one(4)
    while True:
        power = (power * s.scale(Fraction(-1))).truncate(N)
        if power.is_zero():
            break
        inverse = inverse + power
    comp1 = ((x2 + y2) * inverse).truncate(N)
    comp2 = ((x3 + y3) * inverse).truncate(N)
    series = {
        ((m[0], m[1]), (m[2], m[3])): (comp1.terms.get(m, ZERO), comp2.terms.get(m, ZERO))
        for m in {**comp1.terms, **comp2.terms}
    }
    return FormalLoop.from_map(FormalMap.from_series((2, 2), 2, N, series), memory_cap)


def phi_G_to_F(max_degree: int) -> FormalMap:
    """The quotient map (x2 / (1 + x1), x3 / (1 + x1)) as a formal map k^3 -> k^2."""
    series: dict[MonoTuple, Vector] = {}
    for k in range(max_degree):
        sign = Fraction((-1) ** k)
        series[((k, 1, 0),)] = (sign, Fraction(0))
        series[((k, 0, 1),)] = (Fraction(0), sign)
    return FormalMap.from_series((3,), 2, max_degree, series)


@dataclass
class HomomorphismVerdict:
    holds: bool
    multidegree: tuple[int, ...] | None = None
    monomials: MonoTuple | None = None
    difference: Vector | None = None


def check_homomorphism(theta: FormalMap, source: FormalLoop, target: FormalLoop) -> HomomorphismVerdict:
    """Does theta carry the source product to the target product?

    Compares H(theta(x), theta(y)) with theta(F(x, y)) componentwise up to
    the truncation.
    """
    if theta.dims != (source.dim,) or theta.target_dim != target.dim:
        raise ValueError("map signature does not connect the two loops")
    if theta.N != source.N or theta.N != target.N:
        raise ValueError("map and loops must share the truncation degree")
    dims = source.dims
    p1 = FormalMap.slot_projection(dims, 0, source.N)
    p2 = FormalMap.slot_projection(dims, 1, source.N)
    lhs = compose(target, [compose(theta, [p1]), compose(theta, [p2])])
    rhs = compose(theta, [source])
    diff = lhs - rhs
    if diff.is_zero():
        return HomomorphismVerdict(holds=True)
    md, monos, value = next(diff.sorted_entries())
    return HomomorphismVerdict(holds=False, multidegree=md, monomials=monos, difference=value)


def x_squared_y_loop(max_degree: int, memory_cap: int | None = None) -> FormalLoop:
    """The one-dimensional loop x + y + x^2 y (not right alternative)."""
    series = {
        ((1,), (0,)): (Fraction(1),),
        ((0,), (1,)): (Fraction(1),),
        ((2,), (1,)): (Fraction(1),),
    }
    return FormalLoop.from_map(FormalMap.from_series((1, 1), 1, max_degree, series), memory_cap)


def builtin_loop(name: str, max_degree: int, memory_cap: int | None = None) -> FormalLoop:
    if name == "nonlinear-f-loop":
        return nonlinear_loop_F(max_degree, memory_cap)
    if name == "x-squared-y-loop":
        return x_squared_y_loop(max_degree, memory_cap)
    algebra_names = {
        "jordan-k3-loop": "jordan-k3",
        "jordan-spin-loop": "jordan-spin-normalized",
        "split-octonion-loop": "split-octonion",
        "dual-numbers-loop": "dual-numbers",
        "assoc-2x2-uppertriangular-loop": "assoc-2x2-uppertriangular",
    }
    if name in algebra_names:
        return loop_from_algebra(builtin_algebra(algebra_names[name]), max_degree, memory_cap)
    raise ValueError(f"unknown builtin loop {name!r}; known: {BUILTIN_LOOPS}")


def loop_from_spec(spec: dict, max_degree: int, memory_cap: int | None = None) -> FormalLoop:
    """Build a loop from its JSON description (builtin, from-algebra or components).

    A components spec is trimmed to `max_degree`; one whose `N` is below it
    raises ValueError, since its components above `N` are unknown.
    """
    kind = spec.get("type")
    if kind == "builtin":
        return builtin_loop(spec["name"], max_degree, memory_cap)
    if kind == "from-algebra":
        return loop_from_algebra(AlgebraTable.from_json(spec["table"]), max_degree, memory_cap)
    if kind == "components":
        fmap = FormalMap.from_json(spec)
        if fmap.N < max_degree:
            raise ValueError(
                f"components spec has degree N={fmap.N}, below the requested degree {max_degree}"
            )
        if fmap.N > max_degree:
            kept = {md: tab for md, tab in fmap.components.items() if sum(md) <= max_degree}
            fmap = FormalMap._of_sparse(fmap.dims, fmap.target_dim, max_degree, kept)
        return FormalLoop.from_map(fmap, memory_cap)
    raise ValueError(f"unknown loop spec type {kind!r}")
