"""The symmetric coalgebra k[V] on a finite-dimensional space.

Monomials are exponent vectors (dense tuples of non-negative ints) and
elements are sparse maps from monomials to exact rationals.  The coproduct
is the unique algebra morphism making every vector primitive:

    coproduct(e^a) = sum over 0 <= b <= a of prod(binom(a_i, b_i)) e^b (x) e^(a-b)

The counit extracts the degree-0 coefficient and the primitive projection
the degree-1 part.  Elements double as formal distributions supported at
the origin: the monomial e^a is the derivative operator d^a evaluated at 0,
which pairs with the coefficient of x^a in a power series through the
factor a! = prod(a_i!).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from math import comb, prod
from typing import Iterator, Sequence

from .lincomb import LinComb, add_into
from .scalars import ONE, ZERO, SparseVector, Vector, _json_field, format_rational, parse_rational, rat

Monomial = tuple[int, ...]


def unit_monomial(dim: int) -> Monomial:
    return (0,) * dim


def basis_monomial(dim: int, index: int) -> Monomial:
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    return tuple(1 if i == index else 0 for i in range(dim))


def is_monomial(mono: Monomial, dim: int) -> bool:
    """Whether mono is an exponent vector of k[V]: dim entries, each an int (not a bool) >= 0."""
    return len(mono) == dim and all(type(e) is int and e >= 0 for e in mono)


def monomial_degree(mono: Monomial) -> int:
    return sum(mono)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def monomial_letters(mono: Monomial) -> list[int]:
    """The multiset of basis indices of a monomial, as a sorted list."""
    out: list[int] = []
    for i, a in enumerate(mono):
        out.extend([i] * a)
    return out


def monomials(dim: int, degree: int) -> Iterator[Monomial]:
    """All exponent vectors of the given degree, lexicographically."""
    if dim == 0:
        if degree == 0:
            yield ()
        return
    if dim == 1:
        yield (degree,)
        return
    for head in range(degree, -1, -1):
        for tail in monomials(dim - 1, degree - head):
            yield (head,) + tail


def monomials_up_to(dim: int, max_degree: int) -> Iterator[Monomial]:
    for degree in range(max_degree + 1):
        yield from monomials(dim, degree)


def sym_dim(dim: int, degree: int) -> int:
    """Dimension of the degree-k graded piece of k[V]."""
    return comb(degree + dim - 1, dim - 1)


@lru_cache(maxsize=None)
def monomial_splits(mono: Monomial) -> tuple[tuple[Monomial, Monomial, int], ...]:
    """Coproduct support of a monomial: (b, mono - b, prod(binom(a_i, b_i))).

    The splits are ordered by the degree of b, and lexicographically in b
    within one degree.
    """
    subs = sorted(iter_product(*(range(a + 1) for a in mono)), key=sum)
    return tuple(
        (sub, tuple(a - b for a, b in zip(mono, sub)), prod(map(comb, mono, sub)))
        for sub in subs
    )


def submonomials(mono: Monomial, degree: int) -> tuple[tuple[Monomial, Monomial, int], ...]:
    """The splits (b, mono - b, weight) of `monomial_splits(mono)` with |b| = degree, in its order."""
    return tuple(split for split in monomial_splits(mono) if sum(split[0]) == degree)


class SymElement(LinComb):
    """A sparse element of k[V]; immutable by convention."""

    __slots__ = ("dim",)
    _space_attr = "dim"

    def __init__(self, dim: int, terms: dict[Monomial, Fraction] | None = None):
        self.dim = dim
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            coeff = rat(coeff)
            if coeff:
                if not is_monomial(mono, dim):
                    if len(mono) != dim:
                        raise ValueError(f"monomial {mono} has wrong dimension, expected {dim}")
                    raise ValueError(f"monomial {mono} has an exponent that is not a non-negative integer")
                clean[mono] = coeff
        self.terms = clean

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, dim: int) -> "SymElement":
        return cls.of_terms(dim, {})

    @classmethod
    def one(cls, dim: int) -> "SymElement":
        return cls.of_terms(dim, {unit_monomial(dim): ONE})

    @classmethod
    def basis(cls, dim: int, index: int) -> "SymElement":
        return cls.of_terms(dim, {basis_monomial(dim, index): ONE})

    @classmethod
    def from_vector(cls, vec: Vector) -> "SymElement":
        dim = len(vec)
        return cls(dim, {basis_monomial(dim, i): c for i, c in enumerate(vec)})

    @classmethod
    def from_sparse(cls, dim: int, vec: SparseVector) -> "SymElement":
        """The primitive element sum_i vec[i] e_i of a sparse vector."""
        return cls.of_terms(dim, {basis_monomial(dim, i): c for i, c in vec.items()})

    def __mul__(self, other):
        """Symmetric-algebra product (exponent addition); also scalar scaling."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            add_into(terms, {monomial_mul(m1, m2): c2 for m2, c2 in other.terms.items()}, c1)
        return self._like(terms)

    # -- coalgebra structure ----------------------------------------------
    def counit(self) -> Fraction:
        return self.terms.get(unit_monomial(self.dim), ZERO)

    def is_primitive(self) -> bool:
        """Whether every term has degree 1, the primitive elements of k[V]."""
        return all(monomial_degree(m) == 1 for m in self.terms)

    def primitive_part(self) -> Vector:
        out = [ZERO] * self.dim
        for mono, coeff in self.terms.items():
            if monomial_degree(mono) == 1:
                out[mono.index(1)] = coeff
        return tuple(out)

    def coproduct(self) -> "SymTensor":
        terms: dict[tuple[Monomial, ...], Fraction] = {}
        for mono, coeff in self.terms.items():
            add_into(terms, {(left, right): coeff * w for left, right, w in monomial_splits(mono)})
        return SymTensor.of_terms((self.dim, self.dim), terms)

    def coproduct_terms(self) -> Iterator[tuple[Monomial, Monomial, Fraction]]:
        """Stream the Sweedler terms of the coproduct without building a tensor."""
        for mono, coeff in self.terms.items():
            for left, right, weight in monomial_splits(mono):
                yield left, right, coeff * weight

    # -- grading ------------------------------------------------------------
    def max_degree(self) -> int:
        return max((monomial_degree(m) for m in self.terms), default=0)

    def graded_piece(self, degree: int) -> "SymElement":
        return self._like({m: c for m, c in self.terms.items() if monomial_degree(m) == degree})

    def truncate(self, max_degree: int) -> "SymElement":
        return self._like(
            {m: c for m, c in self.terms.items() if monomial_degree(m) <= max_degree}
        )

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda mc: (monomial_degree(mc[0]), mc[0]))

    # -- io -------------------------------------------------------------------
    def __repr__(self) -> str:
        if not self.terms:
            return "SymElement(0)"
        bits = []
        for mono, coeff in self.sorted_terms():
            name = "".join(
                f"e{i + 1}^{a}" if a > 1 else f"e{i + 1}"
                for i, a in enumerate(mono)
                if a
            ) or "1"
            bits.append(f"{format_rational(coeff)}*{name}")
        return "SymElement(" + " + ".join(bits) + ")"

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "terms": [
                {"exps": list(mono), "coeff": format_rational(coeff)}
                for mono, coeff in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SymElement":
        """The element written by `to_json`; raises ValueError naming a missing or mistyped field."""
        terms = {
            tuple(_json_field(item, "exps", list, "a term", items=int)):
                parse_rational(_json_field(item, "coeff", (str, int), "a term"))
            for item in _json_field(data, "terms", list, "an element", items=dict)
        }
        return cls(_json_field(data, "dim", int, "an element"), terms)


class SymTensor(LinComb):
    """A sparse element of k[V1] (x) ... (x) k[Vn]."""

    __slots__ = ("dims",)
    _space_attr = "dims"

    def __init__(
        self,
        dims: Sequence[int],
        terms: dict[tuple[Monomial, ...], Fraction] | None = None,
    ):
        self.dims = tuple(dims)
        clean: dict[tuple[Monomial, ...], Fraction] = {}
        for key, coeff in (terms or {}).items():
            coeff = rat(coeff)
            if coeff:
                if len(key) != len(self.dims) or not all(map(is_monomial, key, self.dims)):
                    raise ValueError(f"tensor key {key} is not a monomial per slot of dims {self.dims}")
                clean[tuple(key)] = coeff
        self.terms = clean

    @classmethod
    def of(cls, *factors: SymElement) -> "SymTensor":
        terms = {
            tuple(mono for mono, _ in combo): prod((c for _, c in combo), start=ONE)
            for combo in iter_product(*(f.terms.items() for f in factors))
        }
        return cls.of_terms(tuple(f.dim for f in factors), terms)

    def __mul__(self, other: "SymTensor") -> "SymTensor":
        """Slotwise symmetric product (the algebra structure of the tensor square)."""
        self._check(other)
        terms: dict[tuple[Monomial, ...], Fraction] = {}
        for k1, c1 in self.terms.items():
            add_into(
                terms,
                {tuple(map(monomial_mul, k1, k2)): c2 for k2, c2 in other.terms.items()},
                c1,
            )
        return self._like(terms)

    def counit(self) -> Fraction:
        unit = tuple(unit_monomial(d) for d in self.dims)
        return self.terms.get(unit, ZERO)

    def truncate(self, max_degree: int) -> "SymTensor":
        return self._like(
            {
                k: c
                for k, c in self.terms.items()
                if sum(monomial_degree(m) for m in k) <= max_degree
            }
        )

    def __repr__(self) -> str:
        return f"SymTensor(dims={self.dims}, nterms={len(self.terms)})"


def merge_slots(tensor: SymTensor, grouping: Sequence[Sequence[int]]) -> SymTensor:
    """Regroup by merging each group of slots into one via the product.

    grouping must be a partition of range(len(dims)) into non-empty groups
    of slots of equal dimension; group order gives the output slot order.
    Counit-compatible: the merged tensor has the same counit.
    """
    nslots = len(tensor.dims)
    seen = [slot for group in grouping for slot in group]
    if sorted(seen) != list(range(nslots)):
        raise ValueError(f"grouping {grouping!r} is not a partition of {nslots} slots")
    dims_out = []
    for group in grouping:
        if not group:
            raise ValueError("empty group in slot partition")
        d = tensor.dims[group[0]]
        if any(tensor.dims[s] != d for s in group):
            raise ValueError(f"group {group!r} mixes slot dimensions")
        dims_out.append(d)
    terms: dict[tuple[Monomial, ...], Fraction] = {}
    for key, coeff in tensor.terms.items():
        out_key = []
        for group in grouping:
            merged = unit_monomial(tensor.dims[group[0]])
            for s in group:
                merged = monomial_mul(merged, key[s])
            out_key.append(merged)
        add_into(terms, {tuple(out_key): coeff})
    return SymTensor.of_terms(tuple(dims_out), terms)


def split_slot(tensor: SymTensor, slot: int, count: int) -> SymTensor:
    """Regroup by splitting one slot into `count` slots via the iterated coproduct."""
    if count < 1:
        raise ValueError("a slot splits into at least one slot")
    if not 0 <= slot < len(tensor.dims):
        raise ValueError(f"slot {slot} out of range")
    dim = tensor.dims[slot]
    dims_out = tensor.dims[:slot] + (dim,) * count + tensor.dims[slot + 1 :]

    def splits(mono: Monomial, n: int) -> Iterator[tuple[tuple[Monomial, ...], int]]:
        if n == 1:
            yield (mono,), 1
            return
        for left, rest, weight in monomial_splits(mono):
            for tail, wt in splits(rest, n - 1):
                yield (left,) + tail, weight * wt

    terms: dict[tuple[Monomial, ...], Fraction] = {}
    for key, coeff in tensor.terms.items():
        head, tail = key[:slot], key[slot + 1 :]
        add_into(terms, {head + parts + tail: coeff * w for parts, w in splits(key[slot], count)})
    return SymTensor.of_terms(dims_out, terms)


def iterated_coproduct(element: SymElement, slots: int) -> SymTensor:
    """Delta^(slots-1), landing in k[V] tensored with itself `slots` times."""
    tensor = SymTensor.of(element)
    if slots == 1:
        return tensor
    return split_slot(tensor, 0, slots)
