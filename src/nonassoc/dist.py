"""The bialgebra of distributions of a formal loop.

The coalgebra k[V] acquires a product by prolonging a loop F: on monomial
pairs the product is F'(mu (x) nu), extended bilinearly and truncated at
the loop's degree.  `DistBialgebra` implements the `su_ops` contract on
monomial ids and owns every memo the engine fills: left and right divisions
are the counit recursions of `su_ops`, the primitive operations and
brackets are evaluated with these, and a prescribed multioperator can be
installed through a similarity, solved one degree at a time, without
disturbing the brackets.

Ids and coefficients: inside the kernel a monomial of degree <= N is an
``int`` id, which one `_MonomialIndex` per (dim, N) assigns on first use,
and a coefficient is an ``int`` or a ``Fraction``, never a float.  The
memos key a pair of ids (i, j) by the int i * M + j, M being the number
of monomials of degree <= N, and hold terms dicts {id: coefficient};
the `su_ops` contract and `LinearizedEvaluator` run on ids.  Every stored
coefficient is in the canonical form of `scalars.exact`: `from_loop`
divides with `scalars.exact_div`; division, p and associator entries go
through `DistBialgebra.canonical`, and the values of an explicit product
function and the arguments `DistSUOps` hands the engine through
`scalars.exact`, so for integral loops the whole kernel, the primitive
operations included, runs on ints.  Monomial tuples and
``Fraction`` coefficients appear only at the public API: `product_mono`,
`ldiv_mono` and `rdiv_mono` take monomials and return `SymElement`s
(with the kernel's coefficients), and the `SymElement`s of
`DistBialgebra.product` and `divide`, of the `DistSUOps` operations `p`,
`bracket` and `multioperator`, and of `LinearizedEvaluator.on_monomials`
and `on_elements` have ``Fraction`` coefficients (`scalars.as_fractions`).

Those public operations are exact within the truncation and raise
ValueError beyond it: `product`, `divide` and the `LinearizedEvaluator`
methods `on_monomials` and `on_elements` when the degrees of their
arguments sum past N, and the `DistSUOps` operations when their degree
does (m + n + 1 for p, m + 2 for a bracket, m + n for a multioperator, on
m and n primitive arguments).  A monomial of degree above N, which has no
id, raises ValueError too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations_with_replacement, product as iter_product
from math import comb, lcm, prod
from typing import Callable, Iterable, Iterator, Sequence

from . import su_ops
from .lincomb import LinComb, add_into, bilinear, sum_into
from .maps import FormalLoop, FormalMap, InvariantError, MonoTuple, SimilarityMap, compose
from .scalars import (
    SparseVector, Vector, as_fractions, exact, exact_div, exact_terms, format_rational, to_sparse,
)
from .symalg import (
    Monomial,
    SymElement,
    basis_monomial,
    is_monomial,
    monomial_degree,
    monomial_letters,
    monomial_splits,
    monomials,
    monomials_up_to,
    sym_dim,
    unit_monomial,
)
from .words import Identity, LDiv, LoopWord, Mul, RDiv, Unit, Var, word_variables

ProductFn = Callable[[Monomial, Monomial], SymElement]
Terms = dict[int, int | Fraction]  # a kernel value: monomial id -> coefficient


def _check_degree(operation: str, degree: int, N: int) -> None:
    if degree > N:
        raise ValueError(f"{operation} of degree {degree} beyond the truncation {N}")


class _MonomialIndex:
    """Int ids for the monomials of k[V] of degree <= N, assigned on first use.

    Ids run 0, 1, 2, .. in the order monomials are first seen and stay below
    `size`, the number of monomials of degree <= N, so i * size + j keys a
    pair of ids.  Per id the index keeps the monomial and its degree and,
    once read, its splits and letter shifts as ids: only what a computation
    touches gets an id, so a small job pays for a small index.
    """

    def __init__(self, dim: int, N: int):
        self.dim = dim
        self.N = N
        self.size = comb(dim + N, N)
        self.ids: dict[Monomial, int] = {}
        self.monos: list[Monomial] = []
        self.degrees: list[int] = []
        # id -> its splits by degree, its splits, its shifts; None until read
        self._groups: list[tuple | None] = []
        self._splits: list[tuple | None] = []
        self.shift_rows: list[tuple[int, ...] | None] = []

    def id(self, mono: Monomial) -> int:
        """The id of a monomial of k[V] of degree <= N; anything else raises ValueError.

        A key that is the index's own monomial object is answered from the
        dict alone; any other key is checked with `is_monomial` first, since
        a tuple such as (True, 0) hashes and compares equal to (1, 0).
        """
        i = self.ids.get(mono)
        if i is not None and self.monos[i] is mono:
            return i
        if not is_monomial(mono, self.dim):
            raise ValueError(f"{mono} is not a monomial of dimension {self.dim}")
        if i is None:
            degree = monomial_degree(mono)
            if degree > self.N:
                raise ValueError(f"monomial {mono} beyond the truncation {self.N}")
            i = self.ids[mono] = len(self.monos)
            self.monos.append(mono)
            self.degrees.append(degree)
            self._groups.append(None)
            self._splits.append(None)
            self.shift_rows.append(None)
        return i

    def groups(self, i: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """The splits (b, mono - b, weight) of monomial i as id triples, grouped by the degree of b.

        The terms of `symalg.monomial_splits`, found by Pascal's rule from the
        splits of mono / e_l, l its last letter: each split (b, c) of it gives
        (b e_l, c) and (b, c e_l).
        """
        groups = self._groups[i]
        if groups is None:
            degree = self.degrees[i]
            if degree == 0:
                groups = (((i, i, 1),),)
            else:
                mono = self.monos[i]
                l = max(j for j, e in enumerate(mono) if e)
                rest = self.id(mono[:l] + (mono[l] - 1,) + mono[l + 1 :])
                acc: list[dict[tuple[int, int], int]] = [{} for _ in range(degree + 1)]
                for k, group in enumerate(self.groups(rest)):
                    up, same = acc[k + 1], acc[k]
                    for b, c, weight in group:
                        key = (self.shifts(b)[l], c)
                        up[key] = up.get(key, 0) + weight
                        key = (b, self.shifts(c)[l])
                        same[key] = same.get(key, 0) + weight
                groups = tuple(tuple((b, c, w) for (b, c), w in group.items()) for group in acc)
            self._groups[i] = groups
        return groups

    def splits(self, i: int) -> tuple[tuple[int, int, int], ...]:
        """`symalg.monomial_splits` of monomial i, as (id, id, weight) triples."""
        splits = self._splits[i]
        if splits is None:
            splits = self._splits[i] = tuple(chain.from_iterable(self.groups(i)))
        return splits

    def shifts(self, i: int) -> tuple[int, ...]:
        """The ids of (mono e_0, .., mono e_{dim-1}) for monomial i; () at degree N, where
        every shift lies above the truncation."""
        row = self.shift_rows[i]
        if row is None:
            mono = self.monos[i]
            row = () if self.degrees[i] == self.N else tuple(
                self.id(mono[:j] + (mono[j] + 1,) + mono[j + 1 :]) for j in range(self.dim)
            )
            self.shift_rows[i] = row
        return row

    def to_ids(self, terms: dict) -> Terms:
        """Monomial-keyed terms keyed by id, each coefficient in canonical exact form."""
        return {self.id(m): exact(c) for m, c in terms.items()}

    def to_monomials(self, terms: Terms) -> dict[Monomial, int | Fraction]:
        monos = self.monos
        return {monos[k]: c for k, c in terms.items()}


@lru_cache(maxsize=None)
def _monomial_index(dim: int, N: int) -> _MonomialIndex:
    """The one index of (dim, N), shared by every bialgebra of that size."""
    return _MonomialIndex(dim, N)


class _KernelElement(LinComb):
    """An element of k[V] inside the kernel: terms keyed by monomial id."""

    __slots__ = ("index",)
    _space_attr = "index"

    def __repr__(self) -> str:
        return repr(SymElement.of_terms(self.index.dim, self.index.to_monomials(self.terms)))


class DistBialgebra:
    """k[V] with the convolution product of a loop (or an explicit product).

    Product and division values are memoized per pair of monomial ids, and
    the primitive operation and associator per triple; the caches live on
    the instance, so distinct bialgebras never share entries.  Each memo
    entry is filled by `product_mono`, `ldiv_mono` or `rdiv_mono`; the
    kernel reads the memos through `_entry`, which calls those methods on a
    miss.
    """

    def __init__(self, dim: int, max_degree: int, product_fn: ProductFn, loop: FormalLoop | None = None):
        self.dim = dim
        self.N = max_degree
        self.loop = loop
        index = self._index = _monomial_index(dim, max_degree)
        self._size = index.size
        self._monos = index.monos
        self._degrees = index.degrees

        def on_ids(i: int, j: int) -> Terms:
            value = product_fn(index.monos[i], index.monos[j]).truncate(max_degree)
            return index.to_ids(value.terms)

        # (id, id) -> terms of the product: an explicit product on monomials, read on ids
        # and stored canonical; `from_loop` installs its own recursion on ids instead
        self._product_fn: Callable[[int, int], Terms] = on_ids
        self._prod_memo: dict[int, Terms] = {}
        self._ldiv_memo: dict[int, Terms] = {}
        self._rdiv_memo: dict[int, Terms] = {}
        self._p_memo: dict[int, Terms] = {}
        self._assoc_memo: dict[int, Terms] = {}

    @classmethod
    def from_loop(cls, loop: FormalLoop) -> "DistBialgebra":
        """The convolution product of a loop.

        Computed by reconstructing the coalgebra-morphism image from its
        primitive projection: the degree-m part of mu . nu is, for m >= 2,
        (1/m) times the product of F(mu_(1), nu_(1)) with the degree-(m-1)
        part of mu_(2) . nu_(2), summed over the splits where both halves
        have positive degree (the degree-1 part is F itself).  This agrees
        with the prolongation of F, which the test suite pins.

        The recursion runs on monomial ids and is driven by the loop's
        support: F is read once, at construction, into a table keyed by
        bidegree and then by the pair id i * M + j, with exact
        coefficients, so only the monomials of F's support get ids there.
        Both F's own value at (mu, nu) and its value at each front
        (mu_(1), nu_(1)) are read from that table, and only the fronts of a
        bidegree where F has a component are visited.  Each weighted tail
        term, times each letter e_j of the front, is summed straight into
        the shifted result, unscaled, and each output term is divided by its
        degree once, not once per split or letter.  A tail term of degree N
        has no shifts (`_MonomialIndex.shifts`), since mono e_j would lie
        above the truncation.
        """
        self = cls(loop.dim, loop.N, None, loop)  # type: ignore[arg-type]
        index, size, degrees, shift_rows = self._index, self._size, self._degrees, self._index.shift_rows
        # each monomial of F's support is checked and given its id once, not once per entry
        support = {m for comp in loop.components.values() for pair in comp for m in pair}
        ident = {m: index.id(m) for m in support}.__getitem__
        # bidegree -> i * size + j -> F's component at the monomials (i, j)
        components = {
            md: {ident(m1) * size + ident(m2): exact_terms(vec) for (m1, m2), vec in comp.items()}
            for md, comp in loop.components.items()
        }
        unit = index.id(unit_monomial(loop.dim))
        letters = [index.id(basis_monomial(loop.dim, j)) for j in range(loop.dim)]
        memo = self._prod_memo

        def product_fn(i: int, j: int) -> Terms:
            d1, d2 = degrees[i], degrees[j]
            if d1 + d2 == 0:
                return {unit: 1}
            top = components.get((d1, d2), {}).get(i * size + j, {})
            acc = {letters[l]: c for l, c in top.items()}
            groups1, groups2 = index.groups(i), index.groups(j)
            # id of mono e_l -> sum of F_l(mu_(1), nu_(1)) times the tail mu_(2) . nu_(2) at mono
            shifted: Terms = {}
            get = shifted.get
            for (e1, e2), comp in components.items():
                if e1 > d1 or e2 > d2 or (e1 == d1 and e2 == d2):
                    continue
                for a1, b1, c1 in groups1[e1]:
                    base = a1 * size
                    for a2, b2, c2 in groups2[e2]:
                        front = comp.get(base + a2)
                        if front is None:
                            continue
                        weight = c1 * c2
                        for mono, c in self._entry(memo, "product_mono", b1, b2).items():
                            row = shift_rows[mono]
                            if row is None:
                                row = index.shifts(mono)
                            if not row:
                                continue
                            if weight != 1:
                                c = weight * c
                            for l, fl in front.items():
                                key = row[l]
                                shifted[key] = get(key, 0) + c * fl
            # tails have no degree-0 term, so these degrees are >= 2 and miss `top`
            for mono, c in shifted.items():
                if c:
                    acc[mono] = exact_div(c, degrees[mono])
            return acc

        self._product_fn = product_fn
        return self

    @classmethod
    def from_loop_prolonged(cls, loop: FormalLoop) -> "DistBialgebra":
        """Same bialgebra, with the product computed through the prolongation.

        Slower; kept as the independent second route for cross-checks.
        """
        prol = loop.prolongation()

        def product_fn(m1: Monomial, m2: Monomial) -> SymElement:
            return prol.at((m1, m2)).truncate(loop.N)

        return cls(loop.dim, loop.N, product_fn, loop)

    def __repr__(self) -> str:
        return f"DistBialgebra(dim={self.dim}, N={self.N})"

    # -- product and divisions on monomials: the one place memo entries are filled ----
    def product_mono(self, m1: Monomial, m2: Monomial) -> SymElement:
        return self._mono_entry(self._prod_memo, self._product_fn, m1, m2)

    def ldiv_mono(self, m1: Monomial, m2: Monomial) -> SymElement:
        r"""mu \ nu on monomials (`su_ops.ldiv_on_keys`)."""
        return self._mono_entry(self._ldiv_memo, lambda i, j: su_ops.ldiv_on_keys(self, i, j), m1, m2)

    def rdiv_mono(self, m1: Monomial, m2: Monomial) -> SymElement:
        """mu / nu on monomials (`su_ops.rdiv_on_keys`)."""
        return self._mono_entry(self._rdiv_memo, lambda i, j: su_ops.rdiv_on_keys(self, i, j), m1, m2)

    def _mono_entry(
        self, memo: dict[int, Terms], fill: Callable[[int, int], Terms], m1: Monomial, m2: Monomial
    ) -> SymElement:
        """The memo entry at the monomials (m1, m2), stored as `fill` computes it on ids."""
        i, j = self._index.id(m1), self._index.id(m2)
        key = i * self._size + j
        terms = memo.get(key)
        if terms is None:
            terms = memo[key] = fill(i, j)
        return SymElement.of_terms(self.dim, self._index.to_monomials(terms))

    def _entry(self, memo: dict[int, Terms], method: str, i: int, j: int) -> Terms:
        """The entry at the ids (i, j) of a product or division memo, filled on a miss by the
        named method (`product_mono`, `ldiv_mono` or `rdiv_mono`).

        The method is looked up at call time, so a wrapper installed on its
        name (perfbench/tracer.py) sees every fill; a class-level alias
        would not.
        """
        terms = memo.get(i * self._size + j)
        if terms is None:
            getattr(self, method)(self._monos[i], self._monos[j])
            terms = memo[i * self._size + j]
        return terms

    # -- bilinear extensions ------------------------------------------------------
    def _check_pair(self, operation: str, a: SymElement, b: SymElement) -> None:
        """Both elements are in k[V] and their degrees sum to at most N; above N the truncated
        result would silently lose terms."""
        for x in (a, b):
            if x.dim != self.dim:
                raise ValueError(f"element dimension {x.dim} does not match bialgebra {self.dim}")
        _check_degree(operation, a.max_degree() + b.max_degree(), self.N)

    def product(self, a: SymElement, b: SymElement) -> SymElement:
        self._check_pair("product", a, b)
        return self._public(self.mul(self._kernel(a), self._kernel(b)).terms)

    def divide(self, a: SymElement, b: SymElement, side: str) -> SymElement:
        self._check_pair("division", a, b)
        return self._public(su_ops.divide(self, self._kernel(a), self._kernel(b), side).terms)

    # -- element helpers ----------------------------------------------------------
    # `one` is the public unit; `su_ops` reads it only for a left-normed product
    # of no factors, which the kernel never forms
    def one(self) -> SymElement:
        return SymElement.one(self.dim)

    def basis(self, index: int) -> SymElement:
        return SymElement.basis(self.dim, index)

    def _letters(self) -> list[_KernelElement]:
        """The kernel elements e_0, .., e_{dim-1}, at coefficient 1."""
        return [self.key_element(self._index.id(basis_monomial(self.dim, i))) for i in range(self.dim)]

    def _kernel(self, elem: SymElement) -> _KernelElement:
        """A public element as the kernel's: keyed by id, with exact coefficients."""
        return _KernelElement.of_terms(self._index, self._index.to_ids(elem.terms))

    def _public(self, terms: Terms) -> SymElement:
        """Kernel terms as they leave the public API: keyed by monomial, with Fractions."""
        return SymElement.of_terms(self.dim, as_fractions(self._index.to_monomials(terms)))

    # -- the su_ops contract, on monomial ids ---------------------------------------
    # `mul` is the kernel's product: unlike `product` it keeps the memos' int
    # coefficients instead of converting to Fractions.
    def mul(self, a: _KernelElement, b: _KernelElement) -> _KernelElement:
        return bilinear(self.key_product, a, b)

    def is_primitive(self, a: _KernelElement) -> bool:
        degrees = self._degrees
        return all(degrees[k] == 1 for k in a.terms)

    def key_element(self, i: int) -> _KernelElement:
        return _KernelElement.of_terms(self._index, {i: 1})

    def key_degree(self, i: int) -> int:
        return self._degrees[i]

    def key_coproduct(self, i: int) -> tuple[tuple[int, int, int], ...]:
        return self._index.splits(i)

    def key_product(self, i: int, j: int) -> Terms:
        return self._entry(self._prod_memo, "product_mono", i, j)

    def key_ldiv(self, i: int, j: int) -> Terms:
        return self._entry(self._ldiv_memo, "ldiv_mono", i, j)

    def key_rdiv(self, i: int, j: int) -> Terms:
        return self._entry(self._rdiv_memo, "rdiv_mono", i, j)

    def triple_key(self, i: int, j: int, k: int) -> int:
        return (i * self._size + j) * self._size + k

    # every division, p and associator entry is stored in the canonical form of `scalars.exact`
    canonical = staticmethod(exact_terms)


class DistSUOps:
    """Evaluator for the primitive operations in a distribution bialgebra.

    `p`, `bracket` and `multioperator` take `SymElement`s or dense vectors of
    the bialgebra's dimension, or the bialgebra's own kernel elements (those
    of its `_MonomialIndex`, such as its `_letters`), and return `SymElement`s
    with `Fraction` coefficients; the kernel computes on the arguments' exact
    coefficients, keyed by monomial id.
    """

    def __init__(self, bialgebra: DistBialgebra):
        self.bialgebra = bialgebra

    def _coerce(self, x) -> _KernelElement:
        """x, an element or a vector, as a kernel element with exact coefficients.

        A kernel element of the bialgebra's own index is returned as it is, with
        no re-indexing; one of another (dim, N) raises ValueError.  An element or a
        vector must have the bialgebra's dimension; otherwise ValueError.
        """
        B = self.bialgebra
        if isinstance(x, _KernelElement):
            if x.index is not B._index:
                raise ValueError(f"kernel element of (dim, N) = {(x.index.dim, x.index.N)} in {B!r}")
            return x
        if not isinstance(x, SymElement):
            x = SymElement.from_sparse(B.dim, to_sparse(B.dim, x))
        elif x.dim != B.dim:
            raise ValueError(f"element of dimension {x.dim} in a bialgebra of dimension {B.dim}")
        return B._kernel(x)

    def p(self, xs: Sequence, ys: Sequence, z) -> SymElement:
        _check_degree("p", len(xs) + len(ys) + 1, self.bialgebra.N)
        value = su_ops.p_operation(
            self.bialgebra, [self._coerce(x) for x in xs], [self._coerce(y) for y in ys], self._coerce(z)
        )
        return self.bialgebra._public(value.terms)

    def bracket(self, xs: Sequence, y, z) -> SymElement:
        return self.bialgebra._public(self._bracket(xs, y, z).terms)

    def _bracket(self, xs: Sequence, y, z) -> _KernelElement:
        _check_degree("bracket", len(xs) + 2, self.bialgebra.N)
        return su_ops.bracket(
            self.bialgebra, [self._coerce(x) for x in xs], self._coerce(y), self._coerce(z)
        )

    def _primitive_vector(self, operation: str, value: _KernelElement) -> Vector:
        if not self.bialgebra.is_primitive(value):
            raise InvariantError(f"{operation} value is not primitive: {value!r}")
        return self.bialgebra._public(value.terms).primitive_part()

    def bracket_vector(self, xs: Sequence, y, z) -> Vector:
        """The bracket as an element of V; raises if it fails to be primitive."""
        return self._primitive_vector("bracket", self._bracket(xs, y, z))

    def multioperator(self, xs: Sequence, ys: Sequence) -> SymElement:
        value = self._multioperator([self._coerce(x) for x in xs], [self._coerce(y) for y in ys])
        return self.bialgebra._public(value.terms)

    def _multioperator(self, xs: list[_KernelElement], ys: list[_KernelElement]) -> _KernelElement:
        _check_degree("multioperator", len(xs) + len(ys), self.bialgebra.N)
        return su_ops.multioperator(self.bialgebra, xs, ys)

    def multioperator_mono(self, mx: Monomial, my: Monomial) -> Vector:
        """Distribution-view multioperator table entry at a monomial pair.

        Equals the multilinear multioperator at the basis multisets of the
        two monomials, which evaluates p once per distinct ordering of the letters.
        Each must be a monomial of the bialgebra's dimension; otherwise ValueError.
        """
        B = self.bialgebra
        for mono in (mx, my):
            if not is_monomial(mono, B.dim):
                raise ValueError(f"{mono} is not a monomial of dimension {B.dim}")
        letters = B._letters()
        value = self._multioperator(
            [letters[i] for i in monomial_letters(mx)], [letters[i] for i in monomial_letters(my)]
        )
        return self._primitive_vector("multioperator", value)


def _multioperator_entries(ops: DistSUOps, n: int) -> Iterator[tuple[Monomial, Monomial, Vector]]:
    """(mx, my, ops.multioperator_mono(mx, my)) at every table key (mx, my) of total degree n."""
    dim = ops.bialgebra.dim
    for i in range(1, n - 1):
        for mx in monomials(dim, i):
            for my in monomials(dim, n - i):
                yield mx, my, ops.multioperator_mono(mx, my)


def dist_su_ops(bialgebra: DistBialgebra) -> DistSUOps:
    return DistSUOps(bialgebra)


def su_bracket_table(bialgebra: DistBialgebra, arity: int) -> dict[tuple[int, ...], Vector]:
    """All brackets <e_{i_1} .. e_{i_m}; e_j, e_k> on basis tuples (`su_ops.basis_bracket_table`),
    evaluated on the bialgebra's kernel letters, which `DistSUOps` takes as they are."""
    ops = dist_su_ops(bialgebra)
    return su_ops.basis_bracket_table(bialgebra._letters(), bialgebra.N, arity, ops.bracket_vector)


# -- linearized identities ------------------------------------------------------------


# how a binary node routes one argument slot to its children
_SPLIT, _LEFT, _RIGHT, _NEITHER = range(4)
# the `DistBialgebra` method that fills a binary node's memo entries, and that memo
_METHODS = {
    Mul: ("product_mono", "_prod_memo"),
    LDiv: ("ldiv_mono", "_ldiv_memo"),
    RDiv: ("rdiv_mono", "_rdiv_memo"),
}


@dataclass(frozen=True, eq=False)
class _Node:
    """A distinct subword, compiled once per evaluator.

    A leaf keeps its word and the slot its value reads: its variable's, or
    0 for the unit, which sees the unit monomial in every slot.  A binary
    node names the `DistBialgebra` method that combines its children,
    holds the bialgebra's memo that method fills and, per argument slot,
    whether the slot is split between both children, routed whole to one,
    or used by neither.
    """

    id: int
    word: LoopWord
    slot: int | None = None
    method: str | None = None
    memo: dict[int, Terms] | None = field(default=None, repr=False)
    left: "_Node | None" = None
    right: "_Node | None" = None
    route: tuple[int, ...] = ()


class LinearizedEvaluator:
    """Evaluates word linearizations on tuples of distributions.

    The recursion mirrors the word structure: each binary node splits the
    argument slots by the coproduct, routes the halves to its children and
    combines with the bialgebra product or division on monomials, reading
    the entries of `product_mono`, `ldiv_mono` and `rdiv_mono` from their
    memos through `DistBialgebra._entry` and summing each weighted entry
    once, straight into the node's value.  A subword kills any content in
    slots whose variable it does not use (its formal map does not depend on
    them), so only slots shared by both children are split in earnest; the
    rest are routed whole or force the term to vanish.

    The evaluator runs on monomial ids (`_MonomialIndex`).  Each distinct
    subword is compiled once into a `_Node`, which fixes its method and slot
    routing; equal subwords share one node.  Values are terms dicts
    {id: coefficient}.  `_value` computes a node's value; `_eval` memoizes
    it per evaluator in `_memo`, keyed by the flat tuple (node id, *slot
    ids), and only a binary node's children that are themselves binary
    nodes are read through it.  A leaf child is read straight from its
    slot, and a root, leaf or not, is evaluated through `_value` and never
    stored: `on_monomials`, `on_elements` and the sweep and samples of
    `check_linearized_identity` compare or sum each root value once and
    drop it.  A binary node's value is a sum of memo entries, which never
    hold a term above N, so it is stored without a copy, and a value that
    is one entry at coefficient 1 is that entry itself, shared with the
    bialgebra's memo.  Every vanishing value is the evaluator's one empty
    dict.  The memo holds kernel coefficients (`int | Fraction`); the
    public methods take and return `SymElement`s, with Fractions, and
    raise ValueError when their arguments' degrees sum past N.
    """

    def __init__(self, bialgebra: DistBialgebra, nvars: int):
        if type(nvars) is not int or nvars < 1:
            raise ValueError(f"the variable count of a linearized word must be an int >= 1, got {nvars!r}")
        self.B = bialgebra
        self.nvars = nvars
        self._index = bialgebra._index
        self._unit = self._index.id(unit_monomial(bialgebra.dim))
        self._one: Terms = {self._unit: 1}
        self._zero: Terms = {}
        self._memo: dict[tuple[int, ...], Terms] = {}
        self._nodes: dict[LoopWord, _Node] = {}

    def _node(self, word: LoopWord) -> _Node:
        node = self._nodes.get(word)
        if node is not None:
            return node
        match word:
            case Var(index):
                if not 1 <= index <= self.nvars:
                    raise ValueError(f"variable x{index} outside the {self.nvars} slots")
                node = _Node(len(self._nodes), word, index - 1)
            case Unit():
                node = _Node(len(self._nodes), word, 0)
            case Mul(a, b) | LDiv(a, b) | RDiv(a, b):
                left, right = self._node(a), self._node(b)
                vars_a, vars_b = word_variables(a), word_variables(b)
                route = tuple(
                    (_SPLIT if var in vars_b else _LEFT) if var in vars_a
                    else (_RIGHT if var in vars_b else _NEITHER)
                    for var in range(1, self.nvars + 1)
                )
                method, memo = _METHODS[type(word)]
                node = _Node(len(self._nodes), word, None, method, getattr(self.B, memo), left, right, route)
            case _:
                raise TypeError(f"not a loop word: {word!r}")
        self._nodes[word] = node
        return node

    def on_monomials(self, word: LoopWord, monos: MonoTuple) -> SymElement:
        """The linearization of `word` at one monomial per variable slot, of total degree <= N."""
        if len(monos) != self.nvars:
            raise ValueError(f"{self.nvars} monomials expected, got {len(monos)}")
        total = sum(map(monomial_degree, monos))
        if total > self.B.N:
            raise ValueError(f"total degree {total} exceeds the truncation degree {self.B.N}")
        return self.B._public(self._value(self._node(word), tuple(map(self._index.id, monos))))

    def _eval(self, node: _Node, ids: tuple[int, ...]) -> Terms:
        """The value of a binary node's child that is itself a binary node, memoized under the
        flat key (node id, *slot ids)."""
        key = (node.id, *ids)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._value(node, ids)
        return hit

    def _value(self, node: _Node, ids: tuple[int, ...]) -> Terms:
        """The value of `node` at the slot ids, computed and not stored: a root's value is
        compared or summed once and dropped."""
        if node.method is not None:
            return self._binary(node, ids)
        degrees = self._index.degrees
        if isinstance(node.word, Var):
            slot = node.slot
            if all(degrees[k] == 0 for s, k in enumerate(ids) if s != slot):
                return {ids[slot]: 1}
            return self._zero
        if all(degrees[k] == 0 for k in ids):
            return self._one
        return self._zero

    def _binary(self, node: _Node, ids: tuple[int, ...]) -> Terms:
        index = self._index
        unit = self._unit
        options: list[Sequence[tuple[int, int, int]]] = []
        for how, k in zip(node.route, ids):
            if how == _SPLIT:
                options.append(index.splits(k))
            elif how == _LEFT:
                options.append(((k, unit, 1),))
            elif how == _RIGHT:
                options.append(((unit, k, 1),))
            elif index.degrees[k] == 0:
                options.append(((unit, unit, 1),))
            else:
                return self._zero
        memo, method, entry_at = node.memo, node.method, self.B._entry
        lnode, rnode = node.left, node.right
        lslot, rslot = lnode.slot, rnode.slot
        # (entry, coefficient) of every coeff * c1 * c2 * entry(k1, k2); a factor 1 is not multiplied
        parts: list[tuple[Terms, int | Fraction]] = []
        append = parts.append
        for combo in iter_product(*options):
            left, right, weights = zip(*combo)
            # routing hands a leaf the unit in every slot but its own,
            # so its value is its own slot's monomial at coefficient 1
            if lslot is None:
                lv = self._eval(lnode, left)
                if not lv:
                    continue
                litems = lv.items()
            else:
                litems = ((left[lslot], 1),)
            if rslot is None:
                rv = self._eval(rnode, right)
                if not rv:
                    continue
                ritems = rv.items()
            else:
                ritems = ((right[rslot], 1),)
            coeff = prod(weights)
            for k1, c1 in litems:
                if coeff != 1:
                    c1 = coeff * c1
                for k2, c2 in ritems:
                    entry = entry_at(memo, method, k1, k2)
                    append((entry, c1 if c2 == 1 else c1 * c2))
        if len(parts) == 1 and parts[0][1] == 1:
            # one memoized entry at coefficient 1: the value is that entry, shared
            return entry or self._zero
        return sum_into({}, parts) or self._zero

    def on_elements(self, word: LoopWord, args: Sequence[SymElement]) -> SymElement:
        """The linearization of `word` at one element per variable slot, whose top degrees sum
        to at most N; beyond N, ValueError, as for `DistBialgebra.product`."""
        if len(args) != self.nvars:
            raise ValueError(f"{self.nvars} arguments expected, got {len(args)}")
        _check_degree("linearization", sum(a.max_degree() for a in args), self.B.N)
        node = self._node(word)
        return self.B._public(self._sum(node, [self.B._kernel(a).terms.items() for a in args]))

    def _sum(self, node: _Node, terms: Sequence[Iterable[tuple[int, int | Fraction]]]) -> Terms:
        """The root value of `node` summed over the tuples of the slots' kernel terms of total
        degree <= N, each tuple's value weighted by its coefficients and dropped."""
        N, degrees = self.B.N, self._index.degrees
        acc: Terms = {}
        for combo in iter_product(*terms):
            if sum(degrees[k] for k, _ in combo) <= N:
                add_into(acc, self._value(node, tuple(k for k, _ in combo)), prod(c for _, c in combo))
        return acc


@lru_cache(maxsize=None)
def _monomial_pool(dim: int, max_degree: int) -> tuple[Monomial, ...]:
    return tuple(monomials_up_to(dim, max_degree))


def random_distribution(rng: random.Random, dim: int, max_degree: int) -> SymElement:
    """A sparse distribution of one to four terms with small integer coefficients, for sampling."""
    pool = _monomial_pool(dim, max_degree)
    terms: dict[Monomial, Fraction] = {}
    for _ in range(rng.randint(1, 4)):
        mono = pool[rng.randrange(len(pool))]
        add_into(terms, {mono: Fraction(rng.choice([-2, -1, 1, 2]))})
    return SymElement.of_terms(dim, terms)


@dataclass
class LinearizedVerdict:
    holds: bool
    seed: int
    samples: int
    exhaustive_degree: int
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {
            "holds": self.holds,
            "seed": self.seed,
            "samples": self.samples,
            "exhaustive_degree": self.exhaustive_degree,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def check_linearized_identity(
    identity: Identity, bialgebra: DistBialgebra, samples: int = 25, seed: int = 0
) -> LinearizedVerdict:
    """Compare the two word linearizations in a distribution bialgebra.

    Deterministic sweep over all monomial tuples of total degree up to the
    truncation N, then seeded sparse random distributions of degree
    <= min(3, N - 1), evaluated on their monomial tuples of total degree
    <= N only: above N the truncated product has lost the loop components
    it would need.  Both sides are linear in each argument, so a sweep up
    to N decides the identity within the truncation and no sample can then
    fail.  Neither phase stores a root value: both evaluate the roots
    through `_value`, a sample summing its tuples within N through `_sum`,
    the routine under `on_elements`.  Comparisons are exact, on kernel
    terms, and the first mismatch is reported with
    enough data to replay it.  `samples` must be an int >= 0 and `seed` an int,
    which the report replays through; otherwise ValueError.
    """
    if type(samples) is not int or samples < 0:
        raise ValueError(f"samples must be an int >= 0, got {samples!r}")
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    ev = LinearizedEvaluator(bialgebra, identity.nvars)
    dim, N = bialgebra.dim, bialgebra.N
    monos, degrees = bialgebra._index.monos, bialgebra._index.degrees

    # the ids of the monomials of degree <= N in `monomials_up_to` order; those of
    # degree <= budget are a prefix of it
    order = [bialgebra._index.id(mono) for mono in _monomial_pool(dim, N)]
    pools = [order[: comb(dim + budget, budget)] for budget in range(N + 1)]

    def tuples_of_total(slots: int, budget: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            for k in pools[budget]:
                yield (k,)
            return
        for head in pools[budget]:
            for rest in tuples_of_total(slots - 1, budget - degrees[head]):
                yield (head,) + rest

    # every swept tuple has nvars slots and total degree <= N, so the sweep
    # compares the two root values in the kernel directly and stores neither
    lhs_node, rhs_node = ev._node(identity.lhs), ev._node(identity.rhs)
    for ids in tuples_of_total(identity.nvars, N):
        lhs = ev._value(lhs_node, ids)
        rhs = ev._value(rhs_node, ids)
        if lhs != rhs:
            witness = {
                "kind": "monomials",
                "monomials": [list(monos[k]) for k in ids],
                "lhs": bialgebra._public(lhs).to_json(),
                "rhs": bialgebra._public(rhs).to_json(),
            }
            return LinearizedVerdict(False, seed, samples, N, witness)
    rng = random.Random(seed)
    sample_degree = min(3, N - 1)
    for index in range(samples):
        args = [random_distribution(rng, dim, sample_degree) for _ in range(identity.nvars)]
        # the arguments' degrees may sum past N, so only their tuples within N are summed
        terms = [bialgebra._kernel(a).terms.items() for a in args]
        lhs = ev._sum(lhs_node, terms)
        rhs = ev._sum(rhs_node, terms)
        if lhs != rhs:
            witness = {
                "kind": "random",
                "sample_index": index,
                "arguments": [a.to_json() for a in args],
                "lhs": bialgebra._public(lhs).to_json(),
                "rhs": bialgebra._public(rhs).to_json(),
            }
            return LinearizedVerdict(False, seed, samples, N, witness)
    return LinearizedVerdict(True, seed, samples, N)


# -- similarity invariance -------------------------------------------------------------


@dataclass
class InvarianceVerdict:
    holds: bool
    witness: dict | None = None


def brackets_invariance_check(
    b_times: DistBialgebra, b_dot: DistBialgebra, phi: SimilarityMap
) -> InvarianceVerdict:
    """Check that two similar products share all their brackets within the truncation.

    First verifies the similarity equation sum mu_(1) x Phi'(mu_(2), nu)
    = mu . nu on every monomial pair with |mu| + |nu| <= N, then compares
    the brackets of every arity m + 2 <= N on basis tuples.
    """
    if (b_times.dim, b_times.N) != (b_dot.dim, b_dot.N):
        raise ValueError("bialgebras must share dimension and truncation")
    dim, N = b_times.dim, b_times.N
    prol = phi.prolongation()
    ident = b_times._index.id
    for dmu in range(0, N + 1):
        for dnu in range(0, N - dmu + 1):
            for mu in monomials(dim, dmu):
                for nu in monomials(dim, dnu):
                    acc: dict[int, int | Fraction] = {}
                    for m1, m2, coeff in monomial_splits(mu):
                        inner = b_times._kernel(prol.at((m2, nu)).truncate(N))
                        add_into(acc, b_times.mul(b_times.key_element(ident(m1)), inner).terms, coeff)
                    lhs = SymElement.of_terms(dim, b_times._index.to_monomials(acc))
                    rhs = b_dot.product_mono(mu, nu)
                    if lhs != rhs:
                        return InvarianceVerdict(
                            False,
                            {
                                "kind": "linphi",
                                "mu": list(mu),
                                "nu": list(nu),
                                "lhs": lhs.to_json(),
                                "rhs": rhs.to_json(),
                            },
                        )
    for arity in range(0, N - 1):
        t1 = su_bracket_table(b_times, arity)
        t2 = su_bracket_table(b_dot, arity)
        if t1 != t2:
            bad = min(k for k in t1 if t1[k] != t2[k])
            return InvarianceVerdict(
                False,
                {
                    "kind": "bracket",
                    "indices": list(bad),
                    "lhs": [format_rational(v) for v in t1[bad]],
                    "rhs": [format_rational(v) for v in t2[bad]],
                },
            )
    return InvarianceVerdict(True)


# -- installing a prescribed multioperator ----------------------------------------------

class _PsiBuilder:
    """The similarity psi that installs a prescribed multioperator, solved one degree at a time.

    The loop F(x, psi(x, y)) = `compose(F, [P1, psi])` is similar to F, so
    its bialgebra keeps F's brackets.  `psi()` starts from psi = y and, for
    n = 3..N, reads the su multioperator of the current composed loop at
    total degree n and gives psi the block (current - prescribed) at every
    bidegree (i, j) with i >= 1, j >= 2 and i + j = n.  Each block is
    exactly that difference.  F is x + y plus terms of bidegree at least
    (1, 1), so a block psi_n of total degree n changes the composed loop by
    + psi_n at degree n and otherwise only above n: the degrees below n,
    installed already, stay.  The degree-n multioperator reads a degree-n
    loop component of y-degree >= 2 only as its negative at the same
    bidegree, so psi_n moves it by exactly - psi_n at (i, j) and leaves
    every other bidegree of degree n alone: after the pass it reads the
    prescribed table.  The test suite pins the result against the
    polarization recursion this solve replaced.

    While psi is still y the composed loop is F, so the passes read the
    given bialgebra, memos and all; a new `from_loop` bialgebra is built
    only after psi gains a block.
    """

    def __init__(self, bialgebra: DistBialgebra, tables: dict[tuple[Monomial, Monomial], SparseVector]):
        if bialgebra.loop is None:
            raise ValueError("installing a multioperator needs the bialgebra of a loop")
        self.B = bialgebra
        self.tables = tables

    def psi(self) -> SimilarityMap:
        loop = self.B.loop
        dim, N = loop.dim, loop.N
        psi = SimilarityMap.identity(dim, N)
        # the bialgebra of F(x, psi(x, y)); None once psi has changed
        current: DistBialgebra | None = self.B
        for n in range(3, N + 1):
            if current is None:
                current = DistBialgebra.from_loop(_similar_loop(loop, psi))
            ops = dist_su_ops(current)
            comps = dict(psi.components)
            for mx, my, entry in _multioperator_entries(ops, n):
                value = add_into(to_sparse(dim, entry), self.tables.get((mx, my), {}), -1)
                if value:
                    i = monomial_degree(mx)
                    comps.setdefault((i, n - i), {})[(mx, my)] = value
            if len(comps) > len(psi.components):
                psi = SimilarityMap._of_sparse(loop.dims, dim, N, comps)
                current = None
        return psi


def _similar_loop(loop: FormalLoop, psi: SimilarityMap) -> FormalLoop:
    """F(x, psi(x, y)); built by the trusted constructor, as it has the size of F,
    which passed its memory cap."""
    P1 = FormalMap.slot_projection(loop.dims, 0, loop.N)
    return FormalLoop._of_sparse(loop.dims, loop.dim, loop.N, compose(loop, [P1, psi]).components)


def make_similar_product(
    bialgebra: DistBialgebra, phi: dict[tuple[Monomial, Monomial], Vector]
) -> DistBialgebra:
    """A product similar to the given one whose multioperator is the prescribed Phi.

    Phi is given in the distribution view, keyed by symmetric-power
    monomial pairs (x-degree >= 1, y-degree >= 2); block symmetry is
    automatic on that basis, so the reachable errors are bad dimensions
    or degrees.  The result is the `from_loop` bialgebra of F(x, psi(x, y)),
    F being `bialgebra.loop` and psi the graded solve of `_PsiBuilder`; its
    brackets agree with the original ones and its multioperator tables are
    the nonzero entries of Phi.  A bialgebra without a loop raises
    ValueError; a Phi that is not a dict of tables raises TypeError.
    """
    if not isinstance(phi, dict):
        raise TypeError(
            "Phi must be a dict of multioperator tables {(mx, my): vector}, "
            f"got {type(phi).__name__}"
        )
    dim, N = bialgebra.dim, bialgebra.N
    tables: dict[tuple[Monomial, Monomial], SparseVector] = {}
    for (mx, my), value in phi.items():
        mx, my = tuple(mx), tuple(my)
        if not (is_monomial(mx, dim) and is_monomial(my, dim)):
            raise ValueError(f"multioperator key {(mx, my)} is not a pair of monomials of dimension {dim}")
        if monomial_degree(mx) < 1 or monomial_degree(my) < 2:
            raise ValueError(
                f"multioperator blocks need x-degree >= 1 and y-degree >= 2, got {(mx, my)}"
            )
        if monomial_degree(mx) + monomial_degree(my) > N:
            raise ValueError(f"multioperator key {(mx, my)} beyond the truncation {N}")
        tables[(mx, my)] = to_sparse(dim, value)
    psi = _PsiBuilder(bialgebra, tables).psi()
    return DistBialgebra.from_loop(_similar_loop(bialgebra.loop, psi))


def su_multioperator_tables(bialgebra: DistBialgebra) -> dict[tuple[Monomial, Monomial], Vector]:
    """Distribution-view multioperator tables of a bialgebra, up to the truncation N."""
    ops = dist_su_ops(bialgebra)
    entries = (e for n in range(3, bialgebra.N + 1) for e in _multioperator_entries(ops, n))
    return {(mx, my): value for mx, my, value in entries if any(value)}


# -- the filtration rank check -----------------------------------------------------------


def _rank(rows: list[list[int | Fraction]]) -> int:
    """Rank of a list of rational rows by fraction-free (Bareiss) elimination.

    Rows are scaled to ints by their common denominators, which keeps the
    rank; each step divides exactly by the previous pivot (entries are minors).
    """
    matrix = []
    for row in rows:
        scale = lcm(*(c.denominator for c in row))
        matrix.append([c.numerator * (scale // c.denominator) for c in row])
    ncols = len(matrix[0]) if matrix else 0
    rank, previous = 0, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        head = matrix[rank]
        p = head[col]
        for r in range(rank + 1, len(matrix)):
            row = matrix[r]
            f = row[col]
            matrix[r] = [(p * a - f * b) // previous for a, b in zip(row, head)]
        previous = p
        rank += 1
        if rank == len(matrix):
            break
    return rank


@dataclass
class PbwVerdict:
    holds: bool
    ranks: dict[int, tuple[int, int]] = field(default_factory=dict)  # degree -> (rank, dim)


def pbw_span_check(bialgebra: DistBialgebra, max_degree: int) -> PbwVerdict:
    """Ordered left-normed products must span each filtration layer.

    For every m <= max_degree the products ((e_{i_1} e_{i_2}) ...) e_{i_k}
    with i_1 <= ... <= i_k and k <= m must have full rank in the span of
    all monomials of degree <= m.  `max_degree` must be an int from 0 to N;
    otherwise ValueError.
    """
    if type(max_degree) is not int or max_degree < 0:
        raise ValueError(f"degree must be an int >= 0, got {max_degree!r}")
    if max_degree > bialgebra.N:
        raise ValueError(f"degree {max_degree} beyond the truncation {bialgebra.N}")
    dim = bialgebra.dim
    index = bialgebra._index
    products = {(): bialgebra.key_element(index.id(unit_monomial(dim)))}
    letters = bialgebra._letters()
    for k in range(1, max_degree + 1):
        for idx in combinations_with_replacement(range(dim), k):
            products[idx] = bialgebra.mul(products[idx[:-1]], letters[idx[-1]])

    verdict = PbwVerdict(holds=True)
    for m in range(0, max_degree + 1):
        basis = list(monomials_up_to(dim, m))
        basis_index = {mono: i for i, mono in enumerate(basis)}
        rows = []
        for idx, elem in products.items():
            if len(idx) > m:
                continue
            row = [0] * len(basis)
            for k, coeff in elem.terms.items():
                if index.degrees[k] <= m:
                    row[basis_index[index.monos[k]]] = coeff
            rows.append(row)
        expected = sum(sym_dim(dim, i) for i in range(m + 1))
        got = _rank(rows)
        verdict.ranks[m] = (got, expected)
        if got != expected:
            verdict.holds = False
    return verdict
