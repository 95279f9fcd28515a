"""The bialgebra of distributions of a formal loop.

The coalgebra k[V] acquires a product by prolonging a loop F: on monomial
pairs the product is F'(mu (x) nu), extended bilinearly and truncated at
the loop's degree.  `DistBialgebra` implements the `su_ops` contract on
monomials and owns every memo the engine fills: left and right divisions
are the counit recursions of `su_ops`, the primitive operations and
brackets are evaluated with these, and a prescribed multioperator can be
installed through a similarity, solved one degree at a time, without
disturbing the brackets.

Coefficients: inside the memos a coefficient is an ``int`` or a
``Fraction``, never a float.  `from_loop` stores every integral product
coefficient as an ``int`` and divides with `scalars.exact_div`, and
`DistSUOps` hands the engine its arguments in the same canonical form, so
for integral loops the whole kernel, the primitive operations included,
runs on ints; `su_bracket_table` evaluates on the bialgebra's own
int-coefficient basis elements.  Every value that leaves the public API
has ``Fraction`` coefficients again (`scalars.as_fractions`): the
`SymElement`s of `DistBialgebra.product` and `divide`, of the `DistSUOps`
operations `p`, `bracket` and `multioperator`, and of
`LinearizedEvaluator.on_monomials` and `on_elements`.

Those public operations are exact within the truncation and raise
ValueError beyond it: `product` and `divide` when the degrees of their
arguments sum past N, and the `DistSUOps` operations when their degree
does (m + n + 1 for p, m + 2 for a bracket, m + n for a multioperator, on
m and n primitive arguments).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product as iter_product
from math import lcm, prod
from typing import Callable, Iterator, Sequence

from . import su_ops
from .lincomb import add_into, bilinear, sum_into
from .maps import FormalLoop, FormalMap, InvariantError, MonoTuple, SimilarityMap, compose
from .scalars import (
    SparseVector, Vector, as_fractions, exact_div, exact_terms, format_rational, to_sparse,
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
    splits_by_degree,
    sym_dim,
    unit_monomial,
)
from .words import Identity, LDiv, LoopWord, Mul, RDiv, Unit, Var, word_variables

ProductFn = Callable[[Monomial, Monomial], SymElement]


def _letter_shifts(mono: Monomial, N: int) -> tuple[Monomial, ...] | None:
    """(mono e_0, .., mono e_{dim-1}), or None when mono has degree N and every shift vanishes."""
    if monomial_degree(mono) >= N:
        return None
    return tuple(mono[:j] + (mono[j] + 1,) + mono[j + 1 :] for j in range(len(mono)))


def _check_degree(operation: str, degree: int, N: int) -> None:
    if degree > N:
        raise ValueError(f"{operation} of degree {degree} beyond the truncation {N}")


def _fractions(elem: SymElement) -> SymElement:
    """`elem` with every coefficient a Fraction, as values leave the public API."""
    return SymElement.of_terms(elem.dim, as_fractions(elem.terms))


class DistBialgebra:
    """k[V] with the convolution product of a loop (or an explicit product).

    Product and division values are memoized per monomial pair, and the
    primitive operation and associator per monomial triple; the caches live
    on the instance, so distinct bialgebras never share entries.
    """

    def __init__(self, dim: int, max_degree: int, product_fn: ProductFn, loop: FormalLoop | None = None):
        self.dim = dim
        self.N = max_degree
        self.loop = loop
        self._product_fn = product_fn
        self._prod_memo: dict[tuple[Monomial, Monomial], SymElement] = {}
        self._ldiv_memo: dict[tuple[Monomial, Monomial], SymElement] = {}
        self._rdiv_memo: dict[tuple[Monomial, Monomial], SymElement] = {}
        self._p_memo: dict[tuple[Monomial, Monomial, Monomial], SymElement] = {}
        self._assoc_memo: dict[tuple[Monomial, Monomial, Monomial], SymElement] = {}

    @classmethod
    def from_loop(cls, loop: FormalLoop) -> "DistBialgebra":
        """The convolution product of a loop.

        Computed by reconstructing the coalgebra-morphism image from its
        primitive projection: the degree-m part of mu . nu is, for m >= 2,
        (1/m) times the product of F(mu_(1), nu_(1)) with the degree-(m-1)
        part of mu_(2) . nu_(2), summed over the splits where both halves
        have positive degree (the degree-1 part is F itself).  This agrees
        with the prolongation of F, which the test suite pins.

        The recursion is driven by the loop's support: only the splits whose
        front (mu_(1), nu_(1)) has a multidegree where F has a component are
        visited.  Each weighted tail term, times each letter e_j of the front,
        is summed straight into the shifted result, unscaled, and each output
        term is divided by its degree once, not once per split or letter.
        The shifts mono e_j are cached per bialgebra; a tail term of degree N
        has none, since mono e_j would lie above the truncation.
        """
        self = cls(loop.dim, loop.N, None, loop)  # type: ignore[arg-type]
        dim, N = loop.dim, loop.N
        components = {
            md: {monos: exact_terms(vec) for monos, vec in comp.items()}
            for md, comp in loop.components.items()
        }
        unit = SymElement.of_terms(dim, {unit_monomial(dim): 1})
        # monomial -> (mono e_0, .., mono e_{dim-1}), or None at degree N
        shifts: dict[Monomial, tuple[Monomial, ...] | None] = {}

        def product_fn(m1: Monomial, m2: Monomial) -> SymElement:
            d1, d2 = monomial_degree(m1), monomial_degree(m2)
            if d1 + d2 == 0:
                return unit
            top = components.get((d1, d2), {}).get((m1, m2), {})
            acc = {basis_monomial(dim, j): c for j, c in top.items()}
            groups1, groups2 = splits_by_degree(m1), splits_by_degree(m2)
            # mono e_j -> sum of F_j(mu_(1), nu_(1)) times the tail mu_(2) . nu_(2) at mono
            shifted: dict[Monomial, int | Fraction] = {}
            get = shifted.get
            for (e1, e2), comp in components.items():
                if e1 > d1 or e2 > d2 or (e1 == d1 and e2 == d2):
                    continue
                for a1, b1, c1 in groups1[e1]:
                    for a2, b2, c2 in groups2[e2]:
                        front = comp.get((a1, a2))
                        if front is None:
                            continue
                        weight = c1 * c2
                        for mono, c in self.product_mono(b1, b2).terms.items():
                            try:
                                row = shifts[mono]
                            except KeyError:
                                row = shifts[mono] = _letter_shifts(mono, N)
                            if row is None:
                                continue
                            if weight != 1:
                                c = weight * c
                            for j, fj in front.items():
                                key = row[j]
                                shifted[key] = get(key, 0) + c * fj
            # tails have no degree-0 term, so these degrees are >= 2 and miss `top`
            for mono, c in shifted.items():
                if c:
                    acc[mono] = exact_div(c, monomial_degree(mono))
            return SymElement.of_terms(dim, acc)

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

    # -- product and divisions on monomials ------------------------------------
    def product_mono(self, m1: Monomial, m2: Monomial) -> SymElement:
        key = (m1, m2)
        hit = self._prod_memo.get(key)
        if hit is None:
            hit = self._product_fn(m1, m2).truncate(self.N)
            self._prod_memo[key] = hit
        return hit

    def ldiv_mono(self, m1: Monomial, m2: Monomial) -> SymElement:
        r"""mu \ nu on monomials (`su_ops.ldiv_on_keys`)."""
        return su_ops.ldiv_on_keys(self, m1, m2)

    def rdiv_mono(self, m1: Monomial, m2: Monomial) -> SymElement:
        """mu / nu on monomials (`su_ops.rdiv_on_keys`)."""
        return su_ops.rdiv_on_keys(self, m1, m2)

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
        return _fractions(self.mul(a, b))

    def divide(self, a: SymElement, b: SymElement, side: str) -> SymElement:
        self._check_pair("division", a, b)
        return _fractions(su_ops.divide(self, a, b, side))

    # -- element helpers ----------------------------------------------------------
    def one(self) -> SymElement:
        return SymElement.one(self.dim)

    def basis(self, index: int) -> SymElement:
        return SymElement.basis(self.dim, index)

    # -- the su_ops contract ------------------------------------------------------
    key_degree = staticmethod(monomial_degree)

    # The methods below look up product_mono, ldiv_mono, rdiv_mono and
    # monomial_splits at call time, so a wrapper installed on those names
    # (perfbench/tracer.py) sees every call; a class-level alias would not.
    # `mul` is the kernel's product: unlike `product` it keeps the memos'
    # int coefficients instead of converting its result to Fractions.
    def mul(self, a: SymElement, b: SymElement) -> SymElement:
        return bilinear(self.product_mono, a, b)

    def is_primitive(self, a: SymElement) -> bool:
        return all(monomial_degree(m) == 1 for m in a.terms)

    def key_element(self, mono: Monomial) -> SymElement:
        return SymElement.of_terms(self.dim, {mono: 1})

    def key_coproduct(self, mono: Monomial):
        return monomial_splits(mono)

    def key_product(self, m1: Monomial, m2: Monomial):
        return self.product_mono(m1, m2).terms

    def key_ldiv(self, m1: Monomial, m2: Monomial) -> SymElement:
        return self.ldiv_mono(m1, m2)

    def key_rdiv(self, m1: Monomial, m2: Monomial) -> SymElement:
        return self.rdiv_mono(m1, m2)


class DistSUOps:
    """Evaluator for the primitive operations in a distribution bialgebra.

    `p`, `bracket` and `multioperator` take `SymElement`s or dense vectors of
    the bialgebra's dimension and return `SymElement`s with `Fraction`
    coefficients; the kernel computes on the arguments' exact coefficients.
    """

    def __init__(self, bialgebra: DistBialgebra):
        self.bialgebra = bialgebra

    def _coerce(self, x) -> SymElement:
        """x, an element or a vector, with the kernel's exact coefficients.

        An element or a vector must have the bialgebra's dimension; otherwise ValueError.
        """
        dim = self.bialgebra.dim
        if not isinstance(x, SymElement):
            return SymElement.from_sparse(dim, exact_terms(to_sparse(dim, x)))
        if x.dim != dim:
            raise ValueError(f"element of dimension {x.dim} in a bialgebra of dimension {dim}")
        return SymElement.of_terms(dim, exact_terms(x.terms))

    def p(self, xs: Sequence, ys: Sequence, z) -> SymElement:
        _check_degree("p", len(xs) + len(ys) + 1, self.bialgebra.N)
        value = su_ops.p_operation(
            self.bialgebra, [self._coerce(x) for x in xs], [self._coerce(y) for y in ys], self._coerce(z)
        )
        return _fractions(value)

    def bracket(self, xs: Sequence, y, z) -> SymElement:
        _check_degree("bracket", len(xs) + 2, self.bialgebra.N)
        value = su_ops.bracket(
            self.bialgebra, [self._coerce(x) for x in xs], self._coerce(y), self._coerce(z)
        )
        return _fractions(value)

    def bracket_vector(self, xs: Sequence, y, z) -> Vector:
        """The bracket as an element of V; raises if it fails to be primitive."""
        value = self.bracket(xs, y, z)
        if not self.bialgebra.is_primitive(value):
            raise InvariantError(f"bracket value is not primitive: {value!r}")
        return value.primitive_part()

    def multioperator(self, xs: Sequence, ys: Sequence) -> SymElement:
        _check_degree("multioperator", len(xs) + len(ys), self.bialgebra.N)
        value = su_ops.multioperator(
            self.bialgebra, [self._coerce(x) for x in xs], [self._coerce(y) for y in ys]
        )
        return _fractions(value)

    def multioperator_mono(self, mx: Monomial, my: Monomial) -> Vector:
        """Distribution-view multioperator table entry at a monomial pair.

        Equals the multilinear multioperator at the basis multisets of the
        two monomials (the symmetrizations collapse on repeated letters).
        Each must be a monomial of the bialgebra's dimension; otherwise ValueError.
        """
        B = self.bialgebra
        for mono in (mx, my):
            if not is_monomial(mono, B.dim):
                raise ValueError(f"{mono} is not a monomial of dimension {B.dim}")
        value = self.multioperator(
            [B.key_element(basis_monomial(B.dim, i)) for i in monomial_letters(mx)],
            [B.key_element(basis_monomial(B.dim, i)) for i in monomial_letters(my)],
        )
        if not B.is_primitive(value):
            raise InvariantError("multioperator value is not primitive")
        return value.primitive_part()


def dist_su_ops(bialgebra: DistBialgebra) -> DistSUOps:
    return DistSUOps(bialgebra)


def su_bracket_table(bialgebra: DistBialgebra, arity: int) -> dict[tuple[int, ...], Vector]:
    """All brackets <e_{i_1} .. e_{i_m}; e_j, e_k> on basis tuples (`su_ops.basis_bracket_table`),
    evaluated on the bialgebra's own int-coefficient basis elements."""
    ops = dist_su_ops(bialgebra)
    dim = bialgebra.dim
    basis = [bialgebra.key_element(basis_monomial(dim, i)) for i in range(dim)]
    return su_ops.basis_bracket_table(basis, bialgebra.N, arity, ops.bracket_vector)


# -- linearized identities ------------------------------------------------------------


# how a binary node routes one argument slot to its children
_SPLIT, _LEFT, _RIGHT, _NEITHER = range(4)
_METHODS = {Mul: "product_mono", LDiv: "ldiv_mono", RDiv: "rdiv_mono"}


@dataclass(frozen=True, eq=False)
class _Node:
    """A distinct subword, compiled once per evaluator.

    A leaf keeps its word and the slot its value reads: its variable's, or
    0 for the unit, which sees the unit monomial in every slot.  A binary
    node names the `DistBialgebra` method that combines its children and,
    per argument slot, whether the slot is split between both children,
    routed whole to one, or used by neither.
    """

    id: int
    word: LoopWord
    slot: int | None = None
    method: str | None = None
    left: "_Node | None" = None
    right: "_Node | None" = None
    route: tuple[int, ...] = ()


class LinearizedEvaluator:
    """Evaluates word linearizations on tuples of distributions.

    The recursion mirrors the word structure: each binary node splits the
    argument slots by the coproduct, routes the halves to its children and
    combines with the bialgebra product or division on monomials
    (`product_mono`, `ldiv_mono`, `rdiv_mono`), summing each weighted
    monomial value once, straight into the node's value.  A subword kills any
    content in slots whose variable it does not use (its formal map does
    not depend on them), so only slots shared by both children are split
    in earnest; the rest are routed whole or force the term to vanish.

    Each distinct subword is compiled once into a `_Node`, which fixes its
    method and slot routing; equal subwords share one node.  Values are
    memoized per evaluator in `_memo`, keyed by (node id, monomial tuple).
    A leaf below the root is read straight from its slot, with no memo
    entry; a leaf at the root is memoized, truncated at N.  A binary node's
    value is a sum of memoized product and division entries, which are
    truncated already, so it is stored without a copy, and a value that is
    one entry at coefficient 1 is that entry itself.  Every vanishing value
    is the evaluator's one zero element.  The memo holds kernel
    coefficients (`int | Fraction`); the public methods return Fractions.
    """

    def __init__(self, bialgebra: DistBialgebra, nvars: int):
        if nvars < 1:
            raise ValueError(f"a linearized word needs at least one variable slot, got {nvars}")
        self.B = bialgebra
        self.nvars = nvars
        self._unit = unit_monomial(bialgebra.dim)
        self._one = SymElement.of_terms(bialgebra.dim, {self._unit: 1})
        self._zero = SymElement.zero(bialgebra.dim)
        self._memo: dict[tuple[int, MonoTuple], SymElement] = {}
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
                node = _Node(len(self._nodes), word, None, _METHODS[type(word)], left, right, route)
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
        return _fractions(self._eval(self._node(word), monos))

    def _eval(self, node: _Node, monos: MonoTuple) -> SymElement:
        key = (node.id, monos)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        B = self.B
        if node.method is not None:
            out = self._binary(node, monos)
        elif isinstance(node.word, Var):
            index = node.word.index
            if all(monomial_degree(m) == 0 for k, m in enumerate(monos) if k != index - 1):
                out = SymElement.of_terms(B.dim, {monos[index - 1]: 1}).truncate(B.N)
            else:
                out = self._zero
        elif all(monomial_degree(m) == 0 for m in monos):
            out = self._one
        else:
            out = self._zero
        self._memo[key] = out
        return out

    def _binary(self, node: _Node, monos: MonoTuple) -> SymElement:
        B = self.B
        unit = self._unit
        options: list[Sequence[tuple[Monomial, Monomial, int]]] = []
        for how, mono in zip(node.route, monos):
            if how == _SPLIT:
                options.append(monomial_splits(mono))
            elif how == _LEFT:
                options.append(((mono, unit, 1),))
            elif how == _RIGHT:
                options.append(((unit, mono, 1),))
            elif monomial_degree(mono) == 0:
                options.append(((unit, unit, 1),))
            else:
                return self._zero
        # looked up on B at call time, so a wrapper on the class sees every call
        fn = getattr(B, node.method)
        lnode, rnode = node.left, node.right
        lslot, rslot = lnode.slot, rnode.slot
        # (terms, coefficient) of every coeff * c1 * c2 * fn(k1, k2); a factor 1 is not multiplied
        parts: list[tuple[dict[Monomial, int | Fraction], int | Fraction]] = []
        for combo in iter_product(*options):
            left, right, weights = zip(*combo)
            # routing hands a leaf the unit monomial in every slot but its own,
            # so its value is its own slot's monomial at coefficient 1
            if lslot is None:
                lv = self._eval(lnode, left).terms
                if not lv:
                    continue
                litems = lv.items()
            else:
                litems = ((left[lslot], 1),)
            if rslot is None:
                rv = self._eval(rnode, right).terms
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
                    entry = fn(k1, k2)
                    parts.append((entry.terms, c1 if c2 == 1 else c1 * c2))
        if len(parts) == 1 and parts[0][1] == 1:
            # one memoized entry at coefficient 1: the value is that entry, shared
            return entry if entry.terms else self._zero
        acc = sum_into({}, parts)
        return SymElement.of_terms(B.dim, acc) if acc else self._zero

    def on_elements(self, word: LoopWord, args: Sequence[SymElement]) -> SymElement:
        if len(args) != self.nvars:
            raise ValueError(f"{self.nvars} arguments expected, got {len(args)}")
        node = self._node(word)
        acc: dict[Monomial, Fraction] = {}
        for combo in iter_product(*(a.terms.items() for a in args)):
            monos = tuple(m for m, _ in combo)
            if sum(map(monomial_degree, monos)) > self.B.N:
                continue
            coeff = 1
            for _, c in combo:
                coeff *= c
            add_into(acc, self._eval(node, monos).terms, coeff)
        return _fractions(SymElement.of_terms(self.B.dim, acc))


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
    fail.  Comparisons are exact and the first mismatch is reported with
    enough data to replay it.  `samples` must be an int >= 0; otherwise ValueError.
    """
    if type(samples) is not int or samples < 0:
        raise ValueError(f"samples must be an int >= 0, got {samples!r}")
    ev = LinearizedEvaluator(bialgebra, identity.nvars)
    dim, N = bialgebra.dim, bialgebra.N

    # budget -> the monomials of degree <= budget, in `monomials_up_to` order
    pools = [_monomial_pool(dim, budget) for budget in range(N + 1)]

    def tuples_of_total(slots: int, budget: int) -> Iterator[MonoTuple]:
        if slots == 1:
            for mono in pools[budget]:
                yield (mono,)
            return
        for head in pools[budget]:
            for rest in tuples_of_total(slots - 1, budget - monomial_degree(head)):
                yield (head,) + rest

    # every swept tuple has nvars slots and total degree <= N, so the sweep
    # compares the evaluator's memoized kernel values directly
    lhs_node, rhs_node = ev._node(identity.lhs), ev._node(identity.rhs)
    for monos in tuples_of_total(identity.nvars, N):
        lhs = ev._eval(lhs_node, monos)
        rhs = ev._eval(rhs_node, monos)
        if lhs != rhs:
            witness = {
                "kind": "monomials",
                "monomials": [list(m) for m in monos],
                "lhs": lhs.to_json(),
                "rhs": rhs.to_json(),
            }
            return LinearizedVerdict(False, seed, samples, N, witness)
    rng = random.Random(seed)
    sample_degree = min(3, N - 1)
    for index in range(samples):
        args = [random_distribution(rng, dim, sample_degree) for _ in range(identity.nvars)]
        lhs = ev.on_elements(identity.lhs, args)
        rhs = ev.on_elements(identity.rhs, args)
        if lhs != rhs:
            witness = {
                "kind": "random",
                "sample_index": index,
                "arguments": [a.to_json() for a in args],
                "lhs": lhs.to_json(),
                "rhs": rhs.to_json(),
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
    for dmu in range(0, N + 1):
        for dnu in range(0, N - dmu + 1):
            for mu in monomials(dim, dmu):
                for nu in monomials(dim, dnu):
                    acc: dict[Monomial, Fraction] = {}
                    for m1, m2, coeff in monomial_splits(mu):
                        inner = prol.at((m2, nu)).truncate(N)
                        add_into(acc, b_times.mul(b_times.key_element(m1), inner).terms, coeff)
                    lhs = SymElement.of_terms(dim, acc)
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
            for i in range(1, n - 1):
                block: dict[MonoTuple, SparseVector] = {}
                for mx in monomials(dim, i):
                    for my in monomials(dim, n - i):
                        value = to_sparse(dim, ops.multioperator_mono(mx, my))
                        add_into(value, self.tables.get((mx, my), {}), -1)
                        if value:
                            block[(mx, my)] = value
                if block:
                    comps[(i, n - i)] = block
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
    N = bialgebra.N
    ops = dist_su_ops(bialgebra)
    out: dict[tuple[Monomial, Monomial], Vector] = {}
    for i in range(1, N - 1):
        for j in range(2, N - i + 1):
            for mx in monomials(bialgebra.dim, i):
                for my in monomials(bialgebra.dim, j):
                    value = ops.multioperator_mono(mx, my)
                    if any(value):
                        out[(mx, my)] = value
    return out


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
    all monomials of degree <= m.
    """
    if max_degree > bialgebra.N:
        raise ValueError(f"degree {max_degree} beyond the truncation {bialgebra.N}")
    dim = bialgebra.dim
    products: dict[tuple[int, ...], SymElement] = {(): bialgebra.key_element(unit_monomial(dim))}
    for k in range(1, max_degree + 1):
        for idx in combinations_with_replacement(range(dim), k):
            letter = bialgebra.key_element(basis_monomial(dim, idx[-1]))
            products[idx] = bialgebra.mul(products[idx[:-1]], letter)

    verdict = PbwVerdict(holds=True)
    for m in range(0, max_degree + 1):
        basis = list(monomials_up_to(dim, m))
        basis_index = {mono: i for i, mono in enumerate(basis)}
        rows = []
        for idx, elem in products.items():
            if len(idx) > m:
                continue
            row = [0] * len(basis)
            for mono, coeff in elem.terms.items():
                if monomial_degree(mono) <= m:
                    row[basis_index[mono]] = coeff
            rows.append(row)
        expected = sum(sym_dim(dim, i) for i in range(m + 1))
        got = _rank(rows)
        verdict.ranks[m] = (got, expected)
        if got != expected:
            verdict.holds = False
    return verdict
