"""The bialgebra of distributions of a formal loop.

The coalgebra k[V] acquires a product by prolonging a loop F: on monomial
pairs the product is F'(mu (x) nu), extended bilinearly and truncated at
the loop's degree.  `DistBialgebra` implements the `su_ops` contract on
monomials and owns every memo the engine fills: left and right divisions
are the counit recursions of `su_ops`, the primitive operations and
brackets are evaluated with these, and a prescribed multioperator can be
installed on the same coalgebra by the similarity recursion without
disturbing the brackets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product as iter_product
from math import comb, factorial
from typing import Callable, Iterator, Sequence

from . import su_ops
from .lincomb import add_into, bilinear
from .maps import FormalLoop, InvariantError, MonoTuple, SimilarityMap
from .scalars import ONE, SparseVector, Vector, basis_vector, format_rational, to_sparse
from .symalg import (
    Monomial,
    SymElement,
    basis_monomial,
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
        """
        self = cls(loop.dim, loop.N, None, loop)  # type: ignore[arg-type]
        dim, N = loop.dim, loop.N

        def product_fn(m1: Monomial, m2: Monomial) -> SymElement:
            total = monomial_degree(m1) + monomial_degree(m2)
            if total == 0:
                return self.one()
            acc = {basis_monomial(dim, j): c for j, c in loop._value((m1, m2)).items()}
            for a1, b1, c1 in monomial_splits(m1):
                for a2, b2, c2 in monomial_splits(m2):
                    if monomial_degree(a1) + monomial_degree(a2) == 0:
                        continue
                    if monomial_degree(b1) + monomial_degree(b2) == 0:
                        continue
                    front = loop._value((a1, a2))
                    if not front:
                        continue
                    # a tail term of degree d < N, divided by d + 1, times each e_j
                    tail = [
                        (mono, c / (monomial_degree(mono) + 1))
                        for mono, c in self.product_mono(b1, b2).terms.items()
                        if monomial_degree(mono) < N
                    ]
                    weight = c1 * c2
                    for j, fj in front.items():
                        add_into(
                            acc,
                            {mono[:j] + (mono[j] + 1,) + mono[j + 1 :]: c for mono, c in tail},
                            weight * fj,
                        )
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
    def _check_elem(self, a: SymElement) -> None:
        if a.dim != self.dim:
            raise ValueError(f"element dimension {a.dim} does not match bialgebra {self.dim}")

    def product(self, a: SymElement, b: SymElement) -> SymElement:
        self._check_elem(a)
        self._check_elem(b)
        return bilinear(self.product_mono, a, b)

    def divide(self, a: SymElement, b: SymElement, side: str) -> SymElement:
        self._check_elem(a)
        self._check_elem(b)
        return su_ops.divide(self, a, b, side)

    # -- element helpers ----------------------------------------------------------
    def one(self) -> SymElement:
        return SymElement.one(self.dim)

    def basis(self, index: int) -> SymElement:
        return SymElement.basis(self.dim, index)

    def element(self, value: SymElement) -> "DistElement":
        return DistElement(self, value)

    # -- the su_ops contract ------------------------------------------------------
    key_degree = staticmethod(monomial_degree)

    # The methods below look up product, product_mono, ldiv_mono, rdiv_mono
    # and monomial_splits at call time, so a wrapper installed on those names
    # (perfbench/tracer.py) sees every call; a class-level alias would not.
    def mul(self, a: SymElement, b: SymElement) -> SymElement:
        return self.product(a, b)

    def is_primitive(self, a: SymElement) -> bool:
        return all(monomial_degree(m) == 1 for m in a.terms)

    def key_element(self, mono: Monomial) -> SymElement:
        return SymElement.of_terms(self.dim, {mono: ONE})

    def key_coproduct(self, mono: Monomial):
        return monomial_splits(mono)

    def key_product(self, m1: Monomial, m2: Monomial):
        return self.product_mono(m1, m2).terms

    def key_ldiv(self, m1: Monomial, m2: Monomial) -> SymElement:
        return self.ldiv_mono(m1, m2)

    def key_rdiv(self, m1: Monomial, m2: Monomial) -> SymElement:
        return self.rdiv_mono(m1, m2)


@dataclass(frozen=True)
class DistElement:
    """A distribution tagged with its bialgebra; operators check the tag."""

    bialgebra: DistBialgebra
    value: SymElement

    def _check(self, other: "DistElement") -> None:
        if self.bialgebra is not other.bialgebra:
            raise ValueError("distributions live in different bialgebras")

    def __add__(self, other: "DistElement") -> "DistElement":
        self._check(other)
        return DistElement(self.bialgebra, self.value + other.value)

    def __sub__(self, other: "DistElement") -> "DistElement":
        self._check(other)
        return DistElement(self.bialgebra, self.value - other.value)

    def __mul__(self, other: "DistElement") -> "DistElement":
        self._check(other)
        return DistElement(self.bialgebra, self.bialgebra.product(self.value, other.value))

    def scale(self, c) -> "DistElement":
        return DistElement(self.bialgebra, self.value.scale(c))

    def ldiv(self, other: "DistElement") -> "DistElement":
        self._check(other)
        return DistElement(self.bialgebra, self.bialgebra.divide(self.value, other.value, "left"))

    def rdiv(self, other: "DistElement") -> "DistElement":
        self._check(other)
        return DistElement(self.bialgebra, self.bialgebra.divide(self.value, other.value, "right"))

    def counit(self) -> Fraction:
        return self.value.counit()

    def primitive_part(self) -> Vector:
        return self.value.primitive_part()

    def is_primitive(self) -> bool:
        return self.bialgebra.is_primitive(self.value)


class DistSUOps:
    """Evaluator for the primitive operations in a distribution bialgebra."""

    def __init__(self, bialgebra: DistBialgebra):
        self.bialgebra = bialgebra

    def _coerce(self, x) -> SymElement:
        if isinstance(x, DistElement):
            if x.bialgebra is not self.bialgebra:
                raise ValueError("distribution from a different bialgebra")
            return x.value
        if isinstance(x, SymElement):
            return x
        return SymElement.from_vector(tuple(Fraction(v) for v in x))

    def p(self, xs: Sequence, ys: Sequence, z) -> DistElement:
        value = su_ops.p_operation(
            self.bialgebra, [self._coerce(x) for x in xs], [self._coerce(y) for y in ys], self._coerce(z)
        )
        return DistElement(self.bialgebra, value)

    def bracket(self, xs: Sequence, y, z) -> DistElement:
        value = su_ops.bracket(
            self.bialgebra, [self._coerce(x) for x in xs], self._coerce(y), self._coerce(z)
        )
        return DistElement(self.bialgebra, value)

    def bracket_vector(self, xs: Sequence, y, z) -> Vector:
        """The bracket as an element of V; raises if it fails to be primitive."""
        value = self.bracket(xs, y, z)
        if not value.is_primitive():
            raise InvariantError(f"bracket value is not primitive: {value.value!r}")
        return value.primitive_part()

    def multioperator(self, xs: Sequence, ys: Sequence) -> DistElement:
        value = su_ops.multioperator(
            self.bialgebra, [self._coerce(x) for x in xs], [self._coerce(y) for y in ys]
        )
        return DistElement(self.bialgebra, value)

    def multioperator_mono(self, mx: Monomial, my: Monomial) -> Vector:
        """Distribution-view multioperator table entry at a monomial pair.

        Equals the multilinear multioperator at the basis multisets of the
        two monomials (the symmetrizations collapse on repeated letters).
        """
        xs = [basis_vector(self.bialgebra.dim, i) for i in monomial_letters(mx)]
        ys = [basis_vector(self.bialgebra.dim, i) for i in monomial_letters(my)]
        value = self.multioperator([self._coerce(x) for x in xs], [self._coerce(y) for y in ys])
        if not value.is_primitive():
            raise InvariantError("multioperator value is not primitive")
        return value.primitive_part()


def dist_su_ops(bialgebra: DistBialgebra) -> DistSUOps:
    return DistSUOps(bialgebra)


def su_bracket_table(bialgebra: DistBialgebra, arity: int) -> dict[tuple[int, ...], Vector]:
    """All brackets <e_{i_1} .. e_{i_m}; e_j, e_k> on basis tuples."""
    if arity < 0:
        raise ValueError(f"bracket arity must be >= 0, got {arity}")
    if arity + 2 > bialgebra.N:
        raise ValueError(f"bracket arity {arity} needs degree {arity + 2} <= {bialgebra.N}")
    ops = dist_su_ops(bialgebra)
    dim = bialgebra.dim
    table: dict[tuple[int, ...], Vector] = {}
    for idx in iter_product(range(dim), repeat=arity + 2):
        xs = [basis_vector(dim, i) for i in idx[:arity]]
        table[idx] = ops.bracket_vector(xs, basis_vector(dim, idx[-2]), basis_vector(dim, idx[-1]))
    return table


# -- linearized identities ------------------------------------------------------------


class LinearizedEvaluator:
    """Evaluates word linearizations on tuples of distributions.

    The recursion mirrors the word structure: each binary node splits the
    argument slots by the coproduct, routes the halves to its children and
    combines with the bialgebra product or division.  A subword kills any
    content in slots whose variable it does not use (its formal map does
    not depend on them), so only slots shared by both children are split
    in earnest; the rest are routed whole or force the term to vanish.
    Values on monomial tuples are memoized per evaluator.
    """

    def __init__(self, bialgebra: DistBialgebra, nvars: int):
        self.B = bialgebra
        self.nvars = nvars
        self._memo: dict[tuple[LoopWord, MonoTuple], SymElement] = {}
        self._vars: dict[LoopWord, set[int]] = {}

    def _used_vars(self, word: LoopWord) -> set[int]:
        hit = self._vars.get(word)
        if hit is None:
            hit = word_variables(word)
            self._vars[word] = hit
        return hit

    def on_monomials(self, word: LoopWord, monos: MonoTuple) -> SymElement:
        key = (word, monos)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        B = self.B
        match word:
            case Var(index):
                if all(monomial_degree(m) == 0 for k, m in enumerate(monos) if k != index - 1):
                    out = SymElement.of_terms(B.dim, {monos[index - 1]: ONE})
                else:
                    out = SymElement.zero(B.dim)
            case Unit():
                if all(monomial_degree(m) == 0 for m in monos):
                    out = B.one()
                else:
                    out = SymElement.zero(B.dim)
            case Mul(a, b) | LDiv(a, b) | RDiv(a, b):
                out = self._binary(word, a, b, monos)
            case _:
                raise TypeError(f"not a loop word: {word!r}")
        out = out.truncate(B.N)
        self._memo[key] = out
        return out

    def _binary(self, word: LoopWord, a: LoopWord, b: LoopWord, monos: MonoTuple) -> SymElement:
        B = self.B
        unit = unit_monomial(B.dim)
        vars_a = self._used_vars(a)
        vars_b = self._used_vars(b)
        options: list[list[tuple[Monomial, Monomial, int]]] = []
        for k, mono in enumerate(monos):
            var = k + 1
            in_a, in_b = var in vars_a, var in vars_b
            if in_a and in_b:
                options.append(monomial_splits(mono))
            elif in_a:
                options.append([(mono, unit, 1)])
            elif in_b:
                options.append([(unit, mono, 1)])
            elif monomial_degree(mono) == 0:
                options.append([(unit, unit, 1)])
            else:
                return SymElement.zero(B.dim)
        acc: dict[Monomial, Fraction] = {}
        for combo in iter_product(*options):
            left = tuple(x for x, _, _ in combo)
            right = tuple(x for _, x, _ in combo)
            coeff = 1
            for _, _, c in combo:
                coeff *= c
            lv = self.on_monomials(a, left)
            if lv.is_zero():
                continue
            rv = self.on_monomials(b, right)
            if rv.is_zero():
                continue
            if isinstance(word, Mul):
                val = B.product(lv, rv)
            elif isinstance(word, LDiv):
                val = B.divide(lv, rv, "left")
            else:
                val = B.divide(lv, rv, "right")
            add_into(acc, val.terms, coeff)
        return SymElement.of_terms(B.dim, acc)

    def on_elements(self, word: LoopWord, args: Sequence[SymElement]) -> SymElement:
        if len(args) != self.nvars:
            raise ValueError(f"{self.nvars} arguments expected, got {len(args)}")
        acc: dict[Monomial, Fraction] = {}
        for combo in iter_product(*(a.terms.items() for a in args)):
            monos = tuple(m for m, _ in combo)
            if sum(map(monomial_degree, monos)) > self.B.N:
                continue
            coeff = ONE
            for _, c in combo:
                coeff *= c
            add_into(acc, self.on_monomials(word, monos).terms, coeff)
        return SymElement.of_terms(self.B.dim, acc)


def random_distribution(
    rng: random.Random, dim: int, max_degree: int, max_terms: int = 4
) -> SymElement:
    """A sparse distribution with small integer coefficients, for sampling."""
    pool = list(monomials_up_to(dim, max_degree))
    terms: dict[Monomial, Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
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
    identity: Identity,
    bialgebra: DistBialgebra,
    samples: int = 25,
    seed: int = 0,
    exhaustive_degree: int = 4,
) -> LinearizedVerdict:
    """Compare the two word linearizations in a distribution bialgebra.

    Deterministic sweep over all monomial tuples of total degree up to
    exhaustive_degree (capped by the truncation), then seeded sparse random
    distributions of degree <= min(3, N - 1), evaluated on their monomial
    tuples of total degree <= N only: above N the truncated product has
    lost the loop components it would need.  Comparisons are exact and the
    first mismatch is reported with enough data to replay it.
    """
    ev = LinearizedEvaluator(bialgebra, identity.nvars)
    dim, N = bialgebra.dim, bialgebra.N
    sweep_cap = min(exhaustive_degree, N)
    unit = unit_monomial(dim)

    def tuples_of_total(total: int) -> Iterator[MonoTuple]:
        def rec(slots: int, budget: int) -> Iterator[MonoTuple]:
            if slots == 1:
                for mono in monomials_up_to(dim, budget):
                    yield (mono,)
                return
            for head in monomials_up_to(dim, budget):
                used = monomial_degree(head)
                for rest in rec(slots - 1, budget - used):
                    yield (head,) + rest

        yield from rec(identity.nvars, total)

    for monos in tuples_of_total(sweep_cap):
        lhs = ev.on_monomials(identity.lhs, monos)
        rhs = ev.on_monomials(identity.rhs, monos)
        if lhs != rhs:
            witness = {
                "kind": "monomials",
                "monomials": [list(m) for m in monos],
                "lhs": lhs.to_json(),
                "rhs": rhs.to_json(),
            }
            return LinearizedVerdict(False, seed, samples, sweep_cap, witness)
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
            return LinearizedVerdict(False, seed, samples, sweep_cap, witness)
    return LinearizedVerdict(True, seed, samples, sweep_cap)


# -- similarity invariance -------------------------------------------------------------


@dataclass
class InvarianceVerdict:
    holds: bool
    witness: dict | None = None


def brackets_invariance_check(
    b_times: DistBialgebra,
    b_dot: DistBialgebra,
    phi: SimilarityMap,
    linphi_degree: int = 3,
) -> InvarianceVerdict:
    """Check that two similar products share all low-arity brackets.

    First verifies the similarity equation sum mu_(1) x Phi'(mu_(2), nu)
    = mu . nu on monomials of degree up to linphi_degree, then compares
    every bracket on basis tuples of total degree up to min(5, N).
    """
    if (b_times.dim, b_times.N) != (b_dot.dim, b_dot.N):
        raise ValueError("bialgebras must share dimension and truncation")
    dim, N = b_times.dim, b_times.N
    prol = phi.prolongation()
    for dmu in range(0, linphi_degree + 1):
        for dnu in range(0, linphi_degree + 1):
            if dmu + dnu > N:
                continue
            for mu in monomials(dim, dmu):
                for nu in monomials(dim, dnu):
                    acc: dict[Monomial, Fraction] = {}
                    for m1, m2, coeff in SymElement(dim, {mu: ONE}).coproduct_terms():
                        inner = prol.at((m2, nu)).truncate(N)
                        add_into(acc, b_times.product(SymElement(dim, {m1: ONE}), inner).terms, coeff)
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
    max_arity = min(5, N) - 2
    for arity in range(0, max_arity + 1):
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

PhiTables = dict[tuple[Monomial, Monomial], Vector] | Callable[[Monomial, Monomial], Vector]


class _PsiBuilder:
    """The similarity Psi determined by a prescribed multioperator.

    Psi is pinned on pairs of powers of primitives by the recursion

        Psi(c^s, b^(m+1)) = sum c^k1 \\ ((c^k2 . Psi(c^k3, b^l))
                            . (eps-term - Phi_{k4, m+1-l}(c..c; b..b)))

    where the coproducts of both powers are taken in power form (the parts
    keep their factor multisets, which is what the prescribed multioperator
    consumes) and Phi tables are evaluated at symmetric powers.  Psi is
    extended to all of k[V] by polarization in both slots: symmetric-power
    monomials are rational combinations of symmetric powers of primitive
    vectors, and the symmetric power is the loop power minus a tail of
    lower degree that is peeled off by induction.
    """

    def __init__(self, bialgebra: DistBialgebra, phi: Callable[[Monomial, Monomial], SparseVector | None]):
        self.B = bialgebra
        self.phi = phi
        self._psi: dict[tuple[Monomial, Monomial], SymElement] = {}
        self._mono_pow: dict[tuple[Monomial, Vector, int], SymElement] = {}
        self._pp: dict[tuple[Vector, int, Vector, int], SymElement] = {}
        self._powers: dict[tuple[Vector, int], SymElement] = {}
        self._sym_powers: dict[tuple[Vector, int], SymElement] = {}

    def dist_power(self, v: Vector, m: int) -> SymElement:
        key = (v, m)
        hit = self._powers.get(key)
        if hit is None:
            if m == 0:
                hit = self.B.one()
            else:
                hit = self.B.product(self.dist_power(v, m - 1), SymElement.from_vector(v))
            self._powers[key] = hit
        return hit

    def sym_power(self, v: Vector, m: int) -> SymElement:
        key = (v, m)
        hit = self._sym_powers.get(key)
        if hit is None:
            if m == 0:
                hit = self.B.one()
            else:
                hit = (self.sym_power(v, m - 1) * SymElement.from_vector(v)).truncate(self.B.N)
            self._sym_powers[key] = hit
        return hit

    def _phi_on_powers(self, c: Vector, i: int, v: Vector, j: int) -> SymElement:
        """Phi tables at the pair of symmetric powers (c^i, v^j)."""
        acc: SparseVector = {}
        if i >= 1 and j >= 2:
            for mx, cx in self.sym_power(c, i).terms.items():
                for my, cy in self.sym_power(v, j).terms.items():
                    value = self.phi(mx, my)
                    if value:
                        add_into(acc, value, cx * cy)
        return SymElement.from_sparse(self.B.dim, acc)

    # -- the recursion on pairs of powers -------------------------------------
    def psi_pp(self, c: Vector, s: int, v: Vector, m: int) -> SymElement:
        """Psi(c^(.s), v^(.m)) with both arguments loop powers of primitives."""
        B = self.B
        if m == 0:
            return B.one() if s == 0 else SymElement.zero(B.dim)
        if m == 1:
            return SymElement.from_vector(v) if s == 0 else SymElement.zero(B.dim)
        if s == 0:
            return self.dist_power(v, m)
        key = (c, s, v, m)
        hit = self._pp.get(key)
        if hit is not None:
            return hit
        v_elem = SymElement.from_vector(v)
        acc: dict[Monomial, Fraction] = {}
        for l in range(m):
            y_weight = comb(m - 1, l)
            j = m - l  # y-block size of the Phi term
            for k1 in range(s + 1):
                for k2 in range(s + 1 - k1):
                    for k3 in range(s + 1 - k1 - k2):
                        k4 = s - k1 - k2 - k3
                        inner = self.psi_pp(c, k3, v, l)
                        if inner.is_zero():
                            continue
                        weight = (
                            y_weight
                            * factorial(s)
                            // (factorial(k1) * factorial(k2) * factorial(k3) * factorial(k4))
                        )
                        mid = B.product(self.dist_power(c, k2), inner)
                        tail = -self._phi_on_powers(c, k4, v, j)
                        if k4 == 0 and l == m - 1:
                            tail = tail + v_elem
                        if tail.is_zero():
                            continue
                        piece = B.product(mid, tail)
                        if piece.is_zero():
                            continue
                        value = B.divide(self.dist_power(c, k1), piece, "left")
                        add_into(acc, value.terms, weight)
        result = SymElement.of_terms(B.dim, acc).truncate(B.N)
        self._pp[key] = result
        return result

    # -- polarization in the first slot ----------------------------------------
    def psi_mono_pow(self, x_mono: Monomial, v: Vector, m: int) -> SymElement:
        """Psi(x, v^(.m)) for a monomial x, by polarizing the first slot."""
        s = monomial_degree(x_mono)
        if s == 0:
            return self.dist_power(v, m)
        if s == 1:
            c = tuple(Fraction(e) for e in x_mono)
            return self.psi_pp(c, 1, v, m)
        key = (x_mono, v, m)
        hit = self._mono_pow.get(key)
        if hit is not None:
            return hit
        letters = monomial_letters(x_mono)
        acc: dict[Monomial, Fraction] = {}
        for size in range(1, s + 1):
            sign = (-1) ** (s - size)
            for positions in combinations(range(s), size):
                u = [Fraction(0)] * self.B.dim
                for pos in positions:
                    u[letters[pos]] += 1
                u = tuple(u)
                # c^(.s) = c^s + tail of lower degree; peel the tail.
                top = self.psi_pp(u, s, v, m)
                tail = self.dist_power(u, s) - self.sym_power(u, s)
                for mono, coeff in tail.terms.items():
                    add_into(acc, self.psi_mono_pow(mono, v, m).terms, -sign * coeff)
                add_into(acc, top.terms, sign)
        result = SymElement.of_terms(self.B.dim, acc).scale(Fraction(1, factorial(s)))
        self._mono_pow[key] = result
        return result

    # -- polarization in the second slot -----------------------------------------
    def psi(self, x_mono: Monomial, y_mono: Monomial) -> SymElement:
        dy = monomial_degree(y_mono)
        if dy == 0:
            if monomial_degree(x_mono) == 0:
                return self.B.one()
            return SymElement.zero(self.B.dim)
        if dy == 1:
            if monomial_degree(x_mono) == 0:
                return SymElement.of_terms(self.B.dim, {y_mono: ONE})
            return SymElement.zero(self.B.dim)
        key = (x_mono, y_mono)
        hit = self._psi.get(key)
        if hit is not None:
            return hit
        letters = monomial_letters(y_mono)
        m = len(letters)
        acc: dict[Monomial, Fraction] = {}
        for size in range(1, m + 1):
            sign = (-1) ** (m - size)
            for positions in combinations(range(m), size):
                v = [Fraction(0)] * self.B.dim
                for pos in positions:
                    v[letters[pos]] += 1
                v = tuple(v)
                top = self.psi_mono_pow(x_mono, v, m)
                tail = self.dist_power(v, m) - self.sym_power(v, m)
                for mono, coeff in tail.terms.items():
                    add_into(acc, self.psi(x_mono, mono).terms, -sign * coeff)
                add_into(acc, top.terms, sign)
        result = SymElement.of_terms(self.B.dim, acc).scale(Fraction(1, factorial(m)))
        self._psi[key] = result
        return result


def make_similar_product(bialgebra: DistBialgebra, phi: PhiTables) -> DistBialgebra:
    """A product similar to the given one whose multioperator is the prescribed Phi.

    Phi is given in the distribution view, keyed by symmetric-power
    monomial pairs (x-degree >= 1, y-degree >= 2); block symmetry is
    automatic on that basis, so the reachable errors are bad dimensions
    or degrees.  The new product is x times y = sum x_(1) . Psi(x_(2), y)
    with Psi built by the polarization recursion; its brackets agree with
    the original ones.
    """
    dim, N = bialgebra.dim, bialgebra.N

    if callable(phi):
        def phi_fn(mx: Monomial, my: Monomial) -> SparseVector:
            return to_sparse(dim, phi(mx, my))
    else:
        tables: dict[tuple[Monomial, Monomial], SparseVector] = {}
        for (mx, my), value in phi.items():
            mx, my = tuple(mx), tuple(my)
            if len(mx) != dim or len(my) != dim:
                raise ValueError(f"multioperator key {(mx, my)} has wrong dimension")
            if monomial_degree(mx) < 1 or monomial_degree(my) < 2:
                raise ValueError(
                    f"multioperator blocks need x-degree >= 1 and y-degree >= 2, got {(mx, my)}"
                )
            if monomial_degree(mx) + monomial_degree(my) > N:
                raise ValueError(f"multioperator key {(mx, my)} beyond the truncation {N}")
            tables[(mx, my)] = to_sparse(dim, value)

        def phi_fn(mx: Monomial, my: Monomial) -> SparseVector | None:
            return tables.get((mx, my))

    builder = _PsiBuilder(bialgebra, phi_fn)

    def product_fn(m1: Monomial, m2: Monomial) -> SymElement:
        acc: dict[Monomial, Fraction] = {}
        for a, b, coeff in monomial_splits(m1):
            inner = builder.psi(b, m2)
            if inner.is_zero():
                continue
            add_into(acc, bialgebra.product(SymElement.of_terms(dim, {a: ONE}), inner).terms, coeff)
        return SymElement.of_terms(dim, acc).truncate(N)

    return DistBialgebra(dim, N, product_fn)


def su_multioperator_tables(bialgebra: DistBialgebra, max_degree: int | None = None) -> dict[tuple[Monomial, Monomial], Vector]:
    """Distribution-view multioperator tables of a bialgebra, up to a degree."""
    cap = bialgebra.N if max_degree is None else max_degree
    ops = dist_su_ops(bialgebra)
    out: dict[tuple[Monomial, Monomial], Vector] = {}
    for i in range(1, cap - 1):
        for j in range(2, cap - i + 1):
            for mx in monomials(bialgebra.dim, i):
                for my in monomials(bialgebra.dim, j):
                    value = ops.multioperator_mono(mx, my)
                    if any(value):
                        out[(mx, my)] = value
    return out


# -- the filtration rank check -----------------------------------------------------------


def _rank(rows: list[list[Fraction]]) -> int:
    """Rank of a list of rational rows by Gaussian elimination."""
    if not rows:
        return 0
    matrix = [row[:] for row in rows]
    ncols = len(matrix[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(matrix)):
            if matrix[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [x * inv for x in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
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

    def ordered_tuples(k: int) -> Iterator[tuple[int, ...]]:
        def rec(start: int, left: int) -> Iterator[tuple[int, ...]]:
            if left == 0:
                yield ()
                return
            for i in range(start, dim):
                for rest in rec(i, left - 1):
                    yield (i,) + rest

        yield from rec(0, k)

    products: dict[tuple[int, ...], SymElement] = {(): bialgebra.one()}
    for k in range(1, max_degree + 1):
        for idx in ordered_tuples(k):
            products[idx] = bialgebra.product(products[idx[:-1]], bialgebra.basis(idx[-1]))

    verdict = PbwVerdict(holds=True)
    for m in range(0, max_degree + 1):
        basis = list(monomials_up_to(dim, m))
        basis_index = {mono: i for i, mono in enumerate(basis)}
        rows = []
        for idx, elem in products.items():
            if len(idx) > m:
                continue
            row = [Fraction(0)] * len(basis)
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
