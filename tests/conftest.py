"""Shared fixtures, dense-vector helpers and hypothesis strategies of the test suite."""

from fractions import Fraction
from itertools import combinations, product as iter_product
from math import comb, factorial, prod

import pytest
from hypothesis import Phase
from hypothesis import strategies as st

from nonassoc import su_ops
from nonassoc.catalog import builtin_loop
from nonassoc.dist import DistBialgebra
from nonassoc.lincomb import add_into
from nonassoc.maps import FormalMap, multidegree_of
from nonassoc.scalars import ONE, basis_vector, to_dense, to_sparse, zero_vector
from nonassoc.symalg import (
    SymElement, monomial_degree, monomial_letters, monomial_splits, monomials_up_to,
)
from nonassoc.words import LDiv, Mul, RDiv, Unit, Var

# dense vectors (length-dim tuples of Fractions), as the public API returns them


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_scale(c: Fraction, a):
    return tuple(c * x for x in a)


def vec_is_zero(a) -> bool:
    return all(x == 0 for x in a)


# small rationals, vectors of the plane, and the structure constants of a
# random 2-dimensional algebra (the input of `loop_from_algebra`)
rationals = st.fractions(min_value=-2, max_value=2, max_denominator=3)
plane = st.tuples(rationals, rationals)
plane_structure_constants = st.tuples(st.tuples(plane, plane), st.tuples(plane, plane))

# every phase but shrinking, for properties whose examples are slow: a failure
# is reported as first found, in seconds rather than minutes
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


# the full-image composition: every ordered split of every monomial tuple,
# each part through the full prolongation `Prolongation.at`, nothing pruned


def _ordered_splits(monos, parts):
    """Ordered splits of a monomial tuple into `parts` sub-tuples, with binomial weights."""
    if parts == 1:
        yield (monos,), 1
        return
    for combo in iter_product(*(monomial_splits(mono) for mono in monos)):
        head = tuple(split[0] for split in combo)
        rest = tuple(split[1] for split in combo)
        for tail, weight in _ordered_splits(rest, parts - 1):
            yield (head,) + tail, prod(split[2] for split in combo) * weight


def reference_compose(G, thetas):
    """G(theta_1, ..., theta_m), to compare with `maps.compose`."""
    dims, N = thetas[0].dims, G.N
    prols = [theta.prolongation() for theta in thetas]
    comps = {}
    for monos in iter_product(*(list(monomials_up_to(d, N)) for d in dims)):
        if not 1 <= sum(multidegree_of(monos)) <= N:
            continue
        value = {}
        for parts, weight in _ordered_splits(monos, len(thetas)):
            add_into(value, G.on_elements([p.at(part) for p, part in zip(prols, parts)]), weight)
        if value:
            comps.setdefault(multidegree_of(monos), {})[monos] = to_dense(G.target_dim, value)
    return FormalMap(dims, G.target_dim, N, comps)


# the similarity recursion that installed prescribed multioperators before the
# graded solve of `dist._PsiBuilder`: Psi polarized in both slots, on the
# coalgebra level, and the product x times y = sum x_(1) . Psi(x_(2), y)


class ReferencePsiBuilder:
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

    def __init__(self, bialgebra, phi):
        self.B = bialgebra
        self.phi = phi
        self._psi = {}
        self._mono_pow = {}
        self._pp = {}
        self._powers = {}
        self._sym_powers = {}

    def dist_power(self, v, m):
        key = (v, m)
        hit = self._powers.get(key)
        if hit is None:
            if m == 0:
                hit = self.B.one()
            else:
                hit = self.B.mul(self.dist_power(v, m - 1), SymElement.from_vector(v))
            self._powers[key] = hit
        return hit

    def sym_power(self, v, m):
        key = (v, m)
        hit = self._sym_powers.get(key)
        if hit is None:
            if m == 0:
                hit = self.B.one()
            else:
                hit = (self.sym_power(v, m - 1) * SymElement.from_vector(v)).truncate(self.B.N)
            self._sym_powers[key] = hit
        return hit

    def _phi_on_powers(self, c, i, v, j):
        """Phi tables at the pair of symmetric powers (c^i, v^j)."""
        acc = {}
        if i >= 1 and j >= 2:
            for mx, cx in self.sym_power(c, i).terms.items():
                for my, cy in self.sym_power(v, j).terms.items():
                    value = self.phi(mx, my)
                    if value:
                        add_into(acc, value, cx * cy)
        return SymElement.from_sparse(self.B.dim, acc)

    # -- the recursion on pairs of powers -------------------------------------
    def psi_pp(self, c, s, v, m):
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
        acc = {}
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
                        mid = B.mul(self.dist_power(c, k2), inner)
                        tail = -self._phi_on_powers(c, k4, v, j)
                        if k4 == 0 and l == m - 1:
                            tail = tail + v_elem
                        if tail.is_zero():
                            continue
                        piece = B.mul(mid, tail)
                        if piece.is_zero():
                            continue
                        value = su_ops.divide(B, self.dist_power(c, k1), piece, "left")
                        add_into(acc, value.terms, weight)
        result = SymElement.of_terms(B.dim, acc).truncate(B.N)
        self._pp[key] = result
        return result

    # -- polarization in the first slot ----------------------------------------
    def psi_mono_pow(self, x_mono, v, m):
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
        acc = {}
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
    def psi(self, x_mono, y_mono):
        dy = monomial_degree(y_mono)
        if dy == 0:
            if monomial_degree(x_mono) == 0:
                return self.B.one()
            return SymElement.zero(self.B.dim)
        if dy == 1:
            if monomial_degree(x_mono) == 0:
                return self.B.key_element(y_mono)
            return SymElement.zero(self.B.dim)
        key = (x_mono, y_mono)
        hit = self._psi.get(key)
        if hit is not None:
            return hit
        letters = monomial_letters(y_mono)
        m = len(letters)
        acc = {}
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



def reference_similar_product(bialgebra, tables):
    """The product with the prescribed multioperator `tables` ({(mx, my): dense vector}),
    by `ReferencePsiBuilder`, to compare with `dist.make_similar_product`."""
    dim, N = bialgebra.dim, bialgebra.N
    sparse = {key: to_sparse(dim, value) for key, value in tables.items()}
    builder = ReferencePsiBuilder(bialgebra, lambda mx, my: sparse.get((mx, my)))

    def product_fn(m1, m2):
        acc = {}
        for a, b, coeff in monomial_splits(m1):
            inner = builder.psi(b, m2)
            if not inner.is_zero():
                add_into(acc, bialgebra.mul(bialgebra.key_element(a), inner).terms, coeff)
        return SymElement.of_terms(dim, acc).truncate(N)

    return DistBialgebra(dim, N, product_fn)


# the linearized evaluator without its shortcuts: every slot is split by the
# coproduct at every node, and the children's values are combined with the
# bilinear `B.product` / `B.divide`


def reference_linearized(B, word, monos, memo=None):
    """The value of `word`'s linearization on a monomial tuple, to compare with
    `LinearizedEvaluator.on_monomials`."""
    memo = {} if memo is None else memo
    key = (word, monos)
    if key in memo:
        return memo[key]
    match word:
        case Var(index):
            rest = [m for k, m in enumerate(monos) if k != index - 1]
            out = SymElement.zero(B.dim)
            if all(monomial_degree(m) == 0 for m in rest):
                out = SymElement(B.dim, {monos[index - 1]: ONE})
        case Unit():
            out = B.one() if all(monomial_degree(m) == 0 for m in monos) else SymElement.zero(B.dim)
        case Mul(a, b) | LDiv(a, b) | RDiv(a, b):
            out = SymElement.zero(B.dim)
            for combo in iter_product(*(monomial_splits(m) for m in monos)):
                lv = reference_linearized(B, a, tuple(x for x, _, _ in combo), memo)
                rv = reference_linearized(B, b, tuple(x for _, x, _ in combo), memo)
                if isinstance(word, Mul):
                    value = B.product(lv, rv)
                else:
                    value = B.divide(lv, rv, "left" if isinstance(word, LDiv) else "right")
                out = out + value.scale(prod(w for _, _, w in combo))
    out = out.truncate(B.N)
    memo[key] = out
    return out


# every bracket on basis tuples evaluated directly, mirrored pairs included, to
# compare with the tables of `su_ops.basis_bracket_table`


def reference_bracket_table(dim, arity, entry):
    """{(i_1 .. i_m, j, k): entry([e_{i_1} .. e_{i_m}], e_j, e_k)} on every basis tuple."""
    table = {}
    for idx in iter_product(range(dim), repeat=arity + 2):
        xs = [basis_vector(dim, i) for i in idx[:arity]]
        table[idx] = entry(xs, basis_vector(dim, idx[-2]), basis_vector(dim, idx[-1]))
    return table


# the covariant derivative by its literal formula, through the public dense
# API: the four-fold coproduct as nested splits, and the pulled-back vector
# mu_(3) \* B(mu_(4)) recomputed for every split


def _four_splits(mono):
    for a, rest1, c1 in monomial_splits(mono):
        for b, rest2, c2 in monomial_splits(rest1):
            for c, d, c3 in monomial_splits(rest2):
                yield a, b, c, d, c1 * c2 * c3


def _times_basis(mono, i):
    return mono[:i] + (mono[i] + 1,) + mono[i + 1:]


def reference_covariant_derivative(conn, a, b, mono):
    """nabla_A(B)(mono) = sum B(mu_(1) A(mu_(2))) - (mu_(1) A(mu_(2))) * (mu_(3) \\* B(mu_(4)))."""
    out = zero_vector(conn.dim)
    for m1, m2, coeff in monomial_splits(mono):
        for i, c in enumerate(a.at(m2)):
            if c:
                out = vec_add(out, vec_scale(coeff * c, b.at(_times_basis(m1, i))))
    for m1, m2, m3, m4, coeff in _four_splits(mono):
        pulled = conn.inv_star_vec(m3, b.at(m4))
        for i, c in enumerate(a.at(m2)):
            if c:
                out = vec_add(out, vec_scale(-coeff * c, conn.star_vec(_times_basis(m1, i), pulled)))
    return out


@pytest.fixture(scope="session")
def jordan_loop_4():
    return builtin_loop("jordan-k3-loop", 4)


@pytest.fixture(scope="session")
def jordan_loop_5():
    return builtin_loop("jordan-k3-loop", 5)


@pytest.fixture(scope="session")
def jordan_bialgebra_4(jordan_loop_4):
    return DistBialgebra.from_loop(jordan_loop_4)


@pytest.fixture(scope="session")
def jordan_bialgebra_5(jordan_loop_5):
    return DistBialgebra.from_loop(jordan_loop_5)


@pytest.fixture(scope="session")
def octonion_loop_4():
    return builtin_loop("split-octonion-loop", 4)


@pytest.fixture(scope="session")
def octonion_bialgebra_4(octonion_loop_4):
    return DistBialgebra.from_loop(octonion_loop_4)


@pytest.fixture(scope="session")
def nonlinear_loop_5():
    return builtin_loop("nonlinear-f-loop", 5)


@pytest.fixture(scope="session")
def xsqy_loop_6():
    return builtin_loop("x-squared-y-loop", 6)


@pytest.fixture(scope="session")
def dual_loop_4():
    return builtin_loop("dual-numbers-loop", 4)


@pytest.fixture(scope="session")
def spin_loop_6():
    return builtin_loop("jordan-spin-loop", 6)


@pytest.fixture(scope="session")
def spin_bialgebra_6(spin_loop_6):
    return DistBialgebra.from_loop(spin_loop_6)
