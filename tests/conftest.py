"""Shared fixtures, dense-vector helpers and hypothesis strategies of the test suite."""

from fractions import Fraction
from itertools import combinations, permutations, product as iter_product
from math import comb, factorial, prod

import pytest
from hypothesis import Phase
from hypothesis import strategies as st

from nonassoc import su_ops
from nonassoc.catalog import builtin_loop
from nonassoc.connection import FormalVectorField
from nonassoc.dist import DistBialgebra
from nonassoc.freealg import FAElement, FreeAlgebra, fa_exp, fa_loop_divide, mono_graft, mono_letter_counts
from nonassoc.lincomb import add_into
from nonassoc.maps import FormalMap, multidegree_of
from nonassoc.scalars import ONE, basis_vector, format_rational, to_dense, to_sparse, zero_vector
from nonassoc.symalg import (
    SymElement, monomial_degree, monomial_letters, monomial_splits, monomials_up_to,
)
from nonassoc.trees import bernoulli_number, enumerate_trees
from nonassoc.words import LDiv, Mul, RDiv, Unit, Var

# dense vectors (length-dim tuples of Fractions), as the public API returns them


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_scale(c: Fraction, a):
    return tuple(c * x for x in a)


def vec_is_zero(a) -> bool:
    return all(x == 0 for x in a)


def is_canonical(c) -> bool:
    """The package's inner coefficient form: a nonzero int, or a Fraction with denominator > 1."""
    return (type(c) is int or (type(c) is Fraction and c.denominator > 1)) and c != 0


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
                hit = self.B.product(self.dist_power(v, m - 1), SymElement.from_vector(v))
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
                return SymElement(self.B.dim, {y_mono: ONE})
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
                add_into(acc, bialgebra.product(SymElement(dim, {a: ONE}), inner).terms, coeff)
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


# the multioperator by its literal symmetrization: p on every one of the m! n!
# orderings of the two blocks, repeated orderings evaluated again


def reference_multioperator(alg, xs, ys):
    """(1/m! n!) sum over all permutations of p(x_t(1)..x_t(m); y_s(1)..y_s(n-1); y_s(n))."""
    acc = {}
    for tau in permutations(xs):
        for sigma in permutations(ys):
            add_into(acc, su_ops.p_operation(alg, list(tau), list(sigma[:-1]), sigma[-1]).terms)
    return ys[0]._like(acc).scale(Fraction(1, factorial(len(xs)) * factorial(len(ys))))


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


def reference_pulled(conn, b, mono):
    """sum mono_(1) \\* B(mono_(2)), the pulled-back vector, summed over every split."""
    out = zero_vector(conn.dim)
    for m1, m2, coeff in monomial_splits(mono):
        out = vec_add(out, vec_scale(coeff, conn.inv_star_vec(m1, b.at(m2))))
    return out


# the module structure of vector fields over functions.  A function is an
# element of the graded dual, a dict {monomial: coefficient}, 0 elsewhere; the
# fields built from one come in through `FormalVectorField.from_table`


def function_times_field(f, a):
    """(fA)(mu) = sum f(mu_(1)) A(mu_(2)); the module structure on fields."""
    table = {}
    for mono in monomials_up_to(a.dim, a.max_degree):
        value = zero_vector(a.dim)
        for m1, m2, coeff in monomial_splits(mono):
            if f.get(m1):
                value = vec_add(value, vec_scale(coeff * f[m1], a.at(m2)))
        table[mono] = value
    return FormalVectorField.from_table(a.dim, a.max_degree, table)


def field_applied_to_function(a, f):
    """A(f)(mu) = sum f(mu_(1) A(mu_(2))); the derivation action on functions."""
    table = {}
    for mono in monomials_up_to(a.dim, a.max_degree):
        value = Fraction(0)
        for m1, m2, coeff in monomial_splits(mono):
            for i, c in enumerate(a.at(m2)):
                value += coeff * c * f.get(_times_basis(m1, i), 0)
        table[mono] = value
    return table


# the free-algebra product as the literal double loop over term pairs, and the
# logarithm as the whole-series fixed-point iteration, to compare with the
# degree-graded `FAElement.__mul__` and `fa_exp_inverse`


def reference_fa_product(a, b):
    """a * b, grafting every pair of terms and dropping the grafts above the truncation."""
    alg = a.alg
    ngens = len(alg.names)
    terms = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            degree = sum(mono_letter_counts(m1, ngens)) + sum(mono_letter_counts(m2, ngens))
            if degree <= alg.max_degree:
                add_into(terms, {mono_graft(m1, m2): c1 * c2})
    return FAElement(alg, terms)


def reference_exp_inverse(g):
    """L with exp(L) = g: L = g - 1, then L += g - exp(L) on the whole series until it holds."""
    alg = g.alg
    result = g - alg.one()
    for _ in range(2, alg.max_degree + 1):
        defect = g - fa_exp(result)
        if defect.is_zero():
            break
        result = result + defect
    return result


# the geodesic multioperator as the fixed point of the literal series, to compare
# with `multioperator_ms`, which takes exp_a(a Phi) from `fa_exp` based at a


def reference_multioperator_ms(max_degree):
    """Phi with exp_a(a Phi) = a b: Phi = a \\ (a b - a - sum_k>=2 (a Phi) Phi..Phi / k!) until fixed."""
    alg = FreeAlgebra(("a", "b"), max_degree)
    alpha, beta = alg.gens()
    a = fa_exp(alpha)
    ab = a * fa_exp(beta)
    phi = beta
    for _ in range(max_degree):
        higher = alg.zero()
        term = a * phi
        for k in range(2, max_degree + 1):
            term = term * phi
            if term.is_zero():
                break
            higher = higher + term.scale(Fraction(1, factorial(k)))
        candidate = fa_loop_divide(a, ab - a - higher, "left")
        if candidate == phi:
            break
        phi = candidate
    return phi


# tree Bernoulli data as Fraction products over the left comb, and the tree
# Bernoulli sum as a plain Fraction sum, to compare with the int arithmetic of
# `tree_stats` and `bernoulli_tree_sum`


def reference_tree_stats(tree):
    """(B_t, t!), for t = (...((x t1) t2)...) tk the products B_k B_t1..B_tk and k! t1!..tk!."""
    comb = tree.left_comb()
    bern, fact = bernoulli_number(len(comb)), factorial(len(comb))
    for part in comb:
        b, f = reference_tree_stats(part)
        bern, fact = bern * b, fact * f
    return bern, fact


def reference_bernoulli_tree_sum(n):
    """The sum of B_t / t! over the trees t of degree n, one Fraction addition per tree."""
    total = Fraction(0)
    for tree in enumerate_trees(n):
        bern, fact = reference_tree_stats(tree)
        total += bern / fact
    return total


# the quotient of the free algebra by associativity and commutativity


def associative_collapse(elem):
    """The image of a free-algebra element in the polynomial ring: tree shapes forgotten."""
    out = {}
    for mono, coeff in elem.terms.items():
        add_into(out, {mono_letter_counts(mono, len(elem.alg.names)): coeff})
    return out


# a formal map written in the series view, which `FormalMap.from_json` reads as
# outside input: each value divided by the factorials of its exponents


def series_json(fmap):
    """`fmap.to_json()` with `"view": "series"` and every value `fmap.series_value`."""
    data = fmap.to_json()
    data["view"] = "series"
    for comp in data["components"]:
        for entry in comp["entries"]:
            value = fmap.series_value(tuple(map(tuple, entry["monomials"])))
            entry["value"] = [format_rational(c) for c in value]
    return data


# the flag checks as nested products of basis vectors through `AlgebraTable._mul`,
# to compare with the associator-table checks of `AlgebraTable`


def _basis(table):
    return [{i: ONE} for i in range(table.dim)]


def reference_is_associative(table) -> bool:
    basis = _basis(table)
    mul = table._mul
    for a, b, c in iter_product(basis, repeat=3):
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            return False
    return True


def reference_is_commutative(table) -> bool:
    basis = _basis(table)
    for a, b in iter_product(basis, repeat=2):
        if table._mul(a, b) != table._mul(b, a):
            return False
    return True


def reference_is_alternative(table) -> bool:
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


def reference_is_jordan(table) -> bool:
    # Commutativity plus the full polarization (cubic in the repeated slot)
    # of (x y) x^2 = x (y x^2) on basis 4-tuples.
    if not reference_is_commutative(table):
        return False
    basis = _basis(table)
    mul = table._mul
    for y in basis:
        for x1, x2, x3 in iter_product(basis, repeat=3):
            total = {}
            for p1, p2, p3 in permutations((x1, x2, x3)):
                p23 = mul(p2, p3)
                add_into(total, mul(mul(p1, y), p23))
                add_into(total, mul(p1, mul(y, p23)), -1)
            if total:
                return False
    return True


REFERENCE_FLAG_CHECKS = {
    "associative": reference_is_associative,
    "commutative": reference_is_commutative,
    "alternative": reference_is_alternative,
    "jordan": reference_is_jordan,
}


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
