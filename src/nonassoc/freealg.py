"""The unital free non-associative algebra on named generators, truncated.

Monomials are leaf-labelled binary trees (the unit is the empty monomial);
elements are sparse maps from monomials to exact rationals.  A FreeAlgebra
context fixes the generator names and the truncation degree: every product
silently discards monomials above the truncation, which realizes the
completed algebra of non-associative power series at finite precision.

The coalgebra structure makes the generators primitive.  `FreeAlgebra`
implements the `su_ops` contract on monomials and owns the memos the
engine fills, so the divisions are the counit recursions of `su_ops`
(there is no antipode here) and the primitive operations come from the
same engine as in distribution bialgebras.  The exponential and logarithm
live in the coset 1 + (augmentation ideal).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import factorial
from typing import Iterable, Sequence

from . import su_ops
from .lincomb import LinComb, add_into
from .scalars import ONE, ZERO, format_rational, parse_rational, rat
from .trees import PlaneTree, enumerate_trees, tree_stats

# A monomial is None (the unit), an int (generator index), or a pair of
# monomials.  Tuples nest, so hashing and equality are structural.
FAMonomial = None | int | tuple


def mono_degree(mono: FAMonomial) -> int:
    if mono is None:
        return 0
    if isinstance(mono, int):
        return 1
    return mono_degree(mono[0]) + mono_degree(mono[1])


def mono_graft(a: FAMonomial, b: FAMonomial) -> FAMonomial:
    """Tree grafting; the unit is absorbed."""
    if a is None:
        return b
    if b is None:
        return a
    return (a, b)


def mono_encode(mono: FAMonomial, names: Sequence[str]) -> str:
    if mono is None:
        return "1"
    if isinstance(mono, int):
        return names[mono]
    return f"({mono_encode(mono[0], names)} {mono_encode(mono[1], names)})"


def mono_sort_key(mono: FAMonomial, names: Sequence[str]) -> tuple:
    return (mono_degree(mono), mono_encode(mono, names))


def mono_letter_counts(mono: FAMonomial, ngens: int) -> tuple[int, ...]:
    """Exponent vector of the underlying commutative monomial."""
    counts = [0] * ngens
    stack = [mono]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        if isinstance(node, int):
            counts[node] += 1
        else:
            stack.extend(node)
    return tuple(counts)


def mono_from_tree(tree: PlaneTree, gen: int = 0) -> FAMonomial:
    if tree.is_leaf:
        return gen
    return (mono_from_tree(tree.left, gen), mono_from_tree(tree.right, gen))


class FreeAlgebra:
    """Computation context: generator names plus the truncation degree."""

    def __init__(self, names: Sequence[str], max_degree: int):
        if max_degree < 1:
            raise ValueError(f"truncation degree must be >= 1, got {max_degree}")
        if len(set(names)) != len(names) or not names:
            raise ValueError(f"generator names must be distinct and non-empty: {names!r}")
        self.names = tuple(names)
        self.max_degree = max_degree
        self._coproduct_memo: dict[FAMonomial, tuple[tuple[FAMonomial, FAMonomial, Fraction], ...]] = {}
        self._ldiv_memo: dict[tuple[FAMonomial, FAMonomial], "FAElement"] = {}
        self._rdiv_memo: dict[tuple[FAMonomial, FAMonomial], "FAElement"] = {}
        self._p_memo: dict[tuple[FAMonomial, FAMonomial, FAMonomial], "FAElement"] = {}
        self._assoc_memo: dict[tuple[FAMonomial, FAMonomial, FAMonomial], "FAElement"] = {}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FreeAlgebra)
            and self.names == other.names
            and self.max_degree == other.max_degree
        )

    def __hash__(self):
        return hash((self.names, self.max_degree))

    def __repr__(self) -> str:
        return f"FreeAlgebra(names={self.names}, max_degree={self.max_degree})"

    # -- element constructors ------------------------------------------------
    def zero(self) -> "FAElement":
        return FAElement.of_terms(self, {})

    def one(self) -> "FAElement":
        return FAElement.of_terms(self, {None: ONE})

    def gen(self, index: int) -> "FAElement":
        if not 0 <= index < len(self.names):
            raise ValueError(f"generator index {index} out of range")
        return FAElement.of_terms(self, {index: ONE})

    def gens(self) -> tuple["FAElement", ...]:
        return tuple(self.gen(i) for i in range(len(self.names)))

    def element(self, terms: dict[FAMonomial, int | str | Fraction]) -> "FAElement":
        return FAElement(self, {m: rat(c) for m, c in terms.items()})

    # -- structural maps on monomials -----------------------------------------
    def mono_coproduct(self, mono: FAMonomial) -> tuple[tuple[FAMonomial, FAMonomial, Fraction], ...]:
        """Sweedler terms of the coproduct of a monomial (generators primitive)."""
        cached = self._coproduct_memo.get(mono)
        if cached is not None:
            return cached
        if mono is None:
            out: tuple = ((None, None, ONE),)
        elif isinstance(mono, int):
            out = ((mono, None, ONE), (None, mono, ONE))
        else:
            left, right = mono
            right_terms = self.mono_coproduct(right)
            acc: dict[tuple[FAMonomial, FAMonomial], Fraction] = {}
            for l1, l2, cl in self.mono_coproduct(left):
                add_into(
                    acc,
                    {(mono_graft(l1, r1), mono_graft(l2, r2)): cr for r1, r2, cr in right_terms},
                    cl,
                )
            out = tuple((a, b, c) for (a, b), c in acc.items())
        self._coproduct_memo[mono] = out
        return out

    def mono_ldiv(self, u: FAMonomial, v: FAMonomial) -> "FAElement":
        r"""Left division u \ v on monomials (`su_ops.ldiv_on_keys`); zero above the truncation."""
        if mono_degree(u) + mono_degree(v) > self.max_degree:
            return self.zero()
        return su_ops.ldiv_on_keys(self, u, v)

    def mono_rdiv(self, u: FAMonomial, v: FAMonomial) -> "FAElement":
        """Right division u / v on monomials (`su_ops.rdiv_on_keys`); zero above the truncation."""
        if mono_degree(u) + mono_degree(v) > self.max_degree:
            return self.zero()
        return su_ops.rdiv_on_keys(self, u, v)

    # -- the su_ops contract ----------------------------------------------------
    key_degree = staticmethod(mono_degree)

    # The methods below look up mono_coproduct, mono_ldiv and mono_rdiv at
    # call time, so a wrapper installed on those names (perfbench/tracer.py)
    # sees every call; a class-level alias would not.
    def mul(self, a: "FAElement", b: "FAElement") -> "FAElement":
        return a * b

    def is_primitive(self, a: "FAElement") -> bool:
        return a.is_primitive()

    def key_element(self, mono: FAMonomial) -> "FAElement":
        return FAElement.of_terms(self, {mono: ONE})

    def key_coproduct(self, mono: FAMonomial):
        return self.mono_coproduct(mono)

    def key_product(self, a: FAMonomial, b: FAMonomial) -> dict:
        if mono_degree(a) + mono_degree(b) > self.max_degree:
            return {}
        return {mono_graft(a, b): ONE}

    def key_ldiv(self, a: FAMonomial, b: FAMonomial) -> "FAElement":
        return self.mono_ldiv(a, b)

    def key_rdiv(self, a: FAMonomial, b: FAMonomial) -> "FAElement":
        return self.mono_rdiv(a, b)


class FAElement(LinComb):
    """A free non-associative polynomial, truncated by its context."""

    __slots__ = ("alg",)
    _space_attr = "alg"

    def __init__(self, alg: FreeAlgebra, terms: dict[FAMonomial, Fraction] | None = None):
        self.alg = alg
        clean: dict[FAMonomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            if coeff != 0 and mono_degree(mono) <= alg.max_degree:
                clean[mono] = Fraction(coeff)
        self.terms = clean

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        cap = self.alg.max_degree
        right = [(m2, mono_degree(m2), c2) for m2, c2 in other.terms.items()]
        terms: dict[FAMonomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            room = cap - mono_degree(m1)
            add_into(terms, {mono_graft(m1, m2): c2 for m2, d2, c2 in right if d2 <= room}, c1)
        return self._like(terms)

    def max_degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=0)

    def graded_piece(self, degree: int) -> "FAElement":
        return self._like({m: c for m, c in self.terms.items() if mono_degree(m) == degree})

    # -- coalgebra --------------------------------------------------------------
    def counit(self) -> Fraction:
        return self.terms.get(None, ZERO)

    def coproduct(self) -> "FATensor":
        terms: dict[tuple[FAMonomial, FAMonomial], Fraction] = {}
        for mono, coeff in self.terms.items():
            add_into(terms, {(a, b): w for a, b, w in self.alg.mono_coproduct(mono)}, coeff)
        return FATensor.of_terms(self.alg, terms)

    def is_primitive(self) -> bool:
        if self.is_zero():
            return True
        expected = FATensor.of(self, self.alg.one()) + FATensor.of(self.alg.one(), self)
        return self.coproduct() == expected

    # -- misc ---------------------------------------------------------------------
    def associative_collapse(self) -> dict[tuple[int, ...], Fraction]:
        """Image in the polynomial ring obtained by forgetting the tree shapes."""
        out: dict[tuple[int, ...], Fraction] = {}
        ngens = len(self.alg.names)
        for mono, coeff in self.terms.items():
            add_into(out, {mono_letter_counts(mono, ngens): coeff})
        return out

    def sorted_terms(self) -> list[tuple[FAMonomial, Fraction]]:
        return sorted(
            self.terms.items(), key=lambda mc: mono_sort_key(mc[0], self.alg.names)
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "FAElement(0)"
        bits = [
            f"{format_rational(c)}*{mono_encode(m, self.alg.names)}"
            for m, c in self.sorted_terms()
        ]
        return "FAElement(" + " + ".join(bits) + ")"

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono, coeff in self.sorted_terms():
            enc = mono_encode(mono, self.alg.names)
            if coeff == 1 and mono is not None:
                text = enc
            elif coeff == -1 and mono is not None:
                text = f"-{enc}"
            elif mono is None:
                text = format_rational(coeff)
            else:
                text = f"{format_rational(coeff)} {enc}"
            bits.append(text)
        out = bits[0]
        for bit in bits[1:]:
            out += f" - {bit[1:]}" if bit.startswith("-") else f" + {bit}"
        return out

    def to_json(self) -> list[dict]:
        return [
            {"monomial": mono_encode(m, self.alg.names), "coeff": format_rational(c)}
            for m, c in self.sorted_terms()
        ]

    @classmethod
    def from_json(cls, alg: FreeAlgebra, data: Iterable[dict]) -> "FAElement":
        terms: dict[FAMonomial, Fraction] = {}
        for item in data:
            mono = parse_fa_monomial(item["monomial"], alg.names)
            add_into(terms, {mono: parse_rational(item["coeff"])})
        return cls(alg, terms)


def parse_fa_monomial(text: str, names: Sequence[str]) -> FAMonomial:
    """Parse the canonical monomial encoding ("1", a name, or "(l r)")."""
    pos = 0
    by_name = {name: i for i, name in enumerate(names)}

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expr() -> FAMonomial:
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            raise ValueError(f"unexpected end of monomial at offset {pos}")
        if text[pos] == "(":
            pos += 1
            left = expr()
            right = expr()
            skip_ws()
            if pos >= len(text) or text[pos] != ")":
                raise ValueError(f"expected ')' at offset {pos} in monomial")
            pos += 1
            return (left, right)
        if text[pos] == "1":
            pos += 1
            return None
        for name, idx in by_name.items():
            if text.startswith(name, pos):
                pos += len(name)
                return idx
        raise ValueError(f"unknown generator at offset {pos} in monomial {text!r}")

    mono = expr()
    skip_ws()
    if pos != len(text):
        raise ValueError(f"trailing input at offset {pos} in monomial {text!r}")
    return mono


class FATensor(LinComb):
    """A sparse element of the tensor square of a free algebra."""

    __slots__ = ("alg",)
    _space_attr = "alg"

    def __init__(self, alg: FreeAlgebra, terms: dict[tuple[FAMonomial, FAMonomial], Fraction] | None = None):
        self.alg = alg
        cap = alg.max_degree
        clean: dict[tuple[FAMonomial, FAMonomial], Fraction] = {}
        for (a, b), coeff in (terms or {}).items():
            if coeff != 0 and mono_degree(a) <= cap and mono_degree(b) <= cap:
                clean[(a, b)] = Fraction(coeff)
        self.terms = clean

    @classmethod
    def of(cls, x: FAElement, y: FAElement) -> "FATensor":
        x._check(y)
        terms = {(m1, m2): c1 * c2 for m1, c1 in x.terms.items() for m2, c2 in y.terms.items()}
        return cls.of_terms(x.alg, terms)

    def __mul__(self, other: "FATensor") -> "FATensor":
        """Componentwise product (graft each side), truncating per component."""
        self._check(other)
        cap = self.alg.max_degree
        right = [
            (a2, b2, mono_degree(a2), mono_degree(b2), c2) for (a2, b2), c2 in other.terms.items()
        ]
        terms: dict[tuple[FAMonomial, FAMonomial], Fraction] = {}
        for (a1, b1), c1 in self.terms.items():
            room_a, room_b = cap - mono_degree(a1), cap - mono_degree(b1)
            add_into(
                terms,
                {
                    (mono_graft(a1, a2), mono_graft(b1, b2)): c2
                    for a2, b2, da, db, c2 in right
                    if da <= room_a and db <= room_b
                },
                c1,
            )
        return self._like(terms)

    def __repr__(self) -> str:
        return f"FATensor(nterms={len(self.terms)})"


# -- products, divisions, primitive forms -----------------------------------------


def fa_divide(u: FAElement, v: FAElement, side: str) -> FAElement:
    """Bilinear division in the free algebra; side is 'left' or 'right'."""
    u._check(v)
    return su_ops.divide(u.alg, u, v, side)


def fa_associator(x: FAElement, y: FAElement, z: FAElement) -> FAElement:
    return (x * y) * z - x * (y * z)


def fa_commutator(x: FAElement, y: FAElement) -> FAElement:
    return x * y - y * x


def p_operation(xs: Sequence[FAElement], ys: Sequence[FAElement], z: FAElement) -> FAElement:
    """The primitive operation p(x1..xm; y1..yn; z) in the free algebra."""
    return su_ops.p_operation(z.alg, xs, ys, z)


def su_bracket(xs: Sequence[FAElement], y: FAElement, z: FAElement) -> FAElement:
    return su_ops.bracket(y.alg, xs, y, z)


def su_multioperator(xs: Sequence[FAElement], ys: Sequence[FAElement]) -> FAElement:
    return su_ops.multioperator(ys[0].alg, xs, ys)


def su_multioperator_component(x: FAElement, y: FAElement, i: int, j: int) -> FAElement:
    """The bidegree-(i, j) polynomial component of the block-symmetric multioperator."""
    return su_ops.multioperator_component(x.alg, x, y, i, j)


# -- exponential and logarithm ---------------------------------------------------


def fa_exp(x: FAElement, base: FAElement | None = None) -> FAElement:
    """Left-normed exponential, optionally based at an invertible point.

    With no base this is 1 + X + X^2/2! + (X^2)X/3! + ... (powers grow on
    the right).  With base b (counit 1) it is the geodesic series
    b + X + X(b\\X)/2! + (X(b\\X))(b\\X)/3! + ...
    """
    if x.counit() != 0:
        raise ValueError("fa_exp needs a series with zero constant term")
    alg = x.alg
    if base is None:
        result = alg.one()
        step = x
    else:
        x._check(base)
        if base.counit() != 1:
            raise ValueError("fa_exp base must have counit 1")
        result = base
        step = fa_loop_divide(base, x, "left")
    term = x
    result = result + term
    for k in range(2, alg.max_degree + 1):
        term = term * step
        if term.is_zero():
            break
        result = result + term.scale(Fraction(1, factorial(k)))
    return result


def fa_loop_divide(a: FAElement, z: FAElement, side: str) -> FAElement:
    """Division in the multiplicative loop 1 + (augmentation ideal).

    For side 'left' returns the unique y with a*y = z, solved degree by
    degree from y = z - r*y where a = 1 + r; 'right' solves y*a = z.
    """
    a._check(z)
    if a.counit() != 1:
        raise ValueError("loop division needs a divisor with counit 1")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    alg = a.alg
    r = a - alg.one()
    y = z
    for _ in range(alg.max_degree + 1):
        nxt = z - (r * y if side == "left" else y * r)
        if nxt == y:
            break
        y = nxt
    return y


def fa_exp_inverse(g: FAElement) -> FAElement:
    """The series L with exp(L) = g, for g with counit 1, degree by degree."""
    if g.counit() != 1:
        raise ValueError("logarithm needs a series with counit 1")
    alg = g.alg
    lo = g - alg.one()
    result = lo
    for _ in range(2, alg.max_degree + 1):
        defect = g - fa_exp(result)
        if defect.is_zero():
            break
        result = result + defect
    return result


def fa_log(max_degree: int, method: str = "trees") -> FAElement:
    """log(1 + x) in one generator, to the requested degree.

    method 'trees' sums B_t / t! over all monomials t (tree shapes);
    method 'inversion' solves exp(L) = 1 + x degree by degree.  The two
    must agree, which the test suite pins.
    """
    alg = FreeAlgebra(("x",), max_degree)
    if method == "trees":
        terms: dict[FAMonomial, Fraction] = {}
        for degree in range(1, max_degree + 1):
            for tree in enumerate_trees(degree):
                bern, fact = tree_stats(tree)
                terms[mono_from_tree(tree)] = bern / fact
        return FAElement(alg, terms)
    if method == "inversion":
        return fa_exp_inverse(alg.one() + alg.gen(0))
    raise ValueError(f"unknown method {method!r}")


def is_primitive(x: FAElement) -> bool:
    return x.is_primitive()


def left_normed(factors: Sequence[FAElement]) -> FAElement:
    """((x1 x2) x3) ... xn; the empty product is 1."""
    if not factors:
        raise ValueError("left_normed needs at least one factor")
    return reduce(lambda a, b: a * b, factors)
