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
from functools import lru_cache
from math import factorial
from typing import Sequence

from . import su_ops
from .lincomb import LinComb, add_into
from .scalars import ONE, ZERO, _json_field, _json_items, format_rational, parse_rational, rat
from .trees import PlaneTree, enumerate_trees, tree_stats

# A monomial is None (the unit), an int (generator index), or a pair of
# monomials.  Tuples nest, so hashing and equality are structural.
FAMonomial = None | int | tuple


@lru_cache(maxsize=None)
def mono_degree(mono: FAMonomial) -> int:
    if mono is None:
        return 0
    if isinstance(mono, int):
        return 1
    return mono_degree(mono[0]) + mono_degree(mono[1])


def _require_monomial(mono: FAMonomial, ngens: int) -> None:
    """Raise ValueError unless `mono` is a monomial in `ngens` generators.

    That is None, a generator index in range(ngens) (an int, not a bool),
    or a pair of non-unit monomials: grafting absorbs the unit, so a pair
    holding None would be a second spelling of its other side.
    """
    if mono is None:
        return
    stack = [mono]
    while stack:
        node = stack.pop()
        if type(node) is tuple and len(node) == 2:
            stack.extend(node)
        elif type(node) is not int or not 0 <= node < ngens:
            raise ValueError(f"malformed monomial {mono!r} in {ngens} generator(s)")


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


def mono_from_tree(tree: PlaneTree) -> FAMonomial:
    """The monomial of a plane tree in the first generator.

    Read off the tree's encoding, so any depth works: a leaf pushes the
    generator and each closing parenthesis pairs the top two monomials.
    """
    stack: list[FAMonomial] = []
    for ch in tree.encode():
        if ch == "x":
            stack.append(0)
        elif ch == ")":
            right = stack.pop()
            stack[-1] = (stack[-1], right)
    return stack[0]


class FreeAlgebra:
    """Computation context: generator names plus the truncation degree."""

    def __init__(self, names: Sequence[str], max_degree: int):
        if type(max_degree) is not int or max_degree < 1:
            raise ValueError(f"truncation degree must be an int >= 1, got {max_degree!r}")
        if len(set(names)) != len(names) or not names:
            raise ValueError(f"generator names must be distinct and non-empty: {names!r}")
        self.names = tuple(names)
        self.max_degree = max_degree
        self._coproduct_memo: dict[FAMonomial, tuple[tuple[FAMonomial, FAMonomial, Fraction], ...]] = {}
        self._ldiv_memo: dict[tuple[FAMonomial, FAMonomial], "FAElement"] = {}
        self._rdiv_memo: dict[tuple[FAMonomial, FAMonomial], "FAElement"] = {}
        self._p_memo: dict[tuple[FAMonomial, FAMonomial, FAMonomial], dict] = {}
        self._assoc_memo: dict[tuple[FAMonomial, FAMonomial, FAMonomial], dict] = {}

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
        return self._division(self._ldiv_memo, su_ops.ldiv_on_keys, u, v)

    def mono_rdiv(self, u: FAMonomial, v: FAMonomial) -> "FAElement":
        """Right division u / v on monomials (`su_ops.rdiv_on_keys`); zero above the truncation."""
        return self._division(self._rdiv_memo, su_ops.rdiv_on_keys, u, v)

    def _division(self, memo: dict, recursion, u: FAMonomial, v: FAMonomial) -> "FAElement":
        if mono_degree(u) + mono_degree(v) > self.max_degree:
            return self.zero()
        hit = memo.get((u, v))
        if hit is None:
            hit = memo[(u, v)] = FAElement.of_terms(self, recursion(self, u, v))
        return hit

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

    def key_ldiv(self, a: FAMonomial, b: FAMonomial) -> dict:
        return self.mono_ldiv(a, b).terms

    def key_rdiv(self, a: FAMonomial, b: FAMonomial) -> dict:
        return self.mono_rdiv(a, b).terms

    @staticmethod
    def triple_key(a: FAMonomial, b: FAMonomial, c: FAMonomial) -> tuple:
        return (a, b, c)


def _require_within(alg: FreeAlgebra, mono: FAMonomial) -> None:
    """Outside input may not hold a term above the truncation, which products drop silently."""
    if mono_degree(mono) > alg.max_degree:
        raise ValueError(
            f"monomial {mono_encode(mono, alg.names)} has degree {mono_degree(mono)}, "
            f"above the truncation {alg.max_degree}"
        )


class FAElement(LinComb):
    """A free non-associative polynomial, truncated by its context.

    The constructor refuses a term above the truncation; products drop them.
    """

    __slots__ = ("alg",)
    _space_attr = "alg"

    def __init__(self, alg: FreeAlgebra, terms: dict[FAMonomial, Fraction] | None = None):
        self.alg = alg
        ngens = len(alg.names)
        clean: dict[FAMonomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            _require_monomial(mono, ngens)
            coeff = rat(coeff)
            if coeff:
                _require_within(alg, mono)
                clean[mono] = coeff
        self.terms = clean

    def __mul__(self, other):
        """The truncated product, or scaling by an int or a Fraction.

        The right factor's terms are grouped by degree once; a left term
        of degree d then grafts onto the groups of degree <= cap - d only,
        so no pair above the truncation is formed or tested.
        """
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        cap = self.alg.max_degree
        by_degree: list[list[tuple[FAMonomial, Fraction]]] = [[] for _ in range(cap + 1)]
        for m2, c2 in other.terms.items():
            by_degree[mono_degree(m2)].append((m2, c2))
        terms: dict[FAMonomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            fits = by_degree[: cap + 1 - mono_degree(m1)]
            add_into(terms, {mono_graft(m1, m2): c2 for group in fits for m2, c2 in group}, c1)
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
    def from_json(cls, alg: FreeAlgebra, data: list[dict]) -> "FAElement":
        """The element written by `to_json`; raises ValueError naming a missing or mistyped field."""
        terms: dict[FAMonomial, Fraction] = {}
        for item in _json_items(data, dict, "a free-algebra element"):
            mono = parse_fa_monomial(_json_field(item, "monomial", str, "a term"), alg.names)
            coeff = parse_rational(_json_field(item, "coeff", (str, int), "a term"))
            add_into(terms, {mono: coeff})
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
        ngens = len(alg.names)
        clean: dict[tuple[FAMonomial, FAMonomial], Fraction] = {}
        for (a, b), coeff in (terms or {}).items():
            _require_monomial(a, ngens)
            _require_monomial(b, ngens)
            coeff = rat(coeff)
            if coeff:
                _require_within(alg, a)
                _require_within(alg, b)
                clean[(a, b)] = coeff
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
    """The series L with exp(L) = g, for g with counit 1, one degree per pass.

    L starts as g - 1.  The degree-n part of exp(L) is L_n plus products of
    two or more parts of L, each of degree >= 1 and so < n: it reads L at
    degrees <= n only, and L_n enters it with coefficient 1.  So pass n
    (n = 2..N) takes exp of L truncated at degree n, in a FreeAlgebra of
    truncation n, and adds only the degree-n part of g - exp(L); that fixes
    L_n and leaves every other degree as it was.  The solution is unique
    within the truncation.
    """
    if g.counit() != 1:
        raise ValueError("logarithm needs a series with counit 1")
    alg = g.alg
    terms = (g - alg.one()).terms
    for n in range(2, alg.max_degree + 1):
        low = FAElement.of_terms(
            FreeAlgebra(alg.names, n), {m: c for m, c in terms.items() if mono_degree(m) <= n}
        )
        defect = {m: -c for m, c in fa_exp(low).terms.items() if mono_degree(m) == n}
        add_into(terms, add_into(defect, g.graded_piece(n).terms))
    return FAElement.of_terms(alg, terms)


def fa_log(max_degree: int) -> FAElement:
    """log(1 + x) in one generator, to the requested degree: the sum of B_t / t!
    over all monomials t (tree shapes).  `fa_exp_inverse(1 + x)`, which solves
    exp(L) = 1 + x degree by degree, is the second route; the two must agree,
    which the test suite and `explog --check` pin.
    """
    alg = FreeAlgebra(("x",), max_degree)
    terms: dict[FAMonomial, Fraction] = {}
    for degree in range(1, max_degree + 1):
        for tree in enumerate_trees(degree):
            bern, fact = tree_stats(tree)
            terms[mono_from_tree(tree)] = bern / fact
    return FAElement(alg, terms)
