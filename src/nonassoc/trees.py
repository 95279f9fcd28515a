"""Rooted binary plane trees, Bernoulli numbers and tree-indexed Bernoulli data.

A non-associative monomial in one variable is a rooted binary plane tree;
its degree is the number of leaves.  Every tree other than the bare leaf
decomposes uniquely as a left comb

    t = (...((x t1) t2) ...) tk

with x the leftmost leaf.  This decomposition is a bijection between
binary trees with n leaves and general plane rooted trees with n vertices
(the root of the general tree has children t1 ... tk), and it drives both
the tree factorial / tree Bernoulli recursions and the weighted tree sums.

Trees encode canonically as fully parenthesized strings over the single
letter ``x``: a leaf is ``x`` and a node is ``(<left><right>)``.  The
deterministic enumeration order is lexicographic on that encoding.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Sequence

from .scalars import rat


class PlaneTree:
    """A rooted binary plane tree; a leaf has both children set to None.

    Immutable.  Its code, hash and degree are computed once, from the children's,
    so `==`, `hash`, `encode`, `degree` and `repr` take constant time at any depth.
    """

    __slots__ = ("left", "right", "_code", "_hash", "_degree")

    def __init__(self, left: PlaneTree | None = None, right: PlaneTree | None = None) -> None:
        if (left is None) != (right is None):
            raise ValueError("a tree node needs both children")
        code = "x" if left is None else f"({left._code}{right._code})"
        degree = 1 if left is None else left._degree + right._degree
        for name, value in zip(self.__slots__, (left, right, code, hash(code), degree)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"PlaneTree is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return PlaneTree, (self.left, self.right)

    def __eq__(self, other: object) -> bool:
        return self is other or (type(other) is PlaneTree and self._code == other._code)

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def degree(self) -> int:
        """Number of leaves."""
        return self._degree

    def encode(self) -> str:
        return self._code

    def left_comb(self) -> tuple["PlaneTree", ...]:
        """Subtrees (t1, ..., tk) with self = (...((x t1) t2)...) tk.

        Empty for a leaf.  t1 is the deepest factor on the left spine.
        """
        parts: list[PlaneTree] = []
        node = self
        while not node.is_leaf:
            parts.append(node.right)
            node = node.left
        parts.reverse()
        return tuple(parts)

    def __repr__(self) -> str:
        return f"PlaneTree[{self._code}]"


LEAF = PlaneTree()


def parse_tree(text: str) -> PlaneTree:
    """Inverse of PlaneTree.encode; rejects anything non-canonical with ValueError.

    Iterative, so any depth parses: stack[0] receives the tree, and each
    further frame holds the children read so far of one open node.
    """
    stack: list[list[PlaneTree]] = [[]]
    for pos, ch in enumerate(text):
        top = stack[-1]
        if ch == ")" and len(stack) > 1 and len(top) == 2:
            stack.pop()
            stack[-1].append(PlaneTree(*top))
        elif ch not in ("(", "x") or len(top) == (1 if len(stack) == 1 else 2):
            raise ValueError(f"unexpected {ch!r} at offset {pos} in tree encoding")
        elif ch == "(":
            stack.append([])
        else:
            top.append(LEAF)
    if len(stack) > 1 or not stack[0]:
        raise ValueError(f"unexpected end of tree encoding at offset {len(text)}")
    return stack[0][0]


@lru_cache(maxsize=None, typed=True)  # so True or 1.0 misses the entry of 1 and is checked
def enumerate_trees(n: int) -> tuple[PlaneTree, ...]:
    """All binary plane trees with n leaves, ordered by encoding.

    There are Catalan(n-1) of them; n must be an int >= 1, not a bool.
    Safe under concurrent use: a race can only recompute the same tuple.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"tree degree must be an int >= 1, got {n!r}")
    if n == 1:
        return (LEAF,)
    out = [PlaneTree(left, right) for i in range(1, n)
           for left in enumerate_trees(i) for right in enumerate_trees(n - i)]
    out.sort(key=PlaneTree.encode)
    return tuple(out)


@lru_cache(maxsize=None, typed=True)
def bernoulli_number(k: int) -> Fraction:
    """The k-th Bernoulli number, with B1 = -1/2; k must be an int >= 0, not a bool.

    Defined by B0 = 1 and, for n >= 2, sum_{k=0}^{n-1} B_k / (k! (n-k)!) = 0;
    solving that relation for its top term gives the recursion used here.
    """
    if type(k) is not int or k < 0:
        raise ValueError(f"Bernoulli index must be an int >= 0, got {k!r}")
    if k == 0:
        return Fraction(1)
    acc = sum(bernoulli_number(j) / (factorial(j) * factorial(k + 1 - j)) for j in range(k))
    return -factorial(k) * acc


@lru_cache(maxsize=None)
def tree_stats(tree: PlaneTree) -> tuple[Fraction, int]:
    """The tree Bernoulli number B_t and the tree factorial t!.

    For the leaf both are 1; for t = (...((x t1) t2)...) tk, B_t = B_k * B_{t1} ... B_{tk}
    and t! = k! * t1! ... tk!; numerators and denominators multiply as ints.
    """
    if tree.is_leaf:
        return Fraction(1), 1
    comb = tree.left_comb()
    num, den = bernoulli_number(len(comb)).as_integer_ratio()
    fact = factorial(len(comb))
    for part in comb:
        b, f = tree_stats(part)
        num, den, fact = num * b.numerator, den * b.denominator, fact * f
    return Fraction(num, den), fact


def bernoulli_tree_sum(n: int) -> Fraction:
    """sum of B_t / t! over all trees t of degree n, summed as ints over one common denominator."""
    terms = [(b.numerator, b.denominator * f) for b, f in map(tree_stats, enumerate_trees(n))]
    common = lcm(*(den for _, den in terms))
    return Fraction(sum(num * (common // den) for num, den in terms), common)


def weighted_tree_sum(n: int, beta: Sequence[int | str | Fraction]) -> Fraction:
    """Weighted count of plane rooted trees with n vertices.

    beta[r-1] is the weight of a vertex with r outgoing branches; a tree
    weighs the product of its per-vertex weights (leaves weigh 1) and the
    result sums the weights over all trees of degree n.  Trees are walked
    in their binary form through the left-comb bijection, so the weight of
    a comb (...((x t1) t2)...) tk is beta[k-1] times the factor weights.

    Weights must be provided up to index n-1; beta = (B_r / r!) reproduces
    bernoulli_tree_sum and beta = (1, 1, ...) counts the trees.
    """
    weights = [rat(b) for b in beta]

    def weight(tree: PlaneTree) -> Fraction:
        if tree.is_leaf:
            return Fraction(1)
        comb = tree.left_comb()
        k = len(comb)
        if k > len(weights):
            raise ValueError(f"missing weight for vertices with {k} branches")
        value = weights[k - 1]
        for part in comb:
            value *= weight(part)
        return value

    return sum((weight(t) for t in enumerate_trees(n)), Fraction(0))


def tree_sum_series(max_degree: int, beta: Sequence[int | str | Fraction]) -> list[Fraction]:
    """The weighted tree sums of every degree to max_degree, with no tree enumerated.

    Entry n is weighted_tree_sum(n, beta) (entry 0 is 0): the generating
    function T(z) = sum_n weighted_tree_sum(n, beta) z^n satisfies
    T = z (1 + sum_r beta[r-1] T^r), since a plane rooted tree is a root
    with r ordered subtrees, and this solves that equation degree by
    degree.  With beta = (B_r / r!), 1 + sum_r beta_r u^r = u / (e^u - 1)
    and entry n is (-1)^(n+1) / n: Zagier's proof of the tree identity.
    Weights must be provided up to index max_degree-1.
    """
    if type(max_degree) is not int or max_degree < 1:
        raise ValueError(f"tree degree must be an int >= 1, got {max_degree!r}")
    weights = [rat(b) for b in beta]
    if len(weights) < max_degree - 1:
        raise ValueError(f"missing weight for vertices with {len(weights) + 1} branches")
    series = [Fraction(0), Fraction(1)]
    # powers[r][m] = [z^m] T^r, filled to the degree m the loop has reached
    powers = [None, series]
    for m in range(1, max_degree):
        for r in range(2, m + 1):
            if r == m:
                powers.append([Fraction(0)] * r)
            lower = powers[r - 1]
            powers[r].append(sum(series[j] * lower[m - j] for j in range(1, m - r + 2)))
        series.append(sum(weights[r - 1] * powers[r][m] for r in range(1, m + 1)))
    return series


def bernoulli_weights(count: int) -> list[Fraction]:
    """The weight sequence B_r / r! for r = 1 .. count; count must be an int >= 0, not a bool."""
    if type(count) is not int or count < 0:
        raise ValueError(f"weight count must be an int >= 0, got {count!r}")
    return [bernoulli_number(r) / factorial(r) for r in range(1, count + 1)]
