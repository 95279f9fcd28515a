"""Sparse linear combinations with exact rational coefficients.

Elements of k[V], of the truncated free algebra and of their tensor
squares are all finite sums of basis keys with rational coefficients,
stored as a dict from key to coefficient.  This module holds their shared
arithmetic: `sum_into` adds a list of weighted combinations into one in
place, in a single loop, and `add_into` is its one-part case; `bilinear`
extends a map on pairs of basis keys, and `LinComb` gives every
element class its vector-space structure.

Invariant: every stored coefficient is a nonzero exact rational, never a
float.  At the public API it is a ``Fraction``; inside the package (the
`dist` memos and both bracket routes) it is an ``int`` or a ``Fraction``
(see `scalars`).
`sum_into` deletes the keys that cancel, and at a coefficient of 1 or -1
stores the term's own coefficient or its negation, with no multiplication.
`LinComb.of_terms` keeps the dict it is given without copying or checking
it, so it is for results computed inside the package; the public
constructors of the element classes validate outside input.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import rat


def sum_into(acc: dict, parts) -> dict:
    """acc += sum of coeff * terms over the (terms, coeff) pairs of `parts`, in place.

    Keys whose coefficient cancels are deleted.  The values of each `terms`
    are nonzero ints or Fractions and each coeff is an int or a Fraction,
    so every stored coefficient is a nonzero exact rational: a Fraction at
    the public API, and in the `dist` kernel's memos an int or a Fraction,
    never a float.  A part at coefficient 0 adds nothing, and a unit
    coefficient builds no product: at 1 the term's own coefficient is
    stored or added (ints and Fractions are immutable), at -1 its negation.
    The parts are summed in order, so the result, key order included, is
    that of one `add_into` per part.
    """
    get = acc.get
    for terms, coeff in parts:
        if not coeff:
            continue
        one, minus_one = coeff == 1, coeff == -1
        for key, c in terms.items():
            if not one:
                c = -c if minus_one else coeff * c
            old = get(key)
            if old is None:
                acc[key] = c
            else:
                c += old
                if c:
                    acc[key] = c
                else:
                    del acc[key]
    return acc


def add_into(acc: dict, terms: dict, coeff: int | Fraction = 1) -> dict:
    """acc += coeff * terms, in place: `sum_into` with one part."""
    return sum_into(acc, ((terms, coeff),))


def bilinear(fn, a, b):
    """The bilinear extension of `fn`, a map from pairs of basis keys to elements, at (a, b)."""
    return a._like(sum_into({}, [
        (fn(k1, k2).terms, c2 if c1 == 1 else c1 if c2 == 1 else c1 * c2)
        for k1, c1 in a.terms.items()
        for k2, c2 in b.terms.items()
    ]))


class LinComb:
    """The linear structure shared by the sparse element classes.

    A subclass names, in `_space_attr`, the slot that holds its space (a
    dimension, a tuple of dimensions or a free-algebra context); elements of
    different spaces never mix.
    """

    __slots__ = ("terms",)
    _space_attr: str

    @classmethod
    def of_terms(cls, space, terms: dict):
        """Trusted constructor: keeps `terms`, which must hold the invariant, as it is."""
        out = object.__new__(cls)
        setattr(out, cls._space_attr, space)
        out.terms = terms
        return out

    def _space(self):
        return getattr(self, self._space_attr)

    def _like(self, terms: dict):
        return self.of_terms(self._space(), terms)

    def _check(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if self._space() != other._space():
            raise ValueError(
                f"{type(self).__name__} space mismatch: {self._space()!r} vs {other._space()!r}"
            )

    def __add__(self, other):
        self._check(other)
        return self._like(add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        self._check(other)
        return self._like(add_into(dict(self.terms), other.terms, -1))

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c: int | str | Fraction):
        if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
            c = rat(c)
        if c == 0:
            return self._like({})
        return self._like({k: c * v for k, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._space() == other._space()
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self._space(), frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms
