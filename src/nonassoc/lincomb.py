"""Sparse linear combinations with exact rational coefficients.

Elements of k[V], of the truncated free algebra and of their tensor
squares are all finite sums of basis keys with rational coefficients,
stored as a dict from key to ``Fraction``.  This module holds their shared
arithmetic: `add_into` accumulates one combination into another in place,
and `LinComb` gives every element class its vector-space structure.

Invariant: no stored coefficient is zero.  `add_into` deletes the keys
that cancel.  `LinComb.of_terms` keeps the dict it is given without
copying or checking it, so it is for results computed inside the package;
the public constructors of the element classes validate outside input.
"""

from __future__ import annotations

from fractions import Fraction


def add_into(acc: dict, terms: dict, coeff: int | Fraction = 1) -> dict:
    """acc += coeff * terms, in place; keys whose coefficient cancels are deleted.

    The values of `terms` are nonzero Fractions, or coeff is a Fraction, so
    every stored coefficient is a nonzero Fraction.
    """
    if coeff == 0:
        return acc
    get = acc.get
    for key, c in terms.items():
        c = coeff * c
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

    def scale(self, c: int | Fraction):
        if c == 0:
            return self._like({})
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
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
