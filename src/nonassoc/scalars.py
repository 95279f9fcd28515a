"""Exact scalars and small vector helpers shared across the package.

Every coefficient in this package is a ``fractions.Fraction`` (always in
lowest terms by construction).  Vectors are plain tuples of Fractions.
Serialized scalars are decimal-free strings like ``-2/3`` or ``5``.
"""

from __future__ import annotations

from fractions import Fraction

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    return Fraction(text)


def zero_vector(dim: int) -> Vector:
    return (ZERO,) * dim


def basis_vector(dim: int, index: int) -> Vector:
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    return tuple(ONE if i == index else ZERO for i in range(dim))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_scale(c: Fraction, a: Vector) -> Vector:
    return tuple(c * x for x in a)


def vec_is_zero(a: Vector) -> bool:
    return all(x == 0 for x in a)
