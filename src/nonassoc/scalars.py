"""Exact scalars and the two vector formats of the package.

Every coefficient at the public API is a ``fractions.Fraction`` (always
in lowest terms by construction).  Inside the package a coefficient is in
the canonical form of `exact`: an ``int`` when integral, else a
``Fraction`` with denominator > 1.  That holds in every memo of the `dist`
kernel, the p and associator memos included (`DistBialgebra.from_loop`
divides with `exact_div`, so no ``/`` on an ``int`` can make a float, and
`su_ops` stores each division, p and associator fill through
`DistBialgebra.canonical`), in the elements both bracket routes build
(`DistSUOps` and `su_ops`), and in the transports and field values of
`connection`; integral loops therefore run those routes on ints.  Values
leave the public API through `as_fractions`, the one conversion back to
Fractions (`to_dense` uses it).  No coefficient is ever a float or a bool:
`rat`, `exact` and `exact_div` raise ``TypeError`` on one.  Serialized
scalars are decimal-free strings like ``-2/3`` or ``5``, and the JSON
readers of the package take their fields through `_json_field` and
`_json_items`, which raise ValueError naming a missing or mistyped field.

Inside the package a vector is sparse: a dict {basis index: coefficient}
that never stores a zero, combined with `lincomb.add_into`.  A stored
sparse vector is shared between tables and never mutated.  Where a vector
crosses the public API it is dense: a length-`dim` tuple of Fractions.
`to_sparse` and `to_dense` convert at that edge.
"""

from __future__ import annotations

from fractions import Fraction

Vector = tuple[Fraction, ...]
SparseVector = dict[int, int | Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact rational; a float or a bool raises."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def exact(c: int | Fraction) -> int | Fraction:
    """The canonical exact form of c: an int when c is integral, else a Fraction."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int) and not isinstance(c, bool):
        return c
    raise TypeError(f"not an exact rational: {c!r}")


def exact_terms(terms: dict) -> dict:
    """`terms` with every coefficient in the canonical form of `exact`."""
    return {k: c if type(c) is int else exact(c) for k, c in terms.items()}


def as_fractions(terms: dict) -> dict:
    """`terms` with every coefficient a Fraction, as values leave the public API.

    The coefficients are exact (`exact`), so an int becomes a Fraction and a
    Fraction is kept as it is.
    """
    return {k: Fraction(c) if type(c) is int else c for k, c in terms.items()}


def exact_div(c: int | Fraction, d: int | Fraction) -> int | Fraction:
    """c / d in canonical exact form: c // d when d divides c, otherwise a Fraction."""
    if type(c) is int and type(d) is int:
        q, r = divmod(c, d)
        return Fraction(c, d) if r else q
    return exact(rat(c) / rat(d))


def format_rational(value: int | Fraction) -> str:
    """The text "p/q" or "p" of value: an int or a Fraction as it is, anything else coerced first."""
    if type(value) is Fraction or type(value) is int:
        return str(value)
    return str(Fraction(value))


def parse_rational(value: str | int) -> Fraction:
    """A scalar read from JSON: a "p/q" string or an int; a float (inexact) or a bool raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, str, Fraction)):
        raise ValueError(f"not an exact rational: {value!r}; write it as a string such as \"1/10\"")
    return Fraction(value)


_JSON_TYPES = {
    int: "integer", str: "string", list: "array", dict: "object", (str, int): "string or integer",
}


def _json_field(data, key: str, kind: type | tuple, what: str, default=None, items: type | None = None):
    """`data[key]` of the JSON object `data`, or `default` when that is given and the key is absent.

    Raises ValueError naming the field when `data` is not an object or the
    field is missing or not of the JSON type `kind`, or, when `items` is
    given, holds an element (a value, for an object) not of that JSON type.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    if key not in data and default is None:
        raise ValueError(f"{what} needs {'an' if key[0] in 'aeiou' else 'a'} {key!r} field")
    value = data.get(key, default)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(
            f"{what} field {key!r} must be a JSON {_JSON_TYPES[kind]}, got {type(value).__name__}"
        )
    if items is not None:
        values = list(value.values()) if isinstance(value, dict) else value
        _json_items(values, items, f"{what} field {key!r}")
    return value


def _json_items(values, kind: type, what: str):
    """`values`, after checking that it is a JSON array whose elements are of the JSON type `kind`;
    raises ValueError naming `what`."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a JSON array, got {type(values).__name__}")
    for value in values:
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"{what} must hold JSON {_JSON_TYPES[kind]}s, got {type(value).__name__}")
    return values


def to_sparse(dim: int, v: Vector) -> SparseVector:
    """The nonzero entries of a dense vector, which must have length `dim`."""
    if len(v) != dim:
        raise ValueError(f"vector of length {len(v)} in dimension {dim}")
    return {i: c for i, c in enumerate(map(rat, v)) if c}


def to_dense(dim: int, v: SparseVector) -> Vector:
    """The length-`dim` Fraction tuple of a sparse vector (`as_fractions`)."""
    v = as_fractions(v)
    return tuple(v.get(i, ZERO) for i in range(dim))


def zero_vector(dim: int) -> Vector:
    return (ZERO,) * dim


def basis_vector(dim: int, index: int) -> Vector:
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    return tuple(ONE if i == index else ZERO for i in range(dim))
