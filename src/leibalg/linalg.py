"""Exact linear algebra over a Field: echelon forms, kernels, subspaces.

Vectors are tuples of FieldElement; matrices are lists/tuples of such rows.
The central object is Subspace: a linear subspace stored as its unique
reduced row echelon basis, so two subspaces are equal iff their stored
matrices are equal.

Every computation here runs on the raw values of the elimination kernel
``_modp``, the same code for both fields with p = ``field.characteristic``:
residues in [0, p) over GF(p), Fractions over Q.  A Subspace holds its
echelon rows as raw tuples (``_res_rows``) and boxes the FieldElement
``rows`` on first read.  Vectors and matrices passed in from outside are
coerced through the field, and checked for length, at the call.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from . import _modp
from .errors import BadVector, FieldMismatch
from .fields import Field, FieldElement

Vector = tuple[FieldElement, ...]


def _box(field: Field, values) -> Vector:
    """A vector from raw kernel values: residues over GF(p), Fractions over Q."""
    return tuple([FieldElement(field, a) for a in values])


def _raw(field: Field, v) -> list:
    """Raw kernel values of the coordinates of v, coerced into the field."""
    return [field(a).value for a in v]


def _raw_rows(field: Field, rows, ncols: int) -> list[list]:
    """Raw values of matrix rows, coerced into the field, each of length ncols."""
    out = []
    for row in rows:
        row = _raw(field, row)
        if len(row) != ncols:
            raise BadVector(f"vector of length {len(row)} in ambient dim {ncols}")
        out.append(row)
    return out


def _span_residues(field: Field, ambient_dim: int, vectors) -> "Subspace":
    """The Subspace spanned by raw vectors."""
    rows, pivots = _modp.rref(vectors, field.characteristic, ambient_dim)
    return Subspace._from_residues(field, ambient_dim, tuple(map(tuple, rows)), pivots)


def _kernel_space(field: Field, ambient_dim: int, rows) -> "Subspace":
    """The Subspace {x : row . x = 0 for every raw row}, by one elimination."""
    basis, pivots, _ = _modp.kernel_echelon(rows, field.characteristic, ambient_dim)
    return Subspace._from_residues(field, ambient_dim, tuple(basis), pivots)


def zero_vector(field: Field, n: int) -> Vector:
    z = field.zero()
    return (z,) * n


def basis_vector(field: Field, n: int, i: int) -> Vector:
    """Standard basis vector e_i (0-based)."""
    z, o = field.zero(), field.one()
    return tuple(o if j == i else z for j in range(n))


def vec_is_zero(x: Vector) -> bool:
    return not any(x)


def rref(rows: Iterable[Sequence[FieldElement]], field: Field, ncols: int):
    """Reduced row echelon form.

    Returns (rows, pivots): nonzero rows with leading ones, zeros above and
    below each pivot, pivot columns strictly increasing.
    """
    ech, pivots = _modp.rref(_raw_rows(field, rows, ncols), field.characteristic, ncols)
    return [_box(field, r) for r in ech], pivots


def nullspace(rows: Iterable[Sequence[FieldElement]], field: Field, ncols: int) -> list[Vector]:
    """Canonical basis of {x : M x = 0} for the matrix with the given rows."""
    basis = _modp.nullspace(_raw_rows(field, rows, ncols), field.characteristic, ncols)
    return [_box(field, v) for v in basis]


def _check_echelon(rows, pivots, n: int) -> None:
    """Raise BadVector unless ``rows`` is the reduced echelon form for ``pivots``."""
    if len(rows) != len(pivots) or list(pivots) != [q for q in range(n) if q in pivots]:
        raise BadVector(f"{len(rows)} rows for the pivots {pivots} in ambient dim {n}")
    for r, (row, pc) in enumerate(zip(rows, pivots)):
        if len(row) != n or any(row[:pc]) or any(row[q] != (1 if q == pc else 0) for q in pivots):
            raise BadVector(f"row {r} is not in reduced echelon form for pivots {pivots}")


class Subspace:
    """A subspace of field^ambient_dim in canonical reduced echelon form.

    Equality and hashing use the canonical basis matrix, so Subspace values
    can be compared and deduplicated directly.  Instances are immutable.
    The canonical rows are held as raw kernel tuples (``_res_rows``):
    residues over GF(p), Fractions over Q; ``rows`` boxes them on first read.
    """

    __slots__ = ("field", "ambient_dim", "pivots", "_res_rows", "_rows")

    def __init__(self, field: Field, ambient_dim: int, rows, pivots):
        """The span of ``rows``, which must be the reduced echelon form for ``pivots``."""
        pivots = tuple(pivots)
        rows = tuple(tuple(_raw(field, r)) for r in rows)
        _check_echelon(rows, pivots, ambient_dim)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "_res_rows", rows)
        object.__setattr__(self, "_rows", None)

    @classmethod
    def _from_residues(cls, field: Field, ambient_dim: int, res_rows, pivots) -> "Subspace":
        """A subspace from canonical raw echelon rows (tuples), unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "_res_rows", res_rows)
        object.__setattr__(self, "_rows", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def rows(self) -> tuple[Vector, ...]:
        """The canonical echelon basis as FieldElement rows."""
        rows = self._rows
        if rows is None:
            rows = tuple(_box(self.field, r) for r in self._res_rows)
            object.__setattr__(self, "_rows", rows)
        return rows

    @classmethod
    def span(cls, field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        return _span_residues(field, ambient_dim, _raw_rows(field, vectors, ambient_dim))

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls._from_residues(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        zero, one = _modp._zero_one(field.characteristic)
        identity = tuple(
            tuple(one if j == i else zero for j in range(ambient_dim)) for i in range(ambient_dim)
        )
        return cls._from_residues(field, ambient_dim, identity, range(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return not self.pivots

    def is_full(self) -> bool:
        return len(self.pivots) == self.ambient_dim

    def _check_length(self, v: Sequence) -> None:
        if len(v) != self.ambient_dim:
            raise BadVector(f"vector of length {len(v)} in ambient dim {self.ambient_dim}")

    def reduce(self, v: Sequence[FieldElement]) -> Vector:
        """Canonical representative of v modulo this subspace.

        An entry the reduction leaves alone keeps its input element, so
        reducing modulo a small subspace boxes few new elements.
        """
        self._check_length(v)
        field = self.field
        elems = [field(a) for a in v]
        w = _modp.reduce_mod([a.value for a in elems], self._res_rows, self.pivots, field.characteristic)
        return tuple([a if x is a.value else FieldElement(field, x) for a, x in zip(elems, w)])

    def contains(self, v: Sequence[FieldElement]) -> bool:
        self._check_length(v)
        field = self.field
        return _modp.contains(_raw(field, v), self._res_rows, self.pivots, field.characteristic)

    def contains_space(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        if other.dim > self.dim:  # echelon rows are independent
            return False
        p = self.field.characteristic
        return all(_modp.contains(r, self._res_rows, self.pivots, p) for r in other._res_rows)

    def coords_of(self, v: Sequence[FieldElement]) -> Vector | None:
        """Coefficients of v over self.rows, or None when v is outside.

        Echelon rows have unit pivots and zeros in other pivot columns, so
        the coefficient of each row is just v at that row's pivot column.
        """
        if not self.contains(v):
            return None
        return tuple(self.field(v[pc]) for pc in self.pivots)

    def linear_combination(self, coeffs: Sequence[FieldElement]) -> Vector:
        if len(coeffs) != self.dim:
            raise BadVector(f"{len(coeffs)} coefficients for a subspace of dim {self.dim}")
        field = self.field
        raw = _modp.combine(_raw(field, coeffs), self._res_rows, field.characteristic, self.ambient_dim)
        return _box(field, raw)

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return _span_residues(self.field, self.ambient_dim, self._res_rows + other._res_rows)

    def annihilator(self) -> "Subspace":
        """All x with row . x == 0 for every basis row."""
        return _kernel_space(self.field, self.ambient_dim, self._res_rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The common zeros of the covectors annihilating either space."""
        self._check_compatible(other)
        n, p = self.ambient_dim, self.field.characteristic
        joined = _modp.echelon_nullspace(self._res_rows, self.pivots, p, n)
        joined += _modp.echelon_nullspace(other._res_rows, other.pivots, p, n)
        return _kernel_space(self.field, n, joined)

    def complement_coords(self) -> tuple[int, ...]:
        """Coordinates not used as pivots; they index a complement basis."""
        pivot_set = set(self.pivots)
        return tuple(c for c in range(self.ambient_dim) if c not in pivot_set)

    def _check_compatible(self, other: "Subspace") -> None:
        if self.field != other.field:
            raise FieldMismatch("subspaces over different fields")
        if self.ambient_dim != other.ambient_dim:
            raise BadVector("subspaces of different ambient dimension")

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self._res_rows == other._res_rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self._res_rows))

    def __repr__(self):
        rows = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return f"Subspace(dim {self.dim} of {self.field}^{self.ambient_dim}: [{rows}])"
