"""Exact linear algebra over a Field: echelon forms, kernels, subspaces.

Vectors are tuples of FieldElement; matrices are lists/tuples of such rows.
The central object is Subspace: a linear subspace stored as its unique
reduced row echelon basis, so two subspaces are equal iff their stored
matrices are equal.

Over GF(p) the integer residues are the representation: a Subspace holds
its echelon rows as tuples of ints in [0, p), every operation hands them to
the integer kernel ``_modp``, and the boxed ``rows`` are built on first
read.  Vectors and matrices passed in from outside are coerced into
residues at the call.  The elimination loops on FieldElements below serve
the rationals only.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from . import _modp
from .errors import BadVector, FieldMismatch
from .fields import Field, FieldElement

Vector = tuple[FieldElement, ...]


def _box(field: Field, residues) -> Vector:
    """A GF(p) vector from canonical residues."""
    return tuple(map(field._residue, residues))


def _residues(field: Field, v) -> list[int]:
    """Canonical residues of the coordinates of v, coerced into GF(p)."""
    return [field(a).value for a in v]


def _residue_rows(rows) -> list[list[int]]:
    """Residues of rows whose entries are already GF(p) elements."""
    return [[a.value for a in r] for r in rows]


def _span_residues(field: Field, ambient_dim: int, vectors) -> "Subspace":
    """The Subspace spanned by residue vectors over GF(p)."""
    rows, pivots = _modp.rref(vectors, field.modulus, ambient_dim)
    return Subspace._from_residues(field, ambient_dim, tuple(map(tuple, rows)), pivots)


def zero_vector(field: Field, n: int) -> Vector:
    z = field.zero()
    return (z,) * n


def basis_vector(field: Field, n: int, i: int) -> Vector:
    """Standard basis vector e_i (0-based)."""
    z, o = field.zero(), field.one()
    return tuple(o if j == i else z for j in range(n))


def vec_add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def vec_is_zero(x: Vector) -> bool:
    return not any(x)


def rref(rows: Iterable[Sequence[FieldElement]], field: Field, ncols: int):
    """Reduced row echelon form.

    Returns (rows, pivots): nonzero rows with leading ones, zeros above and
    below each pivot, pivot columns strictly increasing.
    """
    if field.is_finite():
        ech, pivots = _modp.rref(_residue_rows(rows), field.modulus, ncols)
        return [_box(field, r) for r in ech], pivots
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = work[r][col].inv()
        work[r] = [inv * a for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                c = work[i][col]
                work[i] = [a - c * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    result = [tuple(work[i]) for i in range(r)]
    return result, pivots


def nullspace(rows: Iterable[Sequence[FieldElement]], field: Field, ncols: int) -> list[Vector]:
    """Canonical basis of {x : M x = 0} for the matrix with the given rows."""
    if field.is_finite():
        basis = _modp.nullspace(_residue_rows(rows), field.modulus, ncols)
        return [_box(field, v) for v in basis]
    ech, pivots = rref(rows, field, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    z, o = field.zero(), field.one()
    basis = []
    for fc in free:
        v = [z] * ncols
        v[fc] = o
        for row, pc in zip(ech, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def solve(rows: Sequence[Sequence[FieldElement]], rhs: Sequence[FieldElement], field: Field, ncols: int) -> Vector | None:
    """A particular solution x of M x = rhs, or None when inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ech, pivots = rref(aug, field, ncols + 1)
    if ncols in pivots:
        return None
    z = field.zero()
    x = [z] * ncols
    for row, pc in zip(ech, pivots):
        x[pc] = row[ncols]
    return tuple(x)


def matrix_rank(rows: Iterable[Sequence[FieldElement]], field: Field, ncols: int) -> int:
    return len(rref(rows, field, ncols)[0])


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
    Over GF(p) the canonical rows are held as residue tuples (``_res_rows``)
    and ``rows`` boxes them on first read; over Q ``_res_rows`` is None.
    """

    __slots__ = ("field", "ambient_dim", "pivots", "_res_rows", "_rows")

    def __init__(self, field: Field, ambient_dim: int, rows, pivots):
        """The span of ``rows``, which must be the reduced echelon form for ``pivots``."""
        pivots = tuple(pivots)
        if field.is_finite():
            rows = tuple(tuple(_residues(field, r)) for r in rows)
        else:
            rows = tuple(tuple(field(a) for a in r) for r in rows)
        _check_echelon(rows, pivots, ambient_dim)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "pivots", pivots)
        if field.is_finite():
            object.__setattr__(self, "_res_rows", rows)
            object.__setattr__(self, "_rows", None)
        else:
            object.__setattr__(self, "_res_rows", None)
            object.__setattr__(self, "_rows", rows)

    @classmethod
    def _from_residues(cls, field: Field, ambient_dim: int, res_rows, pivots) -> "Subspace":
        """A GF(p) subspace from canonical echelon residue rows (tuples)."""
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
        coerced = []
        for v in vectors:
            v = tuple(field(a) for a in v)
            if len(v) != ambient_dim:
                raise BadVector(f"vector of length {len(v)} in ambient dim {ambient_dim}")
            coerced.append(v)
        if field.is_finite():
            return _span_residues(field, ambient_dim, _residue_rows(coerced))
        rows, pivots = rref(coerced, field, ambient_dim)
        return cls(field, ambient_dim, rows, pivots)

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, [], [])

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        if field.is_finite():
            identity = tuple(
                tuple(1 if j == i else 0 for j in range(ambient_dim)) for i in range(ambient_dim)
            )
            return cls._from_residues(field, ambient_dim, identity, range(ambient_dim))
        rows = [basis_vector(field, ambient_dim, i) for i in range(ambient_dim)]
        return cls(field, ambient_dim, rows, list(range(ambient_dim)))

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
        """Canonical representative of v modulo this subspace."""
        self._check_length(v)
        field = self.field
        if field.is_finite():
            w = _modp.reduce_mod(_residues(field, v), self._res_rows, self.pivots, field.modulus)
            return _box(field, w)
        w = list(v)
        for row, pc in zip(self.rows, self.pivots):
            c = w[pc]
            if c:
                w = [a - c * b for a, b in zip(w, row)]
        return tuple(w)

    def contains(self, v: Sequence[FieldElement]) -> bool:
        self._check_length(v)
        field = self.field
        if field.is_finite():
            return _modp.contains(_residues(field, v), self._res_rows, self.pivots, field.modulus)
        return vec_is_zero(self.reduce(v))

    def contains_space(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        if self.field.is_finite():
            p = self.field.modulus
            return all(
                _modp.contains(r, self._res_rows, self.pivots, p) for r in other._res_rows
            )
        return all(self.contains(r) for r in other.rows)

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
        n = self.ambient_dim
        if field.is_finite():
            residues = _residues(field, coeffs)
            return _box(field, _modp.combine(residues, self._res_rows, field.modulus, n))
        acc = list(zero_vector(self.field, n))
        for c, row in zip(coeffs, self.rows):
            if c:
                for j in range(n):
                    acc[j] = acc[j] + c * row[j]
        return tuple(acc)

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        if self.field.is_finite():
            joined = self._res_rows + other._res_rows
            return _span_residues(self.field, self.ambient_dim, joined)
        return Subspace.span(self.field, self.ambient_dim, self.rows + other.rows)

    def annihilator(self) -> "Subspace":
        """All x with row . x == 0 for every basis row."""
        field, n = self.field, self.ambient_dim
        if field.is_finite():
            return _span_residues(field, n, _modp.nullspace(self._res_rows, field.modulus, n))
        return Subspace.span(field, n, nullspace(self.rows, field, n))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        field = self.field
        if field.is_finite():
            p, n = field.modulus, self.ambient_dim
            joined = _modp.nullspace(self._res_rows, p, n)
            joined += _modp.nullspace(other._res_rows, p, n)
            return _span_residues(field, n, _modp.nullspace(joined, p, n))
        joined = self.annihilator().rows + other.annihilator().rows
        return Subspace.span(
            self.field, self.ambient_dim, nullspace(joined, self.field, self.ambient_dim)
        )

    def complement_coords(self) -> tuple[int, ...]:
        """Coordinates not used as pivots; they index a complement basis."""
        pivot_set = set(self.pivots)
        return tuple(c for c in range(self.ambient_dim) if c not in pivot_set)

    def _check_compatible(self, other: "Subspace") -> None:
        if self.field != other.field:
            raise FieldMismatch("subspaces over different fields")
        if self.ambient_dim != other.ambient_dim:
            raise BadVector("subspaces of different ambient dimension")

    def _key(self):
        return self._res_rows if self._res_rows is not None else self.rows

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self._key() == other._key()
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self._key()))

    def __repr__(self):
        rows = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return f"Subspace(dim {self.dim} of {self.field}^{self.ambient_dim}: [{rows}])"
