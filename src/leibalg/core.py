"""Finite-dimensional left Leibniz algebras given by structure constants.

An algebra of dimension n over a field F is the tensor c[i][j][k] with
[e_i, e_j] = sum_k c[i][j][k] e_k.  The defining identity is

    [a, [b, c]] = [[a, b], c] + [b, [a, c]]

and bilinearity makes checking it on basis triples sufficient.  Squares
[v, v] need not vanish; the span of all squares is an ideal annihilating
the algebra from the left.

Over GF(p) the integer residues are the representation: an algebra holds
its structure constants as sparse residue cells (see ``_modp``), every
operation below computes on those cells and on the residue rows of
``Subspace`` through ``_modp``, and quotients, restrictions and direct sums
are built straight from cells.  The boxed ``table`` is built on first read;
vectors passed in or handed out by ``bracket`` are FieldElements, coerced or
boxed at the call.  Over Q the operations compute on FieldElements directly.

Algebras, vectors, and subspaces are immutable; every operation here is a
pure function of its inputs and safe for concurrent use.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from . import _modp
from .errors import (
    BadIndex,
    BadVector,
    DuplicateEntry,
    FieldMismatch,
    NotAnIdeal,
    NotApplicable,
    NotASubalgebra,
)
from .fields import Field, FieldElement
from .linalg import (
    Subspace,
    Vector,
    _box,
    _span_residues,
    basis_vector,
    nullspace,
    vec_add,
    vec_is_zero,
    zero_vector,
)


@dataclass(frozen=True)
class LeibnizViolation:
    """A basis triple (1-based) where the defining identity fails."""

    i: int
    j: int
    k: int
    residual: Vector


class LeibnizAlgebra:
    """A left Leibniz algebra presented by structure constants.

    ``table[i][j]`` is the coordinate vector of [e_i, e_j] (0-based
    internally; the text format and ``from_table`` speak 1-based).  The
    instance is immutable; ``verified`` reports whether ``check_leibniz``
    has run and found no violations.  Over GF(p), ``_cells[i][j]`` holds
    [e_i, e_j] as the sparse residue pairs (k, c) of ``_modp``, with k
    ascending and c in [1, p), and ``table`` is boxed from it on first read;
    over Q ``_cells`` is None.
    """

    __slots__ = ("field", "dim", "labels", "_table", "_cells", "_verified")

    def __init__(self, field: Field, table, labels: Sequence[str] | None = None):
        dim = len(table)
        coerced = tuple(
            tuple(tuple(field(c) for c in cell) for cell in row) for row in table
        )
        for row in coerced:
            if len(row) != dim or any(len(cell) != dim for cell in row):
                raise BadVector("structure tensor must be dim x dim x dim")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != dim:
                raise BadVector("label count must match dim")
        else:
            labels = tuple(f"x{i + 1}" for i in range(dim))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_table", coerced)
        object.__setattr__(self, "labels", labels)
        cells = None
        if field.is_finite():
            cells = tuple(
                tuple(tuple((k, c.value) for k, c in enumerate(cell) if c.value) for cell in row)
                for row in coerced
            )
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "_verified", None)

    @classmethod
    def _from_cells(cls, field: Field, cells, labels=None) -> "LeibnizAlgebra":
        """A GF(p) algebra from canonical sparse residue cells; no table yet."""
        self = object.__new__(cls)
        dim = len(cells)
        if labels is None:
            labels = tuple(f"x{i + 1}" for i in range(dim))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_table", None)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "_verified", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LeibnizAlgebra is immutable")

    @property
    def table(self):
        """The structure constants as FieldElements: ``table[i][j]`` = [e_i, e_j]."""
        table = self._table
        if table is None:
            field, n = self.field, self.dim
            table = tuple(
                tuple(_box(field, _dense(cell, n)) for cell in row) for row in self._cells
            )
            object.__setattr__(self, "_table", table)
        return table

    # -- construction -----------------------------------------------------

    @classmethod
    def from_table(
        cls,
        dim: int,
        field: Field,
        entries: Iterable[tuple[int, int, object]],
        labels: Sequence[str] | None = None,
    ) -> "LeibnizAlgebra":
        """Build an algebra from sparse product entries.

        ``entries`` yields (i, j, value) with 1-based i, j; value is either a
        dict {k: coeff} with 1-based k, or a full coordinate sequence of
        length dim.  Unspecified products are zero; duplicate (i, j) pairs
        are rejected.
        """
        z = field.zero()
        cells: list[list[list[FieldElement]]] = [
            [[z] * dim for _ in range(dim)] for _ in range(dim)
        ]
        seen: set[tuple[int, int]] = set()
        for i, j, value in entries:
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise BadIndex(f"product index [{i},{j}] outside 1..{dim}")
            if (i, j) in seen:
                raise DuplicateEntry(f"product [{i},{j}] specified twice")
            seen.add((i, j))
            if isinstance(value, dict):
                vec = [z] * dim
                for k, coeff in value.items():
                    if not 1 <= k <= dim:
                        raise BadIndex(f"basis index {k} outside 1..{dim}")
                    vec[k - 1] = field(coeff)
            else:
                vec = [field(c) for c in value]
                if len(vec) != dim:
                    raise BadVector(f"value for [{i},{j}] has length {len(vec)}")
            cells[i - 1][j - 1] = vec
        return cls(field, cells, labels)

    # -- vectors and subspaces --------------------------------------------

    def vector(self, coords: Sequence) -> Vector:
        field = self.field
        if coords.__class__ is tuple and len(coords) == self.dim:
            for c in coords:
                if c.__class__ is not FieldElement or c.field is not field:
                    break
            else:
                return coords
        v = tuple(field(c) for c in coords)
        if len(v) != self.dim:
            raise BadVector(f"expected {self.dim} coordinates, got {len(v)}")
        return v

    def basis_vector(self, i: int) -> Vector:
        """Standard basis vector e_i, 0-based."""
        if not 0 <= i < self.dim:
            raise BadIndex(f"basis index {i} outside 0..{self.dim - 1}")
        return basis_vector(self.field, self.dim, i)

    def zero_vector(self) -> Vector:
        return zero_vector(self.field, self.dim)

    def subspace(self, vectors: Iterable[Sequence]) -> Subspace:
        return Subspace.span(self.field, self.dim, [self.vector(v) for v in vectors])

    def full_space(self) -> Subspace:
        return Subspace.full(self.field, self.dim)

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.field, self.dim)

    # -- bracket -----------------------------------------------------------

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        """Bilinear extension of the structure tensor to vectors."""
        x = self.vector(x)
        y = self.vector(y)
        cells = self._cells
        if cells is not None:
            u = [a.value for a in x]
            v = [a.value for a in y]
            return _box(self.field, _modp.bracket(cells, u, v, self.field.modulus))
        acc = list(self.zero_vector())
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.table[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                cell = row[j]
                for k in range(self.dim):
                    if cell[k]:
                        acc[k] = acc[k] + c * cell[k]
        return tuple(acc)

    def check_leibniz(self) -> list[LeibnizViolation]:
        """All basis triples violating the defining identity (empty = valid)."""
        violations = []
        n = self.dim
        cells = self._cells
        if cells is not None:
            self._check_leibniz_residues(cells, violations)
            object.__setattr__(self, "_verified", not violations)
            return violations
        basis = [self.basis_vector(i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                bij = self.table[i][j]
                for k in range(n):
                    lhs = self.bracket(basis[i], self.table[j][k])
                    rhs = vec_add(self.bracket(bij, basis[k]), self.bracket(basis[j], self.table[i][k]))
                    residual = tuple(a - b for a, b in zip(lhs, rhs))
                    if not vec_is_zero(residual):
                        violations.append(LeibnizViolation(i + 1, j + 1, k + 1, residual))
        if not violations:
            object.__setattr__(self, "_verified", True)
        else:
            object.__setattr__(self, "_verified", False)
        return violations

    def _check_leibniz_residues(self, cells, violations) -> None:
        """check_leibniz over GF(p), reading the structure constants.

        With c = cells: [e_i, [e_j, e_k]] = sum_m c[j][k]_m [e_i, e_m], and
        likewise for the two right-hand terms.
        """
        n, p = self.dim, self.field.modulus
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    acc = [0] * n
                    for m, c in cells[j][k]:
                        for t, d in cells[i][m]:
                            acc[t] += c * d
                    for m, c in cells[i][j]:
                        for t, d in cells[m][k]:
                            acc[t] -= c * d
                    for m, c in cells[i][k]:
                        for t, d in cells[j][m]:
                            acc[t] -= c * d
                    if any(a % p for a in acc):
                        residual = _box(self.field, [a % p for a in acc])
                        violations.append(LeibnizViolation(i + 1, j + 1, k + 1, residual))

    @property
    def verified(self) -> bool:
        """True once check_leibniz has run and reported no violations."""
        if self._verified is None:
            self.check_leibniz()
        return bool(self._verified)

    # -- derived structure --------------------------------------------------

    def span_products(self, left: Subspace, right: Subspace) -> Subspace:
        """Canonical span of {[u, v] : u in basis(left), v in basis(right)}.

        Bilinearity makes basis products sufficient.
        """
        cells = self._cells
        if cells is not None:
            p = self.field.modulus
            products = [
                _modp.bracket(cells, u, v, p) for u in left._res_rows for v in right._res_rows
            ]
            return _span_residues(self.field, self.dim, products)
        products = [self.bracket(u, v) for u in left.rows for v in right.rows]
        return Subspace.span(self.field, self.dim, products)

    def derived(self) -> Subspace:
        full = self.full_space()
        return self.span_products(full, full)

    def leib_ideal(self) -> Subspace:
        """Span of all squares [v, v].

        The square map is quadratic, so polarization reduces it to basis
        squares [e_i, e_i] together with [e_i, e_j] + [e_j, e_i] for i < j.
        """
        gens = []
        n = self.dim
        cells = self._cells
        if cells is not None:
            p = self.field.modulus
            for i in range(n):
                gens.append(_dense(cells[i][i], n))
            for i in range(n):
                for j in range(i + 1, n):
                    v = _dense(cells[i][j], n)
                    for k, c in cells[j][i]:
                        v[k] = (v[k] + c) % p
                    gens.append(v)
            return _span_residues(self.field, n, gens)
        for i in range(n):
            gens.append(self.table[i][i])
        for i in range(n):
            for j in range(i + 1, n):
                gens.append(vec_add(self.table[i][j], self.table[j][i]))
        return Subspace.span(self.field, self.dim, gens)

    def center(self) -> Subspace:
        return self.centralizer_mod(self.zero_space())

    def left_center(self) -> Subspace:
        """{x : [x, a] = 0 for all a}; contains the (two-sided) center."""
        n = self.dim
        cells = self._cells
        if cells is not None:
            p = self.field.modulus
            raw = [[0] * n for _ in range(n * n)]
            for i in range(n):
                for j in range(n):
                    for k, c in cells[i][j]:
                        raw[j * n + k][i] = c
            return _span_residues(self.field, n, _modp.nullspace(raw, p, n))
        rows = []
        for j in range(n):
            for k in range(n):
                rows.append(tuple(self.table[i][j][k] for i in range(n)))
        return Subspace.span(self.field, n, nullspace(rows, self.field, n))

    def centralizer_mod(self, w: Subspace) -> Subspace:
        """{x : [x, A] and [A, x] are contained in w} (w = 0 gives the center).

        Linear in x: the canonical representative of [x, e_j] modulo w is a
        linear function of x, and membership in w means that representative
        vanishes.  Over GF(p) membership in w is tested instead by the
        covectors f vanishing on w: f([x, e_j]) = sum_i x_i f([e_i, e_j]).
        Each nonzero cell is read once per covector, and zero and repeated
        equations are dropped before the nullspace.
        """
        n = self.dim
        cells = self._cells
        if cells is not None:
            p = self.field.modulus
            rows = set()
            for f in _modp.nullspace(w._res_rows, p, n):
                # right[j][i] = f([e_i, e_j]) and left[j][i] = f([e_j, e_i])
                right = [[0] * n for _ in range(n)]
                left = [[0] * n for _ in range(n)]
                for i, row in enumerate(cells):
                    for j, cell in enumerate(row):
                        if cell:
                            value = sum(c * f[k] for k, c in cell) % p
                            if value:
                                right[j][i] = value
                                left[i][j] = value
                for eq in right + left:
                    if any(eq):
                        rows.add(tuple(eq))
            return _span_residues(self.field, n, _modp.nullspace(list(rows), p, n))
        rows = []
        table = self.table
        for j in range(n):
            right_images = [w.reduce(table[i][j]) for i in range(n)]
            left_images = [w.reduce(table[j][i]) for i in range(n)]
            for images in (right_images, left_images):
                for k in range(n):
                    rows.append(tuple(images[i][k] for i in range(n)))
        return Subspace.span(self.field, n, nullspace(rows, self.field, n))

    def is_ideal(self, u: Subspace) -> bool:
        cells = self._cells
        if cells is not None:
            n, p = self.dim, self.field.modulus
            rows, pivots = u._res_rows, u.pivots
            for r in rows:
                support = [(j, rj) for j, rj in enumerate(r) if rj]
                for i in range(n):
                    # [e_i, r] = sum_j r_j [e_i, e_j] and [r, e_i] = sum_j r_j [e_j, e_i]
                    right = [0] * n
                    left = [0] * n
                    for j, rj in support:
                        for k, c in cells[i][j]:
                            right[k] += rj * c
                        for k, c in cells[j][i]:
                            left[k] += rj * c
                    for w in (right, left):
                        if any(w) and not _modp.contains([a % p for a in w], rows, pivots, p):
                            return False
            return True
        full = self.full_space()
        return u.contains_space(self.span_products(full, u)) and u.contains_space(
            self.span_products(u, full)
        )

    # -- quotients, restrictions, sums --------------------------------------

    def quotient(self, ideal: Subspace) -> "QuotientMap":
        """Quotient by an ideal, with projection data.

        The quotient basis is the image of the standard basis vectors at the
        ideal's non-pivot coordinates, which makes the construction
        deterministic and canonical.
        """
        if not self.is_ideal(ideal):
            raise NotAnIdeal("quotient requires a two-sided ideal")
        comp = ideal.complement_coords()
        labels = tuple(self.labels[c] for c in comp)
        cells = self._cells
        if cells is not None:
            n, p = self.dim, self.field.modulus
            rows, pivots = ideal._res_rows, ideal.pivots
            qcells = []
            for a in comp:
                row = []
                for b in comp:
                    cell = cells[a][b]
                    if cell:
                        image = _modp.reduce_mod(_dense(cell, n), rows, pivots, p)
                        cell = tuple((t, image[c]) for t, c in enumerate(comp) if image[c])
                    row.append(cell)
                qcells.append(tuple(row))
            quotient = LeibnizAlgebra._from_cells(self.field, tuple(qcells), labels)
            return QuotientMap(self, ideal, comp, quotient)
        table = self.table
        qtable = []
        for a in comp:
            row = []
            for b in comp:
                image = ideal.reduce(table[a][b])
                row.append([image[c] for c in comp])
            qtable.append(row)
        return QuotientMap(self, ideal, comp, LeibnizAlgebra(self.field, qtable, labels))

    def restrict(self, s: Subspace) -> "LeibnizAlgebra":
        """Induced algebra on the echelon basis of a bracket-closed subspace."""
        if s.field != self.field or s.ambient_dim != self.dim:
            raise BadVector("subspace does not live in this algebra")
        m = s.dim
        cells = self._cells
        if cells is not None:
            p = self.field.modulus
            rows, pivots = s._res_rows, s.pivots
            rcells = []
            for a in range(m):
                row = []
                for b in range(m):
                    prod = _modp.bracket(cells, rows[a], rows[b], p)
                    if not _modp.contains(prod, rows, pivots, p):
                        raise NotASubalgebra(
                            f"product of basis vectors {a}, {b} leaves the subspace"
                        )
                    row.append(tuple((t, prod[pc]) for t, pc in enumerate(pivots) if prod[pc]))
                rcells.append(tuple(row))
            return LeibnizAlgebra._from_cells(self.field, tuple(rcells))
        table = []
        for a in range(m):
            row = []
            for b in range(m):
                coords = s.coords_of(self.bracket(s.rows[a], s.rows[b]))
                if coords is None:
                    raise NotASubalgebra(
                        f"product of basis vectors {a}, {b} leaves the subspace"
                    )
                row.append(list(coords))
            table.append(row)
        return LeibnizAlgebra(self.field, table)

    def direct_sum(self, other: "LeibnizAlgebra") -> "LeibnizAlgebra":
        """Block-diagonal sum; both summands embed as ideals."""
        if self.field != other.field:
            raise FieldMismatch("direct sum requires a common field")
        n, m = self.dim, other.dim
        labels = tuple(f"{l}'" for l in self.labels) + tuple(f"{l}''" for l in other.labels)
        if self._cells is not None:
            shifted = tuple(
                ((),) * n + tuple(tuple((k + n, c) for k, c in cell) for cell in row)
                for row in other._cells
            )
            cells = tuple(row + ((),) * m for row in self._cells) + shifted
            return LeibnizAlgebra._from_cells(self.field, cells, labels)
        z = self.field.zero()
        table = [[[z] * (n + m) for _ in range(n + m)] for _ in range(n + m)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    table[i][j][k] = self.table[i][j][k]
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    table[n + i][n + j][n + k] = other.table[i][j][k]
        return LeibnizAlgebra(self.field, table, labels)

    def split_codim1_center(self) -> tuple[Subspace, Subspace]:
        """Decompose A = I + J when the center has codimension one.

        I = span{a, a*a} for the lowest-index basis vector a outside the
        center (a*a is then automatically nonzero), and J is the canonical
        complement of span{a*a} inside the center.  Both are verified ideals
        meeting trivially.
        """
        if not is_nilpotent(self):
            raise NotApplicable("decomposition defined for nilpotent algebras")
        z = self.center()
        if z.dim != self.dim - 1:
            raise NotApplicable(
                f"center has dimension {z.dim}, expected {self.dim - 1}"
            )
        a = next(e for e in map(self.basis_vector, range(self.dim)) if not z.contains(e))
        a2 = self.bracket(a, a)
        if vec_is_zero(a2):
            raise NotApplicable("chosen generator squares to zero")  # cannot happen
        i_space = self.subspace([a, a2])
        # canonical complement of span{a2} inside the center: keep center rows
        # that stay independent after a2.
        rows = []
        acc = [a2]
        for row in z.rows:
            before = Subspace.span(self.field, self.dim, acc)
            if not before.contains(row):
                rows.append(row)
                acc.append(row)
        j_space = Subspace.span(self.field, self.dim, rows)
        if not (self.is_ideal(i_space) and self.is_ideal(j_space)):
            raise NotApplicable("decomposition summands failed the ideal check")
        if not i_space.intersect(j_space).is_zero():
            raise NotApplicable("decomposition summands are not independent")
        if i_space.sum_with(j_space).dim != self.dim:
            raise NotApplicable("decomposition does not fill the algebra")
        return i_space, j_space

    # -- misc ---------------------------------------------------------------

    def is_lie(self) -> bool:
        return self.leib_ideal().is_zero()

    def _key(self):
        return self._cells if self._cells is not None else self.table

    def __eq__(self, other):
        return (
            isinstance(other, LeibnizAlgebra)
            and self.field == other.field
            and self._key() == other._key()
        )

    def __hash__(self):
        return hash((self.field, self._key()))

    def __repr__(self):
        return f"LeibnizAlgebra(dim {self.dim} over {self.field})"


def _dense(cell, n: int) -> list[int]:
    """The residue vector of a sparse structure cell."""
    v = [0] * n
    for k, c in cell:
        v[k] = c
    return v


@dataclass(frozen=True)
class QuotientMap:
    """A quotient algebra together with its projection data."""

    parent: LeibnizAlgebra
    ideal: Subspace
    complement_coords: tuple[int, ...]
    algebra: LeibnizAlgebra

    def project_vector(self, v: Sequence) -> Vector:
        v = self.parent.vector(v)
        reduced = self.ideal.reduce(v)
        return tuple(reduced[c] for c in self.complement_coords)

    def lift_vector(self, w: Sequence) -> Vector:
        w = self.algebra.vector(w)
        z = self.parent.field.zero()
        out = [z] * self.parent.dim
        for c, val in zip(self.complement_coords, w):
            out[c] = val
        return tuple(out)

    def preimage(self, s: Subspace) -> Subspace:
        vectors = list(self.ideal.rows) + [self.lift_vector(r) for r in s.rows]
        return Subspace.span(self.parent.field, self.parent.dim, vectors)


def is_nilpotent(algebra: LeibnizAlgebra) -> bool:
    """True iff the lower central series reaches zero."""
    from .series import lower_central_series  # series imports core

    return lower_central_series(algebra)[-1].is_zero()
