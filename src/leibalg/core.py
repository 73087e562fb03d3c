"""Finite-dimensional left Leibniz algebras given by structure constants.

An algebra of dimension n over a field F is the tensor c[i][j][k] with
[e_i, e_j] = sum_k c[i][j][k] e_k.  The defining identity is

    [a, [b, c]] = [[a, b], c] + [b, [a, c]]

and bilinearity makes checking it on basis triples sufficient.  Squares
[v, v] need not vanish; the span of all squares is an ideal annihilating
the algebra from the left.

The identity is walked in one place, ``_identity_residuals``, on sparse
cells over any coefficient ring: residues over GF(p) and Fractions over Q
in ``check_leibniz``, polynomials in ``constraints``, and the cocycle rows
of ``randomgen``.  It starts from the nonzero inner products and visits
only the basis triples they reach; the residual of every other triple is
exactly zero.

Both fields hold an algebra the same way: its structure constants are
sparse raw cells (see ``_modp``), residues over GF(p) and nonzero Fractions
over Q.  Every constructor writes those cells once and ends in one
initializer: ``from_table`` coerces only the coefficients it is given, the
dense ``LeibnizAlgebra(field, table)`` is read in one pass, both through
``Field.raw`` so that no coefficient is boxed, and quotients, restrictions
and direct sums are built straight from cells.  The operations
below compute on the cells and on the raw rows of ``Subspace`` through
``_modp``, with p = ``field.characteristic``.  The boxed ``table`` is built
only on first read; vectors passed in or handed out by ``bracket`` are
FieldElements, coerced or boxed at the call.  ``bracket`` and
``span_products`` are one body for both fields.  Only ``centralizer_mod``
still branches on the field.  Over GF(p) it is one step of
``_centralizer_steps``, which ``series.upper_central_series`` runs from term
to term, carrying covectors.  Over Q it reduces the FieldElements of
``table``, its comment says why, and the series steps through it.

Algebras, vectors, and subspaces are immutable; every operation here is a
pure function of its inputs and safe for concurrent use.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from . import _modp
from .errors import (
    BadIndex,
    BadVector,
    ConstructionError,
    DuplicateEntry,
    FieldMismatch,
    NotAnIdeal,
    NotASubalgebra,
)
from .fields import Field, FieldElement
from .linalg import (
    Subspace,
    Vector,
    _box,
    _kernel_space,
    _span_residues,
    basis_vector,
    nullspace,
    zero_vector,
)


@dataclass(frozen=True, slots=True)
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
    has run and found no violations.  ``_cells[i][j]`` holds [e_i, e_j] as
    the sparse raw pairs (k, c) of ``_modp``, with k ascending and c a
    residue in [1, p) over GF(p), a nonzero Fraction over Q.  It is the only
    stored form: ``table`` is boxed from it on first read.  Labels given
    from outside must be nonempty words with no whitespace and no ``#``, so
    that the ``basis`` line of ``formats`` reads them back; anything else
    raises ``ConstructionError``.
    """

    __slots__ = ("field", "dim", "_labels", "_table", "_cells", "_verified", "_hash")

    def __init__(self, field: Field, table, labels: Sequence[str] | None = None):
        """The algebra whose dense ``table[i][j][k]`` is the e_k-coefficient of [e_i, e_j]."""
        try:
            dim = len(table)
            square = all(len(row) == dim and all(len(c) == dim for c in row) for row in table)
        except TypeError:
            square = False
        if not square:
            raise BadVector("structure tensor must be dim x dim x dim")
        cells = [tuple(_sparse(field, enumerate(cell)) for cell in row) for row in table]
        self._init(field, tuple(cells), _checked_labels(labels, dim))

    @classmethod
    def _from_cells(cls, field: Field, cells, labels=None) -> "LeibnizAlgebra":
        """An algebra from canonical sparse raw cells and already checked labels."""
        self = object.__new__(cls)
        self._init(field, cells, labels)
        return self

    def _init(self, field: Field, cells, labels) -> None:
        """The one initializer every constructor ends in; ``table`` and the
        default labels are built on read."""
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", len(cells))
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "_verified", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("LeibnizAlgebra is immutable")

    @property
    def labels(self) -> tuple[str, ...]:
        """The basis labels: those given, else ``x1..xn``, formatted on first read."""
        labels = self._labels
        if labels is None:
            labels = tuple(f"x{i + 1}" for i in range(self.dim))
            object.__setattr__(self, "_labels", labels)
        return labels

    @property
    def table(self):
        """[e_i, e_j] as ``table[i][j]`` of FieldElements, boxed on first read; zeros share one."""
        try:
            return self._table
        except AttributeError:
            field, n, zero = self.field, self.dim, self.field.zero()
            table = tuple(
                tuple(
                    tuple(_dense([(k, FieldElement(field, c)) for k, c in cell], n, zero))
                    for cell in row
                )
                for row in self._cells
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
        are rejected.  Only the given coefficients are coerced, straight
        into the sparse cells; no dense table is built.
        """
        if not _is_index(dim, 0, dim):
            raise BadVector(f"dimension {dim!r} is not an int >= 0")
        cells = [[()] * dim for _ in range(dim)]
        seen: set[tuple[int, int]] = set()
        for i, j, value in entries:
            if not (_is_index(i, 1, dim) and _is_index(j, 1, dim)):
                raise BadIndex(f"product index [{i!r},{j!r}] is not an int in 1..{dim}")
            if (i, j) in seen:
                raise DuplicateEntry(f"product [{i},{j}] specified twice")
            seen.add((i, j))
            if isinstance(value, dict):
                for k in value:
                    if not _is_index(k, 1, dim):
                        raise BadIndex(f"basis index {k!r} is not an int in 1..{dim}")
                pairs = [(k - 1, value[k]) for k in sorted(value)]
            else:
                try:
                    pairs = list(enumerate(value))
                except TypeError:
                    msg = f"value for [{i},{j}] is neither a dict nor a sequence"
                    raise BadVector(msg) from None
                if len(pairs) != dim:
                    raise BadVector(f"value for [{i},{j}] has length {len(pairs)}")
            cells[i - 1][j - 1] = _sparse(field, pairs)
        return cls._from_cells(field, tuple(map(tuple, cells)), _checked_labels(labels, dim))

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
        u = [a.value for a in self.vector(x)]
        v = [a.value for a in self.vector(y)]
        return _box(self.field, _modp.bracket(self._cells, u, v, self.field.characteristic))

    def check_leibniz(self) -> list[LeibnizViolation]:
        """All basis triples violating the defining identity (empty = valid).

        The residuals are those of ``_identity_residuals``, so only the
        triples some nonzero product reaches are computed; the violations
        are listed in (i, j, k) order.
        """
        field, p = self.field, self.field.characteristic
        violations = []
        for (i, j, k), acc in _identity_residuals(self._cells, self._cells, self.dim, 0).items():
            if any(acc) and (not p or any(a % p for a in acc)):
                violations.append(LeibnizViolation(i + 1, j + 1, k + 1, tuple(map(field, acc))))
        object.__setattr__(self, "_verified", not violations)
        return violations

    @property
    def verified(self) -> bool:
        """True once check_leibniz has run and reported no violations."""
        if self._verified is None:
            self.check_leibniz()
        return bool(self._verified)

    # -- derived structure --------------------------------------------------

    def _check_subspace(self, s: Subspace) -> None:
        """Raise BadVector unless ``s`` lies in this algebra's space; O(1)."""
        if (s.field is not self.field and s.field != self.field) or s.ambient_dim != self.dim:
            raise BadVector("subspace does not live in this algebra")

    def span_products(self, left: Subspace, right: Subspace) -> Subspace:
        """Canonical span of {[u, v] : u in basis(left), v in basis(right)}.

        Bilinearity makes basis products sufficient.
        """
        self._check_subspace(left)
        self._check_subspace(right)
        cells, p = self._cells, self.field.characteristic
        products = [_modp.bracket(cells, u, v, p) for u in left._res_rows for v in right._res_rows]
        return _span_residues(self.field, self.dim, products)

    def derived(self) -> Subspace:
        full = self.full_space()
        return self.span_products(full, full)

    def leib_ideal(self) -> Subspace:
        """Span of all squares [v, v].

        The square map is quadratic, so polarization reduces it to basis
        squares [e_i, e_i] together with [e_i, e_j] + [e_j, e_i] for i < j.
        """
        n, cells = self.dim, self._cells
        zero = _modp._zero_one(self.field.characteristic)[0]
        gens = [_dense(cells[i][i], n, zero) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = _dense(cells[i][j], n, zero)
                for k, c in cells[j][i]:
                    v[k] += c
                gens.append(v)
        return _span_residues(self.field, n, gens)

    def center(self) -> Subspace:
        return self.centralizer_mod(self.zero_space())

    def left_center(self) -> Subspace:
        """{x : [x, a] = 0 for all a}; contains the (two-sided) center."""
        n, p = self.dim, self.field.characteristic
        zero = _modp._zero_one(p)[0]
        raw = [[zero] * n for _ in range(n * n)]
        for i, row in enumerate(self._cells):
            for j, cell in enumerate(row):
                for k, c in cell:
                    raw[j * n + k][i] = c
        return _kernel_space(self.field, n, raw)

    def centralizer_mod(self, w: Subspace) -> Subspace:
        """{x : [x, A] and [A, x] are contained in w} (w = 0 gives the center).

        Linear in x: the canonical representative of [x, e_j] modulo w is a
        linear function of x, and membership in w means that representative
        vanishes.  Over GF(p) this is the first of ``_centralizer_steps``
        from the covectors vanishing on w, read off its echelon rows.
        """
        self._check_subspace(w)
        n, p = self.dim, self.field.characteristic
        if p:
            covectors = _modp.echelon_nullspace(w._res_rows, w.pivots, p, n)
            return next(self._centralizer_steps(covectors))
        # Over Q this stays on the boxed table and Subspace.reduce, on purpose,
        # and ``series.upper_central_series`` steps through it over Q.
        # Running the covector steps over Q too cut perfbench
        # ``rational`` wall_s from 0.166-0.188 to 0.071-0.075 s but raised its
        # peak_rss_mb from 29.4-31.4 to 43.8-46.8 MB (+49 %, past the 0.1
        # bound; two alternating 45-s pairs, Python 3.11, 2 vCPUs).
        # perfbench/worker.py keeps every round's results, about 40.1 KB a
        # round (tracemalloc), so the extra rounds a faster Q path fits into
        # the same 45 s cost memory the library never uses.  This fork goes
        # once perfbench stops keeping them (ROADMAP items 1, 11(c)).
        rows = []
        table = self.table
        for j in range(n):
            right_images = [w.reduce(table[i][j]) for i in range(n)]
            left_images = [w.reduce(table[j][i]) for i in range(n)]
            for images in (right_images, left_images):
                for k in range(n):
                    rows.append(tuple(images[i][k] for i in range(n)))
        return Subspace.span(self.field, n, nullspace(rows, self.field, n))

    def _centralizer_steps(self, covectors):
        """Over GF(p), with w the common zeros of ``covectors``: the terms
        ``centralizer_mod(w)``, the ``centralizer_mod`` of that, and so on.

        f([x, e_j]) = sum_i x_i f([e_i, e_j]) is the equation f o R_j, and
        f([e_j, x]) the equation f o L_j.  Each step reads the products with
        an e_k term once per covector f with f_k != 0, drops zero and
        repeated equations, and makes one ``kernel_echelon``: its kernel is
        the term, and its echelon rows, which span the equations, are the
        covectors vanishing on the term, those of the next step.
        """
        n, p = self.dim, self.field.modulus
        by_k = [[] for _ in range(n)]  # by_k[k]: the (i, j, c) with c e_k in [e_i, e_j]
        for i, row in enumerate(self._cells):
            for j, cell in enumerate(row):
                for k, c in cell:
                    by_k[k].append((i, j, c))
        while True:
            rows = set()
            for f in covectors:
                values: dict = {}
                for k, fk in enumerate(f):
                    if fk:
                        for i, j, c in by_k[k]:
                            values[i, j] = values.get((i, j), 0) + fk * c
                # right[j][i] = left[i][j] = f([e_i, e_j])
                right: dict = {}
                left: dict = {}
                for (i, j), value in values.items():
                    value %= p
                    if value:
                        eq = right.get(j)
                        if eq is None:
                            eq = right[j] = [0] * n
                        eq[i] = value
                        eq = left.get(i)
                        if eq is None:
                            eq = left[i] = [0] * n
                        eq[j] = value
                rows.update(map(tuple, right.values()))
                rows.update(map(tuple, left.values()))
            basis, pivots, covectors = _modp.kernel_echelon(list(rows), p, n)
            yield Subspace._from_residues(self.field, n, tuple(basis), pivots)

    def is_ideal(self, u: Subspace) -> bool:
        """Are [A, u] and [u, A] contained in u?

        Bilinearity makes the products of basis vectors sufficient, so this is
        two ``span_products`` and their containment tests.
        """
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
        self._check_subspace(ideal)
        if not self.is_ideal(ideal):
            raise NotAnIdeal("quotient requires a two-sided ideal")
        comp = ideal.complement_coords()
        labels = tuple(self.labels[c] for c in comp)
        n, p = self.dim, self.field.characteristic
        zero = _modp._zero_one(p)[0]
        rows, pivots = ideal._res_rows, ideal.pivots
        qcells = []
        for a in comp:
            row = []
            for b in comp:
                cell = self._cells[a][b]
                if cell:
                    image = _modp.reduce_mod(_dense(cell, n, zero), rows, pivots, p)
                    cell = tuple((t, image[c]) for t, c in enumerate(comp) if image[c])
                row.append(cell)
            qcells.append(tuple(row))
        quotient = LeibnizAlgebra._from_cells(self.field, tuple(qcells), labels)
        return QuotientMap(self, ideal, comp, quotient)

    def restrict(self, s: Subspace) -> "LeibnizAlgebra":
        """Induced algebra on the echelon basis of a bracket-closed subspace."""
        self._check_subspace(s)
        p = self.field.characteristic
        rows, pivots = s._res_rows, s.pivots
        rcells = []
        for a, u in enumerate(rows):
            row = []
            for b, v in enumerate(rows):
                prod = _modp.bracket(self._cells, u, v, p)
                if not _modp.contains(prod, rows, pivots, p):
                    raise NotASubalgebra(f"product of basis vectors {a}, {b} leaves the subspace")
                row.append(tuple((t, prod[pc]) for t, pc in enumerate(pivots) if prod[pc]))
            rcells.append(tuple(row))
        return LeibnizAlgebra._from_cells(self.field, tuple(rcells))

    def direct_sum(self, other: "LeibnizAlgebra") -> "LeibnizAlgebra":
        """Block-diagonal sum; both summands embed as ideals."""
        if self.field != other.field:
            raise FieldMismatch("direct sum requires a common field")
        n, m = self.dim, other.dim
        labels = tuple(f"{l}'" for l in self.labels) + tuple(f"{l}''" for l in other.labels)
        shifted = tuple(
            ((),) * n + tuple(tuple((k + n, c) for k, c in cell) for cell in row)
            for row in other._cells
        )
        cells = tuple(row + ((),) * m for row in self._cells) + shifted
        return LeibnizAlgebra._from_cells(self.field, cells, labels)

    def split_codim1_center(self) -> tuple[Subspace, Subspace]:
        """Decompose A = I + J when the center has codimension one.

        I = span{a, a*a} for the lowest-index basis vector a outside the
        center (a*a is then automatically nonzero), and J is the canonical
        complement of span{a*a} inside the center.  Both are verified ideals
        meeting trivially.
        """
        from .series import SeriesProfile  # series imports core

        return SeriesProfile(self).codim1_split

    # -- misc ---------------------------------------------------------------

    def is_lie(self) -> bool:
        return self.leib_ideal().is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, LeibnizAlgebra)
            and self.field == other.field
            and self._cells == other._cells
        )

    def __hash__(self):
        # the cells are immutable, so their hash is computed on first use only
        h = self._hash
        if h is None:
            h = hash((self.field, self._cells))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"LeibnizAlgebra(dim {self.dim} over {self.field})"


def _identity_residuals(cells, products, size, zero) -> dict:
    """{(i, j, k): [e_i, [e_j, e_k]] - [[e_i, e_j], e_k] - [e_j, [e_i, e_k]]} as dense lists.

    The inner brackets are read from the sparse (m, c) cells ``cells``, the
    outer ones from the sparse (t, d) cells ``products``, t < size, over any
    commutative ring of coefficients with additive identity ``zero``.  The
    walk starts from each nonzero inner cell [e_a, e_b] = sum c e_m and adds
    +c [e_i, e_m] at (i, a, b), -c [e_m, e_k] at (a, b, k) and
    -c [e_j, e_m] at (a, j, b), for the nonzero outer products only.  Every
    triple it does not reach has residual exactly 0 and is left out; the
    keys are in (i, j, k) order.
    """
    n = len(cells)
    # into[m]: the nonzero [e_x, e_m]; out[m]: the nonzero [e_m, e_y]
    into = [[(x, products[x][m]) for x in range(n) if products[x][m]] for m in range(n)]
    out = [[(y, cell) for y, cell in enumerate(products[m]) if cell] for m in range(n)]
    residuals = defaultdict(lambda: [zero] * size)
    for a, row in enumerate(cells):
        for b, cell in enumerate(row):
            for m, c in cell:
                for x, prod in into[m]:
                    acc = residuals[x, a, b]
                    for t, d in prod:
                        acc[t] += c * d
                    acc = residuals[a, x, b]
                    for t, d in prod:
                        acc[t] -= c * d
                for y, prod in out[m]:
                    acc = residuals[a, b, y]
                    for t, d in prod:
                        acc[t] -= c * d
    return {key: residuals[key] for key in sorted(residuals)}


def _sparse(field: Field, pairs) -> tuple:
    """The canonical cell of (k, coefficient) pairs, k ascending: nonzero raw values."""
    cell = []
    for k, c in pairs:
        c = field.raw(c)
        if c:
            cell.append((k, c))
    return tuple(cell)


def _is_index(x, low: int, high: int) -> bool:
    """Is ``x`` an int (not a bool) in low..high?"""
    return isinstance(x, int) and not isinstance(x, bool) and low <= x <= high


def _checked_labels(labels, dim: int):
    """``labels`` as a tuple (None stays None), each one a basis-line word."""
    if labels is None:
        return None
    labels = tuple(labels)
    if len(labels) != dim:
        raise BadVector("label count must match dim")
    for label in labels:
        if not isinstance(label, str) or label.split() != [label] or "#" in label:
            raise ConstructionError(
                f"label {label!r} must be a nonempty word with no whitespace or '#'"
            )
    return labels


def _dense(cell, n: int, zero) -> list:
    """The raw vector of a sparse structure cell, with the field's ``zero``."""
    v = [zero] * n
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
