"""The exact elimination kernel: every linear algebra of the package.

Vectors are plain lists or tuples of raw field values, with no
FieldElement boxing, and every function takes the field's characteristic
``p``.  Over GF(p) (p > 0) the values are ints, handed out as residues in
[0, p), and the pivot inverse is pow(x, -1, p); only prime moduli are
used.  Over Q (p == 0) they are Fractions, nothing is reduced, and the
pivot inverse is 1 / x.  The branch between the two is taken per row or
per call, never per entry, and the kernel's own 0s and 1s are Fractions
over Q, so each value it hands out is one ``FieldElement`` boxes as is.

Raw values are the representation of every ``Subspace`` and every
``LeibnizAlgebra``: a ``Subspace`` holds its echelon rows as raw tuples and
a ``LeibnizAlgebra`` its structure constants as raw cells, both handed to
these functions directly; their boxed views (``Subspace.rows``,
``LeibnizAlgebra.table``) are built on first read.

Structure constants are held as sparse cells: ``cells[i][j]`` is the tuple
of (k, c) pairs with c != 0 in [e_i, e_j] = sum_k c e_k, k ascending:
residues over GF(p), Fractions over Q.

There is one elimination routine, ``rref``, and the other linear algebra
is plain functions over it: ``nullspace`` (``rref``, then the read-off
``echelon_nullspace``, which callers holding an echelon form call alone),
``kernel_echelon``, the kernel already in reduced echelon form from one
``rref`` (for callers that keep the kernel as a subspace, where
``nullspace`` would need a second elimination), ``left_kernel``,
``solve_affine``, ``rank``, membership (``reduce_mod`` and ``contains``
against an echelon form) and ``coordinates``, the unique coefficients of
targets over independent rows.  No state is kept between calls.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalError

_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)


def _zero_one(p: int):
    """The field's 0 and 1: ints over GF(p), Fractions over Q (p == 0)."""
    return (0, 1) if p else (_Q_ZERO, _Q_ONE)


def bracket(cells, u, v, p: int):
    """[u, v] for raw vectors u, v under the sparse structure cells.

    Over GF(p) each added term is reduced as it is added: most brackets add
    only one or two, so reducing all n entries at the end costs more.
    """
    acc = [_zero_one(p)[0]] * len(cells)
    if p:
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = cells[i]
            for j, vj in enumerate(v):
                if not vj:
                    continue
                c = ui * vj
                for k, coeff in row[j]:
                    acc[k] = (acc[k] + c * coeff) % p
        return acc
    for i, ui in enumerate(u):
        if not ui:
            continue
        row = cells[i]
        for j, vj in enumerate(v):
            if not vj:
                continue
            c = ui * vj
            for k, coeff in row[j]:
                acc[k] += c * coeff
    return acc


def combine(coeffs, rows, p: int, n: int):
    """sum_i coeffs[i] rows[i] as n field values; zero terms skipped."""
    acc = [_zero_one(p)[0]] * n
    for c, row in zip(coeffs, rows):
        if c:
            for k, a in enumerate(row):
                if a:
                    acc[k] += c * a
    return [a % p for a in acc] if p else acc


def rref(rows, p: int, ncols: int):
    """Reduced row echelon form; returns (rows, pivot columns).

    Over GF(p) the entries may be any ints: each is read mod p.  The one
    branch on the field is taken per row, in the pivot test and where a row
    is scaled or eliminated.
    """
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][col] % p if p else work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        row_r = work[r]
        if p:
            inv = pow(row_r[col], -1, p)
            row_r = work[r] = [inv * a % p for a in row_r]
        else:
            inv = _Q_ONE / row_r[col]
            row_r = work[r] = [inv * a for a in row_r]
        for i in range(len(work)):
            if i != r:
                c = work[i][col]
                if p:
                    if c % p:
                        work[i] = [(a - c * b) % p for a, b in zip(work[i], row_r)]
                elif c:
                    work[i] = [a - c * b for a, b in zip(work[i], row_r)]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def nullspace(rows, p: int, ncols: int):
    """Canonical basis of {x : M x = 0}."""
    ech, pivots = rref(rows, p, ncols)
    return echelon_nullspace(ech, pivots, p, ncols)


def kernel_echelon(rows, p: int, ncols: int):
    """{x : M x = 0} in reduced echelon form, from one elimination of M.

    Returns (basis, pivots, span): the canonical echelon rows of the kernel
    as tuples, their pivot columns, and an echelon basis of the row space
    of M, the covectors whose common zeros the kernel is.  M is eliminated
    with its columns reversed, so every pivot of that form lies right of
    the free columns its row reaches.  The read-off vector of a free column
    fc is then zero left of fc and at every other free column: read in
    ascending fc, those vectors are already the reduced echelon form of the
    kernel, with the free columns as pivots, and equal ``rref`` of
    ``nullspace``.
    """
    last = ncols - 1
    ech, rev_pivots = rref([row[::-1] for row in rows], p, ncols)
    pivot_set = set(rev_pivots)
    zero, one = _zero_one(p)
    basis, pivots = [], []
    for rc in range(last, -1, -1):  # reversed column rc is column last - rc
        if rc in pivot_set:
            continue
        v = [zero] * ncols
        v[last - rc] = one
        for row, pc in zip(ech, rev_pivots):
            c = row[rc]
            if c:
                v[last - pc] = -c % p if p else -c
        basis.append(tuple(v))
        pivots.append(last - rc)
    return basis, pivots, [row[::-1] for row in ech]


def echelon_nullspace(ech, pivots, p: int, ncols: int):
    """``nullspace`` read off rows already in reduced echelon form for ``pivots``.

    Only the first ``ncols`` columns are read, so an augmented echelon form
    whose pivots all lie among them may be passed as it is.
    """
    pivot_set = set(pivots)
    zero, one = _zero_one(p)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [zero] * ncols
        v[fc] = one
        for row, pc in zip(ech, pivots):
            v[pc] = -row[fc] % p if p else -row[fc]
        basis.append(v)
    return basis


def left_kernel(rows, p: int, ncols: int):
    """Combinations of the rows summing to zero."""
    height = len(rows)
    transposed = [[rows[i][c] for i in range(height)] for c in range(ncols)]
    return nullspace(transposed, p, height)


def solve_affine(rows, rhs, p: int, ncols: int):
    """Solution set of M x = rhs as (particular, nullspace basis), or None."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ech, pivots = rref(aug, p, ncols + 1)
    if ncols in pivots:
        return None
    x0 = [_zero_one(p)[0]] * ncols
    for row, pc in zip(ech, pivots):
        x0[pc] = row[ncols]
    return x0, echelon_nullspace(ech, pivots, p, ncols)


def rank(rows, p: int, ncols: int) -> int:
    return len(rref(rows, p, ncols)[0])


def reduce_mod(v, ech, pivots, p: int):
    """v minus its components along the echelon rows, at their pivot columns."""
    w = list(v)
    for row, pc in zip(ech, pivots):
        c = w[pc]
        if c:
            if p:
                w = [(a - c * b) % p for a, b in zip(w, row)]
            else:
                w = [a - c * b for a, b in zip(w, row)]
    return w


def contains(v, ech, pivots, p: int) -> bool:
    return not any(reduce_mod(v, ech, pivots, p))


def coordinates(rows, targets, p: int, n: int):
    """Each target's coefficients over the independent ``rows``, by one rref.

    Eliminates the n x (len(rows) + len(targets)) matrix whose columns are
    the rows and then the targets: the rows are independent exactly when
    each of their columns is a pivot, and a target lies in their span
    exactly when its column is not; its coefficients are then read off that
    column of the echelon form.  Raises ``InternalError`` otherwise.
    """
    m = len(rows)
    columns = [[r[k] for r in rows] + [t[k] for t in targets] for k in range(n)]
    ech, pivots = rref(columns, p, m + len(targets))
    if pivots != list(range(m)):
        raise InternalError("rows must be independent and span every target")
    return [[row[c] for row in ech] for c in range(m, m + len(targets))]
