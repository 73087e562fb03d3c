"""The integer residue kernel: every GF(p) computation of the package.

Vectors are plain lists or tuples of ints in [0, p); no FieldElement
boxing.  Only prime moduli are used, so inverses come from pow(x, -1, p).
Residues are the representation of every GF(p) object: a prime-field
``Subspace`` holds its echelon rows as residue tuples and a prime-field
``LeibnizAlgebra`` its structure constants as residue cells, both handed to
these functions directly; their boxed views (``Subspace.rows``,
``LeibnizAlgebra.table``) are built on first read.  The rationals keep the
boxed loops of ``linalg`` and ``core``.

Structure constants are held as sparse cells: ``cells[i][j]`` is the tuple
of (k, c) pairs with c != 0 in [e_i, e_j] = sum_k c e_k.
"""

from __future__ import annotations


def bracket(cells, u, v, p: int):
    """[u, v] for residue vectors u, v under the sparse structure cells."""
    acc = [0] * len(cells)
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


def combine(coeffs, rows, p: int, n: int):
    """sum_i coeffs[i] rows[i] as n residues; zero coefficients and entries skipped."""
    acc = [0] * n
    for c, row in zip(coeffs, rows):
        if c:
            for k, a in enumerate(row):
                if a:
                    acc[k] = (acc[k] + c * a) % p
    return acc


def rref(rows, p: int, ncols: int):
    """Reduced row echelon form; returns (rows, pivot columns)."""
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][col] % p:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = pow(work[r][col], -1, p)
        work[r] = [(inv * a) % p for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] % p:
                c = work[i][col]
                row_r = work[r]
                work[i] = [(a - c * b) % p for a, b in zip(work[i], row_r)]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def nullspace(rows, p: int, ncols: int):
    """Canonical basis of {x : M x = 0}."""
    ech, pivots = rref(rows, p, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(ech, pivots):
            v[pc] = (-row[fc]) % p
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
    x0 = [0] * ncols
    for row, pc in zip(ech, pivots):
        x0[pc] = row[ncols]
    return x0, nullspace([r[:ncols] for r in ech], p, ncols)


def rank(rows, p: int, ncols: int) -> int:
    return len(rref(rows, p, ncols)[0])


def reduce_mod(v, ech, pivots, p: int):
    w = list(v)
    for row, pc in zip(ech, pivots):
        c = w[pc] % p
        if c:
            w = [(a - c * b) % p for a, b in zip(w, row)]
    return w


def contains(v, ech, pivots, p: int) -> bool:
    return not any(reduce_mod(v, ech, pivots, p))


def matinv(rows, p: int):
    """Inverse of a square matrix given by rows, or None if singular."""
    n = len(rows)
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    ech, pivots = rref(aug, p, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [r[n:] for r in ech]


class SpanTracker:
    """Incremental echelon span with expression recovery over inserted vectors."""

    __slots__ = ("p", "n", "rows", "shadows", "pivots", "count")

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.rows: list[list[int]] = []
        self.shadows: list[list[int]] = []
        self.pivots: list[int] = []
        self.count = 0

    def express(self, v):
        """Coefficients of v over the inserted vectors, or None if outside."""
        p = self.p
        w = list(v)
        combo = [0] * self.count
        for row, shadow, pc in zip(self.rows, self.shadows, self.pivots):
            c = w[pc] % p
            if c:
                w = [(a - c * b) % p for a, b in zip(w, row)]
                for idx, s in enumerate(shadow):
                    if s:
                        combo[idx] = (combo[idx] + c * s) % p
        if any(w):
            return None
        return combo

    def add(self, v) -> bool:
        """Insert v; returns False when v is dependent (and does not insert)."""
        p = self.p
        w = list(v)
        shadow = [0] * self.count + [1]
        for idx in range(self.count):
            self.shadows[idx].append(0)
        for row, srow, pc in zip(self.rows, self.shadows, self.pivots):
            c = w[pc] % p
            if c:
                w = [(a - c * b) % p for a, b in zip(w, row)]
                for k, s in enumerate(srow):
                    if s:
                        shadow[k] = (shadow[k] - c * s) % p
        pivot = next((i for i, a in enumerate(w) if a % p), None)
        if pivot is None:
            for idx in range(self.count):
                self.shadows[idx].pop()
            return False
        inv = pow(w[pivot], -1, p)
        w = [(inv * a) % p for a in w]
        shadow = [(inv * a) % p for a in shadow]
        for i in range(len(self.rows)):
            c = self.rows[i][pivot]
            if c:
                self.rows[i] = [(a - c * b) % p for a, b in zip(self.rows[i], w)]
                srow = self.shadows[i]
                for k, s in enumerate(shadow):
                    if s:
                        srow[k] = (srow[k] - c * s) % p
        self.rows.append(w)
        self.shadows.append(shadow)
        self.pivots.append(pivot)
        self.count += 1
        return True
