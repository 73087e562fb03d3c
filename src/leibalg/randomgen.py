"""Seeded random nilpotent algebras for property suites.

Random structure constants almost never satisfy the defining identity, so
algebras are grown instead as towers of one-dimensional central extensions
over small abelian or cyclic bases, mixed with abelian direct summands.
A central extension by a bilinear form phi is a Leibniz algebra exactly
when phi satisfies the (linear) cocycle condition

    phi(a, [b, c]) = phi([a, b], c) + phi(b, [a, c]),

so a random element of that kernel always yields a valid algebra, and a
central extension of a nilpotent algebra stays nilpotent.  Towers live over
GF(p) and are grown on the residue cells of ``_modp``: each cocycle row is
an identity residual of ``core._identity_residuals`` on ``_cells``, read at
the new central coordinate, and each extension appends its (new index,
residue) pairs, so no table is boxed.  Everything is driven by an explicit
random.Random, so suites are reproducible.
"""

from __future__ import annotations

import random

from . import _modp
from .core import LeibnizAlgebra, _identity_residuals
from .errors import BadVector, NeedsFiniteField
from .fields import Field


def random_nilpotent_algebra(rng: random.Random, field: Field, dim: int) -> LeibnizAlgebra:
    """A random nilpotent Leibniz algebra of exactly the requested dimension."""
    return _random_tower(rng, field, dim, {})


def _random_tower(
    rng: random.Random, field: Field, dim: int, cocycle_spaces: dict
) -> LeibnizAlgebra:
    """``random_nilpotent_algebra``, with the cocycle space of each algebra
    it extends looked up in ``cocycle_spaces`` and computed only when absent.

    The space is a function of the algebra (its field and cells), and the
    draws depend on it alone, so a caller growing many towers may pass one
    dict to all of them and get the towers it would get with fresh ones.
    """
    if not field.is_finite():
        raise NeedsFiniteField("random tower generation needs GF(p)")
    if dim == 0:
        return LeibnizAlgebra.from_table(0, field, [])
    if rng.random() < 0.5 or dim == 1:
        algebra = LeibnizAlgebra.from_table(1, field, [])
    else:
        algebra = LeibnizAlgebra.from_table(2, field, [(1, 1, {2: 1})])
    while algebra.dim < dim:
        if rng.random() < 0.25:
            algebra = algebra.direct_sum(LeibnizAlgebra.from_table(1, field, []))
        else:
            basis = cocycle_spaces.get(algebra)
            if basis is None:
                basis = cocycle_spaces[algebra] = _cocycle_space(algebra)
            algebra = central_extension(algebra, _random_cocycle(rng, algebra, basis))
    return algebra


def _cocycle_space(algebra: LeibnizAlgebra) -> list[list[int]]:
    """Basis of scalar cocycles phi as flat n*n integer vectors.

    The cocycle condition at (a, b, c) is the defining identity of the
    extension read at its new central coordinate, so each row is the
    identity residual with [e_x, e_y] taken as the coordinate x*n + y of phi.
    """
    p = algebra.field.modulus
    n = algebra.dim
    cells = algebra._cells
    products = [[((x * n + y, 1),) for y in range(n)] for x in range(n)]
    rows = []
    for residual in _identity_residuals(cells, products, n * n, 0).values():
        row = [v % p for v in residual]
        if any(row):
            rows.append(row)
    if not rows:
        rows = [[0] * (n * n)]
    return _modp.nullspace(rows, p, n * n)


def _random_cocycle(rng: random.Random, algebra: LeibnizAlgebra, basis) -> list[list[int]]:
    """A random combination of the cocycle space ``basis`` of ``algebra``, as an n x n form."""
    p = algebra.field.modulus
    n = algebra.dim
    flat = _modp.combine([rng.randrange(p) for _ in basis], basis, p, n * n)
    return [[flat[i * n + j] for j in range(n)] for i in range(n)]


def central_extension(algebra: LeibnizAlgebra, phi: list[list[int]]) -> LeibnizAlgebra:
    """Extend by one central dimension with [x, y] += phi(x, y) * e_new (GF(p) only)."""
    field = algebra.field
    if not field.is_finite():
        raise NeedsFiniteField("central extensions are built over GF(p)")
    n = algebra.dim
    if len(phi) != n or any(len(row) != n for row in phi):
        raise BadVector(f"phi must be {n} x {n}")
    p = field.modulus
    cells = []
    for row, phi_row in zip(algebra._cells, phi):
        new_row = []
        for cell, c in zip(row, phi_row):
            c %= p
            new_row.append(cell + ((n, c),) if c else cell)
        cells.append(tuple(new_row) + ((),))
    cells.append(((),) * (n + 1))
    return LeibnizAlgebra._from_cells(field, tuple(cells))


def random_invertible_matrix(rng: random.Random, field: Field, n: int):
    """Rows of a random invertible matrix over GF(p) (rejection sampling)."""
    if not field.is_finite():
        raise NeedsFiniteField("random matrices need GF(p)")
    p = field.modulus
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if _modp.rank(rows, p, n) == n:
            return [[field(c) for c in row] for row in rows]


def change_of_basis(algebra: LeibnizAlgebra, matrix) -> LeibnizAlgebra:
    """Structure constants in the basis f_i = sum_j matrix[i][j] e_j.

    ``matrix`` must be invertible, with one row per basis vector.  The
    result is isomorphic to the input by construction; useful for
    exercising the isomorphism search on scrambled presentations.  The n^2
    products [f_i, f_j] are bracketed on the raw cells and expressed in the
    new basis by one elimination.
    """
    field, n = algebra.field, algebra.dim
    if len(matrix) != n:
        raise BadVector(f"basis change matrix has {len(matrix)} rows for dim {n}")
    p = field.characteristic
    raw = [[a.value for a in algebra.vector(row)] for row in matrix]
    if _modp.rank(raw, p, n) != n:
        raise ValueError("basis change matrix must be invertible")
    cells = algebra._cells
    products = [_modp.bracket(cells, u, v, p) for u in raw for v in raw]
    coords = _modp.coordinates(raw, products, p, n)
    return LeibnizAlgebra(field, [coords[i * n : (i + 1) * n] for i in range(n)])
