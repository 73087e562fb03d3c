"""Prime-field algebras run on integer residues and box only their results.

The reference functions below recompute every result with plain
FieldElement arithmetic straight from ``algebra.table``, so they share no
code with the residue path of ``core``/``linalg``/``_modp`` they check.
"""

import random

import pytest

from leibalg import (
    GF,
    LeibnizAlgebra,
    Subspace,
    check_p1,
    enumerate_maximal,
    instantiate,
    nilpotency_data,
)
from leibalg.fields import SHARED_ELEMENTS_MAX_P, FieldElement
from leibalg.randomgen import random_nilpotent_algebra
from leibalg.reproduce import enumerate_subspaces
from leibalg.series import upper_central_series

# (p, tower dims, towers); 1031 lies above SHARED_ELEMENTS_MAX_P
FIELDS = [(2, (2, 5), 8), (3, (2, 5), 8), (5, (2, 4), 8), (1031, (2, 5), 8)]
# At or below this p every central ideal and every maximal is checked;
# above it, seeded samples of each.
EXHAUSTIVE_MAX_P = 5
SAMPLES = 3


# ---------------------------------------------------------------------------
# boxed reference
# ---------------------------------------------------------------------------

def ref_bracket(algebra, x, y):
    n = algebra.dim
    acc = [algebra.field.zero()] * n
    for i in range(n):
        for j in range(n):
            c = x[i] * y[j]
            for k in range(n):
                acc[k] = acc[k] + c * algebra.table[i][j][k]
    return tuple(acc)


def ref_rref(rows, field, ncols):
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = field.one() / work[r][col]
        work[r] = [inv * a for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                c = work[i][col]
                work[i] = [a - c * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def ref_nullspace(rows, field, ncols):
    ech, pivots = ref_rref(rows, field, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for row, pc in zip(ech, pivots):
            v[pc] = field.zero() - row[fc]
        basis.append(v)
    return basis


def ref_reduce(rows, pivots, v):
    w = list(v)
    for row, pc in zip(rows, pivots):
        c = w[pc]
        w = [a - c * b for a, b in zip(w, row)]
    return w


def assert_span(space: Subspace, vectors, field, n):
    assert (space.rows, space.pivots) == ref_rref(vectors, field, n)


def ref_centralizer_mod(algebra, w: Subspace):
    n, field = algebra.dim, algebra.field
    rows = []
    for j in range(n):
        right = [ref_reduce(w.rows, w.pivots, algebra.table[i][j]) for i in range(n)]
        left = [ref_reduce(w.rows, w.pivots, algebra.table[j][i]) for i in range(n)]
        for images in (right, left):
            for k in range(n):
                rows.append([images[i][k] for i in range(n)])
    return ref_rref(ref_nullspace(rows, field, n), field, n)


def ref_quotient_table(algebra, ideal: Subspace):
    comp = [c for c in range(algebra.dim) if c not in ideal.pivots]
    return tuple(
        tuple(
            tuple(ref_reduce(ideal.rows, ideal.pivots, algebra.table[a][b])[c] for c in comp)
            for b in comp
        )
        for a in comp
    )


def ref_restrict_table(algebra, s: Subspace):
    table = []
    for u in s.rows:
        row = []
        for v in s.rows:
            prod = ref_bracket(algebra, u, v)
            assert all(a == 0 for a in ref_reduce(s.rows, s.pivots, prod))
            row.append(tuple(prod[pc] for pc in s.pivots))
        table.append(tuple(row))
    return tuple(table)


def ref_violations(algebra):
    n, t = algebra.dim, algebra.table
    basis = [algebra.basis_vector(i) for i in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = ref_bracket(algebra, basis[i], t[j][k])
                rhs1 = ref_bracket(algebra, t[i][j], basis[k])
                rhs2 = ref_bracket(algebra, basis[j], t[i][k])
                residual = tuple(a - b - c for a, b, c in zip(lhs, rhs1, rhs2))
                if any(a != 0 for a in residual):
                    out.append((i + 1, j + 1, k + 1, residual))
    return out


# ---------------------------------------------------------------------------
# the tests
# ---------------------------------------------------------------------------

def random_subspace(rng, field, space: Subspace, k):
    vectors = [
        space.linear_combination([field(rng.randrange(field.modulus)) for _ in space.rows])
        for _ in range(k)
    ]
    return Subspace.span(field, space.ambient_dim, vectors)


def towers(p, dims, count):
    rng = random.Random(1000 + p)
    field = GF(p)
    return rng, [
        random_nilpotent_algebra(rng, field, rng.randrange(dims[0], dims[1] + 1))
        for _ in range(count)
    ]


@pytest.mark.parametrize("p,dims,count", FIELDS)
def test_residue_path_matches_boxed_reference(p, dims, count):
    field = GF(p)
    rng, algebras = towers(p, dims, count)
    assert any(a.dim == dims[1] for a in algebras)
    for algebra in algebras:
        n = algebra.dim
        for _ in range(5):
            x = algebra.vector([rng.randrange(p) for _ in range(n)])
            y = algebra.vector([rng.randrange(p) for _ in range(n)])
            assert algebra.bracket(x, y) == ref_bracket(algebra, x, y)

        full = algebra.full_space()
        derived = algebra.derived()
        for left, right in ((full, full), (full, derived), (derived, full)):
            products = [ref_bracket(algebra, u, v) for u in left.rows for v in right.rows]
            assert_span(algebra.span_products(left, right), products, field, n)

        center = algebra.center()
        assert (center.rows, center.pivots) == ref_centralizer_mod(algebra, algebra.zero_space())
        for term in upper_central_series(algebra):
            got = algebra.centralizer_mod(term)
            assert (got.rows, got.pivots) == ref_centralizer_mod(algebra, term)

        squares = [algebra.table[i][i] for i in range(n)] + [
            tuple(a + b for a, b in zip(algebra.table[i][j], algebra.table[j][i]))
            for i in range(n)
            for j in range(i + 1, n)
        ]
        assert_span(algebra.leib_ideal(), squares, field, n)
        left_rows = [[algebra.table[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]
        assert_span(algebra.left_center(), ref_nullspace(left_rows, field, n), field, n)

        if p <= EXHAUSTIVE_MAX_P:
            ideals = enumerate_subspaces(center, 0)
        else:
            ideals = [center, algebra.zero_space()] + [
                random_subspace(rng, field, center, rng.randrange(1, center.dim + 1))
                for _ in range(SAMPLES)
            ]
        for ideal in ideals:
            q = algebra.quotient(ideal).algebra
            assert q.table == ref_quotient_table(algebra, ideal)

        if p <= EXHAUSTIVE_MAX_P:
            subalgebras = [m.subspace for m in enumerate_maximal(algebra)]
        else:
            # any subspace containing [A, A] is bracket-closed
            subalgebras = [
                Subspace.span(field, n, derived.rows + random_subspace(rng, field, full, 1).rows)
                for _ in range(SAMPLES)
            ]
        for s in subalgebras:
            assert algebra.restrict(s).table == ref_restrict_table(algebra, s)

        assert algebra.check_leibniz() == [] == ref_violations(algebra)
        # some entries can change without breaking the identity: corrupt
        # seeded entries until the reference sees a violation
        for _ in range(20):
            corrupted = [[list(cell) for cell in row] for row in algebra.table]
            i, j, k = (rng.randrange(n) for _ in range(3))
            corrupted[i][j][k] = corrupted[i][j][k] + rng.randrange(1, p)
            bad = LeibnizAlgebra(field, corrupted)
            expected = ref_violations(bad)
            if expected:
                break
        assert expected
        got = [(v.i, v.j, v.k, v.residual) for v in bad.check_leibniz()]
        assert got == expected
        assert not bad.verified


def test_large_prime_really_is_above_the_shared_elements():
    assert FIELDS[-1][0] > SHARED_ELEMENTS_MAX_P


def test_prime_field_operations_do_no_boxed_arithmetic(monkeypatch):
    field = GF(5)
    algebra = instantiate("A1_6dim", field, {"c": -3, "d": 1, "g": 2, "rhat": 1, "shat": 1})

    def boxed(*args):
        raise AssertionError("FieldElement arithmetic on a GF(p) path")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(FieldElement, name, boxed)
    with pytest.raises(AssertionError):
        field(1) + field(1)

    profile = nilpotency_data(algebra)
    assert profile.nilpotent and profile.coclass == 2
    center = algebra.center()
    assert center.dim >= 1
    assert algebra.quotient(center).algebra.dim == algebra.dim - center.dim
    assert algebra.check_leibniz() == []
    assert len(enumerate_maximal(algebra)) == 6
    assert check_p1(algebra)[0]
