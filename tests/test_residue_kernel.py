"""Prime-field algebras and subspaces are held and computed as residues,
and rational subspaces run on the same kernel with Fractions.

The reference functions below recompute every result with plain
FieldElement arithmetic straight from ``algebra.table``, or with plain
integer loops, so they share no code with the raw-value path of
``core``/``linalg``/``_modp``/``maximal`` they check.  The rational
references are the boxed elimination loops ``linalg`` ran over Q before
both fields shared the kernel.
"""

import itertools
import random
from fractions import Fraction

import pytest

from leibalg import (
    GF,
    QQ,
    BadVector,
    FieldMismatch,
    LeibnizAlgebra,
    NeedsFiniteField,
    Subspace,
    check_p1,
    enumerate_maximal,
    format_algebra,
    instantiate,
    list_catalog,
    nilpotency_data,
    parse_algebra,
    sample_params,
)
from leibalg import _modp, randomgen
from leibalg.catalog import parametric_table1, parametric_table6
from leibalg.cli import main as cli_main
from leibalg.constraints import raw_leibniz_residuals
from leibalg.core import _identity_residuals
from leibalg.fields import Field, FieldElement
from leibalg.linalg import nullspace, rref
from leibalg.maximal import fingerprint
from leibalg.poly import MultiPoly
from leibalg.randomgen import (
    central_extension,
    change_of_basis,
    random_invertible_matrix,
    random_nilpotent_algebra,
)
from leibalg.reproduce import enumerate_subspaces
from leibalg.series import lower_central_series, upper_central_series

# (p, tower dims, towers); 1031 checks residues past a few bits
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
            if x[i] and y[j]:
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
        if c:
            w = [a - c * b for a, b in zip(w, row)]
    return w


def ref_linear_combination(space: Subspace, coeffs):
    field, n = space.field, space.ambient_dim
    acc = [field.zero()] * n
    for c, row in zip(coeffs, space.rows):
        if c:
            for j in range(n):
                acc[j] = acc[j] + c * row[j]
    return tuple(acc)


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


def ref_is_ideal(algebra, u: Subspace):
    for r in u.rows:
        for e in (algebra.basis_vector(i) for i in range(algebra.dim)):
            for w in (ref_bracket(algebra, e, r), ref_bracket(algebra, r, e)):
                if any(a != 0 for a in ref_reduce(u.rows, u.pivots, w)):
                    return False
    return True


def ref_square_profile(algebra):
    """(# v with [v, v] = 0, # with [v, v] != 0) over every vector, on ints.

    None past the 4096 vectors the fingerprint counts.
    """
    p, n = algebra.field.modulus, algebra.dim
    if p**n > 4096:
        return None
    t = [[[c.value for c in cell] for cell in row] for row in algebra.table]
    zero = 0
    for v in itertools.product(range(p), repeat=n):
        square = [
            sum(v[i] * v[j] * t[i][j][k] for i in range(n) for j in range(n)) % p
            for k in range(n)
        ]
        zero += not any(square)
    return zero, p**n - zero


def ref_series(step, start):
    """Apply step until a term repeats; every distinct term, listed once."""
    terms = [start]
    while True:
        nxt = step(terms[-1])
        if nxt == terms[-1]:
            return terms
        terms.append(nxt)


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


def assert_corrupted_copy_matches(rng, algebra, offset):
    """check_leibniz of a corrupted copy reports the reference's violations.

    Some entries can change without breaking the identity: seeded entries
    are shifted by ``offset()`` until the reference sees a violation.
    Returns the corrupted copy and its violations as (i, j, k, residual).
    """
    n = algebra.dim
    for _ in range(20):
        corrupted = [[list(cell) for cell in row] for row in algebra.table]
        i, j, k = (rng.randrange(n) for _ in range(3))
        corrupted[i][j][k] = corrupted[i][j][k] + offset()
        bad = LeibnizAlgebra(algebra.field, corrupted)
        expected = ref_violations(bad)
        if expected:
            break
    assert expected
    got = [(v.i, v.j, v.k, v.residual) for v in bad.check_leibniz()]
    assert got == expected
    assert not bad.verified
    return bad, got


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

        for k in range(n + 1):
            s = random_subspace(rng, field, full, k)
            assert algebra.is_ideal(s) == ref_is_ideal(algebra, s)
        for s in (center, derived, algebra.zero_space(), full):
            assert algebra.is_ideal(s) and ref_is_ideal(algebra, s)

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
        assert_corrupted_copy_matches(rng, algebra, lambda: rng.randrange(1, p))


def test_rational_check_matches_boxed_reference():
    # the Q identity check walks raw Fraction cells; the reference brackets
    # boxed basis vectors
    rng = random.Random(11)
    checked = 0
    for entry in list_catalog():
        params = sample_params(entry.name, QQ)
        if params is None:
            continue
        algebra = instantiate(entry.name, QQ, params)
        assert algebra.check_leibniz() == [] == ref_violations(algebra)
        for _ in range(3):
            offset = lambda: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 5))
            _, got = assert_corrupted_copy_matches(rng, algebra, offset)
            assert all(c.field is QQ and c.value.__class__ is Fraction for v in got for c in v[3])
        checked += 1
    assert checked >= 5


def rational_invertible_matrix(rng, n):
    """Rows of a seeded invertible rational matrix: shuffled rows of D*U.

    U is unit upper triangular with small Fractions above the diagonal and
    D is diagonal with nonzero Fractions.
    """
    rows = []
    for i in range(n):
        scale = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
        rows.append([QQ(scale * (1 if j == i else Fraction(rng.randint(-2, 2), rng.randint(1, 3))))
                     if j >= i else QQ(0) for j in range(n)])
    rng.shuffle(rows)
    return rows


def ref_direct_sum_table(a, b):
    n, m = a.dim, b.dim
    zero = a.field.zero()
    return tuple(
        tuple(
            tuple(
                a.table[i][j][k] if i < n and j < n and k < n
                else b.table[i - n][j - n][k - n] if i >= n and j >= n and k >= n
                else zero
                for k in range(n + m)
            )
            for j in range(n + m)
        )
        for i in range(n + m)
    )


def canonical_cells(field, table):
    """The cells read off a boxed or coercible dense table: nonzero raw values."""
    return tuple(
        tuple(tuple((k, field(a).value) for k, a in enumerate(cell) if field(a)) for cell in row)
        for row in table
    )


def assert_canonical_cells(algebra):
    """Cells hold nonzero raw values of the field's kind with k ascending, agree
    with the boxed table, and the dense constructor rebuilds them."""
    field, p = algebra.field, algebra.field.characteristic
    for row in algebra._cells:
        for cell in row:
            ks = [k for k, _ in cell]
            assert ks == sorted(set(ks))
            if p:
                assert all(c.__class__ is int and 0 < c < p for _, c in cell), cell
            else:
                assert all(c.__class__ is Fraction and c != 0 for _, c in cell), cell
    table = algebra.table
    assert all(a.__class__ is FieldElement and a.field is field
               for row in table for cell in row for a in cell)
    assert algebra._cells == canonical_cells(field, table)
    assert LeibnizAlgebra(field, table)._cells == algebra._cells
    # the zero entries of a boxed table are one shared element
    assert len({id(a) for row in table for cell in row for a in cell if not a}) <= 1
    if not p:
        assert_exact([cell for row in table for cell in row])


def rational_catalog(rng):
    """Every family at its Q sample and a seeded change-of-basis copy of it."""
    algebras = []
    for entry in list_catalog():
        algebra = instantiate(entry.name, QQ, sample_params(entry.name, QQ))
        copy = change_of_basis(algebra, rational_invertible_matrix(rng, algebra.dim))
        algebras += [algebra, copy]
    return algebras


def rational_vector(rng, n):
    """Seeded Fractions, about a third of them zero, denominators up to 5."""
    return [QQ(Fraction(rng.randint(-6, 6), rng.randint(1, 5))) if rng.random() < 0.7 else QQ(0)
            for _ in range(n)]


def test_rational_operations_match_the_boxed_reference():
    # every family at its Q sample and a change-of-basis copy with Fraction
    # structure constants, against references on the boxed table
    rng = random.Random(37)
    heisenberg = instantiate("heisenberg3", QQ, {})
    algebras = rational_catalog(rng)
    assert any(c.denominator > 1 for a in algebras for row in a._cells for cell in row
               for _, c in cell)
    non_ideal_lines = 0
    for algebra in algebras:
        n, table = algebra.dim, algebra.table
        parsed = parse_algebra(format_algebra(algebra))
        assert parsed == algebra and hash(parsed) == hash(algebra)

        squares = [table[i][i] for i in range(n)] + [
            tuple(a + b for a, b in zip(table[i][j], table[j][i]))
            for i in range(n)
            for j in range(i + 1, n)
        ]
        assert_span(algebra.leib_ideal(), squares, QQ, n)
        left_rows = [[table[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]
        assert_span(algebra.left_center(), ref_nullspace(left_rows, QQ, n), QQ, n)

        center, derived = algebra.center(), algebra.derived()
        assert (center.rows, center.pivots) == ref_centralizer_mod(algebra, algebra.zero_space())
        products = [ref_bracket(algebra, u, v) for u in algebra.full_space().rows
                    for v in algebra.full_space().rows]
        assert_span(derived, products, QQ, n)
        for s in (center, derived):
            assert algebra.is_ideal(s) and ref_is_ideal(algebra, s)
        lines = [algebra.subspace([algebra.basis_vector(i)]) for i in range(n)]
        line = next((s for s in lines if not ref_is_ideal(algebra, s)), None)
        if line is not None:
            assert not algebra.is_ideal(line)
            non_ideal_lines += 1

        quotient = algebra.quotient(center).algebra
        assert quotient.table == ref_quotient_table(algebra, center)
        restricted = algebra.restrict(derived)
        assert restricted.table == ref_restrict_table(algebra, derived)
        summed = algebra.direct_sum(heisenberg)
        assert summed.table == ref_direct_sum_table(algebra, heisenberg)
        assert summed == LeibnizAlgebra(QQ, summed.table)
        for built in (algebra, parsed, quotient, restricted, summed):
            assert_canonical_cells(built)
    assert non_ideal_lines >= len(algebras) - 2  # all but the abelian family


def test_rational_bracket_matches_the_boxed_reference():
    # seeded rational vectors with zeros and denominators > 1, the zero and
    # the basis vectors, bracketed by every family and its change-of-basis copy
    rng = random.Random(41)
    shapes = {"zero entry": 0, "denominator > 1": 0, "raw input": 0}
    for algebra in rational_catalog(rng):
        n = algebra.dim
        vectors = [algebra.zero_vector()] + [algebra.basis_vector(i) for i in range(n)]
        vectors += [rational_vector(rng, n) for _ in range(4)]
        for x in vectors:
            for y in vectors:
                got = algebra.bracket(x, y)
                assert got == ref_bracket(algebra, x, y)
                assert_exact([got])
                shapes["zero entry"] += any(not a for a in got)
                shapes["denominator > 1"] += any(a.value.denominator > 1 for a in got)
        x, y = rational_vector(rng, n), rational_vector(rng, n)
        raw = algebra.bracket([a.value for a in x], [str(a.value) for a in y])
        assert raw == algebra.bracket(x, y)
        shapes["raw input"] += 1
    assert all(shapes.values()), shapes


CONSTRUCTION_FIELDS = [GF(3), GF(5), GF(7), QQ]


@pytest.mark.parametrize("field", CONSTRUCTION_FIELDS, ids=str)
def test_every_family_is_built_on_canonical_cells(field):
    built = 0
    for entry in list_catalog():
        params = sample_params(entry.name, field)
        if params is None:
            continue
        algebra = instantiate(entry.name, field, params)
        assert_canonical_cells(algebra)
        assert parse_algebra(format_algebra(algebra))._cells == algebra._cells
        built += 1
    assert built >= len(list_catalog()) - 1  # A1_6dim has no GF(3) sample


def from_table_cases(field):
    """Edge cases of from_table entries: (entries, the dense table they mean)."""
    p = field.characteristic or 7
    cases = {
        "explicit zero": [(1, 1, {2: 0, 3: 1})],
        "coefficient p": [(1, 2, {1: p, 3: 2})],
        "minus one": [(2, 1, {3: -1})],
        "Fraction(2, 4)": [(2, 2, {1: Fraction(2, 4)})],
        "full vector": [(3, 1, [0, Fraction(2, 4), -1])],
        "descending keys": [(3, 3, {3: 1, 2: -1, 1: 2})],
    }
    cases["all at once"] = [e for entries in cases.values() for e in entries]
    out = []
    for name, entries in cases.items():
        dense = [[[field(0)] * 3 for _ in range(3)] for _ in range(3)]
        for i, j, value in entries:
            items = value.items() if isinstance(value, dict) else enumerate(value, start=1)
            for k, c in items:
                dense[i - 1][j - 1][k - 1] = field(c)
        out.append((name, entries, dense))
    return out


@pytest.mark.parametrize("field", CONSTRUCTION_FIELDS, ids=str)
def test_from_table_writes_the_canonical_cells_of_its_entries(field):
    for name, entries, dense in from_table_cases(field):
        algebra = LeibnizAlgebra.from_table(3, field, entries)
        assert algebra._cells == LeibnizAlgebra(field, dense)._cells, name
        assert algebra._cells == canonical_cells(field, dense), name
        assert [[list(cell) for cell in row] for row in algebra.table] == dense, name
        assert_canonical_cells(algebra)


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


# ---------------------------------------------------------------------------
# towers grown on cells agree with the boxed-table recipe
# ---------------------------------------------------------------------------

def ref_central_extension(algebra, phi):
    field, n = algebra.field, algebra.dim
    z = field.zero()
    table = [[[z] * (n + 1) for _ in range(n + 1)] for _ in range(n + 1)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                table[i][j][k] = algebra.table[i][j][k]
            table[i][j][n] = field(phi[i][j])
    return LeibnizAlgebra(field, table)


def ref_random_cocycle(rng, algebra):
    """A random cocycle from cocycle rows written on algebra.table."""
    field, n, t = algebra.field, algebra.dim, algebra.table
    p = field.modulus
    rows = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                row = [field.zero()] * (n * n)
                for m in range(n):
                    row[a * n + m] += t[b][c][m]
                    row[m * n + c] -= t[a][b][m]
                    row[b * n + m] -= t[a][c][m]
                if any(row):
                    rows.append(row)
    flat = [0] * (n * n)
    for vec in ref_nullspace(rows, field, n * n):
        c = rng.randrange(p)
        if c:
            flat = [(f + c * v.value) % p for f, v in zip(flat, vec)]
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def ref_tower(rng, field, dim):
    """random_nilpotent_algebra's recipe with the same random.Random calls."""
    if dim == 0:
        return LeibnizAlgebra.from_table(0, field, [])
    if rng.random() < 0.5 or dim == 1:
        algebra = LeibnizAlgebra.from_table(1, field, [])
    else:
        algebra = LeibnizAlgebra.from_table(2, field, [(1, 1, {2: 1})])
    while algebra.dim < dim:
        if rng.random() < 0.25:
            algebra = ref_central_extension(algebra, [[0] * algebra.dim] * algebra.dim)
        else:
            algebra = ref_central_extension(algebra, ref_random_cocycle(rng, algebra))
    return algebra


@pytest.mark.parametrize("p,dims,count", FIELDS)
def test_towers_match_the_boxed_table_recipe(p, dims, count):
    field = GF(p)
    rng, ref_rng = random.Random(1000 + p), random.Random(1000 + p)
    for dim in [0, 1] + list(range(dims[0], dims[1] + 1)) * 2:
        got = random_nilpotent_algebra(rng, field, dim)
        expected = ref_tower(ref_rng, field, dim)
        assert got == expected and hash(got) == hash(expected)
        assert got.table == expected.table
        assert got.check_leibniz() == []
    assert rng.getstate() == ref_rng.getstate()


def test_central_extension_checks_its_input():
    plane = LeibnizAlgebra.from_table(2, GF(3), [])
    for phi in ([[0, 0, 9], [0, 0]], [[0, 0], [0, 0], [1, 1]], [[0, 0]], [[0], [0, 0]], []):
        with pytest.raises(BadVector):
            central_extension(plane, phi)
    assert central_extension(plane, [[1, 0], [0, 0]]).table[0][0] == (0, 0, 1)
    with pytest.raises(NeedsFiniteField):
        central_extension(LeibnizAlgebra.from_table(2, QQ, []), [[1, 0], [0, 0]])


# ---------------------------------------------------------------------------
# residues are the representation; boxed views agree with them
# ---------------------------------------------------------------------------

def small_algebras(field):
    """Dims 0 and 1, and a non-nilpotent, non-Lie algebra: [x, y] = y."""
    affine = LeibnizAlgebra.from_table(2, field, [(1, 2, {2: 1})])
    assert affine.check_leibniz() == [] and not affine.is_lie()
    return [
        LeibnizAlgebra.from_table(0, field, []),
        LeibnizAlgebra.from_table(1, field, []),
        affine,
    ]


def assert_boxed_rebuild(space: Subspace):
    field, n = space.field, space.ambient_dim
    rebuilt = Subspace.span(field, n, space.rows)
    assert space == rebuilt and hash(space) == hash(rebuilt)
    assert space.rows == rebuilt.rows
    assert (space.rows, space.pivots) == ref_rref(space.rows, field, n)


def assert_table_rebuild(algebra: LeibnizAlgebra):
    rebuilt = LeibnizAlgebra(algebra.field, algebra.table)
    assert algebra == rebuilt and hash(algebra) == hash(rebuilt)


@pytest.mark.parametrize("p,dims,count", FIELDS)
def test_residue_objects_agree_with_boxed_rebuilds(p, dims, count):
    field = GF(p)
    rng, algebras = towers(p, dims, count)
    extra = small_algebras(field)
    extra.append(extra[2].direct_sum(algebras[0]))
    for algebra in algebras + extra:
        n = algebra.dim
        full, zero = algebra.full_space(), algebra.zero_space()
        lower = lower_central_series(algebra)
        upper = upper_central_series(algebra)
        assert lower == ref_series(lambda t: algebra.span_products(full, t), full)
        assert upper == ref_series(algebra.centralizer_mod, zero)
        nilpotent = lower[-1].is_zero()
        assert nilpotent == (algebra in algebras or n <= 1)

        center, derived = algebra.center(), algebra.derived()
        spaces = [full, zero, center, derived, algebra.leib_ideal(), algebra.left_center()]
        spaces += lower + upper
        spaces += [center.annihilator(), derived.intersect(center), derived.sum_with(center)]
        if p <= EXHAUSTIVE_MAX_P:
            ideals = enumerate_subspaces(center, 0)
        else:
            ideals = enumerate_subspaces(center, center.dim) + [
                random_subspace(rng, field, center, rng.randrange(0, center.dim + 1))
                for _ in range(SAMPLES)
            ]
        spaces += ideals
        maximals = []
        if nilpotent and (p <= EXHAUSTIVE_MAX_P or n - derived.dim <= 2):
            maximals = enumerate_maximal(algebra)
            spaces += [m.subspace for m in maximals]
        for space in spaces:
            assert_boxed_rebuild(space)

        assert_table_rebuild(algebra)
        for ideal in ideals:
            assert_table_rebuild(algebra.quotient(ideal).algebra)
        for m in maximals:
            assert_table_rebuild(m.induced)
            assert m.induced == algebra.restrict(m.subspace)
        assert_table_rebuild(algebra.direct_sum(extra[2]))
        phi = [[rng.randrange(-p, 2 * p) for _ in range(n)] for _ in range(n)]
        assert_table_rebuild(central_extension(algebra, phi))

        assert fingerprint(algebra).square_profile == ref_square_profile(algebra)


# (p, tower dims, towers) for the square profile, every p^dim within 4096
SQUARE_FIELDS = [(2, (3, 8), 10), (3, (3, 6), 10), (5, (3, 5), 8), (7, (3, 4), 8)]


@pytest.mark.parametrize("p,dims,count", SQUARE_FIELDS)
def test_square_profile_counts_every_vector(p, dims, count):
    # the fingerprint counts on a complement of the two-sided centre; the
    # reference counts every vector of GF(p)^n
    _, algebras = towers(p, dims, count)
    center_dims = []
    one_sided = 0
    for algebra in algebras:
        for a in [algebra] + [m.induced for m in enumerate_maximal(algebra)]:
            assert fingerprint(a).square_profile == ref_square_profile(a)
            center = a.center()
            center_dims.append(center.dim)
            one_sided += a.left_center() != center
    assert max(center_dims) >= 2
    assert one_sided


@pytest.fixture
def no_boxing(monkeypatch):
    """Make every coercion, boxing and FieldElement operation raise."""

    def boxed(*args, **kwargs):
        raise AssertionError("a raw value was boxed or computed on FieldElements")

    monkeypatch.setattr(Field, "__call__", boxed)
    monkeypatch.setattr(Field, "_residue", boxed)
    for name in ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__neg__", "__truediv__", "__rtruediv__", "__pow__", "inv"):
        monkeypatch.setattr(FieldElement, name, boxed)


@pytest.mark.parametrize("p,dims,count", [f for f in FIELDS if f[0] != 2])
def test_verdict_path_boxes_nothing(request, p, dims, count):
    _, algebras = towers(p, dims, count)
    request.getfixturevalue("no_boxing")
    with pytest.raises(AssertionError):
        GF(p)(1)
    quotients = maximals = 0
    for algebra in algebras:
        center = algebra.center()
        for ideal in enumerate_subspaces(center, 2):
            q = algebra.quotient(ideal).algebra
            lower_central_series(q)
            upper_central_series(q)
            quotients += 1
        # (p^d - 1)/(p - 1) maximals for d = dim A/[A, A]
        if p <= EXHAUSTIVE_MAX_P or algebra.dim - algebra.derived().dim <= 2:
            for m in enumerate_maximal(algebra):
                upper_central_series(m.induced)
                maximals += 1
        fingerprint(algebra)
    assert quotients and maximals


def test_rational_products_and_lower_series_box_nothing(request):
    # span_products, derived, the lower series and is_ideal over Q bracket the
    # Fraction cells; the expected values are built first, on the boxed table
    rng = random.Random(43)
    cases = []
    for algebra in rational_catalog(rng):
        n, full = algebra.dim, algebra.full_space()

        def step(s, algebra=algebra, full=full):
            products = [ref_bracket(algebra, e, r) for e in full.rows for r in s.rows]
            return Subspace.span(QQ, algebra.dim, products)

        center, derived = algebra.center(), step(full)
        lines = [algebra.subspace([algebra.basis_vector(i)]) for i in range(n)]
        spaces = [center, derived, algebra.zero_space(), full] + lines
        cases.append((algebra, center, derived, ref_series(step, full),
                      [(s, ref_is_ideal(algebra, s)) for s in spaces]))
    request.getfixturevalue("no_boxing")
    with pytest.raises(AssertionError):
        QQ(1)
    verdicts = set()
    for algebra, center, derived, lower, ideals in cases:
        full = algebra.full_space()
        assert algebra.derived() == derived
        assert lower_central_series(algebra) == lower
        assert algebra.span_products(center, full) == algebra.zero_space()
        assert algebra.span_products(full, center) == algebra.zero_space()
        for s, expected in ideals:
            assert algebra.is_ideal(s) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# Q runs on the same kernel, with Fractions
# ---------------------------------------------------------------------------

def fraction_rows(rng, count, ncols):
    """Seeded rational rows mixing zero, duplicate, scaled and sparse rows."""
    rows = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15:
            rows.append([QQ(0)] * ncols)
        elif kind < 0.3 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.4 and rows:
            c = QQ(Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4)))
            rows.append([c * a for a in rng.choice(rows)])
        else:
            rows.append(
                [
                    QQ(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) if rng.random() < 0.7 else 0)
                    for _ in range(ncols)
                ]
            )
    return rows


def rational_matrices():
    """(rows, ncols): empty, all-zero and full-rank cases, then seeded ones."""
    rng = random.Random(23)
    cases = [([], 3), ([[QQ(0)] * 3] * 2, 3), ([[QQ(2), QQ(1)], [QQ(2), QQ(1)]], 2)]
    for n in (1, 3, 5):
        rows = [[QQ(Fraction(rng.randint(1, 9), rng.randint(1, 9))) if j <= i else QQ(0)
                 for j in range(n)] for i in range(n)]
        cases.append((rows, n))
    for _ in range(80):
        ncols = rng.randint(1, 6)
        cases.append((fraction_rows(rng, rng.randint(0, 8), ncols), ncols))
    return cases


def assert_exact(vectors):
    """Every entry is a rational FieldElement holding a Fraction."""
    for v in vectors:
        for a in v:
            assert a.__class__ is FieldElement and a.field is QQ
            assert a.value.__class__ is Fraction, a.value


def test_rational_kernel_matches_boxed_reference():
    rng = random.Random(29)
    kinds = {"empty": 0, "zero": 0, "duplicate": 0, "full": 0}
    for rows, n in rational_matrices():
        kinds["empty"] += not rows
        kinds["zero"] += any(not any(r) for r in rows)
        kinds["duplicate"] += len({tuple(r) for r in rows}) < len(rows)
        ech, pivots = rref(rows, QQ, n)
        assert (tuple(ech), tuple(pivots)) == ref_rref(rows, QQ, n)
        basis = nullspace(rows, QQ, n)
        assert basis == [tuple(v) for v in ref_nullspace(rows, QQ, n)]
        assert_exact(ech + basis)

        space = Subspace.span(QQ, n, rows)
        assert (space.rows, space.pivots) == ref_rref(rows, QQ, n)
        kinds["full"] += space.is_full()
        other = Subspace.span(QQ, n, fraction_rows(rng, rng.randint(0, 4), n))
        probes = fraction_rows(rng, 4, n) + [list(r) for r in rows] + [list(r) for r in other.rows]
        for v in probes:
            reduced = space.reduce(v)
            assert reduced == tuple(ref_reduce(space.rows, space.pivots, v))
            assert space.contains(v) == (not any(reduced))
            assert_exact([reduced])
        coeffs = [QQ(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in space.rows]
        combination = space.linear_combination(coeffs)
        assert combination == ref_linear_combination(space, coeffs)
        assert space.contains(combination)

        sum_space = space.sum_with(other)
        assert (sum_space.rows, sum_space.pivots) == ref_rref(space.rows + other.rows, QQ, n)
        ann = space.annihilator()
        assert (ann.rows, ann.pivots) == ref_rref(ref_nullspace(space.rows, QQ, n), QQ, n)
        other_ann = ref_nullspace(other.rows, QQ, n)
        joined = ref_nullspace(space.rows, QQ, n) + other_ann
        meet = space.intersect(other)
        assert (meet.rows, meet.pivots) == ref_rref(ref_nullspace(joined, QQ, n), QQ, n)
        for s in (space, other, sum_space, ann, meet):
            assert_exact(s.rows)
            assert s == Subspace(QQ, n, s.rows, s.pivots)
            assert hash(s) == hash(Subspace.span(QQ, n, s.rows))
        assert_exact([combination])
    assert all(kinds.values()), kinds


def test_rational_boxed_entries_hold_fractions():
    # the kernel's own zeros and ones are Fractions over Q, so a boxed entry
    # inverts exactly: FieldElement.inv computes 1 / value
    full = Subspace.full(QQ, 3)
    assert full.rows[0][0].inv().value.__class__ is Fraction
    assert full.rows[0][1].value.__class__ is Fraction
    assert_exact(full.rows)
    assert_exact(nullspace([[QQ(1), QQ(2), QQ(0)]], QQ, 3))
    assert_exact([full.linear_combination([QQ(0), QQ(0), QQ(3)])])
    assert_exact(Subspace.span(QQ, 2, [[1, 2], [2, 4]]).rows)
    assert_exact(full.sum_with(full).rows + full.intersect(full).rows)
    assert_exact([full.reduce([1, 2, 3]), full.annihilator().reduce([1, 2, 3])])
    for s in (full, Subspace.span(QQ, 3, [[0, 3, 1]])):
        assert_exact([s.linear_combination([QQ(1)] * s.dim)])
        assert_exact(s.annihilator().rows)


def test_kernel_reduces_any_int_over_a_prime_field():
    # rows may hold negative or unreduced ints; each is read mod p
    assert _modp.rref([[7, 3], [-2, 12]], 7, 2) == _modp.rref([[0, 3], [5, 5]], 7, 2)
    assert _modp.rref([[14, 21, -7]], 7, 3) == ([], [])
    assert _modp.nullspace([[-1, 6]], 7, 2) == _modp.nullspace([[6, 6]], 7, 2) == [[6, 1]]
    assert _modp.combine([-1, 8], [[1, 2], [3, 4]], 5, 2) == [3, 0]
    assert _modp.reduce_mod([9, 4], [[1, 3]], [0], 5) == [0, 2]


ECHELON_FIELDS = [2, 3, 7, 1031, 0]


@pytest.mark.parametrize("p", ECHELON_FIELDS, ids=lambda p: f"GF({p})" if p else "Q")
def test_echelon_read_off_matches_nullspace(p):
    # echelon_nullspace on a Subspace's stored rows, and on an echelon form
    # with columns past ncols as solve_affine passes it, against the boxed
    # reference and against eliminating the echelon rows again
    field = GF(p) if p else QQ
    rng = random.Random(47 + p)

    def entry():
        if rng.random() < 0.4:
            return 0
        return rng.randrange(-p, 2 * p) if p else Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    shapes = {"empty": 0, "full rank": 0, "kernel": 0, "gaps": 0}
    for _ in range(80):
        ncols, extra = rng.randint(0, 7), rng.randint(1, 3)
        rows = [[entry() for _ in range(ncols + extra)] for _ in range(rng.randint(0, 8))]
        expected = ref_nullspace([[field(a) for a in r[:ncols]] for r in rows], field, ncols)
        space = Subspace.span(field, ncols, [r[:ncols] for r in rows])
        ech, pivots = space._res_rows, space.pivots
        got = _modp.echelon_nullspace(ech, pivots, p, ncols)
        assert [[field(a) for a in v] for v in got] == expected
        assert got == _modp.nullspace(ech, p, ncols)
        wide, wide_pivots = _modp.rref(rows, p, ncols)
        assert tuple(wide_pivots) == pivots
        assert _modp.echelon_nullspace(wide, wide_pivots, p, ncols) == got
        if p == 0:
            assert all(a.__class__ is Fraction for v in got for a in v)
        shapes["empty"] += not rows
        shapes["full rank"] += len(pivots) == ncols
        shapes["kernel"] += bool(got)
        shapes["gaps"] += pivots != tuple(range(len(pivots)))
    assert all(shapes.values()), shapes


@pytest.mark.parametrize("p", ECHELON_FIELDS, ids=lambda p: f"GF({p})" if p else "Q")
def test_kernel_echelon_is_the_reduced_form_of_the_nullspace(p):
    # one elimination with the columns reversed reads off exactly
    # rref(nullspace(M)), boxed and raw, and its third value spans the rows
    field = GF(p) if p else QQ
    rng = random.Random(71 + p)

    def entry(density):
        if rng.random() > density:
            return 0 if p else Fraction(0)
        return rng.randrange(-p, 2 * p) if p else Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    shapes = {"n = 0": 0, "no rows": 0, "zero rows": 0, "zero matrix": 0, "full rank": 0,
              "kernel off the left": 0}
    for t in range(300):
        ncols = rng.randint(0, 8)
        density = rng.choice((0.0, 0.2, 0.5, 1.0))
        rows = [[entry(density) for _ in range(ncols)] for _ in range(rng.randint(0, 9))]
        rows += [[entry(0.0) for _ in range(ncols)] for _ in range(rng.randint(0, 2))]
        basis, pivots, span = _modp.kernel_echelon(rows, p, ncols)
        boxed = [[field(a) for a in r] for r in rows]
        expected = ref_rref(ref_nullspace(boxed, field, ncols), field, ncols)
        assert (tuple(tuple(field(a) for a in v) for v in basis), tuple(pivots)) == expected
        ech, ech_pivots = _modp.rref(_modp.nullspace(rows, p, ncols), p, ncols)
        assert [list(v) for v in basis] == ech and pivots == ech_pivots
        assert all(isinstance(v, tuple) for v in basis)
        assert _modp.rref(span, p, ncols) == _modp.rref(rows, p, ncols)
        assert len(span) + len(basis) == ncols
        if p == 0:
            assert all(a.__class__ is Fraction for v in basis for a in v)
        shapes["n = 0"] += ncols == 0
        shapes["no rows"] += not rows
        shapes["zero rows"] += any(not any(r) for r in rows)
        shapes["zero matrix"] += bool(rows) and ncols > 0 and not span
        shapes["full rank"] += ncols > 0 and not basis
        shapes["kernel off the left"] += any(pc > q for q, pc in enumerate(pivots))
    assert all(shapes.values()), shapes


def ref_boxed_upper_series(algebra):
    """The upper central series stepped by the boxed ``ref_centralizer_mod``."""
    field, n = algebra.field, algebra.dim
    terms = [algebra.zero_space()]
    while True:
        rows, pivots = ref_centralizer_mod(algebra, terms[-1])
        nxt = Subspace(field, n, rows, pivots)
        if nxt == terms[-1]:
            return terms
        terms.append(nxt)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_carried_upper_series_matches_the_stepped_references(p):
    # the covector-carrying series, on towers and on the induced table of
    # every maximal, against centralizer_mod stepped to a repeat and against
    # the boxed reference centralizer
    field = GF(p)
    _, algebras = towers(p, (2, 5), 8)
    algebras += small_algebras(field)
    checked = {"towers": 0, "maximals": 0, "non-nilpotent": 0, "longest": 0}
    for algebra in algebras:
        nilpotent = lower_central_series(algebra)[-1].is_zero()
        induced = [m.induced for m in enumerate_maximal(algebra)] if nilpotent else []
        for a in [algebra] + induced:
            upper = upper_central_series(a)
            assert upper == ref_series(a.centralizer_mod, a.zero_space())
            assert upper == ref_boxed_upper_series(a)
            assert [(t.rows, t.pivots) for t in upper] == [
                (t.rows, t.pivots) for t in ref_boxed_upper_series(a)
            ]
            checked["longest"] = max(checked["longest"], len(upper))
        checked["towers"] += 1
        checked["maximals"] += len(induced)
        checked["non-nilpotent"] += not nilpotent
    assert checked["maximals"] >= 20 and checked["non-nilpotent"] and checked["longest"] >= 4, checked


def ref_change_of_basis(algebra, matrix):
    """Each [f_i, f_j] solved over the rows f by the boxed reference elimination."""
    field, n = algebra.field, algebra.dim
    rows = [algebra.vector(r) for r in matrix]
    table = []
    for u in rows:
        row = []
        for v in rows:
            w = ref_bracket(algebra, u, v)
            aug = [[rows[r][c] for r in range(n)] + [w[c]] for c in range(n)]
            ech, pivots = ref_rref(aug, field, n + 1)
            assert pivots == tuple(range(n))
            row.append([r[n] for r in ech])
        table.append(row)
    return LeibnizAlgebra(field, table)


def test_change_of_basis_matches_the_reference():
    rng = random.Random(31)
    for p in (2, 3, 5, 7):
        field = GF(p)
        for _ in range(6):
            a = random_nilpotent_algebra(rng, field, rng.randrange(1, 6))
            matrix = random_invertible_matrix(rng, field, a.dim)
            assert change_of_basis(a, matrix) == ref_change_of_basis(a, matrix)
    for entry in list_catalog()[:6]:
        params = sample_params(entry.name, QQ)
        if params is None:
            continue
        a = instantiate(entry.name, QQ, params)
        n = a.dim
        matrix = [[QQ(Fraction(i + 1, 2)) if i == j else QQ(j - i) * QQ(i % 2) for j in range(n)]
                  for i in range(n)]
        got = change_of_basis(a, matrix)
        assert got.table == ref_change_of_basis(a, matrix).table
        assert_exact(cell for row in got.table for cell in row)


def test_change_of_basis_needs_one_row_per_basis_vector():
    # four rows for a three-dimensional algebra used to give a 4-dim table
    field = GF(5)
    heisenberg = instantiate("heisenberg3", field, {})
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]]
    with pytest.raises(BadVector):
        change_of_basis(heisenberg, rows)
    with pytest.raises(BadVector):
        change_of_basis(heisenberg, rows[:2])
    with pytest.raises(BadVector):
        change_of_basis(heisenberg, [r[:2] for r in rows[:3]])
    with pytest.raises(ValueError):
        change_of_basis(heisenberg, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
    with pytest.raises(FieldMismatch):
        change_of_basis(heisenberg, [[GF(7)(1), 0, 0], [0, 1, 0], [0, 0, 1]])
    assert change_of_basis(heisenberg, rows[:3]) == heisenberg


# ---------------------------------------------------------------------------
# the sparse identity walk agrees with the identity read on every triple
# ---------------------------------------------------------------------------

WALK_FIELDS = [GF(3), GF(5), GF(7), QQ]


def ref_identity_residuals(inner, outer, zero):
    """Every triple's [e_i, [e_j, e_k]] - [[e_i, e_j], e_k] - [e_j, [e_i, e_k]].

    ``inner[a][b]`` is the dense coordinate list of the inner bracket
    [e_a, e_b] and ``outer[x][y]`` that of the outer bracket [e_x, e_y];
    each coordinate is the sum over m written out from the definition.
    """
    n, size = len(inner), len(outer[0][0])
    out = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        out[i, j, k] = [
            sum(
                (inner[j][k][m] * outer[i][m][t] - inner[i][j][m] * outer[m][k][t]
                 - inner[i][k][m] * outer[j][m][t] for m in range(n)),
                zero,
            )
            for t in range(size)
        ]
    return out


def raw_table(algebra):
    """The dense raw structure constants, read off the boxed ``table``."""
    return [[[c.value for c in cell] for cell in row] for row in algebra.table]


def unit_products(n):
    """[e_x, e_y] as the unit vector at x*n + y of the n*n cocycle coordinates."""
    return [[[int(t == x * n + y) for t in range(n * n)] for y in range(n)] for x in range(n)]


def sparse_cells(dense, is_zero):
    """The (k, c) cells of a dense table, zeros dropped."""
    return [[tuple((k, c) for k, c in enumerate(cell) if not is_zero(c)) for cell in row]
            for row in dense]


def assert_walk_matches(cells, products, inner, outer, zero):
    """``_identity_residuals`` is the reference on the triples it visits, zero elsewhere."""
    size = len(outer[0][0])
    got = _identity_residuals(cells, products, size, zero)
    expected = ref_identity_residuals(inner, outer, zero)
    assert list(got) == sorted(got)
    assert set(got) <= set(expected)
    for key, residual in expected.items():
        assert got.get(key, [zero] * size) == residual, key
    return got


def walk_algebras(field):
    """Every catalog family at its sample parameters and a change-of-basis copy of each."""
    rng = random.Random(17 + field.characteristic)
    out = []
    for entry in list_catalog():
        params = sample_params(entry.name, field)
        if params is None:
            continue
        algebra = instantiate(entry.name, field, params)
        if field is QQ:
            matrix = rational_invertible_matrix(rng, algebra.dim)
        else:
            matrix = random_invertible_matrix(rng, field, algebra.dim)
        out += [algebra, change_of_basis(algebra, matrix)]
    assert len(out) >= 10
    return out


@pytest.mark.parametrize("field", WALK_FIELDS, ids=str)
def test_identity_walk_matches_every_triple_on_the_catalog(field):
    for algebra in walk_algebras(field):
        table = raw_table(algebra)
        assert_walk_matches(algebra._cells, algebra._cells, table, table, 0)


@pytest.mark.parametrize("field", WALK_FIELDS, ids=str)
def test_corrupted_cells_are_reported_like_the_reference(field, tmp_path, capsys):
    """check_leibniz and ``leibalg verify`` list the reference's violations, in order."""
    rng = random.Random(29 + field.characteristic)
    if field is QQ:
        offset = lambda: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 5))
    else:
        offset = lambda: rng.randrange(1, field.modulus)
    several = 0
    for number, algebra in enumerate(walk_algebras(field)):
        bad, got = assert_corrupted_copy_matches(rng, algebra, offset)
        several += len(got) > 1
        path = tmp_path / f"bad{number}.alg"
        path.write_text(format_algebra(bad))
        capsys.readouterr()
        assert cli_main(["verify", str(path)]) == 1
        expected = [
            f"violation at triple ({i},{j},{k}): residual [{' '.join(map(str, residual))}]"
            for i, j, k, residual in got
        ]
        assert capsys.readouterr().out.splitlines() == expected + [f"{len(got)} violating triples"]
    assert several >= 10


@pytest.mark.parametrize("table", [parametric_table6, parametric_table1], ids=lambda f: f.__name__)
def test_parametric_residuals_match_every_triple(table):
    table = table()
    zero = MultiPoly.zero(table.variables)
    cells = sparse_cells(table.entries, MultiPoly.is_zero)
    residuals = assert_walk_matches(cells, cells, table.entries, table.entries, zero)
    assert any(not poly.is_zero() for residual in residuals.values() for poly in residual)
    expected = [
        poly
        for residual in ref_identity_residuals(table.entries, table.entries, zero).values()
        for poly in residual
        if not poly.is_zero()
    ]
    got = raw_leibniz_residuals(table)
    assert [(q.variables, q.terms) for q in got] == [(q.variables, q.terms) for q in expected]


@pytest.mark.parametrize("p", [2, 3])
def test_cocycle_space_matches_the_reference_at_every_tower_step(p, monkeypatch):
    field = GF(p)
    seen = []
    real = randomgen._cocycle_space

    def recorded(algebra):
        basis = real(algebra)
        seen.append((algebra, basis))
        return basis

    monkeypatch.setattr(randomgen, "_cocycle_space", recorded)
    rng = random.Random(500 + p)
    for dim in [2, 3, 4, 5, 6] * 3:
        random_nilpotent_algebra(rng, field, dim)
    assert len(seen) >= 20
    for algebra, basis in seen:
        n = algebra.dim
        table, units = raw_table(algebra), unit_products(n)
        residuals = assert_walk_matches(
            algebra._cells, sparse_cells(units, lambda c: not c), table, units, 0
        )
        rows = [[field(v) for v in residual] for residual in residuals.values()]
        assert basis == [[v.value for v in vec] for vec in ref_nullspace(rows, field, n * n)]


def test_a_suite_call_computes_each_cocycle_space_once(monkeypatch):
    # one _cocycle_space call per distinct table a suite call extends, and
    # a second call computes them again: the memo lives in the call
    from leibalg.reproduce import run_structural_suite

    seen = []
    real = randomgen._cocycle_space

    def recorded(algebra):
        seen.append(algebra)
        return real(algebra)

    monkeypatch.setattr(randomgen, "_cocycle_space", recorded)
    for p, seed in ((2, 1), (3, 2)):
        reports = []
        for _ in range(2):
            seen.clear()
            reports.append(run_structural_suite(GF(p), 100, 5, seed))
            assert len(seen) == len(set(seen)) > 20
        assert reports[0] == reports[1]


def test_towers_sharing_cocycle_spaces_are_the_fresh_towers():
    # one dict shared by towers over two fields and many dims gives the
    # towers, and leaves the rng in the state, of fresh dicts
    shared, fresh = random.Random(8), random.Random(8)
    spaces: dict = {}
    for t in range(60):
        field, dim = GF((3, 5)[t % 2]), 2 + t % 5
        got = randomgen._random_tower(shared, field, dim, spaces)
        assert got == random_nilpotent_algebra(fresh, field, dim)
    assert shared.getstate() == fresh.getstate()
    assert {a.field for a in spaces} == {GF(3), GF(5)}
