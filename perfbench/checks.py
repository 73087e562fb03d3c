"""Independent answer checks.

Nothing here imports the library.  Every expected answer is computed again
with plain integer residues, ``fractions.Fraction`` or sympy, or follows
from a property the method must have; none is a copy of an earlier report.

Each ``check_<workload>(record)`` takes the JSON record of one round and
returns ``(failed, errors)``: ``failed`` lists the operations that hit a
known fault of the program (their outputs are wrong for a reason the
benchmark names), ``errors`` lists every other wrong output.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product

# reproduce.enumerate_subspaces stops silently after this many subspaces.
ENUMERATION_CAP = 200
SKIPPED_CLAIMS = {"identity.A1_6dim@GF(3)"}  # the family needs characteristic not 2, 3


# ---------------------------------------------------------------------------
# exact linear algebra over GF(p) and Q
# ---------------------------------------------------------------------------

def rank(rows, p: int | None = None) -> int:
    """Rank over GF(p) (ints) or over Q (p None; Fractions or ints)."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    ncols = len(work[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(work)) if _nonzero(work[i][col], p)), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        head = work[r]
        inv = pow(head[col], -1, p) if p else 1 / Fraction(head[col])
        for i in range(r + 1, len(work)):
            c = work[i][col]
            if _nonzero(c, p):
                f = c * inv
                work[i] = [_reduce(a - f * b, p) for a, b in zip(work[i], head)]
        r += 1
        if r == len(work):
            break
    return r


def _nonzero(x, p):
    return x % p if p else x


def _reduce(x, p):
    return x % p if p else x


def bracket(table, u, v, p: int | None = None):
    n = len(table)
    acc = [0] * n
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            c = ui * vj
            cell = table[i][j]
            for k in range(n):
                if cell[k]:
                    acc[k] = acc[k] + c * cell[k]
    return [_reduce(a, p) for a in acc]


def check_isomorphism(table_a, table_b, matrix, p: int | None = None) -> str | None:
    """None when row i of ``matrix`` (the image of e_i) defines an
    isomorphism from table_a to table_b; otherwise what is wrong."""
    n = len(table_a)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        return "matrix has the wrong shape"
    if rank(matrix, p) != n:
        return "matrix is singular"
    for i in range(n):
        for j in range(n):
            image = [0] * n
            for k, c in enumerate(table_a[i][j]):
                if c:
                    image = [a + c * b for a, b in zip(image, matrix[k])]
            if [_reduce(a, p) for a in image] != bracket(table_b, matrix[i], matrix[j], p):
                return f"matrix does not preserve [e{i + 1}, e{j + 1}]"
    return None


def annihilator(rows, n: int, p: int | None = None):
    """Basis of {y : r . y = 0 for every row r}, by brute elimination."""
    work = [list(r) for r in rows if any(r)]
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(work)) if _nonzero(work[i][col], p)), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][col], -1, p) if p else 1 / Fraction(work[r][col])
        work[r] = [_reduce(a * inv, p) for a in work[r]]
        for i in range(len(work)):
            if i != r and _nonzero(work[i][col], p):
                c = work[i][col]
                work[i] = [_reduce(a - c * b, p) for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    work = work[:r]
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        y = [0] * n
        y[free] = 1
        for row, pc in zip(work, pivots):
            y[pc] = _reduce(-row[free], p)
        basis.append(y)
    return basis


def centralizer_dim(table, below, p: int | None = None) -> tuple[int, list]:
    """{x : [x, A] and [A, x] lie in span(below)}: (dim, basis)."""
    n = len(table)
    normals = annihilator(below, n, p) if below else [
        [1 if i == j else 0 for i in range(n)] for j in range(n)
    ]
    rows = []
    for y in normals:
        for j in range(n):
            rows.append([sum(a * b for a, b in zip(y, table[i][j])) for i in range(n)])
            rows.append([sum(a * b for a, b in zip(y, table[j][i])) for i in range(n)])
    basis = annihilator(rows, n, p)
    return len(basis), basis


def center_dim(table, p: int | None = None) -> int:
    return centralizer_dim(table, [], p)[0]


# ---------------------------------------------------------------------------
# counting subspaces
# ---------------------------------------------------------------------------

def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of GF(p)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def subspace_count(n: int, p: int, min_dim: int) -> int:
    """Number of subspaces of GF(p)^n of dimension >= min_dim."""
    return sum(gaussian_binomial(n, k, p) for k in range(max(min_dim, 0), n + 1))


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

_IDEALS_RE = re.compile(r"; (\d+) central ideals dropped the coclass;")


def check_reproduce(record) -> tuple[list, list]:
    failed, errors = [], []
    for claim in record["claims"]:
        cid, verdict = claim["id"], claim["verdict"]
        expected_verdict = "skipped" if cid in SKIPPED_CLAIMS else "pass"
        if verdict != expected_verdict:
            errors.append(f"{cid}: {verdict}, expected {expected_verdict}: {claim['evidence']}")
            continue
        towers = record["towers"].get(cid)
        if towers is None:
            continue
        m = _IDEALS_RE.search(claim["evidence"])
        if m is None:
            errors.append(f"{cid}: no central-ideal count in {claim['evidence']!r}")
            continue
        got = int(m.group(1))
        p = towers["p"]
        per_center = [subspace_count(center_dim(t, p), p, 2) for t in towers["tables"]]
        want = sum(per_center)
        capped = sum(min(c, ENUMERATION_CAP) for c in per_center)
        if got == want:
            continue
        if got == capped:
            failed.append(cid)  # the silent cap of enumerate_subspaces
        else:
            errors.append(f"{cid}: {got} central ideals, the centers hold {want}")
    return failed, errors


# ---------------------------------------------------------------------------
# rational
# ---------------------------------------------------------------------------

def _q_table(table):
    return [[[Fraction(c) for c in cell] for cell in row] for row in table]


def _basis(n):
    return [[1 if i == j else 0 for i in range(n)] for j in range(n)]


def sympy_rank_analysis(table) -> dict:
    """Series, center and square-ideal dims from sympy's exact ranks."""
    import sympy

    t = [[[sympy.Rational(c) for c in cell] for cell in row] for row in table]
    n = len(t)

    def rk(rows):
        return sympy.Matrix(rows).rank() if rows else 0

    def br(u, v):
        return [
            sum(u[i] * v[j] * t[i][j][k] for i in range(n) for j in range(n)) for k in range(n)
        ]

    def upper_from(start):
        term = list(start)
        base = rk(term)
        dims = [0]
        while True:
            if term:
                normals = [list(v) for v in sympy.Matrix(term).nullspace()]
            else:
                normals = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
            rows = []
            for y in normals:
                for j in range(n):
                    rows.append([sum(a * b for a, b in zip(y, t[i][j])) for i in range(n)])
                    rows.append([sum(a * b for a, b in zip(y, t[j][i])) for i in range(n)])
            basis = [list(v) for v in sympy.Matrix(rows).nullspace()] if rows else _basis(n)
            if len(basis) - base == dims[-1]:
                return dims, basis
            dims.append(len(basis) - base)
            term = basis

    def lower_mod(mod_rows):
        base = rk(mod_rows)
        term = _basis(n)
        dims = [rk(term + mod_rows) - base]
        while True:
            nxt = [br(e, x) for e in _basis(n) for x in term] + mod_rows
            d = rk(nxt) - base
            if d == dims[-1]:
                return dims
            dims.append(d)
            m = sympy.Matrix(nxt)
            term = [list(m.row(i)) for i in m.T.rref()[1]]

    upper, _ = upper_from([])
    center = [list(v) for v in (sympy.Matrix(_center_rows(t, n)).nullspace())]
    squares = [t[i][i] for i in range(n)] + [
        [a + b for a, b in zip(t[i][j], t[j][i])] for i in range(n) for j in range(i + 1, n)
    ]
    return {
        "lower": lower_mod([]),
        "upper": upper,
        "center": len(center),
        "leib": rk(squares),
        "quotient_lower": lower_mod(center),
        "quotient_upper": upper_from(center)[0],
        "violations": 0,
    }


def _center_rows(t, n):
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append([t[i][j][k] for i in range(n)])
            rows.append([t[j][i][k] for i in range(n)])
    return rows


def _terms(poly_record) -> dict:
    return {tuple(exp): Fraction(c) for exp, c in poly_record}


def _monic(terms: dict) -> frozenset:
    lead = max(terms, key=lambda e: (sum(e), e))
    c = terms[lead]
    return frozenset((e, v / c) for e, v in terms.items())


def sympy_constraints(table) -> set:
    """The defining identity's residuals, expanded by sympy, as monic polys."""
    import sympy

    syms = sympy.symbols(table["variables"])

    def expr(poly_record):
        out = sympy.Integer(0)
        for exp, c in poly_record:
            term = sympy.Rational(c)
            for s, e in zip(syms, exp):
                term *= s**e
            out += term
        return out

    n = table["dim"]
    t = [[[expr(p) for p in cell] for cell in row] for row in table["entries"]]
    found = set()
    for i, j, l in product(range(n), repeat=3):
        for k in range(n):
            lhs = sum(t[j][l][b] * t[i][b][k] for b in range(n))
            rhs1 = sum(t[i][j][a] * t[a][l][k] for a in range(n))
            rhs2 = sum(t[i][l][b] * t[j][b][k] for b in range(n))
            residual = sympy.expand(lhs - rhs1 - rhs2)
            if residual != 0:
                poly = sympy.Poly(residual, *syms)
                found.add(_monic({e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()}))
    return found


def relations_annihilate(table, constraints) -> bool:
    """Every constraint vanishes on the zero locus of the linear relations."""
    import sympy

    names = table["variables"]
    syms = sympy.symbols(names)

    def expr(poly_record):
        return sum(
            (sympy.Rational(c) * sympy.Mul(*[s**e for s, e in zip(syms, exp)]) for exp, c in poly_record),
            sympy.Integer(0),
        )

    relations = [expr(r) for r in table["relations"]]
    solution = sympy.solve(relations, syms, dict=True)
    if len(solution) != 1:
        return False
    return all(sympy.expand(expr(c).subs(solution[0])) == 0 for c in constraints)


def check_rational(record) -> tuple[list, list]:
    errors = []
    for entry in record["entries"]:
        name = entry["name"]
        if entry["analysis"] != entry["copy_analysis"]:
            errors.append(f"{name}: change of basis moved {entry['analysis']} to {entry['copy_analysis']}")
        for key, table in (("analysis", entry["table"]), ("copy_analysis", entry["copy"])):
            want = sympy_rank_analysis(table)
            if entry[key] != want:
                errors.append(f"{name} {key}: {entry[key]}, exact ranks give {want}")
        verdict = entry["iso"]
        if verdict["status"] == "no":
            errors.append(f"{name}: copy refuted as non-isomorphic ({verdict['reason']})")
        elif verdict["status"] == "yes":
            matrix = [[Fraction(c) for c in row] for row in verdict["matrix"]]
            problem = check_isomorphism(_q_table(entry["table"]), _q_table(entry["copy"]), matrix)
            if problem:
                errors.append(f"{name}: {problem}")
    for table in record["tables"]:
        name = table["name"]
        got = [_terms(c) for c in table["constraints"]]
        monic = [_monic(c) for c in got]
        if any(m != frozenset(c.items()) for m, c in zip(monic, got)):
            errors.append(f"{name}: a constraint is not monic")
        if len(set(monic)) != len(monic):
            errors.append(f"{name}: repeated constraints")
        if set(monic) != sympy_constraints(table["table"]):
            errors.append(f"{name}: constraints differ from sympy's expansion of the residuals")
        if "relations" in table:
            if not table["relations_ok"]:
                errors.append(f"{name}: relation verification failed")
            elif not relations_annihilate(
                {**table["table"], "relations": table["relations"]}, table["constraints"]
            ):
                errors.append(f"{name}: a constraint survives on the relations' locus")
    return [], errors


CHECKS = {
    "reproduce": check_reproduce,
    "rational": check_rational,
}
