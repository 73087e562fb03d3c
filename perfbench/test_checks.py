"""Tests of the answer checks: a right answer passes, a wrong one is caught.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

The right answers come from the library on small inputs; each test then
corrupts one of them the way a faulty program might.
"""

from __future__ import annotations

import copy
import random
from itertools import product

import pytest

import checks
import inputs
import workloads
from leibalg import catalog, constraints, maximal, randomgen
from leibalg.fields import GF, QQ


def _abelian(n):
    return [[[0] * n for _ in range(n)] for _ in range(n)]


def brute_subspace_count(n: int, p: int, k: int) -> int:
    """Count k-dimensional subspaces of GF(p)^n by listing their RREF bases."""
    return sum(1 for rows in product(product(range(p), repeat=n), repeat=k) if _is_rref(rows))


def _is_rref(rows) -> bool:
    pivots = []
    for row in rows:
        lead = next((i for i, c in enumerate(row) if c), None)
        if lead is None or row[lead] != 1 or (pivots and lead <= pivots[-1]):
            return False
        pivots.append(lead)
    return all(
        rows[r][c] == 0 for r in range(len(rows)) for s, c in enumerate(pivots) if r != s
    )


def test_subspace_count_matches_brute_force():
    for n, p in ((2, 2), (3, 2), (2, 3), (3, 3), (4, 2)):
        for k in range(n + 1):
            assert checks.gaussian_binomial(n, k, p) == brute_subspace_count(n, p, k)
    # A five-dimensional center over GF(3) holds 2542 subspaces of dim >= 2.
    assert checks.subspace_count(5, 3, 2) == 2542


def _structural_record(count, tables):
    claim = {
        "id": "structural.random@GF(3)",
        "verdict": "pass",
        "evidence": f"2 towers over GF(3): ...; {count} central ideals dropped the coclass; ...",
    }
    return {"claims": [claim], "towers": {claim["id"]: {"p": 3, "tables": tables}}}


def test_reproduce_short_ideal_count_is_caught():
    tables = [_abelian(2), _abelian(3)]  # 1 + (13 + 1) subspaces of dim >= 2
    assert checks.check_reproduce(_structural_record(15, tables)) == ([], [])
    failed, errors = checks.check_reproduce(_structural_record(14, tables))
    assert not failed and errors


def test_reproduce_cap_counts_as_failed_not_as_wrong():
    tables = [_abelian(2), _abelian(5)]  # 1 + 2542, the cap keeps 1 + 200
    failed, errors = checks.check_reproduce(_structural_record(201, tables))
    assert failed == ["structural.random@GF(3)"] and not errors
    failed, errors = checks.check_reproduce(_structural_record(199, tables))
    assert not failed and errors


def test_reproduce_unexpected_verdicts_are_caught():
    record = {
        "claims": [
            {"id": "identity.A1_6dim@GF(3)", "verdict": "pass", "evidence": ""},
            {"id": "cc1.p1@GF(3)", "verdict": "fail", "evidence": ""},
        ],
        "towers": {},
    }
    assert len(checks.check_reproduce(record)[1]) == 2


def test_corrupted_isomorphism_matrix_is_caught():
    field = GF(5)
    algebra = catalog.instantiate("cc1_case2", field, catalog.sample_params("cc1_case2", field))
    matrix = randomgen.random_invertible_matrix(random.Random(0), field, algebra.dim)
    other = randomgen.change_of_basis(algebra, matrix)
    verdict = maximal.is_isomorphic(algebra, other)
    table_a, table_b = workloads.int_table(algebra), workloads.int_table(other)
    found = [[int(c.value) for c in row] for row in verdict.matrix]
    assert checks.check_isomorphism(table_a, table_b, found, 5) is None
    bad = [list(row) for row in found]
    bad[0][2] = (bad[0][2] + 1) % 5  # another image of e1
    assert checks.check_isomorphism(table_a, table_b, bad, 5)
    bad[1] = list(bad[0])
    assert checks.check_isomorphism(table_a, table_b, bad, 5) == "matrix is singular"


@pytest.fixture(scope="module")
def rational_record():
    algebra = catalog.instantiate("A19", QQ, {})
    other = randomgen.change_of_basis(algebra, inputs.rational_matrix(random.Random(0), 4))
    entry = workloads.entry_record(
        "A19",
        algebra,
        other,
        workloads.analyze(algebra),
        workloads.analyze(other),
        maximal.is_isomorphic(algebra, other),
    )
    table = catalog.parametric_table1()
    relations = workloads.formats.parse_relations(workloads.TABLE1_RELATIONS, table.variables)
    report = constraints.verify_implied_relations(table, relations, trials=5, field=QQ, seed=0)
    tables = [
        workloads.table_record(
            "table1", table, constraints.leibniz_constraints(table), relations, report
        )
    ]
    return {"entries": [entry], "tables": tables}


def test_rational_right_answer_passes(rational_record):
    assert checks.check_rational(rational_record) == ([], [])


def test_rational_dropped_constraint_is_caught(rational_record):
    bad = copy.deepcopy(rational_record)
    bad["tables"][0]["constraints"].pop()
    assert checks.check_rational(bad)[1]


def test_rational_wrong_dims_and_refutation_are_caught(rational_record):
    bad = copy.deepcopy(rational_record)
    bad["entries"][0]["analysis"]["center"] += 1
    bad["entries"][0]["copy_analysis"]["center"] += 1
    assert checks.check_rational(bad)[1]
    bad = copy.deepcopy(rational_record)
    bad["entries"][0]["iso"]["status"] = "no"
    assert checks.check_rational(bad)[1]
