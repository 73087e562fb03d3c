"""The benchmark workloads, as seen from inside the worker process.

Each workload has three parts:

* ``setup(seed)`` builds every input of the verdict phase (catalog
  instantiation, ``leibalg v1`` text written and parsed back, seeded
  generation) and returns a state object;
* ``ops(state)`` lists the operations of one round as ``(name, call)``
  pairs; a round always holds the same operations, so every round of every
  run attempts the same work;
* ``record(state, results)`` turns one round's raw results into plain JSON
  for the independent checks in ``checks.py``.  It runs after the verdict
  phase, outside every timed region.

The library is reached only through module attributes (``maximal.is_isomorphic``,
never ``from leibalg.maximal import is_isomorphic``), so the tracer in
``tracer.py`` sees every call the workloads make.
"""

from __future__ import annotations

import random
import re

from leibalg import catalog, constraints, formats, maximal, randomgen, reproduce, series
from leibalg.fields import GF, QQ

import inputs

# The structural suites run on this fixed seed in every round, whatever
# --seed says.  At this seed the GF(3) suite meets a five-dimensional
# center, whose 2542 subspaces of dim >= 2 exceed the silent cap=200 of
# reproduce.enumerate_subspaces, so that claim is short every time and is
# counted as failed.  At other seeds the cap may or may not bite, which
# would make the failed share depend on the seed.
STRUCTURAL_SEED = 1
# Mirrors the structural claims of reproduce.build_claims: 100 towers of
# dimension 2..5, the GF(2) suite on the seed, the GF(3) suite on seed + 1.
STRUCTURAL_FIELDS = {"structural.random@GF(2)": (2, 0), "structural.random@GF(3)": (3, 1)}
STRUCTURAL_MAX_DIM = 5
CLAIM_FIELDS = [3, 5, 7]


def int_table(algebra) -> list:
    """Structure constants as nested lists of residues (GF(p)) or strings (Q)."""
    if algebra.field.is_finite():
        return [[[int(c.value) for c in cell] for cell in row] for row in algebra.table]
    return [[[str(c.value) for c in cell] for cell in row] for row in algebra.table]


def _roundtrip(algebra):
    """Write an algebra as leibalg v1 text and parse it back."""
    return formats.parse_algebra(formats.format_algebra(algebra))


def _verdict_record(verdict) -> dict:
    matrix = None
    if verdict.matrix is not None:
        matrix = [[str(c.value) for c in row] for row in verdict.matrix]
    return {"status": verdict.status, "reason": verdict.reason, "matrix": matrix}


def _poly_record(poly) -> list:
    return [[list(exp), str(c)] for exp, c in sorted(poly.terms.items())]


def _parametric_record(p) -> dict:
    return {
        "dim": p.dim,
        "variables": list(p.variables),
        "entries": [[[_poly_record(poly) for poly in cell] for cell in row] for row in p.entries],
    }


# ---------------------------------------------------------------------------
# reproduce: the full claim suite for fields 3, 5, 7
# ---------------------------------------------------------------------------

class Reproduce:
    name = "reproduce"

    def setup(self, seed: int):
        seeded = reproduce.build_claims(CLAIM_FIELDS, seed)
        fixed = reproduce.build_claims(CLAIM_FIELDS, STRUCTURAL_SEED)
        claims = [
            f if s.claim_id in STRUCTURAL_FIELDS else s for s, f in zip(seeded, fixed)
        ]
        if [c.claim_id for c in seeded] != [c.claim_id for c in fixed]:
            raise RuntimeError("claim order depends on the seed")
        return {"claims": claims}

    def ops(self, state):
        return [(c.claim_id, _claim_runner(c)) for c in state["claims"]]

    def record(self, state, results):
        claims = [
            {"id": e.claim_id, "verdict": e.verdict, "evidence": e.evidence}
            for e in results
        ]
        towers = {}
        for claim_id, (p, offset) in STRUCTURAL_FIELDS.items():
            rng = random.Random(STRUCTURAL_SEED + offset)
            field = GF(p)
            tables = []
            for _ in range(_tower_count(results, claim_id)):
                dim = rng.randrange(2, STRUCTURAL_MAX_DIM + 1)
                tables.append(int_table(randomgen.random_nilpotent_algebra(rng, field, dim)))
            towers[claim_id] = {"p": p, "tables": tables}
        return {"claims": claims, "towers": towers}


def _claim_runner(claim):
    return lambda: reproduce.run_claims([claim])[0]


def _tower_count(results, claim_id: str) -> int:
    """Towers named in a structural claim's evidence; 0 if it did not pass."""
    entry = next(e for e in results if e.claim_id == claim_id)
    m = re.match(r"(\d+) towers over ", entry.evidence)
    return int(m.group(1)) if m else 0


def _iso_runner(a, b):
    return lambda: maximal.is_isomorphic(a, b)


# ---------------------------------------------------------------------------
# rational: the catalog over Q, and the constraint tooling
# ---------------------------------------------------------------------------

TABLE6_RELATIONS = "gamma - d + f\ngamma + d + fhat\ngamma - dhat - f\n"
TABLE1_RELATIONS = "bhat + b\nchat + c\ngamma\n"
RELATION_TRIALS = 20


class Rational:
    name = "rational"

    def setup(self, seed: int):
        rng = random.Random(seed)
        entries = []
        for entry in catalog.list_catalog():
            params = catalog.sample_params(entry.name, QQ)
            algebra = _roundtrip(catalog.instantiate(entry.name, QQ, params))
            matrix = inputs.rational_matrix(rng, algebra.dim)
            copy = _roundtrip(randomgen.change_of_basis(algebra, matrix))
            entries.append((entry.name, algebra, copy))
        table6 = formats.parse_parametric(formats.format_parametric(catalog.parametric_table6()))
        table1 = formats.parse_parametric(formats.format_parametric(catalog.parametric_table1()))
        generic = formats.parse_parametric(inputs.filtered_table_text(rng))
        tables = [
            ("table6", table6, formats.parse_relations(TABLE6_RELATIONS, table6.variables)),
            ("table1", table1, formats.parse_relations(TABLE1_RELATIONS, table1.variables)),
            ("filtered", generic, None),
        ]
        return {"entries": entries, "tables": tables, "relation_seed": seed}

    def ops(self, state):
        out = []
        for name, algebra, copy in state["entries"]:
            out.append((f"analyze {name}", _analysis_runner(algebra)))
            out.append((f"analyze {name} copy", _analysis_runner(copy)))
            out.append((f"is_isomorphic {name} copy", _iso_runner(algebra, copy)))
        for name, table, relations in state["tables"]:
            out.append((f"leibniz_constraints {name}", _constraints_runner(table)))
            if relations is not None:
                out.append(
                    (
                        f"verify_implied_relations {name}",
                        _relations_runner(table, relations, state["relation_seed"]),
                    )
                )
        return out

    def record(self, state, results):
        it = iter(results)
        entries = [
            entry_record(name, algebra, copy, next(it), next(it), next(it))
            for name, algebra, copy in state["entries"]
        ]
        tables = [
            table_record(name, table, next(it), relations, None if relations is None else next(it))
            for name, table, relations in state["tables"]
        ]
        return {"entries": entries, "tables": tables}


def entry_record(name, algebra, copy, analysis, copy_analysis, verdict) -> dict:
    return {
        "name": name,
        "table": int_table(algebra),
        "copy": int_table(copy),
        "analysis": analysis,
        "copy_analysis": copy_analysis,
        "iso": _verdict_record(verdict),
    }


def table_record(name, table, found, relations, report) -> dict:
    record = {
        "name": name,
        "table": _parametric_record(table),
        "constraints": [_poly_record(c) for c in found],
    }
    if relations is not None:
        record["relations"] = [_poly_record(r) for r in relations]
        record["relations_ok"] = report.ok
    return record


def analyze(algebra) -> dict:
    """Series, center, square ideal, quotient by the center, identity check."""
    profile = series.nilpotency_data(algebra)
    center = algebra.center()
    quotient = series.nilpotency_data(algebra.quotient(center).algebra)
    return {
        "lower": list(profile.lower_dims),
        "upper": list(profile.upper_dims),
        "center": center.dim,
        "leib": algebra.leib_ideal().dim,
        "quotient_lower": list(quotient.lower_dims),
        "quotient_upper": list(quotient.upper_dims),
        "violations": len(algebra.check_leibniz()),
    }


def _analysis_runner(algebra):
    return lambda: analyze(algebra)


def _constraints_runner(table):
    return lambda: constraints.leibniz_constraints(table)


def _relations_runner(table, relations, seed):
    return lambda: constraints.verify_implied_relations(
        table, relations, trials=RELATION_TRIALS, field=QQ, seed=seed
    )


WORKLOADS = {w.name: w for w in (Reproduce(), Rational())}
