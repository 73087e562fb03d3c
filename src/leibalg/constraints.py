"""Constraint extraction for parametric multiplication tables.

A ParametricAlgebra is a structure tensor whose cells are polynomials in
the table parameters.  Applying the defining identity to every basis
triple yields residual polynomials; their common zero locus is exactly the
set of parameter values for which the table is a Leibniz algebra.  The
residuals come from the one identity walk of ``core``
(``_identity_residual``), run on sparse polynomial cells.  The
extracted list is canonical: monic, deduplicated up to scalar multiples,
and sorted by graded-lex key.

verify_implied_relations checks a claimed relation set against the
extracted constraints by exact seeded sampling in both directions:
(a) points satisfying the relations annihilate every constraint, and
(b) for each relation, a point violating only that relation breaks some
constraint.  No Groebner machinery is used; the relation sets handled
here are linear, so sampled points on the zero locus come from a plain
linear solve over the free variables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import LeibnizAlgebra, _identity_residual
from .errors import IncompleteAssignment, LeibalgError
from .fields import Field, FieldElement
from .linalg import rref
from .poly import MultiPoly


class Inconclusive(LeibalgError):
    """Sampling could not produce a point violating exactly one relation."""


@dataclass(frozen=True)
class ParametricAlgebra:
    """A structure tensor with polynomial entries over named parameters."""

    dim: int
    variables: tuple[str, ...]
    entries: tuple[tuple[tuple[MultiPoly, ...], ...], ...]

    @classmethod
    def from_table(cls, dim: int, variables, cells) -> "ParametricAlgebra":
        """Build from sparse cells: {(i, j): {k: poly-or-rational}} (1-based)."""
        variables = tuple(variables)
        zero = MultiPoly.zero(variables)
        table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), vec in cells.items():
            for k, value in vec.items():
                if not isinstance(value, MultiPoly):
                    value = MultiPoly.constant(variables, value)
                table[i - 1][j - 1][k - 1] = value
        entries = tuple(tuple(tuple(cell) for cell in row) for row in table)
        return cls(dim, variables, entries)

    def cell(self, i: int, j: int) -> tuple[MultiPoly, ...]:
        return self.entries[i][j]

    def specialize(self, assignment: dict[str, Fraction | int]) -> "ParametricAlgebra":
        """Substitute rational values for some parameters and drop them."""
        remaining = tuple(v for v in self.variables if v not in assignment)
        new_entries = tuple(
            tuple(
                tuple(
                    poly.substitute(assignment).restrict_variables(remaining)
                    for poly in cell
                )
                for cell in row
            )
            for row in self.entries
        )
        return ParametricAlgebra(self.dim, remaining, new_entries)


def leibniz_constraints(p: ParametricAlgebra) -> list[MultiPoly]:
    """Residual polynomials of the defining identity over all basis triples.

    Zero polynomials are dropped; the rest are made monic, deduplicated up
    to scalar multiples, and sorted canonically.  An empty list means the
    table is a Leibniz algebra for every parameter value.
    """
    raw = raw_leibniz_residuals(p)
    seen: dict = {}
    for poly in raw:
        normal = poly.monic()
        key = tuple(sorted(normal.terms.items()))
        if key not in seen:
            seen[key] = normal
    return sorted(seen.values(), key=lambda q: q.sort_key())


def raw_leibniz_residuals(p: ParametricAlgebra) -> list[MultiPoly]:
    """Nonzero residual coordinates, without dedup or normalization.

    Ordered by triple (i, j, l), then by coordinate k.
    """
    n = p.dim
    zero = MultiPoly.zero(p.variables)
    cells = tuple(
        tuple(tuple((k, poly) for k, poly in enumerate(cell) if not poly.is_zero()) for cell in row)
        for row in p.entries
    )
    out = []
    for i in range(n):
        for j in range(n):
            for l in range(n):
                residual = _identity_residual(cells, cells, i, j, l, n, zero)
                out.extend(poly for poly in residual if not poly.is_zero())
    return out


def eval_at(
    p: ParametricAlgebra, assignment: dict[str, FieldElement], field: Field
) -> LeibnizAlgebra:
    """Numeric algebra at a full parameter assignment.

    The result passes check_leibniz exactly when every extracted constraint
    vanishes at the assignment.
    """
    missing = [v for v in p.variables if v not in assignment]
    if missing:
        raise IncompleteAssignment(f"unassigned variables: {', '.join(missing)}")
    table = [
        [[poly.eval(assignment, field) for poly in cell] for cell in row]
        for row in p.entries
    ]
    return LeibnizAlgebra(field, table)


# ---------------------------------------------------------------------------
# sampling verification of claimed relation sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationCheck:
    relation: MultiPoly
    status: str  # "pass" | "fail"
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    field: Field
    seed: int
    trials: int
    locus_status: str  # "pass" | "fail"
    locus_detail: str
    relation_checks: tuple[RelationCheck, ...]

    @property
    def ok(self) -> bool:
        return self.locus_status == "pass" and all(
            rc.status == "pass" for rc in self.relation_checks
        )


def _random_element(rng: random.Random, field: Field) -> FieldElement:
    if field.is_finite():
        return field(rng.randrange(field.modulus))
    return field(Fraction(rng.randint(-50, 50)))


def _linear_data(poly: MultiPoly):
    """Split a linear polynomial into ({var: coeff}, constant)."""
    coeffs: dict[str, Fraction] = {}
    const = Fraction(0)
    for exp, c in poly.terms.items():
        degree = sum(exp)
        if degree == 0:
            const += c
        elif degree == 1:
            var = poly.variables[exp.index(1)]
            coeffs[var] = coeffs.get(var, Fraction(0)) + c
        else:
            raise LeibalgError(
                f"relation {poly} is not linear; sampling solver handles "
                "linear relation sets only"
            )
    return coeffs, const


def _sample_on_locus(
    rng: random.Random,
    relations: list[MultiPoly],
    variables: tuple[str, ...],
    field: Field,
) -> dict[str, FieldElement] | None:
    """One random point satisfying every relation.

    The relations are reduced to echelon form over the field; pivot
    variables become targets solved by back-substitution from randomly
    sampled free variables.  Returns None when the system is inconsistent
    (empty locus).
    """
    nvars = len(variables)
    rows = []
    for rel in relations:
        coeffs, const = _linear_data(rel)
        rows.append([field(coeffs.get(v, 0)) for v in variables] + [-field(const)])
    ech, pivots = rref(rows, field, nvars + 1)
    if nvars in pivots:
        return None
    pivot_set = set(pivots)
    assignment = {
        v: _random_element(rng, field)
        for idx, v in enumerate(variables)
        if idx not in pivot_set
    }
    for row, pc in zip(ech, pivots):
        val = row[nvars]
        for idx in range(nvars):
            if idx != pc and row[idx]:
                val = val - row[idx] * assignment[variables[idx]]
        assignment[variables[pc]] = val
    return assignment


def verify_implied_relations(
    p: ParametricAlgebra,
    relations: list[MultiPoly],
    trials: int,
    field: Field,
    seed: int = 0,
) -> VerificationReport:
    """Two-sided sampling check of a claimed relation set.

    Direction (a): `trials` sampled points on the relations' zero locus must
    annihilate every extracted constraint.  Direction (b): for each relation,
    a sampled point satisfying all the others but violating it must leave
    some constraint nonzero; failure to find such a point raises
    Inconclusive.
    """
    rng = random.Random(seed)
    constraints = leibniz_constraints(p)
    variables = p.variables

    locus_status, locus_detail = "pass", f"{trials} locus samples annihilate all constraints"
    for _ in range(trials):
        point = _sample_on_locus(rng, relations, variables, field)
        if point is None:
            locus_status = "fail"
            locus_detail = "could not solve the relations for sample points"
            break
        bad = next(
            (c for c in constraints if bool(c.eval(point, field))),
            None,
        )
        if bad is not None:
            locus_status = "fail"
            values = {v: str(point[v]) for v in sorted(point)}
            locus_detail = f"constraint {bad} nonzero at locus point {values}"
            break

    checks = []
    for idx, rel in enumerate(relations):
        others = relations[:idx] + relations[idx + 1 :]
        found = None
        for _ in range(trials):
            point = (
                _sample_on_locus(rng, others, variables, field)
                if others
                else {v: _random_element(rng, field) for v in variables}
            )
            if point is None:
                continue
            if bool(rel.eval(point, field)):
                found = point
                break
        if found is None:
            raise Inconclusive(f"no sample violating only {rel}")
        broken = next((c for c in constraints if bool(c.eval(found, field))), None)
        if broken is None:
            checks.append(
                RelationCheck(rel, "fail", "violating point satisfies all constraints")
            )
        else:
            checks.append(
                RelationCheck(rel, "pass", f"violation breaks constraint {broken}")
            )
    return VerificationReport(
        field=field,
        seed=seed,
        trials=trials,
        locus_status=locus_status,
        locus_detail=locus_detail,
        relation_checks=tuple(checks),
    )
