"""Constraint extraction for parametric multiplication tables.

A ParametricAlgebra is a structure tensor whose cells are polynomials in
the table parameters.  Applying the defining identity to every basis
triple yields residual polynomials; their common zero locus is exactly the
set of parameter values for which the table is a Leibniz algebra.  The
residuals come from the one identity walk of ``core``
(``_identity_residuals``), run on sparse polynomial cells.  The
extracted list is canonical: monic, deduplicated up to scalar multiples,
and sorted by graded-lex key.

verify_implied_relations decides, exactly over Q, whether a claimed set
of linear relations has the same zero set as the extracted constraints:
(a) the relations imply every constraint, (b) the constraints imply every
relation, and no relation is redundant.  Linear polynomials are compared
as rows of an affine row space with the elimination of ``linalg``;
nonlinear constraints are handled in direction (a) by substitution.  No
Groebner machinery is used.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .core import LeibnizAlgebra, _identity_residuals
from .errors import IncompleteAssignment, NotApplicable
from .fields import QQ, Field, FieldElement
from .linalg import Subspace
from .poly import MultiPoly


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
    table is a Leibniz algebra for every parameter value.  The returned
    polynomials share one exponent tuple per distinct monomial and one
    ``Fraction`` per distinct coefficient, so a kept list holds each once.
    """
    raw = raw_leibniz_residuals(p)
    seen: dict = {}
    for poly in raw:
        normal = poly.monic()
        key = tuple(sorted(normal.terms.items()))
        if key not in seen:
            seen[key] = normal
    exponents: dict = {}
    coefficients: dict = {}
    out = []
    for q in sorted(seen.values(), key=lambda q: q.sort_key()):
        terms = {
            exponents.setdefault(e, e): coefficients.setdefault(c, c) for e, c in q.terms.items()
        }
        out.append(MultiPoly(q.variables, terms))
    return out


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
    for residual in _identity_residuals(cells, cells, n, zero).values():
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
# exact verification of claimed relation sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RelationCheck:
    """One of the three checks of a relation set."""

    status: str  # "pass" | "fail"
    detail: str


@dataclass(frozen=True, slots=True)
class VerificationReport:
    relations_imply_constraints: RelationCheck
    constraints_imply_relations: RelationCheck
    minimal: RelationCheck

    @property
    def named_checks(self) -> tuple[tuple[str, RelationCheck], ...]:
        return (
            ("relations => constraints", self.relations_imply_constraints),
            ("constraints => relations", self.constraints_imply_relations),
            ("minimal", self.minimal),
        )

    @property
    def ok(self) -> bool:
        return all(check.status == "pass" for _, check in self.named_checks)


def _affine_row(poly: MultiPoly) -> list[Fraction] | None:
    """``[coefficients | constant]`` of a polynomial of degree <= 1, else None."""
    if poly.total_degree() > 1:
        return None
    row = [Fraction(0)] * (len(poly.variables) + 1)
    for exp, c in poly.terms.items():
        row[exp.index(1) if any(exp) else -1] = c
    return row


def _pivot_solution(space: Subspace, variables: tuple[str, ...]) -> dict[str, MultiPoly]:
    """Each pivot variable of a consistent echelon system, in terms of the free ones."""
    n = len(variables)
    solution = {}
    for row, pc in zip(space.rows, space.pivots):
        value = MultiPoly.constant(variables, -row[n].value)
        for idx in range(n):
            if idx != pc and row[idx]:
                value = value - row[idx].value * MultiPoly.variable(variables, variables[idx])
        solution[variables[pc]] = value
    return solution


def verify_implied_relations(
    p: ParametricAlgebra,
    relations: list[MultiPoly],
    *,
    trials=None,
    field=None,
    seed=None,
) -> VerificationReport:
    """Exact check over Q that linear relations cut out the Leibniz locus of p.

    Each linear polynomial becomes the row ``[coefficients | constant]``.
    Over a consistent system, one linear polynomial vanishes on the zero set
    of others exactly when its row lies in their span, so the two
    directions are row containments: (a) every linear constraint lies in
    the span of the relations, (b) every relation lies in the span of the
    linear constraints.  A nonlinear constraint is checked in direction (a)
    by substituting the relations' solution for their pivot variables,
    which must give the zero polynomial; direction (b) is then decided by
    the linear constraints alone, and NotApplicable is raised when they do
    not span every relation.  Relations with no common zero (their rows
    span ``[0 ... 0 | 1]``) fail (a); a relation in the span of the others
    fails minimality.

    ``trials``, ``field`` and ``seed`` are deprecated and ignored.
    """
    if (trials, field, seed) != (None, None, None):
        warnings.warn(
            "verify_implied_relations is exact over Q; trials, field and seed are ignored",
            DeprecationWarning,
            stacklevel=2,
        )
    width = len(p.variables) + 1
    rows = []
    for rel in relations:
        row = _affine_row(rel)
        if row is None:
            raise NotApplicable(f"relation {rel} is not linear")
        rows.append(row)
    spanned = Subspace.span(QQ, width, rows)
    linear, nonlinear = [], []
    for poly in leibniz_constraints(p):
        row = _affine_row(poly)
        if row is None:
            nonlinear.append(poly)
        else:
            linear.append((poly, row))
    covered = Subspace.span(QQ, width, [row for _, row in linear])

    if spanned.contains([0] * (width - 1) + [1]):
        forward = RelationCheck(
            "fail", "the relations have no common zero: their rows span [0 ... 0 | 1]"
        )
    else:
        bad = next((poly for poly, row in linear if not spanned.contains(row)), None)
        if bad is None and nonlinear:
            solution = _pivot_solution(spanned, p.variables)
            bad = next((q for q in nonlinear if not q.substitute(solution).is_zero()), None)
        if bad is None:
            detail = "every linear constraint is a combination of the relations"
            if nonlinear:
                detail += f" and the {len(nonlinear)} others vanish on their solution"
            forward = RelationCheck("pass", detail)
        else:
            forward = RelationCheck(
                "fail", f"constraint {bad} does not vanish on the relations' zero set"
            )

    missed = next((rel for rel, row in zip(relations, rows) if not covered.contains(row)), None)
    if missed is None:
        converse = RelationCheck(
            "pass", f"every relation is a combination of the {len(linear)} linear constraints"
        )
    elif nonlinear:
        raise NotApplicable(
            f"the linear constraints do not imply relation {missed}, and the "
            f"converse through the nonlinear constraint {nonlinear[0]} is not decided"
        )
    else:
        converse = RelationCheck("fail", f"relation {missed} is not implied by the constraints")

    if spanned.dim == len(relations):
        minimal = RelationCheck("pass", f"the {len(relations)} relations are independent")
    else:
        redundant = next(
            rel
            for idx, (rel, row) in enumerate(zip(relations, rows))
            if Subspace.span(QQ, width, rows[:idx]).contains(row)
        )
        minimal = RelationCheck(
            "fail", f"relation {redundant} is a combination of the ones before it"
        )
    return VerificationReport(forward, converse, minimal)
