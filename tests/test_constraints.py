"""Symbolic constraint extraction and exact verification of relation sets."""

import itertools
import random
from fractions import Fraction

import pytest

from leibalg import (
    GF,
    IncompleteAssignment,
    MultiPoly,
    NotApplicable,
    ParametricAlgebra,
    UnknownVariable,
    eval_at,
    leibniz_constraints,
    parse_poly,
    parse_relations,
    verify_implied_relations,
)
from leibalg.catalog import (
    TABLE1_VARIABLES,
    TABLE6_VARIABLES,
    parametric_table1,
    parametric_table6,
)
from leibalg.constraints import raw_leibniz_residuals
from leibalg.formats import parse_parametric


class TestMultiPoly:
    VARS = ("x", "y", "z")

    def test_arithmetic(self):
        x = MultiPoly.variable(self.VARS, "x")
        y = MultiPoly.variable(self.VARS, "y")
        poly = (x + y) * (x - y)
        expected = x * x - y * y
        assert poly == expected

    def test_zero_terms_dropped(self):
        x = MultiPoly.variable(self.VARS, "x")
        assert (x - x).is_zero()

    def test_monic(self):
        x = MultiPoly.variable(self.VARS, "x")
        y = MultiPoly.variable(self.VARS, "y")
        poly = 3 * x + 6 * y
        assert poly.monic() == x + 2 * y

    def test_eval(self):
        x = MultiPoly.variable(self.VARS, "x")
        z = MultiPoly.variable(self.VARS, "z")
        poly = 2 * x * z + 1
        field = GF(7)
        value = poly.eval({"x": field(3), "y": field(0), "z": field(2)}, field)
        assert value == field(13 % 7)

    def test_eval_missing_variable(self):
        x = MultiPoly.variable(self.VARS, "x")
        with pytest.raises(IncompleteAssignment):
            x.eval({"y": GF(5)(0), "z": GF(5)(0)}, GF(5))

    def test_substitute(self):
        x = MultiPoly.variable(self.VARS, "x")
        y = MultiPoly.variable(self.VARS, "y")
        poly = x * y + 2 * x
        assert poly.substitute({"y": Fraction(3)}) == 5 * x

    def test_substitute_polynomials(self):
        x = MultiPoly.variable(self.VARS, "x")
        y = MultiPoly.variable(self.VARS, "y")
        z = MultiPoly.variable(self.VARS, "z")
        poly = x * x * y + 2 * x - z
        # x -> y - 1, z -> 2: (y - 1)^2 y + 2(y - 1) - 2
        expected = y * y * y - 2 * y * y + 3 * y - 4
        assert poly.substitute({"x": y - 1, "z": 2}) == expected
        assert (x * y - y * x).substitute({"x": z * z}).is_zero()

    def test_unknown_variable_is_named(self):
        x = MultiPoly.variable(self.VARS, "x")
        with pytest.raises(UnknownVariable, match="'w'"):
            x.substitute({"w": 1})
        with pytest.raises(UnknownVariable, match="'w'"):
            x.restrict_variables(("x", "w"))
        with pytest.raises(UnknownVariable, match="'w'"):
            MultiPoly.variable(self.VARS, "w")
        with pytest.raises(UnknownVariable, match="'nope'"):
            parametric_table1().specialize({"nope": 1})

    def test_str_roundtrip(self):
        poly = parse_poly("gamma - d + f", TABLE6_VARIABLES)
        assert str(poly) == "gamma - d + f"
        assert parse_poly(str(poly), TABLE6_VARIABLES) == poly


class TestExtraction:
    def test_table6_specialized(self):
        # with alpha = beta = abar = 0 the constraint set is exactly the
        # three closure relations
        p = parametric_table6().specialize({"alpha": 0, "beta": 0, "abar": 0})
        cons = leibniz_constraints(p)
        expected = {
            parse_poly(text, p.variables)
            for text in ("gamma - d + f", "gamma + d + fhat", "gamma - dhat - f")
        }
        assert set(cons) == expected

    def test_table6_full_parameters(self):
        # alpha, beta, abar stay unconstrained
        cons = leibniz_constraints(parametric_table6())
        expected = {
            parse_poly(text, TABLE6_VARIABLES)
            for text in ("gamma - d + f", "gamma + d + fhat", "gamma - dhat - f")
        }
        assert set(cons) == expected

    def test_numeric_algebra_no_constraints(self):
        cells = {
            (1, 2): {3: Fraction(1)},
            (2, 1): {3: Fraction(-1)},
        }
        p = ParametricAlgebra.from_table(3, (), cells)
        assert leibniz_constraints(p) == []

    def test_table1_reductions(self):
        cons = leibniz_constraints(parametric_table1())
        expected = {
            parse_poly(text, TABLE1_VARIABLES)
            for text in ("bhat + b", "chat + c", "gamma")
        }
        assert set(cons) == expected

    def test_degree_at_most_two(self):
        for p in (parametric_table6(), parametric_table1()):
            for poly in leibniz_constraints(p):
                assert poly.total_degree() <= 2

    def test_dedup_sound(self):
        # every raw residual is a scalar multiple of a retained constraint
        p = parametric_table6()
        retained = leibniz_constraints(p)
        for residual in raw_leibniz_residuals(p):
            assert residual.monic() in retained


def random_parametric_table(seed: int) -> ParametricAlgebra:
    rng = random.Random(seed)
    variables = ("a", "b", "c")
    n = 4
    cells = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            vec = {}
            for k in range(1, n + 1):
                if rng.random() < 0.35:
                    coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    name = rng.choice(variables + (None,))
                    term = MultiPoly.variable(variables, name) if name else 1
                    vec[k] = MultiPoly.constant(variables, coeff) * term
            cells[(i, j)] = vec
    return ParametricAlgebra.from_table(n, variables, cells)


def dense_raw_residuals(p: ParametricAlgebra) -> list[MultiPoly]:
    """Residual coordinates from the dense formula, in (i, j, l, k) order.

    [e_i, [e_j, e_l]] - [[e_i, e_j], e_l] - [e_j, [e_i, e_l]] has k-th
    coordinate sum_m c_jl^m c_im^k - c_ij^m c_ml^k - c_il^m c_jm^k.
    """
    n, c = p.dim, p.entries
    out = []
    for i, j, l, k in itertools.product(range(n), repeat=4):
        residual = MultiPoly.zero(p.variables)
        for m in range(n):
            residual = (
                residual
                + c[j][l][m] * c[i][m][k]
                - c[i][j][m] * c[m][l][k]
                - c[i][l][m] * c[j][m][k]
            )
        if not residual.is_zero():
            out.append(residual)
    return out


@pytest.mark.parametrize(
    "table",
    [parametric_table6, parametric_table1, lambda: random_parametric_table(5)],
    ids=["table6", "table1", "random"],
)
def test_raw_residuals_match_the_dense_formula(table):
    p = table()
    residuals = raw_leibniz_residuals(p)
    assert residuals and residuals == dense_raw_residuals(p)


def filtered_parametric_table(seed: int) -> ParametricAlgebra:
    """A table on e1..e5 with [e_i, e_j] in span{e_k : k > max(i, j)}: 12
    seeded slots hold a parameter each and 8 a small nonzero constant."""
    rng = random.Random(seed)
    n = 5
    variables = tuple(f"q{idx + 1}" for idx in range(12))
    slots = [
        (i, j, k)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for k in range(max(i, j) + 1, n + 1)
    ]
    rng.shuffle(slots)
    cells: dict = {}
    for idx, (i, j, k) in enumerate(slots[:20]):
        if idx < len(variables):
            value = MultiPoly.variable(variables, variables[idx])
        else:
            value = rng.choice((-3, -2, -1, 1, 2, 3))
        cells.setdefault((i, j), {})[k] = value
    return ParametricAlgebra.from_table(n, variables, cells)


def unshared_constraints(p: ParametricAlgebra) -> list[MultiPoly]:
    """``leibniz_constraints`` with every result holding its own exponent
    tuples and coefficients: monic, deduplicated and sorted."""
    seen: dict = {}
    for poly in raw_leibniz_residuals(p):
        normal = poly.monic()
        seen.setdefault(tuple(sorted(normal.terms.items())), normal)
    return sorted(seen.values(), key=lambda q: q.sort_key())


@pytest.mark.parametrize(
    "table",
    [parametric_table6, parametric_table1, lambda: filtered_parametric_table(0)],
    ids=["table6", "table1", "filtered"],
)
def test_constraints_share_their_exponents_and_coefficients(table):
    # the same list as the unshared one, printed and ordered alike, with
    # each distinct exponent tuple and coefficient held once across it
    p = table()
    got, expected = leibniz_constraints(p), unshared_constraints(p)
    assert got == expected
    assert [str(q) for q in got] == [str(q) for q in expected]
    assert [q.sort_key() for q in got] == [q.sort_key() for q in expected]
    exponents: dict = {}
    coefficients: dict = {}
    for q in got:
        for e, c in q.terms.items():
            assert exponents.setdefault(e, e) is e
            assert coefficients.setdefault(c, c) is c
    terms = sum(len(q.terms) for q in got)
    assert len(got) >= 3 and terms > len(coefficients)


class TestEvalAt:
    def _assign(self, field, **values):
        out = {v: field(0) for v in TABLE6_VARIABLES}
        out.update({k: field(v) for k, v in values.items()})
        return out

    def test_all_zero_is_valid(self):
        field = GF(7)
        algebra = eval_at(parametric_table6(), self._assign(field), field)
        assert algebra.check_leibniz() == []

    def test_satisfying_point_valid(self):
        # gamma=1, d=3, f=2, fhat=-4, dhat=-1 satisfies all three relations
        field = GF(11)
        algebra = eval_at(
            parametric_table6(),
            self._assign(field, gamma=1, d=3, f=2, fhat=-4, dhat=-1, c=5, g=2),
            field,
        )
        assert algebra.check_leibniz() == []

    def test_violating_point_invalid(self):
        field = GF(11)
        algebra = eval_at(
            parametric_table6(), self._assign(field, gamma=1, d=0, f=0), field
        )
        assert algebra.check_leibniz() != []

    def test_missing_assignment(self):
        field = GF(5)
        partial = {v: field(0) for v in TABLE6_VARIABLES[:-1]}
        with pytest.raises(IncompleteAssignment):
            eval_at(parametric_table6(), partial, field)

    def test_consistency_with_constraints(self):
        # an assignment kills every constraint iff the table is an algebra
        rng = random.Random(17)
        field = GF(7)
        p = parametric_table6()
        cons = leibniz_constraints(p)
        for _ in range(30):
            assignment = {v: field(rng.randrange(7)) for v in p.variables}
            vanish = all(not c.eval(assignment, field) for c in cons)
            algebra = eval_at(p, assignment, field)
            assert vanish == (algebra.check_leibniz() == [])


class TestVerifyRelations:
    RELS6 = "gamma - d + f\ngamma + d + fhat\ngamma - dhat - f\n"
    RELS1 = "bhat + b\nchat + c\ngamma\n"

    # constraints a, a*b and a*a: the linear one forces every relation {a}
    QUADRATIC_FORCED = "leibalg v1\ndim 4\n[1,1] = 1*2\n[2,1] = a*3\n[1,2] = b*3\n[3,1] = a*4\n"
    # constraints a and b*c: the linear one cannot force b or c
    QUADRATIC_OPEN = "leibalg v1\ndim 6\n[1,1] = 1*2\n[2,1] = a*3\n[4,4] = b*5\n[5,4] = c*6\n"

    @staticmethod
    def statuses(report):
        return (
            report.relations_imply_constraints.status,
            report.constraints_imply_relations.status,
            report.minimal.status,
        )

    @pytest.mark.parametrize(
        "table, text",
        [(parametric_table6, RELS6), (parametric_table1, RELS1)],
        ids=["table6", "table1"],
    )
    def test_paper_relations_are_exact(self, table, text):
        p = table()
        report = verify_implied_relations(p, parse_relations(text, p.variables))
        assert report.ok
        assert self.statuses(report) == ("pass", "pass", "pass")
        assert report.minimal.detail == "the 3 relations are independent"

    def test_wrong_relation_fails_relations_imply_constraints(self):
        p = parametric_table6()
        text = self.RELS6.replace("gamma - d + f", "gamma - d - f")
        report = verify_implied_relations(p, parse_relations(text, p.variables))
        assert not report.ok
        assert report.relations_imply_constraints.status == "fail"
        assert "gamma - d + f" in report.relations_imply_constraints.detail
        assert report.constraints_imply_relations.status == "fail"
        assert "gamma - d - f" in report.constraints_imply_relations.detail

    def test_missing_relation_fails_relations_imply_constraints(self):
        # without gamma the relations no longer force the constraint gamma
        p = parametric_table1()
        report = verify_implied_relations(p, parse_relations("bhat + b\nchat + c\n", p.variables))
        assert self.statuses(report) == ("fail", "pass", "pass")
        assert report.relations_imply_constraints.detail.startswith("constraint gamma ")

    def test_relation_not_forced_fails_constraints_imply_relations(self):
        # b = 0 holds on the relations' zero set but the identity does not force it
        p = parametric_table1()
        report = verify_implied_relations(p, parse_relations(self.RELS1 + "b\n", p.variables))
        assert self.statuses(report) == ("pass", "fail", "pass")
        assert report.constraints_imply_relations.detail == "relation b is not implied by the constraints"

    @pytest.mark.parametrize("extra", ["gamma - d + f", "2*gamma + f + fhat"])
    def test_redundant_relation_fails_minimality(self, extra):
        # a repeated relation, or the sum of two others
        p = parametric_table6()
        relations = parse_relations(self.RELS6 + extra, p.variables)
        report = verify_implied_relations(p, relations)
        assert self.statuses(report) == ("pass", "pass", "fail")
        assert report.minimal.detail.startswith(f"relation {relations[-1]} is a combination")

    def test_inconsistent_relations_fail(self):
        p = parametric_table1()
        text = "bhat + b\nchat + c\ngamma\ngamma - 1\n"
        report = verify_implied_relations(p, parse_relations(text, p.variables))
        assert not report.ok
        assert report.relations_imply_constraints.status == "fail"
        assert "no common zero" in report.relations_imply_constraints.detail

    def test_quadratic_constraints_are_exact_in_direction_a(self):
        p = parse_parametric(self.QUADRATIC_FORCED)
        assert [str(c) for c in leibniz_constraints(p)] == ["a", "a*b", "a*a"]
        report = verify_implied_relations(p, parse_relations("a\n", p.variables))
        assert self.statuses(report) == ("pass", "pass", "pass")
        assert "the 2 others vanish on their solution" in report.relations_imply_constraints.detail
        p = parse_parametric(self.QUADRATIC_OPEN)
        assert [str(c) for c in leibniz_constraints(p)] == ["a", "b*c"]
        report = verify_implied_relations(p, parse_relations("a\n", p.variables))
        assert self.statuses(report) == ("fail", "pass", "pass")
        assert report.relations_imply_constraints.detail.startswith("constraint b*c ")

    @pytest.mark.parametrize("text", ["a\nb\n", "a + b\nb\n"])
    def test_unforced_relation_beside_a_quadratic_constraint_is_not_applicable(self, text):
        p = parse_parametric(self.QUADRATIC_OPEN)
        with pytest.raises(NotApplicable, match=r"constraint b\*c"):
            verify_implied_relations(p, parse_relations(text, p.variables))

    def test_nonlinear_relation_is_not_applicable(self):
        p = parametric_table1()
        with pytest.raises(NotApplicable, match="not linear"):
            verify_implied_relations(p, parse_relations("b*bhat\n", p.variables))

    def test_sampling_keywords_are_deprecated_and_ignored(self):
        p = parametric_table1()
        relations = parse_relations(self.RELS1, p.variables)
        with pytest.warns(DeprecationWarning):
            old = verify_implied_relations(p, relations, trials=5, field=GF(101), seed=3)
        assert old == verify_implied_relations(p, relations)
        with pytest.raises(TypeError):
            verify_implied_relations(p, relations, 5)
