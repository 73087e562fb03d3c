"""Symbolic constraint extraction and sampling verification."""

import itertools
import random
from fractions import Fraction

import pytest

from leibalg import (
    GF,
    QQ,
    IncompleteAssignment,
    MultiPoly,
    ParametricAlgebra,
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
from leibalg.constraints import Inconclusive, raw_leibniz_residuals


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
    RELS6 = ("gamma - d + f", "gamma + d + fhat", "gamma - dhat - f")

    def test_table6_both_directions(self):
        p = parametric_table6()
        relations = [parse_poly(t, p.variables) for t in self.RELS6]
        report = verify_implied_relations(p, relations, 100, GF(101), seed=1)
        assert report.ok
        assert report.locus_status == "pass"
        assert all(rc.status == "pass" for rc in report.relation_checks)

    def test_table1_both_directions(self):
        p = parametric_table1()
        relations = parse_relations("bhat + b\nchat + c\ngamma\n", p.variables)
        report = verify_implied_relations(p, relations, 100, GF(101), seed=1)
        assert report.ok

    def test_fake_relation_fails_locus(self):
        p = parametric_table6()
        relations = [
            parse_poly(t, p.variables)
            for t in ("gamma - d - f", "gamma + d + fhat", "gamma - dhat - f")
        ]
        report = verify_implied_relations(p, relations, 100, GF(101), seed=1)
        assert not report.ok
        assert report.locus_status == "fail"

    def test_redundant_relation_inconclusive(self):
        # a relation listed twice: no point can violate only one copy
        p = parametric_table6()
        relations = [
            parse_poly("gamma - d + f", p.variables),
            parse_poly("gamma - d + f", p.variables),
            parse_poly("gamma + d + fhat", p.variables),
            parse_poly("gamma - dhat - f", p.variables),
        ]
        with pytest.raises(Inconclusive):
            verify_implied_relations(p, relations, 20, GF(101), seed=1)

    def test_deterministic_given_seed(self):
        p = parametric_table1()
        relations = parse_relations("bhat + b\nchat + c\ngamma\n", p.variables)
        r1 = verify_implied_relations(p, relations, 50, GF(101), seed=9)
        r2 = verify_implied_relations(p, relations, 50, GF(101), seed=9)
        assert r1 == r2

    def test_rational_sampling(self):
        p = parametric_table1()
        relations = parse_relations("bhat + b\nchat + c\ngamma\n", p.variables)
        report = verify_implied_relations(p, relations, 20, QQ, seed=3)
        assert report.ok
