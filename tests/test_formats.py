"""Text formats: parsing, canonical emission, round trips."""

import pytest

from leibalg import (
    GF,
    QQ,
    ConstructionError,
    LeibnizAlgebra,
    ParseError,
    format_algebra,
    format_parametric,
    instantiate,
    leibniz_constraints,
    list_catalog,
    parse_algebra,
    parse_parametric,
    parse_relations,
    sample_params,
)
from leibalg.catalog import parametric_table1, parametric_table6

SAMPLE = """leibalg v1
field GF(3)          # or: field Q
dim 4
basis x1 x2 x3 x4    # optional
[1,1] = 1*3          # [e1,e1] = 1*e3
[2,1] = 1*3 + 1*4
"""


class TestParsing:
    def test_sample_file(self):
        algebra = parse_algebra(SAMPLE)
        assert algebra.dim == 4
        assert algebra.field == GF(3)
        assert algebra.labels == ("x1", "x2", "x3", "x4")
        assert algebra.bracket([1, 0, 0, 0], [1, 0, 0, 0]) == algebra.vector([0, 0, 1, 0])
        assert algebra.bracket([0, 1, 0, 0], [1, 0, 0, 0]) == algebra.vector([0, 0, 1, 1])

    def test_omitted_products_zero(self):
        algebra = parse_algebra("leibalg v1\nfield Q\ndim 2\n")
        assert algebra.derived().is_zero()

    def test_rational_coefficients(self):
        algebra = parse_algebra("leibalg v1\nfield Q\ndim 2\n[1,1] = 3/4*2\n")
        assert algebra.bracket([1, 0], [1, 0]) == algebra.vector([0, "3/4"])

    def test_negative_coefficients(self):
        algebra = parse_algebra("leibalg v1\nfield GF(5)\ndim 2\n[1,2] = -1*2\n")
        assert algebra.bracket([1, 0], [0, 1]) == algebra.vector([0, 4])

    def test_zero_rhs(self):
        algebra = parse_algebra("leibalg v1\nfield Q\ndim 2\n[1,1] = 0\n")
        assert algebra.derived().is_zero()

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_algebra("field Q\ndim 2\n")

    def test_bad_line_reports_number(self):
        with pytest.raises(ParseError) as err:
            parse_algebra("leibalg v1\nfield Q\ndim 2\nnonsense here\n")
        assert err.value.line == 4

    def test_duplicate_product_line(self):
        text = "leibalg v1\nfield Q\ndim 2\n[1,1] = 1*2\n[1,1] = 1*2\n"
        with pytest.raises(ParseError) as err:
            parse_algebra(text)
        assert err.value.line == 5

    def test_index_out_of_range(self):
        with pytest.raises(ParseError):
            parse_algebra("leibalg v1\nfield Q\ndim 2\n[1,3] = 1*2\n")
        with pytest.raises(ParseError):
            parse_algebra("leibalg v1\nfield Q\ndim 2\n[1,2] = 1*5\n")

    def test_missing_field_or_dim(self):
        with pytest.raises(ParseError):
            parse_algebra("leibalg v1\ndim 2\n")
        with pytest.raises(ParseError):
            parse_algebra("leibalg v1\nfield Q\n")

    def test_bad_field_literal(self):
        with pytest.raises(ParseError):
            parse_algebra("leibalg v1\nfield GF(6)\ndim 2\n")

    def test_field_line_may_follow_the_products(self):
        algebra = parse_algebra("leibalg v1\ndim 2\n[1,1] = 1*2\nfield GF(3)\n")
        assert algebra.field == GF(3)
        assert algebra.bracket([1, 0], [1, 0]) == algebra.vector([0, 1])

    def test_basis_count_mismatch_reports_its_line(self):
        with pytest.raises(ParseError) as err:
            parse_algebra("leibalg v1\nfield Q\ndim 2\nbasis x y z\n")
        assert err.value.line == 4


# Bodies after "leibalg v1\nfield Q\n", with the line each parser rejects.
# ``params`` is no keyword of the algebra format, so parse_algebra stops at
# the first params line.
MALFORMED = {
    "negative dim": ("dim -1\n", 3, 3),
    "repeated dim": ("dim 2\ndim 2\n", 4, 4),
    "repeated field": ("field Q\ndim 2\n", 3, 3),
    "repeated params": ("params a\nparams a\ndim 2\n", 3, 4),
    "repeated basis": ("dim 2\nbasis x y\nbasis x y\n", 5, 5),
    "keyword prefix dimension": ("dimension 2\n", 3, 3),
    "keyword prefix dim2": ("dim2\n", 3, 3),
    "keyword prefix fieldx": ("dim 2\nfieldx GF(3)\n", 4, 4),
    "keyword prefix basisfoo": ("dim 2\nbasisfoo x y\n", 4, 4),
    "duplicate params names": ("params a a\ndim 2\n", 3, 3),
    "empty term": ("dim 2\n[1,1] = 1*2 + + 1*1\n", 4, 4),
    "zero denominator": ("dim 2\n[1,1] = 1/0*2\n", 4, 4),
    "product before dim": ("[1,1] = 1*2\ndim 2\n", 3, 3),
    "double star": ("dim 2\n[1,1] = 2**2\n", 4, 4),
}


@pytest.mark.parametrize("case", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize("parse", [parse_algebra, parse_parametric])
def test_malformed_tables_are_rejected_with_a_line_number(parse, case):
    body, algebra_line, parametric_line = case
    with pytest.raises(ParseError) as err:
        parse("leibalg v1\nfield Q\n" + body)
    assert err.value.line == (algebra_line if parse is parse_algebra else parametric_line)
    assert str(err.value).startswith(f"line {err.value.line}: ")


def test_a_parameter_with_a_double_star_is_no_coefficient():
    # [1,1] = a**2 splits into the coefficient "a*" and the index 2
    with pytest.raises(ParseError) as err:
        parse_parametric("leibalg v1\ndim 2\n[1,1] = a**2\n")
    assert err.value.line == 3
    assert "trailing '*'" in str(err.value)


@pytest.mark.parametrize("names", ["1 x", "x y-z", "x 2b"])
def test_params_names_must_be_identifiers(names):
    with pytest.raises(ParseError) as err:
        parse_parametric(f"leibalg v1\nparams {names}\ndim 2\n[1,1] = x*2\n")
    assert err.value.line == 2
    assert "not an identifier" in str(err.value)


class TestRoundTrip:
    def test_catalog_entries_bit_exact(self):
        for entry in list_catalog():
            for field in (GF(3), GF(5), GF(7), QQ):
                params = sample_params(entry.name, field)
                if params is None:
                    continue
                algebra = instantiate(entry.name, field, params)
                text = format_algebra(algebra)
                back = parse_algebra(text)
                assert back == algebra
                assert back.labels == algebra.labels
                assert format_algebra(back) == text

    @pytest.mark.parametrize("bad", ["", "a b", "a\tb", " a", "a\n", "a#b", "#", 3])
    def test_labels_that_would_not_read_back_are_refused(self, bad):
        # such labels used to be written into a basis line that parse_algebra
        # rejects: ("a b", "c") reads back as "basis line names 3 vectors"
        field = GF(5)
        with pytest.raises(ConstructionError):
            LeibnizAlgebra.from_table(2, field, [], labels=(bad, "c"))
        with pytest.raises(ConstructionError):
            LeibnizAlgebra(field, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], labels=("c", bad))

    def test_labels_read_back_from_sums_and_quotients(self):
        for field in (GF(5), QQ):
            heisenberg = instantiate("heisenberg3", field, {})
            for entry in list_catalog():
                algebra = instantiate(entry.name, field, sample_params(entry.name, field))
                derived = [
                    algebra,
                    algebra.direct_sum(heisenberg),
                    algebra.quotient(algebra.center()).algebra,
                ]
                for built in derived:
                    assert parse_algebra(format_algebra(built)).labels == built.labels

    def test_rational_fractions_roundtrip(self):
        algebra = LeibnizAlgebra.from_table(
            2, QQ, [(1, 1, {2: "713/2"}), (1, 2, {2: "-3/7"})]
        )
        text = format_algebra(algebra)
        assert "713/2" in text and "-3/7" in text
        assert parse_algebra(text) == algebra


class TestParametricFormat:
    def test_parse_cell_with_parameter(self):
        text = "leibalg v1\nparams gamma\ndim 6\n[3,3] = gamma*6\n"
        parametric = parse_parametric(text)
        assert parametric.variables == ("gamma",)
        assert not parametric.entries[2][2][5].is_zero()

    def test_inferred_variables(self):
        text = "leibalg v1\ndim 3\n[1,1] = a*2 + b*3\n[2,2] = a*3\n"
        parametric = parse_parametric(text)
        assert parametric.variables == ("a", "b")

    @staticmethod
    def check_roundtrip(p):
        text = format_parametric(p)
        back = parse_parametric(text)
        assert back.variables == p.variables
        assert back.entries == p.entries
        assert format_parametric(back) == text

    def test_roundtrip_table6(self):
        self.check_roundtrip(parametric_table6())

    def test_roundtrip_table1(self):
        self.check_roundtrip(parametric_table1())

    def test_constraints_from_file(self):
        text = format_parametric(parametric_table6())
        parametric = parse_parametric(text)
        cons = leibniz_constraints(parametric)
        assert len(cons) == 3


class TestRelationsFormat:
    def test_parse_lines(self):
        rels = parse_relations("gamma - d + f\nbhat + b\n")
        assert len(rels) == 2
        assert str(rels[0]) == "gamma - d + f"

    def test_with_declared_variables(self):
        rels = parse_relations("gamma\n", ("alpha", "gamma"))
        assert rels[0].variables == ("alpha", "gamma")

    def test_rational_coefficients(self):
        rels = parse_relations("2*x - 1/2*y\n")
        assert str(rels[0]) == "2*x - 1/2*y"

    def test_signs(self):
        x_plus_y, minus_two_x, x_times_minus_y = parse_relations(
            "x - - y\n2*-x\n+x * -y\n", ("x", "y")
        )
        assert str(x_plus_y) == "x + y"
        assert str(minus_two_x) == "-2*x"
        assert str(x_times_minus_y) == "-x*y"

    @pytest.mark.parametrize(
        "text", ["x y", "x * * y", "x -", "-", "x $ y", "1/0*x", "z", "x*", "x + 2*y *"]
    )
    def test_malformed_line_reports_its_number(self, text):
        with pytest.raises(ParseError) as err:
            parse_relations("x + y\n" + text + "\n", ("x", "y"))
        assert err.value.line == 2

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            parse_relations("x ? y\n")
