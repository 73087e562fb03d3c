"""Catalog entries: constraints, instantiation, field dependence."""

import pytest

from leibalg import (
    GF,
    QQ,
    ConstraintViolated,
    IncompleteAssignment,
    NoSuchEntry,
    instantiate,
    is_isomorphic,
    list_catalog,
    nilpotency_data,
    sample_params,
    upper_central_series,
    validate_params,
)

ALL_NAMES = [e.name for e in list_catalog()]


class TestListing:
    def test_fifteen_entries(self):
        assert len(list_catalog()) == 15

    def test_names_unique(self):
        assert len(set(ALL_NAMES)) == len(ALL_NAMES)

    def test_descriptions_nonempty(self):
        for entry in list_catalog():
            assert entry.description.strip()

    def test_unknown_entry(self):
        with pytest.raises(NoSuchEntry):
            instantiate("no_such_thing", GF(3), {})
        with pytest.raises(NoSuchEntry):
            validate_params("no_such_thing", GF(3), {})

    def test_missing_parameters(self):
        with pytest.raises(IncompleteAssignment):
            instantiate("cc1_case2", GF(3), {"tau": 1})

    def test_extra_parameters(self):
        with pytest.raises(ConstraintViolated):
            instantiate("heisenberg3", GF(3), {"bogus": 1})

    @pytest.mark.parametrize(
        "value", [2.5, "2.5", "x", "", " 3", "0x3", True, GF(3)(2)], ids=repr
    )
    def test_size_parameter_must_be_an_integer(self, value):
        for call in (instantiate, validate_params):
            with pytest.raises(ConstraintViolated, match="parameter n must be an integer"):
                call("abelian", GF(3), {"n": value})

    @pytest.mark.parametrize("value", [2, "2", "+2"])
    def test_size_parameter_accepts_decimal_integers(self, value):
        assert instantiate("abelian", GF(3), {"n": value}).dim == 2

    def test_negative_size_parameter(self):
        with pytest.raises(ConstraintViolated, match="parameter n must be >= 0"):
            instantiate("abelian", GF(3), {"n": "-1"})


class TestCoclassOneFamily:
    def test_valid_over_gf3(self):
        algebra = instantiate(
            "cc1_case2", GF(3), {"tau": 1, "lambda": 0, "epsilon": 0}
        )
        prof = nilpotency_data(algebra)
        assert prof.cls == 2 and prof.coclass == 1
        assert algebra.center().dim == 1

    def test_gf5_nonsquare_discriminant_accepted(self):
        # (2 + 2)^2 - 4 = 12 = 2 mod 5, a non-square: valid
        algebra = instantiate(
            "cc1_case2", GF(5), {"tau": 1, "lambda": 2, "epsilon": 2}
        )
        assert algebra.dim == 3

    def test_gf5_square_discriminant_rejected(self):
        # (1 + 1)^2 - 4 = 0, a square: rejected
        with pytest.raises(ConstraintViolated):
            instantiate("cc1_case2", GF(5), {"tau": 1, "lambda": 1, "epsilon": 1})

    def test_tau_zero_rejected(self):
        with pytest.raises(ConstraintViolated):
            instantiate("cc1_case2", GF(3), {"tau": 0, "lambda": 0, "epsilon": 0})

    def test_char_two_unsatisfiable(self):
        assert sample_params("cc1_case2", GF(2)) is None


class TestDimFourFamilies:
    def test_a18_alpha_minus_one_rejected(self):
        with pytest.raises(ConstraintViolated):
            instantiate("A18", GF(7), {"alpha": 6})  # 6 = -1 mod 7

    def test_a18_validate_report(self):
        reports = validate_params("A18", GF(7), {"alpha": 6})
        assert any(r.name == "alpha_not_minus_one" and not r.ok for r in reports)

    def test_coclass_two_dims(self):
        for name, params in (("cc2_split4", {}), ("A18", {"alpha": 0}), ("A19", {})):
            algebra = instantiate(name, GF(5), params)
            prof = nilpotency_data(algebra)
            assert algebra.dim == 4 and prof.coclass == 2


class TestDimSixFamilies:
    def test_a1_char_three_rejected(self):
        reports = validate_params(
            "A1_6dim", GF(3), {"c": 1, "g": 1, "d": 1, "shat": 1, "rhat": 1}
        )
        assert any(r.name == "characteristic" and not r.ok for r in reports)
        assert sample_params("A1_6dim", GF(3)) is None

    def test_a1_scaling_relation_enforced(self):
        with pytest.raises(ConstraintViolated):
            instantiate(
                "A1_6dim", GF(5), {"c": 1, "g": 1, "d": 1, "shat": 1, "rhat": 1}
            )

    def test_a1_valid_instance(self):
        params = sample_params("A1_6dim", GF(5))
        algebra = instantiate("A1_6dim", GF(5), params)
        prof = nilpotency_data(algebra)
        assert prof.coclass == 2
        assert upper_central_series(algebra)[2].dim == 3

    def test_a3_closure_enforced(self):
        # the defining identity forces dhat = 3d
        with pytest.raises(ConstraintViolated):
            instantiate("A3_6dim", GF(5), {"d": 1, "dhat": 1})
        algebra = instantiate("A3_6dim", GF(5), {"d": 1, "dhat": 3})
        assert nilpotency_data(algebra).coclass == 2

    def test_a3_char_two_rejected(self):
        assert sample_params("A3_6dim", GF(2)) is None

    def test_a3_over_gf3(self):
        # dhat = 3d = 0 is fine over GF(3); the family stays coclass two
        algebra = instantiate("A3_6dim", GF(3), {"d": 1, "dhat": 0})
        assert nilpotency_data(algebra).coclass == 2


class TestSymbolicTables:
    def test_table6_closure_enforced(self):
        sample = sample_params("table6_generic", GF(5))
        algebra = instantiate("table6_generic", GF(5), sample)
        assert algebra.dim == 6
        bad = dict(sample)
        bad["gamma"] = 1
        bad["d"] = 0
        bad["f"] = 0
        with pytest.raises(ConstraintViolated):
            instantiate("table6_generic", GF(5), bad)

    def test_table1_gamma_forced_zero(self):
        params = {"alpha": 1, "beta": 1, "gamma": 1, "a": 0, "ahat": 0, "b": 1, "c": 1}
        with pytest.raises(ConstraintViolated):
            instantiate("table1_case1", GF(5), params)
        params["gamma"] = 0
        algebra = instantiate("table1_case1", GF(5), params)
        assert algebra.dim == 4


class TestHolmesEntries:
    def test_lie_property(self):
        assert instantiate("holmes_ii", GF(5), {}).leib_ideal().is_zero()
        assert instantiate("holmes_iii", GF(5), {"gamma": 2}).leib_ideal().is_zero()

    def test_holmes_iii_gf5(self):
        reports = validate_params("holmes_iii", GF(5), {"gamma": 2})
        assert all(r.ok for r in reports)  # -2 = 3 is a non-square mod 5

    def test_holmes_iii_rational_square_rejected(self):
        reports = validate_params("holmes_iii", QQ, {"gamma": -4})
        assert not all(r.ok for r in reports)

    def test_holmes_coclass(self):
        assert nilpotency_data(instantiate("holmes_ii", GF(7), {})).coclass == 2
        assert (
            nilpotency_data(instantiate("holmes_iii", GF(7), {"gamma": 1})).coclass == 2
        )


class TestTwinTableRegression:
    def test_swapped_table_isomorphic_to_a1(self):
        from leibalg.reproduce import build_table8

        field = GF(5)
        t8 = build_table8(field, c=1, g=1, f=1, rhat=1, shat=2)
        assert t8.check_leibniz() == []
        a1 = instantiate(
            "A1_6dim", field, {"c": -1, "g": -1, "d": -1, "shat": 1, "rhat": 2}
        )
        assert is_isomorphic(t8, a1).status == "yes"


class TestSamples:
    def test_samples_always_validate(self):
        for entry in list_catalog():
            for field in (GF(2), GF(3), GF(5), GF(7), QQ):
                params = sample_params(entry.name, field)
                if params is None:
                    continue
                reports = validate_params(entry.name, field, params)
                assert all(r.ok for r in reports), (entry.name, str(field))
