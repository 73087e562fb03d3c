"""Acceptance suite: the ten verification criteria, one test each.

Closed-field statements are checked through exact finite-field proxies.
All checks are exact (no tolerances); runtime budgets are asserted where
the criterion states one.  Each test registers a pass/fail line that the
terminal summary prints.
"""

import time

import pytest

from conftest import record_criterion
from leibalg import (
    GF,
    QQ,
    ConstraintViolated,
    catalog,
    check_p1,
    check_p2,
    enumerate_maximal,
    instantiate,
    is_isomorphic,
    is_square,
    nilpotency_data,
    sample_params,
    upper_central_series,
    validate_params,
    verify_implied_relations,
)
from leibalg.catalog import (
    TABLE1_VARIABLES,
    TABLE6_VARIABLES,
    list_catalog,
    parametric_table1,
    parametric_table6,
)
from leibalg.formats import parse_relations
from leibalg.reproduce import (
    build_table8,
    forced_cc1_table,
    reference_cyclic_plane,
    run_structural_suite,
)

SEED = 0


def _register(number, detail):
    record_criterion(number, "PASS", detail)


def test_criterion_01_identity_suite():
    """Every entry over GF(3), GF(5), GF(7) passes the identity check."""
    start = time.perf_counter()
    instantiated, skipped = 0, []
    for entry in list_catalog():
        for p in (3, 5, 7):
            field = GF(p)
            params = sample_params(entry.name, field)
            if params is None:
                skipped.append(f"{entry.name}@GF({p})")
                continue
            algebra = instantiate(entry.name, field, params)
            assert algebra.check_leibniz() == [], (entry.name, p)
            instantiated += 1
    elapsed = time.perf_counter() - start
    assert "A1_6dim@GF(3)" in skipped
    assert elapsed < 1.0, f"identity suite took {elapsed:.2f}s"
    _register(1, f"{instantiated} instantiations clean, skipped {skipped}, {elapsed:.2f}s")


def test_criterion_02_cyclic_example():
    """The cyclic four-dimensional example matches its stated structure."""
    for p in (2, 3, 5, 7):
        algebra = instantiate("cyclic_example4", GF(p), {})
        assert algebra.center() == algebra.subspace([[0, 0, 0, 1]])
        upper = upper_central_series(algebra)
        assert upper[2] == algebra.subspace([[0, 0, 1, 0], [0, 0, 0, 1]])
        prof = nilpotency_data(algebra)
        assert prof.cls == 4 and prof.coclass == 0
        assert len(enumerate_maximal(algebra)) == 1
        assert check_p1(algebra)[0]
    _register(2, "center span{x4}, second center span{x3,x4}, class 4, "
                 "one maximal over GF(2,3,5,7)")


def test_criterion_03_coclass_one_positive():
    """Non-square discriminant: P1 with the full maximal count."""
    start = time.perf_counter()
    for p, lam in ((3, 0), (5, 1)):
        field = GF(p)
        disc = (field(lam) + field(0)) ** 2 - 4 * field(1)
        assert not is_square(disc)
        algebra = instantiate(
            "cc1_case2", field, {"tau": 1, "lambda": lam, "epsilon": 0}
        )
        maxes = enumerate_maximal(algebra)
        assert len(maxes) == (p * p - 1) // (p - 1)
        assert check_p1(algebra)[0]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"coclass-one positive checks took {elapsed:.2f}s"
    _register(3, f"P1 with complete enumeration over GF(3) and GF(5), {elapsed:.2f}s")


def test_criterion_04_coclass_one_negative():
    """Square discriminant: rejected; forced table fails P1 concretely."""
    reports = validate_params(
        "cc1_case2", GF(5), {"tau": 1, "lambda": 1, "epsilon": 1}
    )
    assert any(r.name == "discriminant_nonsquare" and not r.ok for r in reports)
    with pytest.raises(ConstraintViolated):
        instantiate("cc1_case2", GF(5), {"tau": 1, "lambda": 1, "epsilon": 1})
    forced = forced_cc1_table(GF(5), 1, 1, 1)
    assert forced.check_leibniz() == []
    ok, witness = check_p1(forced)
    assert not ok and witness is not None
    _register(4, f"rejected by validation; forced table fails P1 at "
                 f"{witness.a.hyperplane_tag} vs {witness.b.hyperplane_tag}")


def test_criterion_05_coclass_two_dim_four():
    """Split and non-split four-dimensional families: P1 and normal form."""
    checked = 0
    for p in (3, 5):
        field = GF(p)
        ref = reference_cyclic_plane(field)
        cases = [("cc2_split4", {}), ("A19", {})]
        cases += [
            ("A18", {"alpha": a}) for a in (0, 1, 2) if (a + 1) % p != 0
        ]
        for name, params in cases:
            algebra = instantiate(name, field, params)
            assert nilpotency_data(algebra).coclass == 2
            assert check_p1(algebra)[0], (name, p)
            for m in enumerate_maximal(algebra):
                verdict = is_isomorphic(m.induced, ref)
                assert verdict.status == "yes", (name, p, m.hyperplane_tag)
            checked += 1
    _register(5, f"{checked} family instances: coclass 2, P1, and every "
                 "maximal explicitly isomorphic to the r*r = s reference")


def test_criterion_06_coclass_two_dim_six():
    """Six-dimensional families: P1, coclass 2, dim Z2 = 3; twin table."""
    timings = []
    for name, p in (("A1_6dim", 5), ("A1_6dim", 7), ("A3_6dim", 5)):
        field = GF(p)
        start = time.perf_counter()
        params = sample_params(name, field)
        algebra = instantiate(name, field, params)
        prof = nilpotency_data(algebra)
        assert prof.coclass == 2
        assert upper_central_series(algebra)[2].dim == 3
        assert check_p1(algebra)[0], (name, p)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"{name}@GF({p}) took {elapsed:.1f}s"
        timings.append(f"{name}@GF({p}) {elapsed:.2f}s")
    t8 = build_table8(GF(5), c=1, g=1, f=1, rhat=1, shat=2)
    a1 = instantiate(
        "A1_6dim", GF(5), {"c": -1, "g": -1, "d": -1, "shat": 1, "rhat": 2}
    )
    assert is_isomorphic(t8, a1).status == "yes"
    _register(6, "; ".join(timings) + "; twin table isomorphic to A1 over GF(5)")


def test_criterion_07_counterexamples():
    """The four- and five-dimensional counterexamples fail P2 / P1."""
    cex = instantiate("cex_fourdim_A1", GF(3), {})
    ok, witness = check_p2(cex)
    assert not ok
    flags = sorted(
        [witness.a.induced.derived().is_zero(), witness.b.induced.derived().is_zero()]
    )
    assert flags == [False, True]  # one abelian, one not

    a8 = instantiate("cex_A8", GF(3), {})
    ok, witness8 = check_p1(a8)
    assert not ok
    leibs = sorted(
        [witness8.a.induced.leib_ideal().dim, witness8.b.induced.leib_ideal().dim]
    )
    assert leibs == [0, 1]
    _register(7, "P2 fails with abelian/non-abelian pair; P1 fails with "
                 "square-ideal dims 1 vs 0")


def test_criterion_08_constraint_derivations():
    """Both relation sets are exactly the identity constraints over Q."""
    start = time.perf_counter()
    relations6 = parse_relations(
        "gamma - d + f\ngamma + d + fhat\ngamma - dhat - f\n", TABLE6_VARIABLES
    )
    report6 = verify_implied_relations(parametric_table6(), relations6)
    assert report6.ok
    relations1 = parse_relations("bhat + b\nchat + c\ngamma\n", TABLE1_VARIABLES)
    report1 = verify_implied_relations(parametric_table1(), relations1)
    assert report1.ok
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"constraint derivations took {elapsed:.2f}s"
    _register(8, f"both relation sets exact over Q, both directions, minimal, {elapsed:.2f}s")


def test_criterion_09_structural_suite():
    """Randomized structural properties on 200 seeded nilpotent towers."""
    start = time.perf_counter()
    evidence2 = run_structural_suite(GF(2), count=100, max_dim=5, seed=SEED)
    evidence3 = run_structural_suite(GF(3), count=100, max_dim=5, seed=SEED + 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"structural suite took {elapsed:.1f}s"
    _register(9, f"200 towers checked in {elapsed:.1f}s")
    assert "100 towers" in evidence2 and "100 towers" in evidence3


def test_criterion_10_field_dependence():
    """The non-square family exists over GF(5) but never when -gamma is a
    rational square."""
    algebra = instantiate("holmes_iii", GF(5), {"gamma": 2})
    assert algebra.dim == 6
    for gamma in ("-1", "-4", "-9/4", "-25", "-49/16"):
        reports = validate_params("holmes_iii", QQ, {"gamma": gamma})
        assert not all(r.ok for r in reports), gamma
        with pytest.raises(ConstraintViolated):
            instantiate("holmes_iii", QQ, {"gamma": gamma})
    assert all(r.ok for r in validate_params("holmes_iii", QQ, {"gamma": 2}))
    _register(10, "GF(5) instantiation with gamma=2; every rational gamma "
                  "with -gamma a square rejected")
