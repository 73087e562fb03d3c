"""The claim suite: exact subspace enumeration and the committed report."""

from pathlib import Path

import pytest

from leibalg import GF, QQ, LeibnizAlgebra, NeedsFiniteField, Subspace, list_catalog
from leibalg.cli import main
from leibalg.reproduce import (
    ClaimSkipped,
    build_claims,
    enumerate_subspaces,
    run_structural_suite,
)

GOLDEN = Path(__file__).resolve().parents[1] / "verification_report.txt"


def gaussian_binomial(n: int, k: int, p: int) -> int:
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


class TestEnumerateSubspaces:
    def test_five_dim_space_over_gf3(self):
        field = GF(3)
        # a five-dimensional subspace of GF(3)^7 whose pivots are not 0..4
        space = Subspace.span(
            field,
            7,
            [
                [1, 2, 0, 0, 1, 0, 2],
                [0, 0, 1, 0, 2, 1, 0],
                [0, 0, 0, 1, 1, 1, 1],
                [1, 0, 1, 2, 0, 0, 0],
                [0, 1, 1, 1, 1, 1, 0],
            ],
        )
        assert space.dim == 5 and space.pivots != (0, 1, 2, 3, 4)
        subspaces = enumerate_subspaces(space, 2)
        assert len(subspaces) == 2542
        assert 2542 == sum(gaussian_binomial(5, k, 3) for k in range(2, 6))
        assert len(set(subspaces)) == 2542
        for sub in subspaces:
            assert sub.dim >= 2
            assert sub == Subspace.span(field, 7, sub.rows)
            assert sub.rows == Subspace.span(field, 7, sub.rows).rows
            assert space.contains_space(sub)

    def test_rational_space_is_refused(self):
        with pytest.raises(NeedsFiniteField):
            enumerate_subspaces(Subspace.full(QQ, 2), 1)

    @pytest.mark.parametrize("p,d", [(2, 4), (5, 2), (3, 3)])
    def test_counts_every_dimension(self, p, d):
        field = GF(p)
        space = Subspace.full(field, d)
        subspaces = enumerate_subspaces(space, 0)
        assert len(set(subspaces)) == len(subspaces)
        for k in range(d + 1):
            assert sum(1 for s in subspaces if s.dim == k) == gaussian_binomial(d, k, p)


def test_structural_suite_at_the_seed_of_the_seed_one_claims():
    # build_claims(..., seed=1) runs the GF(3) suite on seed 2; its towers
    # meet a five-dimensional center, so every one of the 2852 central
    # ideals of dim >= 2 must be checked
    evidence = run_structural_suite(GF(3), 100, 5, seed=2)
    assert "2852 central ideals dropped the coclass" in evidence


def count_calls(monkeypatch, module, names, calls):
    """Replace module.<name> by a wrapper that appends the name to ``calls``."""
    for name in names:
        real = getattr(module, name)

        def counting(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counting)


def test_structural_suite_enumerates_each_towers_maximals_once(monkeypatch):
    # on the lower series of the tower's profile
    from leibalg import maximal

    calls = []
    count_calls(monkeypatch, maximal, ("enumerate_maximal", "_enumerate_maximal"), calls)
    run_structural_suite(GF(3), 12, 4, seed=2)
    assert calls.count("_enumerate_maximal") == 12
    assert calls.count("enumerate_maximal") == 0


def test_structural_suite_runs_nilpotency_data_once_per_tower(monkeypatch):
    # the central-ideal quotients read their coclass off the lower series
    from leibalg import series

    calls = []
    nilpotency_data = series.nilpotency_data

    def counting(algebra):
        calls.append(algebra)
        return nilpotency_data(algebra)

    monkeypatch.setattr(series, "nilpotency_data", counting)
    evidence = run_structural_suite(GF(3), 12, 4, seed=2)
    assert "; 3 central ideals dropped the coclass;" in evidence
    assert len(calls) == 12


def test_structural_suite_reads_each_towers_series_off_its_profile(monkeypatch):
    # [A, A], Z(A), the upper terms and the lower series handed to the
    # Frattini shortcut, the cyclicity test and the maximal enumeration all
    # come from the tower's profile: the lower series is built once per
    # tower and once per central-ideal quotient
    from leibalg import maximal, series

    calls = []
    count_calls(
        monkeypatch,
        series,
        ("frattini", "_frattini", "is_cyclic", "_is_cyclic", "upper_central_series",
         "lower_central_series"),
        calls,
    )
    monkeypatch.setattr(maximal, "lower_central_series", series.lower_central_series)
    count_calls(monkeypatch, LeibnizAlgebra, ("center", "derived", "split_codim1_center"), calls)
    evidence = run_structural_suite(GF(3), 12, 4, seed=2)
    assert "; 11 with the series-profile property" in evidence
    assert "; 3 central ideals dropped the coclass;" in evidence
    assert "; 4 codim-1-center splits verified" in evidence
    assert calls.count("_frattini") == 12
    assert calls.count("_is_cyclic") == 12
    assert calls.count("upper_central_series") == 12
    for name in ("frattini", "is_cyclic", "center", "derived", "split_codim1_center"):
        assert calls.count(name) == 0, name
    assert calls.count("lower_central_series") == 12 + 3


def test_cc2dim4_claim_builds_one_reference_record(monkeypatch):
    # one record per distinct induced table and one for the r*r = s
    # reference; a maximal whose table equals an earlier one shares its record
    from leibalg import maximal, reproduce

    records, references, enumerated = [], [], []
    real_reference = reproduce.reference_cyclic_plane
    real_enumerate = maximal._enumerate_maximal

    class CountingSide(maximal._Side):
        def __init__(self, algebra):
            records.append(algebra)
            super().__init__(algebra)

    def reference_cyclic_plane(field):
        references.append(real_reference(field))
        return references[-1]

    def enumerate_maximal(algebra, lower):
        enumerated.append(real_enumerate(algebra, lower))
        return enumerated[-1]

    monkeypatch.setattr(maximal, "_Side", CountingSide)
    monkeypatch.setattr(maximal, "_enumerate_maximal", enumerate_maximal)
    monkeypatch.setattr(reproduce, "reference_cyclic_plane", reference_cyclic_plane)
    claims = [c for c in build_claims([3, 5], seed=0) if c.claim_id.startswith("cc2dim4.")]
    assert len(claims) == 9
    shared = 0
    for claim in claims:
        records.clear()
        references.clear()
        enumerated.clear()
        evidence = claim.run()
        maximals = int(evidence.split("all ")[1].split()[0])
        assert len(references) == 1, claim.claim_id
        assert sum(r is references[0] for r in records) == 1, claim.claim_id
        own = [r for r in records if r is not references[0]]
        assert len(set(own)) == len(own) <= maximals, claim.claim_id
        tables = {m.induced for m in enumerated[0]}
        assert len(enumerated[0]) == maximals
        assert tables - {references[0]} <= set(own) <= tables, claim.claim_id
        shared += len(tables) < maximals
    assert shared


def test_identity_claim_walks_the_identity_once(monkeypatch):
    # catalog.instantiate walks it; the claim reads the recorded result
    walks = []
    check_leibniz = LeibnizAlgebra.check_leibniz

    def counting(self):
        walks.append(self)
        return check_leibniz(self)

    monkeypatch.setattr(LeibnizAlgebra, "check_leibniz", counting)
    claims = [c for c in build_claims([3, 5], seed=0) if c.claim_id.startswith("identity.")]
    assert len(claims) == 2 * len(list_catalog())
    for claim in claims:
        walks.clear()
        try:
            evidence = claim.run()
        except ClaimSkipped:
            assert walks == []
            continue
        assert evidence.endswith("; all identity residuals vanish")
        assert len(walks) == 1, claim.claim_id


def test_report_matches_the_committed_one(capsys):
    code = main(["reproduce", "--fields", "3,5,7", "--seed", "0", "--no-timing"])
    assert code == 0
    assert capsys.readouterr().out.encode("utf-8") == GOLDEN.read_bytes()
