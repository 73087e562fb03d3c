"""The claim suite: exact subspace enumeration and the committed report."""

import random
from pathlib import Path

import pytest

from leibalg import (
    GF,
    QQ,
    LeibalgError,
    LeibnizAlgebra,
    NeedsFiniteField,
    SearchBoundExceeded,
    Subspace,
    list_catalog,
    maximal,
    randomgen,
    series,
)
from leibalg import _modp, reproduce
from leibalg.cli import main
from leibalg.reproduce import (
    MAX_SUBSPACES,
    ClaimSkipped,
    _require,
    build_claims,
    enumerate_subspaces,
    forced_cc1_table,
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

    def test_too_many_subspaces_are_refused_before_any_is_built(self, monkeypatch):
        # a 4-dimensional space over GF(1031) has about 1.1e12 planes
        space = Subspace.full(GF(1031), 4)

        def built(*args):
            raise AssertionError("a subspace was built past the bound")

        monkeypatch.setattr(_modp, "combine", built)
        monkeypatch.setattr(Subspace, "_from_residues", built)
        with pytest.raises(SearchBoundExceeded, match=str(MAX_SUBSPACES)):
            enumerate_subspaces(space, 2)
        with pytest.raises(SearchBoundExceeded):
            enumerate_subspaces(space, 3)
        monkeypatch.undo()
        assert enumerate_subspaces(space, 4) == [space]

    def test_the_bound_covers_every_structural_suite_center(self):
        # the towers have dim <= 5 and run over GF(2) and GF(3), so a
        # five-dimensional center over GF(3) is the largest count they meet
        assert sum(gaussian_binomial(5, k, 3) for k in range(2, 6)) == 2542 <= MAX_SUBSPACES
        assert reproduce._gaussian_binomial(4, 2, 1031) == gaussian_binomial(4, 2, 1031)

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


def reference_structural_suite(field, count, max_dim, seed) -> str:
    """The structural suite without memos: every tower and quotient checked in full,
    each invariant by its own public call."""
    rng = random.Random(seed)
    splits = 0
    central_ideals = 0
    p2_holds = 0
    for _ in range(count):
        dim = rng.randrange(2, max_dim + 1)
        algebra = randomgen.random_nilpotent_algebra(rng, field, dim)
        _require(not algebra.check_leibniz(), "random tower violated the identity")
        prof = series.nilpotency_data(algebra)
        _require(prof.nilpotent, "random tower must be nilpotent")
        _require(
            len(prof.lower_dims) == len(prof.upper_dims),
            f"series step counts differ: {prof.lower_dims} vs {prof.upper_dims}",
        )
        derived = prof.derived
        frattini = series.frattini(algebra)
        _require(frattini == derived, "frattini shortcut mismatch")
        _require(
            maximal.frattini_by_intersection(algebra) == derived,
            "intersection of maximals differs from the derived subalgebra",
        )
        cyclic, witness = series.is_cyclic(algebra)
        _require(
            cyclic == (derived.dim == algebra.dim - 1),
            "cyclicity must match codimension-one derived subalgebra",
        )
        if cyclic and algebra.dim > 0:
            _require(witness is not None, "cyclic algebras carry a witness")
        p2, _ = maximal.check_p2(algebra)
        if p2 and prof.cls is not None and prof.cls >= 1:
            p2_holds += 1
            upper = prof.upper
            z_prev = upper[prof.cls - 1] if prof.cls - 1 < len(upper) else upper[-1]
            _require(
                z_prev == frattini,
                "under the series-profile property the next-to-last upper "
                "term must equal the Frattini subalgebra",
            )
        center = prof.center
        for ideal in enumerate_subspaces(center, 2):
            central_ideals += 1
            q = algebra.quotient(ideal).algebra
            q_lower = series.lower_central_series(q)
            _require(
                q_lower[-1].is_zero() and prof.coclass is not None,
                "quotients of nilpotent algebras are nilpotent",
            )
            q_coclass = q.dim - (len(q_lower) - 1)
            _require(
                q_coclass <= prof.coclass,
                "coclass may not grow under quotients",
            )
            _require(
                q_coclass <= prof.coclass - 1,
                f"central ideal of dim {ideal.dim} must drop the coclass",
            )
        if center.dim == algebra.dim - 1:
            i_space, j_space = algebra.split_codim1_center()
            _require(i_space.dim == 2, "split part must be two-dimensional")
            _require(
                i_space.sum_with(j_space).dim == algebra.dim,
                "split parts must fill the algebra",
            )
            splits += 1
    return (
        f"{count} towers over {field}: series step counts equal, "
        f"frattini = derived = intersection of maximals, cyclicity matches "
        f"codim-1 derived; {p2_holds} with the series-profile property had "
        f"next-to-last upper term = frattini; {central_ideals} central ideals "
        f"dropped the coclass; {splits} codim-1-center splits verified"
    )


# seeds 0-3 include the benchmark's: GF(2) on seed 1, GF(3) on seed 2, where
# a five-dimensional center gives 2852 central ideals
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_structural_suite_matches_the_unmemoised_reference(p, seed):
    evidence = run_structural_suite(GF(p), 100, 5, seed)
    assert evidence == reference_structural_suite(GF(p), 100, 5, seed)


def table_values(algebra) -> tuple:
    """The structure constants as plain ints, compared without ``LeibnizAlgebra.__eq__``."""
    return tuple(tuple(tuple(c.value for c in cell) for cell in row) for row in algebra.table)


def distinct_towers(field, count, max_dim, seed) -> list:
    """The towers of ``run_structural_suite``, regenerated: the first of each table."""
    rng = random.Random(seed)
    towers = {}
    for _ in range(count):
        dim = rng.randrange(2, max_dim + 1)
        algebra = randomgen.random_nilpotent_algebra(rng, field, dim)
        towers.setdefault(table_values(algebra), algebra)
    return list(towers.values())


def quotient_tables(towers) -> list:
    """The table of each central-ideal quotient (dim >= 2) of each tower."""
    return [
        table_values(tower.quotient(ideal).algebra)
        for tower in towers
        for ideal in enumerate_subspaces(series.nilpotency_data(tower).center, 2)
    ]


def induced_tables(towers) -> set:
    """The distinct maximal tables that P2 compares: those of towers with two maximals or more."""
    enumerations = [maximal.enumerate_maximal(t) for t in towers]
    return {table_values(m.induced) for ms in enumerations if len(ms) > 1 for m in ms}


def test_structural_suite_enumerates_each_towers_maximals_once(monkeypatch):
    # once per distinct tower table, on the lower series of its profile
    towers = distinct_towers(GF(3), 12, 4, seed=2)
    assert len(towers) == 9
    maximals = sum(len(maximal.enumerate_maximal(t)) for t in towers)
    calls = []
    count_calls(monkeypatch, maximal, ("enumerate_maximal", "MaximalSubalgebra"), calls)
    run_structural_suite(GF(3), 12, 4, seed=2)
    assert calls.count("MaximalSubalgebra") == maximals
    assert calls.count("enumerate_maximal") == 0


def test_structural_suite_builds_one_record_per_table(monkeypatch):
    # each distinct tower table is checked once, and each distinct table of
    # the whole call, tower or induced maximal, has one record in the call's
    # _Records: at this seed a tower equal to an earlier maximal's induced
    # table checks that table's record
    from leibalg import reproduce

    towers = distinct_towers(GF(3), 12, 4, seed=2)
    built, checked = [], []
    real_side, real_check = maximal._Side, reproduce._check_tower

    def side(algebra, records=None):
        built.append(table_values(algebra))
        return real_side(algebra, records)

    def check(record):
        checked.append(table_values(record.algebra))
        return real_check(record)

    tables = {table_values(t) for t in towers} | induced_tables(towers)
    assert (len(towers), len(tables)) == (9, 11)
    monkeypatch.setattr(maximal, "_Side", side)
    monkeypatch.setattr(reproduce, "_check_tower", check)
    evidence = run_structural_suite(GF(3), 12, 4, seed=2)
    assert "; 3 central ideals dropped the coclass;" in evidence
    assert checked == [table_values(t) for t in towers]
    assert len(built) == 11


def test_structural_suite_reads_each_towers_series_off_its_profile(monkeypatch):
    # [A, A], Z(A), the upper terms, the Frattini shortcut, the cyclicity
    # test, the codim-1 split and the maximal enumeration all come from the
    # tower's record, and the central-ideal quotients read their class off
    # it too: the lower series is built once per distinct tower table and
    # never for a quotient or a maximal, and the upper series once per
    # distinct table of the call, tower or induced: 9 towers and 3 induced
    # tables, one of them a tower's
    towers = distinct_towers(GF(3), 12, 4, seed=2)
    induced = induced_tables(towers)
    assert (len(towers), len(induced), len({table_values(t) for t in towers} | induced)) == (
        9, 3, 11
    )
    calls = []
    count_calls(
        monkeypatch,
        series,
        ("nilpotency_data", "frattini", "is_cyclic", "upper_central_series",
         "lower_central_series"),
        calls,
    )
    count_calls(monkeypatch, LeibnizAlgebra, ("center", "derived", "split_codim1_center"), calls)
    evidence = run_structural_suite(GF(3), 12, 4, seed=2)
    assert "; 11 with the series-profile property" in evidence
    assert "; 3 central ideals dropped the coclass;" in evidence
    assert "; 4 codim-1-center splits verified" in evidence
    for name in ("nilpotency_data", "frattini", "is_cyclic", "center", "derived",
                 "split_codim1_center"):
        assert calls.count(name) == 0, name
    assert calls.count("lower_central_series") == len(towers)
    assert calls.count("upper_central_series") == 11


def test_structural_suite_reads_central_ideal_classes_off_the_lower_series(monkeypatch):
    # class(A/I) is the least c with gamma_{c+1}(A) inside I, for every
    # central ideal I; the suite builds no quotient and no quotient series
    towers = distinct_towers(GF(3), 20, 4, seed=2)
    ideals = 0
    for tower in towers:
        lower = series.lower_central_series(tower)
        for ideal in enumerate_subspaces(series.nilpotency_data(tower).center, 2):
            q_lower = series.lower_central_series(tower.quotient(ideal).algebra)
            assert q_lower[-1].is_zero()
            cls = min(c for c, term in enumerate(lower) if ideal.contains_space(term))
            assert cls == len(q_lower) - 1
            ideals += 1
    assert ideals == 18
    calls = []
    count_calls(monkeypatch, LeibnizAlgebra, ("quotient",), calls)
    count_calls(monkeypatch, series, ("lower_central_series",), calls)
    evidence = run_structural_suite(GF(3), 20, 4, seed=2)
    # the evidence counts the ideals of every tower drawn, repeats included
    assert "; 19 central ideals dropped the coclass;" in evidence
    assert calls.count("quotient") == 0
    assert calls.count("lower_central_series") == len(towers)


@pytest.mark.parametrize("p, seed, ideals", [(2, 1, 298), (3, 2, 3238)])
def test_central_ideal_classes_match_the_quotients_ideal_by_ideal(p, seed, ideals):
    # at the benchmark's seeds, the class read off Z(A)'s coordinates for
    # each subspace I of Z(A), the zero one included, against the class of
    # the quotient A/I built and its lower series computed
    seen = 0
    for tower in distinct_towers(GF(p), 100, 5, seed):
        prof = series.nilpotency_data(tower)
        classes = list(reproduce._central_ideal_classes(prof.center, prof.lower, 0))
        subspaces = enumerate_subspaces(prof.center, 0)
        assert len(classes) == len(subspaces)
        for (dim, cls), ideal in zip(classes, subspaces):
            q_lower = series.lower_central_series(tower.quotient(ideal).algebra)
            assert q_lower[-1].is_zero()
            assert (dim, cls) == (ideal.dim, len(q_lower) - 1)
            seen += 1
    assert seen == ideals


@pytest.mark.parametrize("p, seed, per_tower, shared", [(2, 1, 113, 46), (3, 2, 139, 84)])
def test_structural_suite_computes_one_upper_series_per_distinct_maximal_table(
    monkeypatch, p, seed, per_tower, shared
):
    # at the benchmark's seeds: one upper series per distinct table of the
    # whole call, tower or induced, where deciding P2 tower by tower computes
    # one per distinct table of each tower; ``shared`` counts the induced
    # tables that are no tower's
    field = GF(p)
    calls = []
    upper_central_series = series.upper_central_series

    def counting(algebra):
        calls.append(table_values(algebra))
        return upper_central_series(algebra)

    towers = distinct_towers(field, 100, 5, seed)
    monkeypatch.setattr(series, "upper_central_series", counting)
    for tower in towers:
        maximal.check_p2(tower)
    assert len(calls) == per_tower
    calls.clear()
    run_structural_suite(field, 100, 5, seed)
    # one per distinct tower, for the tower's own profile, shared with an
    # induced table equal to it
    for tower in towers:
        calls.remove(table_values(tower))
    assert len(calls) == len(set(calls)) == shared


def test_a_second_suite_call_does_the_work_of_the_first(monkeypatch):
    # no memo outlives a call
    calls = []
    count_calls(monkeypatch, series, ("nilpotency_data", "lower_central_series",
                                      "upper_central_series"), calls)
    count_calls(monkeypatch, maximal, ("_Side", "MaximalSubalgebra"), calls)
    count_calls(monkeypatch, LeibnizAlgebra, ("quotient", "is_ideal", "restrict"), calls)
    counts = []
    for _ in range(2):
        calls.clear()
        evidence = run_structural_suite(GF(3), 20, 4, seed=2)
        counts.append((evidence, sorted(calls)))
    assert counts[0] == counts[1]
    assert calls.count("quotient") == 0
    assert calls.count("_Side") > 0 and calls.count("upper_central_series") > 0


@pytest.mark.parametrize(
    "count, max_dim", [(5, 1), (5, 0), (-1, 5)], ids=["max_dim1", "max_dim0", "negative_count"]
)
def test_structural_suite_refuses_bad_sizes(count, max_dim):
    with pytest.raises(LeibalgError):
        run_structural_suite(GF(3), count, max_dim, 0)


def test_structural_suite_with_no_towers():
    assert run_structural_suite(GF(3), 0, 2, 0).startswith("0 towers over GF(3):")


@pytest.mark.parametrize("primes", [[], [3, 3], [3, 5, 3]])
def test_build_claims_refuses_empty_or_repeated_primes(primes):
    with pytest.raises(LeibalgError):
        build_claims(primes, 0)


@pytest.mark.parametrize(
    "argv",
    [["--fields", "3,3"], ["--fields", ""], ["--only", "nosuchclaim"]],
    ids=["repeated", "empty", "no_match"],
)
def test_reproduce_refuses_flags_that_select_nothing_or_twice(argv, capsys):
    assert main(["reproduce", *argv, "--no-timing"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err


def test_cc2dim4_claims_compare_one_maximal_with_the_reference(monkeypatch):
    # once P1 holds, the first maximal's verdict carries to every other, so
    # each of the nine claims decides the reference once, and the first
    # maximal's table is the reference's: no search
    from leibalg import reproduce

    reference = []
    after_reference = []
    real_reference = reproduce.reference_cyclic_plane
    real_isomorphism = maximal._Side.isomorphism
    real_search = maximal._search_isomorphism

    def reference_cyclic_plane(field):
        reference.append(real_reference(field))
        return reference[-1]

    def isomorphism(self, other):
        if reference:
            after_reference.append((self.algebra, other.algebra, reference[-1]))
        return real_isomorphism(self, other)

    def search(side_a, side_b):
        if reference:
            after_reference.append("search")
        return real_search(side_a, side_b)

    monkeypatch.setattr(reproduce, "reference_cyclic_plane", reference_cyclic_plane)
    monkeypatch.setattr(maximal._Side, "isomorphism", isomorphism)
    monkeypatch.setattr(maximal, "_search_isomorphism", search)
    claims = [c for c in build_claims([3, 5], seed=0) if c.claim_id.startswith("cc2dim4.")]
    assert len(claims) == 9
    decisions = []
    for claim in claims:
        reference.clear()
        after_reference.clear()
        claim.run()
        assert len(after_reference) == 1, claim.claim_id
        decisions += after_reference
    assert all(source == target == ref for source, target, ref in decisions)


def test_forced_cc1_table_is_the_catalog_table():
    # equal to the catalog's on valid parameters, and still built where the
    # catalog rejects a square discriminant
    from leibalg import ConstraintViolated, instantiate

    for p, params in ((3, (1, 0, 0)), (5, (1, 1, 0)), (5, (2, 0, 0))):
        field = GF(p)
        tau, lam, eps = params
        assert forced_cc1_table(field, *params) == instantiate(
            "cc1_case2", field, {"tau": tau, "lambda": lam, "epsilon": eps}
        )
    square = {"tau": 1, "lambda": 1, "epsilon": 1}
    with pytest.raises(ConstraintViolated):
        instantiate("cc1_case2", GF(5), square)
    forced = forced_cc1_table(GF(5), 1, 1, 1)
    assert not forced.check_leibniz()
    assert forced == LeibnizAlgebra.from_table(
        3, GF(5), [(1, 1, {3: 1}), (2, 2, {3: 1}), (1, 2, {3: 1}), (2, 1, {3: 1})]
    )


def test_cc2dim4_claim_builds_one_reference_record(monkeypatch):
    # one record for the algebra, one per distinct induced table and one
    # for the r*r = s reference, all in the claim's _Records: a maximal
    # whose table equals an earlier one, or the reference, shares its record
    from leibalg import maximal, reproduce

    sides, references = [], []
    real_reference = reproduce.reference_cyclic_plane

    class CountingSide(maximal._Side):
        def __init__(self, algebra, records=None):
            sides.append(self)
            super().__init__(algebra, records)

    def reference_cyclic_plane(field):
        references.append(real_reference(field))
        return references[-1]

    monkeypatch.setattr(maximal, "_Side", CountingSide)
    monkeypatch.setattr(reproduce, "reference_cyclic_plane", reference_cyclic_plane)
    claims = [c for c in build_claims([3, 5], seed=0) if c.claim_id.startswith("cc2dim4.")]
    assert len(claims) == 9
    shared = 0
    for claim in claims:
        sides.clear()
        references.clear()
        evidence = claim.run()
        maximals = int(evidence.split("all ")[1].split()[0])
        assert len(references) == 1, claim.claim_id
        algebras = [side.algebra for side in sides]
        assert len(set(algebras)) == len(algebras), claim.claim_id
        enumerated = sides[0].maximals
        assert len(enumerated) == maximals
        tables = {m.induced for m in enumerated}
        assert set(algebras) == {algebras[0], references[0]} | tables, claim.claim_id
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
