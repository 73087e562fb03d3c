"""The search data of an isomorphism record, built once per record.

The source side builds its closures, signatures and relations once; the
target side keeps, per filter key (square flag and membership profile),
the candidates for a first generator that passed that filter, with their
generation indices.  A search that reads them, and compares ``mult_data``
only on images that replay, must find the same maps, give the same
verdicts and count the same candidates against ``SEARCH_CANDIDATE_BOUND``
as the search that builds everything afresh and filters every candidate on
the full signature, kept below as the reference.
"""

import itertools
import random

import pytest

from leibalg import (
    GF,
    LeibnizAlgebra,
    SearchBoundExceeded,
    instantiate,
    is_isomorphic,
    list_catalog,
    maximal,
)
from leibalg import _modp
from leibalg.catalog import sample_params
from leibalg.maximal import (
    _Closure,
    _assemble_matrix,
    _gen_relations,
    _relation_equations,
    _search_isomorphism,
    _Side,
)
from leibalg.randomgen import change_of_basis, random_invertible_matrix, random_nilpotent_algebra


def reference_search(side_a, side_b, tally=None):
    """The generator-image search with every piece of search data built per call.

    Every candidate is filtered on the full signature before anything else;
    the number generated is appended to ``tally`` when the search decides.
    """
    p = side_a.p
    n = side_a.n
    gens = side_a.coset_coords
    d = len(gens)
    if d == 0:
        return None
    gen_vecs = [[1 if i == g else 0 for i in range(n)] for g in gens]
    closures = [_Closure(side_a.cells, p, gen_vecs[: k + 1]) for k in range(d)]
    gen_sigs = [
        (side_a.square_is_zero(g), side_a.membership_profile(g), side_a.mult_data(g))
        for g in gen_vecs
    ]
    relations = [None] * d
    for k in range(1, d):
        relations[k] = _gen_relations(side_a.cells, p, closures[k - 1].elems, gen_vecs[k])

    def candidate_ok(v, sig) -> bool:
        if side_b.square_is_zero(v) != sig[0]:
            return False
        if side_b.membership_profile(v) != sig[1]:
            return False
        return side_b.mult_data(v) == sig[2]

    def cosets_independent(gen_imgs, v) -> bool:
        rows = [side_b.coset(g) for g in gen_imgs] + [side_b.coset(v)]
        return _modp.rank(rows, p, d) == len(rows)

    generated = 0

    def descend(k, gen_imgs, prev_elem_imgs):
        nonlocal generated
        sig = gen_sigs[k]
        rows = [
            f
            for (_, _, covectors), member in zip(side_b.member_spaces, sig[1])
            if member
            for f in covectors
        ]
        rhs = [0] * len(rows)
        if k > 0:
            rel_rows, rel_rhs = _relation_equations(side_b, relations[k], prev_elem_imgs)
            rows += rel_rows
            rhs += rel_rhs
        for v in maximal._constrained_candidates(side_b, rows, rhs):
            generated += 1
            if generated > maximal.SEARCH_CANDIDATE_BOUND:
                raise SearchBoundExceeded("reference search over its budget")
            if not candidate_ok(v, sig):
                continue
            if not cosets_independent(gen_imgs, v):
                continue
            elem_imgs = closures[k].replay(side_b.cells, p, gen_imgs + [v])
            if elem_imgs is None:
                continue
            if k == d - 1:
                return _assemble_matrix(closures[k], elem_imgs, p, n)
            result = descend(k + 1, gen_imgs + [v], elem_imgs)
            if result is not None:
                return result
        return None

    result = descend(0, [], [])
    if tally is not None:
        tally.append(generated)
    return result


def outcome(search, side_a, side_b):
    """The found matrix, None for "no", or "raise" past the budget."""
    try:
        return search(side_a, side_b)
    except SearchBoundExceeded:
        return "raise"


def cc1(field, tau, lam, eps):
    return LeibnizAlgebra.from_table(
        3, field, [(1, 1, {3: 1}), (2, 2, {3: tau}), (1, 2, {3: lam}), (2, 1, {3: eps})]
    )


def oracle_groups():
    """The algebras of the brute-force oracle tests, in groups searched pairwise."""
    groups = []
    for p, dim, seed in ((2, 3, 2024), (3, 2, 77)):
        rng = random.Random(seed)
        groups.append([random_nilpotent_algebra(rng, GF(p), dim) for _ in range(8)])
    rng = random.Random(31)
    a = cc1(GF(3), 1, 0, 0)
    groups.append(
        [a, cc1(GF(3), 2, 0, 0), cc1(GF(3), 1, 1, 2),
         change_of_basis(a, random_invertible_matrix(rng, GF(3), 3))]
    )
    for p, dim, seed in ((2, 3, 11), (3, 3, 12), (5, 2, 13)):
        rng = random.Random(seed)
        algebras = []
        while len(algebras) < 4:
            algebra = random_nilpotent_algebra(rng, GF(p), dim)
            if not algebra.derived().is_zero():
                algebras.append(algebra)
        algebras += [
            change_of_basis(x, random_invertible_matrix(rng, GF(p), dim)) for x in algebras
        ]
        groups.append(algebras)
    return groups


def rebased_groups():
    """The four-dimensional filiform Lie algebra and copies in other bases.

    Its generators x and y both square to zero, but L_x has rank 2 and L_y
    rank 1, so the copy with x and y swapped searches the original for a
    first generator of another signature with the same square flag.
    """
    groups = []
    for p in (3, 5):
        field = GF(p)
        rng = random.Random(p)
        algebra = LeibnizAlgebra.from_table(
            4, field, [(1, 2, {3: 1}), (2, 1, {3: -1}), (1, 3, {4: 1}), (3, 1, {4: -1})]
        )
        swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        copies = [change_of_basis(algebra, swap)]
        copies += [
            change_of_basis(algebra, random_invertible_matrix(rng, field, 4)) for _ in range(3)
        ]
        groups.append([algebra] + copies)
    return groups


def a1_maximal_groups():
    """The induced algebras of the ``A1_6dim`` maximals at GF(5) and GF(7)."""
    groups = []
    for p in (5, 7):
        field = GF(p)
        algebra = instantiate("A1_6dim", field, sample_params("A1_6dim", field))
        groups.append([m.induced for m in maximal.enumerate_maximal(algebra)])
    return groups


def reference_verdict(a, b):
    """``is_isomorphic(a, b)`` as (status, matrix), the search by ``reference_search``
    on fresh records, whose generator signatures all hold ``mult_data``."""
    side_a, side_b = _Side(a), _Side(b)
    if a == b:
        return "yes", tuple(a.basis_vector(i) for i in range(a.dim))
    if side_a.fingerprint != side_b.fingerprint:
        return "no", None
    raw = reference_search(side_a, side_b)
    if raw is None:
        return "no", None
    return "yes", tuple(tuple(a.field(c) for c in row) for row in raw)


def catalog_p1_pairs(p):
    """The pairs ``check_p1`` decides for each nilpotent catalog family at GF(p):
    every distinct induced maximal table against the first, and the second
    against the last."""
    field = GF(p)
    pairs = []
    for entry in list_catalog():
        params = sample_params(entry.name, field)
        if entry.params and params is None:
            continue
        algebra = instantiate(entry.name, field, params)
        tables = list(dict.fromkeys(m.induced for m in maximal.enumerate_maximal(algebra)))
        pairs += [(t, tables[0]) for t in tables[1:]]
        if len(tables) >= 3:
            pairs.append((tables[1], tables[-1]))
    return pairs


@pytest.mark.parametrize("source", ["oracle", "catalog GF(3)", "catalog GF(5)", "catalog GF(7)"])
def test_verdicts_equal_the_full_signature_reference(source):
    # the last generator is filtered on square and membership alone, and
    # the replay decides: every verdict and matrix is the reference's
    if source == "oracle":
        pairs = [
            (a, b) for algebras in oracle_groups() for a, b in itertools.product(algebras, repeat=2)
        ]
    else:
        pairs = catalog_p1_pairs(int(source[-2]))
    statuses = set()
    for a, b in pairs:
        verdict = is_isomorphic(a, b)
        assert (verdict.status, verdict.matrix) == reference_verdict(a, b), source
        statuses.add(verdict.status)
    expected = {"yes", "no"} if source in ("oracle", "catalog GF(3)") else {"yes"}
    assert expected <= statuses, (source, statuses)


@pytest.mark.parametrize("bound", [None, 3, 50, 200, 1000])
@pytest.mark.parametrize("source", ["oracle", "rebased", "a1_6dim"])
def test_shared_records_search_as_the_reference(monkeypatch, source, bound):
    # every pair of a group, the records shared across the group's searches
    # as in check_p1, against the reference on fresh records: the same
    # matrix, the same "no" and the same raise past the budget, and on every
    # pair that is decided the same number of candidates charged as the
    # reference generates
    if bound is not None:
        monkeypatch.setattr(maximal, "SEARCH_CANDIDATE_BOUND", bound)
    charged = []
    real_charge = maximal._Budget.charge

    def charge(budget, count):
        charged.append(count)
        real_charge(budget, count)

    monkeypatch.setattr(maximal._Budget, "charge", charge)
    groups = {"oracle": oracle_groups, "rebased": rebased_groups, "a1_6dim": a1_maximal_groups}
    seen = set()
    for algebras in groups[source]():
        sides = [_Side(x) for x in algebras]
        for (i, a), (j, b) in itertools.product(enumerate(algebras), repeat=2):
            if sides[i].fingerprint != sides[j].fingerprint:
                continue
            tally = []
            expected = outcome(lambda x, y: reference_search(x, y, tally), _Side(a), _Side(b))
            charged.clear()
            got = outcome(_search_isomorphism, sides[i], sides[j])
            assert got == expected, (source, bound, i, j)
            seen.add("raise" if got == "raise" else got is not None)
            if got != "raise":
                assert [sum(charged)] == tally, (source, bound, i, j)
        if source == "rebased":
            # the first generators of the original and of the copy with x
            # and y swapped differ in mult_data alone: one target record
            # holds one first scan for both
            keys = {side.generators[1][0][0] for side in sides}
            first_mult_data = {side.generators[1][0][1] for side in sides[:2]}
            assert len(first_mult_data) == 2
            assert list(sides[0]._first_scans) == list(keys) and len(keys) == 1
    if source == "rebased" and bound not in (3, 50):
        assert seen == {True}
    if source == "oracle" and bound != 3:
        assert seen == {True, False}
    if (source, bound) in (("oracle", 3), ("a1_6dim", 200)):
        # the budget stops some searches of the group and not others
        assert {"raise", True} <= seen


def test_the_budget_counts_the_candidates_the_filter_skipped(monkeypatch):
    # at GF(7) the first A1_6dim maximal's first generator is the 337th
    # candidate generated; the memo keeps it alone, and a later search that
    # reads it is charged all 337, so a budget of 336 raises on every search
    field = GF(7)
    algebra = instantiate("A1_6dim", field, sample_params("A1_6dim", field))
    record = _Side(algebra)
    maximals, records = record.maximals, record.records
    target = records[maximals[0].induced]
    assert _search_isomorphism(records[maximals[1].induced], target) is not None
    (scan,) = target._first_scans.values()
    assert (scan.scanned, [index for index, _ in scan.kept]) == (337, [337])
    monkeypatch.setattr(maximal, "SEARCH_CANDIDATE_BOUND", 336)
    for m in maximals[1:]:
        with pytest.raises(SearchBoundExceeded, match="more than 336 candidate"):
            _search_isomorphism(records[m.induced], target)
        assert outcome(reference_search, records[m.induced], _Side(target.algebra)) == "raise"
    monkeypatch.setattr(maximal, "SEARCH_CANDIDATE_BOUND", 337 + 50)
    assert _search_isomorphism(records[maximals[2].induced], target) is not None


def count_generated(monkeypatch):
    """Record the target record of every candidate ``_constrained_candidates`` yields."""
    generated = []
    real = maximal._constrained_candidates

    def counting(side_b, rows, rhs):
        for v in real(side_b, rows, rhs):
            generated.append(side_b)
            yield v

    monkeypatch.setattr(maximal, "_constrained_candidates", counting)
    return generated


def test_p1_scans_the_first_maximals_candidates_once(monkeypatch):
    # check_p1 searches each of the other seven maximals against the first;
    # the first generator's 337 candidates are generated once, not 7 x 337
    field = GF(7)
    algebra = instantiate("A1_6dim", field, sample_params("A1_6dim", field))
    record = _Side(algebra)
    maximals, records = record.maximals, record.records
    assert len({m.induced for m in maximals}) == len(maximals) == 8
    generated = count_generated(monkeypatch)
    assert record.p1() == (True, None)
    first = records[maximals[0].induced]
    (scan,) = first._first_scans.values()
    assert scan.scanned == 337
    shared = sum(side is first for side in generated)
    # the reference generates the same candidates past the first generator,
    # and scans the 337 again for each source
    unshared = 0
    for m in maximals[1:]:
        target = _Side(first.algebra)
        generated.clear()
        assert reference_search(records[m.induced], target) is not None
        assert sum(side is target for side in generated) >= 337
        unshared += len(generated)
    assert unshared - shared == 6 * 337


def test_each_is_isomorphic_call_builds_its_own_records(monkeypatch):
    # nothing outlives a call: a second decision of the same pair generates
    # the same candidates and builds the same closures as the first
    field = GF(7)
    algebra = instantiate("A1_6dim", field, sample_params("A1_6dim", field))
    maximals = maximal.enumerate_maximal(algebra)
    a, b = maximals[3].induced, maximals[0].induced
    generated = count_generated(monkeypatch)
    closures = []
    real_init = _Closure.__init__

    def counting_init(self, cells, p, gen_vecs):
        closures.append(len(gen_vecs))
        real_init(self, cells, p, gen_vecs)

    monkeypatch.setattr(_Closure, "__init__", counting_init)
    counts = []
    for _ in range(2):
        generated.clear()
        closures.clear()
        assert is_isomorphic(a, b).status == "yes"
        counts.append((len(generated), sorted(closures)))
    assert counts[0] == counts[1]
    assert counts[0][0] >= 337 and counts[0][1] == [1, 2, 3]


def test_a_source_builds_its_closures_once(monkeypatch):
    # check_p1 searches each maximal once as a source, and the spot check
    # searches two of them again: every source record builds one closure
    # per generator prefix, once
    field = GF(5)
    algebra = instantiate("A1_6dim", field, sample_params("A1_6dim", field))
    maximals = maximal.enumerate_maximal(algebra)
    built = []
    real_init = _Closure.__init__

    def counting_init(self, cells, p, gen_vecs):
        built.append((cells, len(gen_vecs)))
        real_init(self, cells, p, gen_vecs)

    monkeypatch.setattr(_Closure, "__init__", counting_init)
    assert maximal.check_p1(algebra) == (True, None)
    sources = {m.induced._cells for m in maximals[1:]}
    assert len(sources) == len(maximals) - 1
    assert sorted(built) == sorted((cells, k) for cells in sources for k in (1, 2, 3))


def test_the_search_claims_leave_no_reference_cycles():
    # every record, scan, budget and closure of a round of the searching
    # claims is freed by reference counting: with the cycle collector off,
    # a collection afterwards finds none of them unreachable
    import gc

    from leibalg.maximal import _Budget, _Scan
    from leibalg.reproduce import build_claims, run_claims

    searching = ("cc2dim4.", "cc2dim6.", "cc1.p1")
    claims = [c for c in build_claims([3, 5, 7], seed=0) if c.claim_id.startswith(searching)]
    assert len(claims) == 15
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        entries = run_claims(claims)
        gc.collect()
        # type(), not isinstance(): a dead weak proxy raises on any attribute read
        leaked = [o for o in gc.garbage if type(o) in (_Side, _Scan, _Budget, _Closure)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert [e.verdict for e in entries] == ["pass"] * 15
    assert leaked == []
