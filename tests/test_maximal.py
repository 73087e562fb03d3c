"""Maximal subalgebra enumeration, fingerprints, isomorphism, P1/P2."""

import itertools
import random

import pytest

from leibalg import (
    GF,
    QQ,
    FieldMismatch,
    LeibnizAlgebra,
    NeedsFiniteField,
    NotNilpotent,
    SearchBoundExceeded,
    Subspace,
    check_p1,
    check_p2,
    enumerate_maximal,
    fingerprint,
    frattini,
    frattini_by_intersection,
    instantiate,
    is_isomorphic,
)
from leibalg.maximal import _search_isomorphism
from leibalg.randomgen import change_of_basis, random_invertible_matrix


def cc1(field, tau, lam, eps):
    return LeibnizAlgebra.from_table(
        3,
        field,
        [(1, 1, {3: 1}), (2, 2, {3: tau}), (1, 2, {3: lam}), (2, 1, {3: eps})],
    )


class TestEnumeration:
    def test_count_formula(self):
        # (p^d - 1)/(p - 1) with d = dim(A/[A,A])
        cases = [
            (cc1(GF(3), 1, 0, 0), 3, 2),
            (instantiate("cyclic_example4", GF(5), {}), 5, 1),
            (instantiate("A18", GF(3), {"alpha": 0}), 3, 2),
            (instantiate("cex_fourdim_A1", GF(3), {}), 3, 3),
            (instantiate("cex_A8", GF(7), {}), 7, 2),
        ]
        for algebra, p, d in cases:
            maxes = enumerate_maximal(algebra)
            assert len(maxes) == (p**d - 1) // (p - 1)

    def test_every_maximal_contains_frattini(self):
        for name, field in (("cex_A8", GF(3)), ("A19", GF(5)), ("heisenberg3", GF(2))):
            algebra = instantiate(name, field, {})
            phi = frattini(algebra)
            for m in enumerate_maximal(algebra):
                assert m.subspace.contains_space(phi)
                assert m.induced.check_leibniz() == []

    def test_tags_sorted_and_normalized(self):
        algebra = instantiate("cex_fourdim_A1", GF(3), {})
        tags = [m.hyperplane_tag for m in enumerate_maximal(algebra)]
        assert tags == sorted(tags)
        for tag in tags:
            first = next(c for c in tag if c)
            assert first == 1

    def test_hyperplane_oracle(self):
        # oracle: every codimension-one subspace closed under the bracket,
        # found by scanning all hyperplanes of the ambient space
        cases = [
            (instantiate("heisenberg3", GF(2), {}), GF(2)),
            (instantiate("heisenberg3", GF(3), {}), GF(3)),
            (instantiate("A18", GF(3), {"alpha": 0}), GF(3)),
        ]
        for algebra, field in cases:
            p = field.modulus
            n = algebra.dim
            expected = set()
            for covec in itertools.product(range(p), repeat=n):
                if not any(covec):
                    continue
                first = next(c for c in covec if c)
                if first != 1:
                    continue  # projective normalization
                rows = [
                    [field(c) for c in v]
                    for v in itertools.product(range(p), repeat=n)
                    if sum(ci * vi for ci, vi in zip(covec, v)) % p == 0
                ]
                subspace = Subspace.span(field, n, rows)
                closed = subspace.contains_space(
                    algebra.span_products(subspace, subspace)
                )
                if closed:
                    expected.add(subspace)
            got = {m.subspace for m in enumerate_maximal(algebra)}
            assert got == expected

    def test_rationals_rejected(self):
        with pytest.raises(NeedsFiniteField):
            enumerate_maximal(instantiate("heisenberg3", QQ, {}))

    def test_non_nilpotent_rejected(self):
        solvable = LeibnizAlgebra.from_table(
            2, GF(3), [(1, 2, {2: 1}), (2, 1, {2: -1})]
        )
        with pytest.raises(NotNilpotent):
            enumerate_maximal(solvable)


class TestRestrict:
    def test_table_one_restriction(self):
        # restricting the four-dimensional symbolic table to span{w, y, z}
        # leaves products w*w = alpha z, [w,y] = b z, [y,w] = -b z
        field = GF(7)
        algebra = instantiate(
            "table1_case1",
            field,
            {"alpha": 2, "beta": 3, "gamma": 0, "a": 1, "ahat": 4, "b": 5, "c": 6},
        )
        sub = algebra.subspace([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        induced = algebra.restrict(sub)
        expected = LeibnizAlgebra.from_table(
            3, field, [(1, 1, {3: 2}), (1, 2, {3: 5}), (2, 1, {3: -5})]
        )
        assert induced == expected

    def test_full_space_restriction(self):
        algebra = instantiate("A19", GF(5), {})
        assert algebra.restrict(algebra.full_space()) == algebra

    def test_counterexample_abelian_maximal(self):
        algebra = instantiate("cex_fourdim_A1", GF(3), {})
        sub = algebra.subspace([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert algebra.restrict(sub).derived().is_zero()


class TestFingerprint:
    def test_abelian(self):
        fp = fingerprint(instantiate("abelian", GF(3), {"n": 3}))
        assert fp.dim == 3
        assert fp.lower_dims == (3, 0)
        assert fp.upper_dims == (0, 3)
        assert fp.leib_dim == 0
        assert fp.center_dim == 3
        assert fp.derived_dim == 0
        assert fp.square_profile == (27, 0)

    def test_a8_maximals_leib_dims(self):
        algebra = instantiate("cex_A8", GF(3), {})
        maxes = enumerate_maximal(algebra)
        by_tag = {m.hyperplane_tag: m for m in maxes}
        m1 = by_tag[(0, 1)]  # contains x1
        m2 = by_tag[(1, 0)]  # contains x2
        assert fingerprint(m1.induced).leib_dim == 1
        assert fingerprint(m2.induced).leib_dim == 0

    def test_counterexample_upper_dims_differ(self):
        algebra = instantiate("cex_fourdim_A1", GF(3), {})
        maxes = enumerate_maximal(algebra)
        profiles = {fingerprint(m.induced).upper_dims for m in maxes}
        assert len(profiles) > 1


class TestIsIsomorphic:
    def test_identity(self):
        algebra = instantiate("A19", GF(5), {})
        verdict = is_isomorphic(algebra, algebra)
        assert verdict.status == "yes"
        assert verdict.matrix == tuple(
            algebra.basis_vector(i) for i in range(algebra.dim)
        )

    def test_counterexample_pair(self):
        algebra = instantiate("cex_fourdim_A1", GF(3), {})
        maxes = {m.hyperplane_tag: m for m in enumerate_maximal(algebra)}
        abelian = maxes[(0, 0, 1)].induced
        nonabelian = maxes[(0, 1, 0)].induced
        verdict = is_isomorphic(abelian, nonabelian)
        assert verdict.status == "no"
        assert verdict.invariant is not None

    def test_cc1_maximals_pairwise(self):
        algebra = cc1(GF(3), 1, 0, 0)
        maxes = enumerate_maximal(algebra)
        assert len(maxes) == 4
        for a in maxes:
            for b in maxes:
                assert is_isomorphic(a.induced, b.induced).status == "yes"

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            is_isomorphic(
                instantiate("heisenberg3", GF(3), {}),
                instantiate("heisenberg3", GF(5), {}),
            )

    def test_dimension_refutation(self):
        verdict = is_isomorphic(
            instantiate("abelian", GF(3), {"n": 2}),
            instantiate("abelian", GF(3), {"n": 3}),
        )
        assert verdict.status == "no" and verdict.invariant[0] == "dim"

    def test_scrambled_basis_found(self):
        rng = random.Random(5)
        for name, field in (
            ("heisenberg3", GF(3)),
            ("A19", GF(5)),
            ("cex_A8", GF(3)),
            ("cyclic_example4", GF(3)),
        ):
            algebra = instantiate(name, field, {})
            matrix = random_invertible_matrix(rng, field, algebra.dim)
            scrambled = change_of_basis(algebra, matrix)
            assert scrambled.check_leibniz() == []
            verdict = is_isomorphic(algebra, scrambled)
            assert verdict.status == "yes"

    def test_yes_matrix_is_homomorphism(self):
        rng = random.Random(3)
        field = GF(5)
        a = instantiate("A18", field, {"alpha": 0})
        b = change_of_basis(a, random_invertible_matrix(rng, field, 4))
        verdict = is_isomorphic(a, b)
        assert verdict.status == "yes"
        fmat = verdict.matrix

        def apply(v):
            out = [field(0)] * 4
            for c, row in zip(v, fmat):
                for k in range(4):
                    out[k] = out[k] + c * row[k]
            return tuple(out)

        for _ in range(20):
            u = a.vector([rng.randrange(5) for _ in range(4)])
            v = a.vector([rng.randrange(5) for _ in range(4)])
            assert apply(a.bracket(u, v)) == b.bracket(apply(u), apply(v))

    def test_fingerprints_preserved_under_yes(self):
        rng = random.Random(9)
        field = GF(3)
        a = instantiate("cex_A8", field, {})
        b = change_of_basis(a, random_invertible_matrix(rng, field, 5))
        assert is_isomorphic(a, b).status == "yes"
        assert fingerprint(a) == fingerprint(b)

    def test_exhaustive_no(self):
        # tau = 1 vs tau = 2 over GF(3): one satisfies the non-square
        # condition, the other does not, hence they cannot be isomorphic;
        # the raw search must prove it by exhaustion
        a = cc1(GF(3), 1, 0, 0)
        b = cc1(GF(3), 2, 0, 0)
        assert _search_isomorphism(a, b) is None
        assert _search_isomorphism(a, a) is not None

    def test_unknown_over_rationals(self):
        # equal fingerprints, different tables: no search over Q
        a = cc1(QQ, 1, 0, 0)
        b = cc1(QQ, 4, 0, 0)  # y -> 2y turns tau=4 into tau=1, so truly isomorphic
        verdict = is_isomorphic(a, b)
        assert verdict.status == "unknown"

    def test_search_bound_generators(self):
        # equal fingerprints, 4 generators: the complete search refuses
        a = LeibnizAlgebra.from_table(5, GF(2), [(1, 1, {5: 1})])
        b = LeibnizAlgebra.from_table(5, GF(2), [(2, 2, {5: 1})])
        with pytest.raises(SearchBoundExceeded):
            is_isomorphic(a, b)

    def test_search_bound_non_nilpotent(self):
        a = LeibnizAlgebra.from_table(2, GF(5), [(1, 2, {2: 1}), (2, 1, {2: -1})])
        b = LeibnizAlgebra.from_table(2, GF(5), [(1, 2, {2: 2}), (2, 1, {2: -2})])
        with pytest.raises(SearchBoundExceeded):
            is_isomorphic(a, b)


    def test_search_budget_in_p(self):
        # x*x = z, y*y = tau z, [x,y] = z, [y,x] = 0 for tau = 2 and 3: both
        # discriminants 1 - 4 tau are non-squares mod 101, fingerprints agree,
        # and (1 - 4 tau) / (lambda - epsilon)^2 differs, so the search would
        # have to exhaust 2 (101^2 - 1) normalised candidates to say no
        from leibalg.maximal import SEARCH_CANDIDATE_BOUND

        field = GF(101)
        a = instantiate("cc1_case2", field, {"tau": 2, "lambda": 1, "epsilon": 0})
        b = instantiate("cc1_case2", field, {"tau": 3, "lambda": 1, "epsilon": 0})
        assert fingerprint(a) == fingerprint(b)
        assert 2 * (101**2 - 1) > SEARCH_CANDIDATE_BOUND
        with pytest.raises(SearchBoundExceeded, match="candidate generator images"):
            is_isomorphic(a, b)

    def test_exhaustive_no_at_gf31(self):
        # the same kind of pair at GF(31) exhausts 2 (31^2 - 1) = 1920
        # candidates, inside the budget, and is a proof of non-isomorphism
        field = GF(31)
        a = instantiate("cc1_case2", field, {"tau": 2, "lambda": 1, "epsilon": 0})
        b = instantiate("cc1_case2", field, {"tau": 5, "lambda": 1, "epsilon": 0})
        assert fingerprint(a) == fingerprint(b)
        verdict = is_isomorphic(a, b)
        assert verdict.status == "no"
        assert verdict.reason == "exhaustive generator-image search found no map"

    def test_search_budget_leaves_small_no_answers(self):
        # the same kind of pair at GF(7) needs 2 (7^2 - 1) = 96 candidates
        field = GF(7)
        a = instantiate("cc1_case2", field, {"tau": 3, "lambda": 1, "epsilon": 0})
        b = instantiate("cc1_case2", field, {"tau": 4, "lambda": 1, "epsilon": 0})
        assert fingerprint(a) == fingerprint(b)
        assert is_isomorphic(a, b).status == "no"


class TestProperties:
    def test_p1_positive(self):
        ok, witness = check_p1(cc1(GF(3), 1, 0, 0))
        assert ok and witness is None

    @pytest.mark.parametrize("name", ["A1_6dim", "A3_6dim"])
    def test_p1_six_dim_families_at_gf13(self, name):
        # each search of this P1 check stays inside SEARCH_CANDIDATE_BOUND
        # because generator images are normalised by central automorphisms
        from leibalg.catalog import sample_params

        field = GF(13)
        algebra = instantiate(name, field, sample_params(name, field))
        assert check_p1(algebra) == (True, None)

    def test_p1_builds_the_reference_data_once(self, monkeypatch):
        import leibalg.maximal as maximal_module

        seen = []
        real_fingerprint, real_side = maximal_module.fingerprint, maximal_module._SearchSide

        def counting_fingerprint(algebra):
            seen.append(("fingerprint", algebra))
            return real_fingerprint(algebra)

        def counting_side(algebra):
            seen.append(("side", algebra))
            return real_side(algebra)

        monkeypatch.setattr(maximal_module, "fingerprint", counting_fingerprint)
        monkeypatch.setattr(maximal_module, "_SearchSide", counting_side)
        field = GF(5)
        algebra = instantiate("A1_6dim", field, {"c": -3, "d": 1, "g": 2, "rhat": 1, "shat": 1})
        ok, _ = check_p1(algebra)
        assert ok
        first = enumerate_maximal(algebra)[0].induced
        for kind in ("fingerprint", "side"):
            with_first = [alg for k, alg in seen if k == kind and alg.table == first.table]
            others = [alg for k, alg in seen if k == kind and alg.table != first.table]
            assert len(with_first) == 1
            assert len(others) >= 2

    def test_p1_negative_with_witness(self):
        ok, witness = check_p1(instantiate("cex_A8", GF(3), {}))
        assert not ok
        assert witness is not None
        assert witness.a.hyperplane_tag != witness.b.hyperplane_tag

    def test_p1_implies_p2(self):
        for algebra in (
            cc1(GF(3), 1, 0, 0),
            instantiate("A18", GF(5), {"alpha": 1}),
            instantiate("A19", GF(3), {}),
            instantiate("cc2_split4", GF(3), {}),
            instantiate("cyclic_example4", GF(5), {}),
        ):
            p1, _ = check_p1(algebra)
            p2, _ = check_p2(algebra)
            assert p1
            assert p2

    def test_p2_single_maximal(self):
        ok, _ = check_p2(instantiate("cyclic_example4", GF(3), {}))
        assert ok

    def test_p2_counterexample(self):
        ok, witness = check_p2(instantiate("cex_fourdim_A1", GF(3), {}))
        assert not ok
        assert "upper series dims" in witness.detail

    def test_iso_equivalence_relation_on_family(self):
        maxes = enumerate_maximal(cc1(GF(3), 1, 0, 0))
        algebras = [m.induced for m in maxes]
        # reflexive
        for m in algebras:
            assert is_isomorphic(m, m).status == "yes"
        # symmetric
        assert is_isomorphic(algebras[0], algebras[1]).status == "yes"
        assert is_isomorphic(algebras[1], algebras[0]).status == "yes"
        # transitive on a triple
        assert is_isomorphic(algebras[0], algebras[2]).status == "yes"
        assert is_isomorphic(algebras[2], algebras[1]).status == "yes"

    def test_p1_quotients_by_upper_terms(self):
        # quotients by upper central terms keep the isomorphism property
        from leibalg import upper_central_series

        for name, params, field in (
            ("A18", {"alpha": 0}, GF(3)),
            ("A19", {}, GF(3)),
            ("cyclic_example4", {}, GF(5)),
        ):
            algebra = instantiate(name, field, params)
            assert check_p1(algebra)[0]
            for term in upper_central_series(algebra)[1:-1]:
                quotient = algebra.quotient(term).algebra
                assert check_p1(quotient)[0]


class TestConcurrency:
    def test_parallel_pairwise_checks_match_serial(self):
        # all operations are pure functions of immutable inputs, so
        # evaluating distinct maximal subalgebras concurrently must agree
        # with the serial results
        from concurrent.futures import ThreadPoolExecutor

        algebra = instantiate("A18", GF(5), {"alpha": 1})
        maxes = enumerate_maximal(algebra)
        first = maxes[0].induced
        serial = [is_isomorphic(m.induced, first).status for m in maxes]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(
                pool.map(lambda m: is_isomorphic(m.induced, first).status, maxes)
            )
        assert parallel == serial
        assert [m.hyperplane_tag for m in maxes] == sorted(
            m.hyperplane_tag for m in maxes
        )


class TestFrattiniIntersection:
    def test_heisenberg(self):
        algebra = instantiate("heisenberg3", GF(3), {})
        assert frattini_by_intersection(algebra) == algebra.subspace([[0, 0, 1]])

    def test_cyclic_unique_maximal(self):
        algebra = instantiate("cyclic_example4", GF(3), {})
        maxes = enumerate_maximal(algebra)
        assert frattini_by_intersection(algebra) == maxes[0].subspace

    def test_a19_intersection(self):
        algebra = instantiate("A19", GF(5), {})
        assert frattini_by_intersection(algebra) == algebra.subspace(
            [[0, 0, 1, 0], [0, 0, 0, 1]]
        )

    def test_matches_shortcut_on_catalog(self):
        for name, params in (
            ("heisenberg3", {}),
            ("A18", {"alpha": 1}),
            ("cex_A8", {}),
            ("cex_fourdim_A1", {}),
        ):
            algebra = instantiate(name, GF(3), params)
            assert frattini_by_intersection(algebra) == frattini(algebra)
