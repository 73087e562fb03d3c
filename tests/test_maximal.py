"""Maximal subalgebra enumeration, fingerprints, isomorphism, P1/P2."""

import itertools
import random

import pytest

from leibalg import (
    GF,
    QQ,
    FieldMismatch,
    Fingerprint,
    InternalError,
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
    list_catalog,
    nilpotency_data,
    sample_params,
    upper_central_series,
)
from leibalg import _modp
from leibalg.maximal import _Closure, _search_isomorphism, _Side
from leibalg.randomgen import change_of_basis, random_invertible_matrix, random_nilpotent_algebra


def cc1(field, tau, lam, eps):
    return LeibnizAlgebra.from_table(
        3,
        field,
        [(1, 1, {3: 1}), (2, 2, {3: tau}), (1, 2, {3: lam}), (2, 1, {3: eps})],
    )


def count_series(monkeypatch):
    """Record (kind, algebra) for every central series computed from now on."""
    import leibalg.series as series_module

    seen = []
    for kind in ("lower", "upper"):
        name = f"{kind}_central_series"
        real = getattr(series_module, name)

        def counting(algebra, kind=kind, real=real):
            seen.append((kind, algebra))
            return real(algebra)

        monkeypatch.setattr(series_module, name, counting)
    return seen


def public_fingerprint(algebra):
    """The Fingerprint from the public calls, squares counted over all vectors."""
    prof = nilpotency_data(algebra)
    field, n = algebra.field, algebra.dim
    square_profile = None
    if field.is_finite() and field.modulus**n <= 4096:
        zero = sum(
            not any(algebra.bracket(v, v))
            for v in map(algebra.vector, itertools.product(range(field.modulus), repeat=n))
        )
        square_profile = (zero, field.modulus**n - zero)
    return Fingerprint(
        dim=n,
        lower_dims=prof.lower_dims,
        upper_dims=prof.upper_dims,
        leib_dim=algebra.leib_ideal().dim,
        center_dim=algebra.center().dim,
        left_center_dim=algebra.left_center().dim,
        derived_dim=algebra.derived().dim,
        square_profile=square_profile,
    )


def reference_enumerate_maximal(algebra, lower):
    """The maximals as rref-spanned pullbacks of the hyperplanes of A/[A,A],
    each restricted to by ``LeibnizAlgebra.restrict``."""
    from leibalg.linalg import _span_residues
    from leibalg.maximal import MaximalSubalgebra, _normalized_vectors

    derived = lower[1]
    comp = derived.complement_coords()
    d = len(comp)
    field, n = algebra.field, algebra.dim
    p = field.modulus
    result = []
    for tag in _normalized_vectors(p, d):
        t0 = next(i for i, c in enumerate(tag) if c)
        vectors = list(derived._res_rows)
        for b in range(d):
            if b == t0:
                continue
            vec = [0] * n
            vec[comp[b]] = 1
            vec[comp[t0]] = -tag[b] % p
            vectors.append(vec)
        subspace = _span_residues(field, n, vectors)
        result.append(MaximalSubalgebra(subspace, algebra.restrict(subspace), tag))
    result.sort(key=lambda m: m.hyperplane_tag)
    return result


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

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_closed_form_matches_the_spanned_pullbacks(self, p):
        # the closed-form kernels and induced cells against the pullbacks
        # spanned by rref and restricted cell by cell, on random towers of
        # dims 2-6 and the catalog's sample instances
        field = GF(p)
        rng = random.Random(100 + p)
        algebras = [random_nilpotent_algebra(rng, field, 2 + t % 5) for t in range(120)]
        # every cell empty: (p^5 - 1)/(p - 1) maximals, 121 over GF(3)
        abelian = LeibnizAlgebra.from_table(5, field, [])
        # [e1, e2] = e3 alone: the kernel of e2* has j = 1, whose row is empty
        # while cells[0][j] is not
        empty_row = LeibnizAlgebra.from_table(3, field, [(1, 2, {3: 1})])
        algebras += [abelian, empty_row]
        for entry in list_catalog():
            params = sample_params(entry.name, field)
            if params is not None:
                algebra = instantiate(entry.name, field, params)
                if nilpotency_data(algebra).nilpotent:
                    algebras.append(algebra)
        maximals = 0
        for algebra in algebras:
            lower = nilpotency_data(algebra).lower
            got = enumerate_maximal(algebra)
            expected = reference_enumerate_maximal(algebra, lower)
            assert [m.hyperplane_tag for m in got] == [m.hyperplane_tag for m in expected]
            for m, ref in zip(got, expected):
                assert m.subspace == ref.subspace
                assert m.subspace.pivots == ref.subspace.pivots
                assert m.induced._cells == ref.induced._cells
            assert frattini_by_intersection(algebra) == lower[1]
            maximals += len(got)
        assert maximals > 2 * len(algebras)
        assert len(enumerate_maximal(abelian)) == (p**5 - 1) // (p - 1)
        assert not any(empty_row._cells[1])
        assert any(m.subspace.pivots == (0, 2) for m in enumerate_maximal(empty_row))

    def test_closed_form_refuses_a_product_outside_the_kernel(self):
        # on a record whose lower series has a too small [A, A], some
        # hyperplane is not closed under the bracket; both enumerations refuse it
        from leibalg import NotASubalgebra

        algebra = instantiate("heisenberg3", GF(3), {})
        lower = [algebra.full_space(), Subspace.span(GF(3), 3, [])]
        side = _Side(algebra)
        side.profile.lower = tuple(lower)
        with pytest.raises(NotASubalgebra):
            side.maximals
        with pytest.raises(NotASubalgebra):
            reference_enumerate_maximal(algebra, lower)

    @pytest.mark.parametrize(
        "reader", [enumerate_maximal, check_p1, check_p2, frattini_by_intersection],
        ids=lambda reader: reader.__name__,
    )
    def test_rationals_rejected(self, reader):
        with pytest.raises(NeedsFiniteField):
            reader(instantiate("heisenberg3", QQ, {}))

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

    @pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=str)
    def test_matches_the_public_invariants(self, field):
        algebras = [
            LeibnizAlgebra.from_table(0, field, []),
            LeibnizAlgebra.from_table(1, field, []),
            LeibnizAlgebra.from_table(2, field, [(1, 2, {2: 1})]),  # [x, y] = y
            LeibnizAlgebra.from_table(2, field, [(1, 2, {2: 1}), (2, 1, {2: -1})]),
            # sl2 on (h, e, f): perfect, so its lower series has one term
            LeibnizAlgebra.from_table(
                3,
                field,
                [
                    (1, 2, {2: 2}), (2, 1, {2: -2}), (1, 3, {3: -2}), (3, 1, {3: 2}),
                    (2, 3, {1: 1}), (3, 2, {1: -1}),
                ],
            ),
        ]
        for entry in list_catalog():
            params = sample_params(entry.name, field)
            if params is not None:
                algebras.append(instantiate(entry.name, field, params))
        if field.is_finite():
            rng = random.Random(field.modulus)
            for dim in (2, 3, 4, 4, 5, 5):
                tower = random_nilpotent_algebra(rng, field, dim)
                algebras.append(tower)
                algebras += [m.induced for m in enumerate_maximal(tower)]
        for algebra in algebras:
            assert algebra.check_leibniz() == []
            assert fingerprint(algebra) == public_fingerprint(algebra), algebra.table
        sl2 = fingerprint(algebras[4])
        assert (sl2.lower_dims, sl2.derived_dim, sl2.center_dim) == ((3,), 3, 0)


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
        assert _search_isomorphism(_Side(a), _Side(b)) is None
        assert _search_isomorphism(_Side(a), _Side(a)) is not None

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
        # the first maximal's two central series are computed once per
        # check_p1, however many maximals are compared against it
        seen = count_series(monkeypatch)
        field = GF(5)
        algebra = instantiate("A1_6dim", field, {"c": -3, "d": 1, "g": 2, "rhat": 1, "shat": 1})
        ok, _ = check_p1(algebra)
        assert ok
        first = enumerate_maximal(algebra)[0].induced
        for kind in ("lower", "upper"):
            with_first = [alg for k, alg in seen if k == kind and alg.table == first.table]
            others = [
                alg
                for k, alg in seen
                if k == kind and alg.dim == first.dim and alg.table != first.table
            ]
            assert len(with_first) == 1
            assert len(others) >= 2

    @pytest.mark.parametrize(
        "name,params",
        [
            ("A1_6dim", {"c": -3, "d": 1, "g": 2, "rhat": 1, "shat": 1}),
            ("A3_6dim", None),
            ("cc1_case2", {"tau": 1, "lambda": 1, "epsilon": 0}),
        ],
    )
    def test_p1_builds_one_record_per_maximal(self, monkeypatch, name, params):
        # one record for the algebra; the comparisons against the first
        # maximal and the transitivity spot check share one record per
        # distinct induced table; a maximal whose table equals an earlier
        # one's is not decided again, and when every table equals the first
        # one's no record of a maximal is built
        import leibalg.maximal as maximal_module

        records = []

        class CountingSide(_Side):
            def __init__(self, algebra, records_of_call=None):
                records.append(algebra)
                super().__init__(algebra, records_of_call)

        field = GF(5)
        algebra = instantiate(name, field, params or sample_params(name, field))
        maximals = enumerate_maximal(algebra)
        monkeypatch.setattr(maximal_module, "_Side", CountingSide)
        assert check_p1(algebra) == (True, None)
        assert len(maximals) == 6
        distinct = {m.induced for m in maximals}
        assert len(records) == len(set(records))
        assert set(records) == {algebra} | (distinct if len(distinct) > 1 else set())
        if name == "cc1_case2":
            assert len(records) - 1 == len(distinct) == 3

    def test_searched_pair_builds_each_series_once(self, monkeypatch):
        # one is_isomorphic call that reaches the search computes each
        # algebra's lower and upper central series once, and reads the
        # centre and [A, A] off them
        rng = random.Random(9)
        field = GF(3)
        a = instantiate("cex_A8", field, {})
        b = change_of_basis(a, random_invertible_matrix(rng, field, 5))
        seen = count_series(monkeypatch)
        for name in ("center", "derived"):
            real = getattr(LeibnizAlgebra, name)

            def counting(self, name=name, real=real):
                seen.append((name, self))
                return real(self)

            monkeypatch.setattr(LeibnizAlgebra, name, counting)
        verdict = is_isomorphic(a, b)
        assert verdict.reason == "explicit isomorphism found"
        assert sorted((k, id(alg)) for k, alg in seen) == sorted(
            (k, id(alg)) for k in ("lower", "upper") for alg in (a, b)
        )

    @staticmethod
    def spot_check_setup(monkeypatch, name, params, answer=None):
        """The distinct induced tables of a P1 algebra at GF(5), and a list
        that records (source, target) of every decision from now on; with
        ``answer`` set, the decision of the second distinct table against
        the last returns it."""
        field = GF(5)
        algebra = instantiate(name, field, params or sample_params(name, field))
        tables = list(dict.fromkeys(m.induced for m in enumerate_maximal(algebra)))
        decisions = []
        real = _Side.isomorphism

        def recording(self, other):
            decisions.append((self.algebra, other.algebra))
            if answer is not None and decisions[-1] == (tables[1], tables[-1]):
                return answer
            return real(self, other)

        monkeypatch.setattr(_Side, "isomorphism", recording)
        return algebra, tables, decisions

    @pytest.mark.parametrize(
        "name,params",
        [("A1_6dim", None), ("cc1_case2", {"tau": 1, "lambda": 1, "epsilon": 0})],
    )
    def test_p1_spot_checks_the_second_distinct_table_against_the_last(
        self, monkeypatch, name, params
    ):
        # after every distinct table is matched with the first, the spot
        # check decides the second against the last, which differ, so it is
        # a real search
        algebra, tables, decisions = self.spot_check_setup(monkeypatch, name, params)
        assert len(tables) >= 3
        assert check_p1(algebra) == (True, None)
        assert decisions[:-1] == [(t, tables[0]) for t in tables[1:]]
        assert decisions[-1] == (tables[1], tables[-1])
        assert tables[1] != tables[-1]

    def test_p1_spot_check_no_is_a_bug(self, monkeypatch):
        from leibalg.maximal import IsoVerdict

        algebra, _, _ = self.spot_check_setup(monkeypatch, "A1_6dim", None, IsoVerdict("no"))
        with pytest.raises(InternalError, match="transitivity spot check"):
            check_p1(algebra)

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

    def test_p2_builds_one_upper_series_per_distinct_table(self, monkeypatch):
        # and reports the witness of the check that builds one per maximal:
        # the first maximal in tag order whose profile differs from the first
        from leibalg import series

        def reference_p2(maximals):
            profiles = [tuple(s.dim for s in upper_central_series(m.induced)) for m in maximals]
            for m, prof in zip(maximals[1:], profiles[1:]):
                if prof != profiles[0]:
                    return False, (maximals[0].hyperplane_tag, m.hyperplane_tag,
                                   f"upper series dims {profiles[0]} vs {prof}")
            return True, None

        rng = random.Random(5)
        algebras = [instantiate("cex_fourdim_A1", GF(3), {}), cc1(GF(3), 1, 0, 0)]
        algebras += [random_nilpotent_algebra(rng, GF(3), rng.randrange(2, 6)) for _ in range(20)]
        calls = []

        def counting(algebra):
            calls.append(algebra)
            return upper_central_series(algebra)

        monkeypatch.setattr(series, "upper_central_series", counting)
        outcomes = set()
        shared = 0
        for algebra in algebras:
            maximals = enumerate_maximal(algebra)
            expected_ok, expected_witness = reference_p2(maximals)
            calls.clear()
            ok, witness = check_p2(algebra)
            assert ok == expected_ok
            if witness is not None:
                witness = (witness.a.hyperplane_tag, witness.b.hyperplane_tag, witness.detail)
            assert witness == expected_witness
            assert len(calls) == len(set(calls))
            if ok and len(maximals) > 1:
                assert set(calls) == {m.induced for m in maximals}
            shared += len(calls) < len(maximals)
            outcomes.add(ok)
        assert outcomes == {True, False} and shared
        _, witness = check_p2(algebras[0])
        assert (witness.a.hyperplane_tag, witness.b.hyperplane_tag) == ((0, 0, 1), (0, 1, 0))
        assert witness.detail == "upper series dims (0, 3) vs (0, 1, 3)"

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


def closure_algebras():
    """Seeded towers over GF(2), GF(3), GF(5) and the maximals of catalog algebras."""
    rng = random.Random(13)
    for p in (2, 3, 5):
        for dim in range(2, 7):
            for _ in range(4):
                yield random_nilpotent_algebra(rng, GF(p), dim)
    for name in ("A19", "cex_A8", "A1_6dim", "A3_6dim", "cc2_split4"):
        field = GF(5)
        params = sample_params(name, field)
        for m in enumerate_maximal(instantiate(name, field, params)):
            yield m.induced


class TestClosure:
    def test_coordinates_recover_random_combinations(self):
        rng = random.Random(4)
        for p in (2, 3, 5):
            for n in range(1, 7):
                for m in range(n + 1):
                    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
                    if _modp.rank(rows, p, n) < m:
                        continue
                    combos = [[rng.randrange(p) for _ in range(m)] for _ in range(3)]
                    targets = [_modp.combine(c, rows, p, n) for c in combos]
                    assert _modp.coordinates(rows, targets, p, n) == combos

    def test_coordinates_reject_dependent_rows_and_outside_targets(self):
        with pytest.raises(InternalError):
            _modp.coordinates([[1, 2, 0], [2, 4, 0]], [], 5, 3)
        with pytest.raises(InternalError):
            _modp.coordinates([[1, 2, 0]], [[0, 0, 1]], 5, 3)
        assert _modp.coordinates([[1, 2, 0]], [[3, 1, 0]], 5, 3) == [[3]]

    def test_recipe_on_every_generator_prefix(self):
        closures = 0
        for algebra in closure_algebras():
            side = _Side(algebra)
            p, n, cells = side.p, side.n, side.cells
            gens = [[int(i == g) for i in range(n)] for g in side.coset_coords]
            for k in range(1, len(gens) + 1):
                closure = _Closure(cells, p, gens[:k])
                elems = closure.elems
                assert elems[:k] == gens[:k]
                assert _modp.rank(elems, p, n) == len(elems)
                pairs = [(i, j) for _, i, j, _ in closure.steps]
                assert sorted(pairs) == sorted(itertools.product(range(len(elems)), repeat=2))
                inserted = k
                for kind, i, j, coeffs in closure.steps:
                    w = _modp.bracket(cells, elems[i], elems[j], p)
                    if kind == "new":
                        assert coeffs is None
                        assert elems[inserted] == w
                        inserted += 1
                    else:
                        assert _modp.combine(coeffs, elems, p, n) == w
                        assert not any(coeffs[inserted:])
                assert inserted == len(elems)
                assert closure.replay(cells, p, gens[:k]) == elems
                closures += 1
        assert closures > 100

    def test_replay_rejects_dependent_images(self):
        # every "dep" step holds for the images e1, e1, so only the final
        # rank check can reject them
        for algebra in (
            instantiate("abelian", GF(3), {"n": 2}),
            instantiate("heisenberg3", GF(3), {}),
        ):
            side = _Side(algebra)
            p, n = side.p, side.n
            gens = [[int(i == g) for i in range(n)] for g in side.coset_coords]
            closure = _Closure(side.cells, p, gens)
            assert closure.replay(side.cells, p, gens) == closure.elems
            assert closure.replay(side.cells, p, [gens[0], gens[0]]) is None
