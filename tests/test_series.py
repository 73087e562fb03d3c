"""Central series, class, coclass, Frattini subalgebra, cyclicity."""

import random
from fractions import Fraction

import pytest

from leibalg import (
    GF,
    QQ,
    InternalError,
    LeibnizAlgebra,
    NotNilpotent,
    SeriesProfile,
    check_p2,
    enumerate_maximal,
    frattini,
    instantiate,
    is_cyclic,
    lower_central_series,
    nilpotency_data,
    upper_central_series,
)
from leibalg.catalog import list_catalog, sample_params
from leibalg.randomgen import change_of_basis, random_invertible_matrix, random_nilpotent_algebra


def solvable_plane(field):
    # [x,y] = y = -[y,x]: nilpotent it is not
    return LeibnizAlgebra.from_table(2, field, [(1, 2, {2: 1}), (2, 1, {2: -1})])


class TestLowerSeries:
    def test_cyclic_example4(self):
        algebra = instantiate("cyclic_example4", GF(5), {})
        assert [s.dim for s in lower_central_series(algebra)] == [4, 3, 2, 1, 0]

    def test_abelian(self):
        algebra = instantiate("abelian", GF(3), {"n": 4})
        assert [s.dim for s in lower_central_series(algebra)] == [4, 0]

    def test_heisenberg(self):
        algebra = instantiate("heisenberg3", QQ, {})
        assert [s.dim for s in lower_central_series(algebra)] == [3, 1, 0]

    def test_non_nilpotent_stabilizes(self):
        assert [s.dim for s in lower_central_series(solvable_plane(GF(5)))] == [2, 1]


def span_products_series(algebra, right=False):
    """The lower series stepped by ``span_products(full, term)``: [A, gamma_k].

    With ``right`` it steps [gamma_k, A] instead, which differs on some
    non-Lie Leibniz algebras.
    """
    full = algebra.full_space()
    terms = [full]
    while not terms[-1].is_zero():
        factors = (terms[-1], full) if right else (full, terms[-1])
        nxt = algebra.span_products(*factors)
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return terms


def rational_basis_change(rng, n):
    """An invertible U L of small rationals: U upper triangular with a nonzero
    diagonal, L unit lower triangular."""

    def upper(i, j):
        if i == j:
            return Fraction(i + 2, 2)
        return Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if j > i else Fraction(0)

    def lower(i, j):
        return Fraction(rng.randint(-1, 1)) if j < i else Fraction(int(i == j))

    u = [[upper(i, j) for j in range(n)] for i in range(n)]
    l = [[lower(i, j) for j in range(n)] for i in range(n)]
    return [[sum(u[i][k] * l[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def lower_series_cases(field):
    """Seeded towers (GF(p)), every catalog family and a copy in another
    basis, and the induced tables of the maximals of the nilpotent ones."""
    rng = random.Random(field.characteristic)
    algebras = []
    if field.is_finite():
        algebras += [random_nilpotent_algebra(rng, field, rng.randrange(2, 6)) for _ in range(25)]
    for entry in list_catalog():
        params = sample_params(entry.name, field)
        if entry.params and params is None:
            continue
        algebra = instantiate(entry.name, field, params)
        if field.is_finite():
            matrix = random_invertible_matrix(rng, field, algebra.dim)
        else:
            matrix = rational_basis_change(rng, algebra.dim)
        algebras += [algebra, change_of_basis(algebra, matrix)]
    if field.is_finite():
        nilpotent = [a for a in algebras if span_products_series(a)[-1].is_zero()]
        algebras += [m.induced for a in nilpotent for m in enumerate_maximal(a)[:3]]
    return algebras


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), QQ], ids=str)
def test_lower_series_equals_the_span_products_reference(field):
    # the terms read off the cells against span_products(full, term), on
    # towers, catalog families in two bases and induced maximal tables; on
    # some non-Lie algebras [gamma_k, A] differs from [A, gamma_k], so a
    # read-off of [r, e_i] in place of [e_i, r] fails here
    one_sided = 0
    algebras = lower_series_cases(field)
    for algebra in algebras:
        expected = span_products_series(algebra)
        assert lower_central_series(algebra) == expected
        one_sided += not algebra.is_lie() and span_products_series(algebra, True) != expected
    assert one_sided > 0


class TestUpperSeries:
    def test_cyclic_example4(self):
        algebra = instantiate("cyclic_example4", GF(5), {})
        terms = upper_central_series(algebra)
        assert [s.dim for s in terms] == [0, 1, 2, 3, 4]
        assert terms[1] == algebra.subspace([[0, 0, 0, 1]])
        assert terms[2] == algebra.subspace([[0, 0, 1, 0], [0, 0, 0, 1]])

    def test_abelian(self):
        algebra = instantiate("abelian", GF(3), {"n": 5})
        assert [s.dim for s in upper_central_series(algebra)] == [0, 5]

    def test_family_dim4(self):
        algebra = instantiate("A18", GF(3), {"alpha": 0})
        assert [s.dim for s in upper_central_series(algebra)] == [0, 2, 4]

    def test_non_nilpotent_stops_short(self):
        terms = upper_central_series(solvable_plane(GF(5)))
        assert [s.dim for s in terms] == [0]


class TestNilpotencyData:
    def test_cyclic_example4(self):
        prof = nilpotency_data(instantiate("cyclic_example4", QQ, {}))
        assert prof.nilpotent and prof.cls == 4 and prof.coclass == 0

    def test_heisenberg(self):
        prof = nilpotency_data(instantiate("heisenberg3", GF(7), {}))
        assert prof.cls == 2 and prof.coclass == 1

    def test_family_dim4(self):
        prof = nilpotency_data(instantiate("A18", GF(5), {"alpha": 0}))
        assert prof.cls == 2 and prof.coclass == 2

    def test_non_nilpotent(self):
        prof = nilpotency_data(solvable_plane(GF(3)))
        assert not prof.nilpotent
        assert prof.cls is None and prof.coclass is None

    def test_zero_dim(self):
        prof = nilpotency_data(LeibnizAlgebra.from_table(0, GF(3), []))
        assert prof.nilpotent and prof.cls == 0 and prof.coclass == 0

    def test_nilpotent_iff_series_reach(self):
        # nilpotent <=> lower series hits 0 <=> upper series hits dim(A)
        import random

        from leibalg.randomgen import random_nilpotent_algebra

        rng = random.Random(41)
        samples = [random_nilpotent_algebra(rng, GF(3), rng.randrange(1, 5)) for _ in range(10)]
        samples.append(solvable_plane(GF(3)))
        for algebra in samples:
            prof = nilpotency_data(algebra)
            assert prof.nilpotent == (prof.lower_dims[-1] == 0)
            assert prof.nilpotent == (prof.upper_dims[-1] == algebra.dim)

    @pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
    def test_keeps_its_terms_out_of_equality_and_printing(self, field):
        # sl2 is perfect and the solvable plane has Z(A) = 0, so one of their
        # series has a single term; the zero algebra has two such series
        sl2 = LeibnizAlgebra.from_table(
            3,
            field,
            [
                (1, 2, {2: 2}), (2, 1, {2: -2}), (1, 3, {3: -2}), (3, 1, {3: 2}),
                (2, 3, {1: 1}), (3, 2, {1: -1}),
            ],
        )
        algebras = [
            sl2,
            solvable_plane(field),
            LeibnizAlgebra.from_table(0, field, []),
            instantiate("abelian", field, {"n": 3}),
            instantiate("heisenberg3", field, {}),
            instantiate("cyclic_example4", field, {}),
        ]
        for algebra in algebras:
            prof = nilpotency_data(algebra)
            assert prof.derived == algebra.derived()
            assert prof.center == algebra.center()
            assert [t.dim for t in prof.lower] == list(prof.lower_dims)
            assert [t.dim for t in prof.upper] == list(prof.upper_dims)
            # a fresh profile of an equal table, none of its terms read yet
            fresh = SeriesProfile(LeibnizAlgebra(field, algebra.table))
            assert "lower" not in vars(fresh) and "upper" not in vars(fresh)
            assert fresh == prof and hash(fresh) == hash(prof)
            assert repr(fresh) == repr(prof) and "lower=" not in repr(prof)

    def test_equal_strict_steps_on_catalog(self):
        for name, params in (
            ("cyclic_example4", {}),
            ("heisenberg3", {}),
            ("cc2_split4", {}),
            ("A19", {}),
            ("cex_A8", {}),
            ("holmes_ii", {}),
        ):
            prof = nilpotency_data(instantiate(name, GF(5), params))
            assert len(prof.lower_dims) == len(prof.upper_dims)


class TestFrattini:
    def test_heisenberg(self):
        algebra = instantiate("heisenberg3", GF(3), {})
        assert frattini(algebra) == algebra.subspace([[0, 0, 1]])

    def test_abelian(self):
        algebra = instantiate("abelian", GF(3), {"n": 2})
        assert frattini(algebra).is_zero()

    def test_cyclic_example4(self):
        algebra = instantiate("cyclic_example4", GF(5), {})
        assert frattini(algebra) == algebra.subspace(
            [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )

    def test_non_nilpotent_rejected(self):
        with pytest.raises(NotNilpotent):
            frattini(solvable_plane(GF(5)))

    def test_next_to_last_upper_term_under_p2(self):
        # with the series-profile property, Z_{c-1} equals the Frattini
        for name, params in (
            ("cyclic_example4", {}),
            ("heisenberg3", {}),
            ("A18", {"alpha": 1}),
            ("A19", {}),
            ("cc2_split4", {}),
        ):
            algebra = instantiate(name, GF(3), params)
            ok, _ = check_p2(algebra)
            assert ok
            prof = nilpotency_data(algebra)
            upper = upper_central_series(algebra)
            assert upper[prof.cls - 1] == frattini(algebra)


class TestCyclicity:
    def test_cyclic_example4(self):
        algebra = instantiate("cyclic_example4", GF(5), {})
        flag, witness = is_cyclic(algebra)
        assert flag
        assert witness == algebra.basis_vector(0)

    def test_heisenberg_not_cyclic(self):
        flag, witness = is_cyclic(instantiate("heisenberg3", GF(3), {}))
        assert not flag and witness is None

    def test_one_dim(self):
        algebra = instantiate("abelian", GF(3), {"n": 1})
        flag, witness = is_cyclic(algebra)
        assert flag and witness == algebra.basis_vector(0)

    def test_non_nilpotent_rejected(self):
        with pytest.raises(NotNilpotent):
            is_cyclic(solvable_plane(GF(3)))

    def test_cyclic_iff_codim_one(self):
        for name, params in (
            ("cyclic_example4", {}),
            ("heisenberg3", {}),
            ("A19", {}),
            ("cex_A8", {}),
        ):
            algebra = instantiate(name, GF(3), params)
            flag, _ = is_cyclic(algebra)
            assert flag == (algebra.derived().dim == algebra.dim - 1)

    def test_witness_that_does_not_generate_is_an_error(self, monkeypatch):
        # the generation check must hold under python -O too, so it raises
        # rather than asserts
        import leibalg.series as series_module

        algebra = instantiate("cyclic_example4", GF(5), {})
        monkeypatch.setattr(
            series_module, "_generated_subalgebra", lambda alg, seed: alg.subspace([seed])
        )
        with pytest.raises(InternalError, match="must generate"):
            is_cyclic(algebra)

    def test_single_maximal_for_cyclic(self):
        algebra = instantiate("cyclic_example4", GF(7), {})
        maxes = enumerate_maximal(algebra)
        assert len(maxes) == 1
        assert maxes[0].subspace == frattini(algebra)


class TestStructureTheorems:
    def test_p2_trichotomy_on_catalog(self):
        # under P2 with dim > 2: cyclic, or square span of dim 1, or a
        # second center larger than two
        for name, params, field in (
            ("cyclic_example4", {}, GF(3)),
            ("heisenberg3", {}, GF(3)),
            ("A18", {"alpha": 0}, GF(5)),
            ("A19", {}, GF(5)),
            ("cc2_split4", {}, GF(3)),
            ("holmes_ii", {}, GF(3)),
        ):
            algebra = instantiate(name, field, params)
            if algebra.dim <= 2:
                continue
            ok, _ = check_p2(algebra)
            if not ok:
                continue
            cyclic, _ = is_cyclic(algebra)
            terms = upper_central_series(algebra)
            z2 = terms[2] if len(terms) > 2 else terms[-1]
            assert cyclic or algebra.leib_ideal().dim == 1 or z2.dim > 2

    def test_coclass_zero_entries_cyclic(self):
        for name, params, field in (
            ("cyclic_example4", {}, GF(3)),
            ("abelian", {"n": 1}, GF(3)),
        ):
            algebra = instantiate(name, field, params)
            prof = nilpotency_data(algebra)
            assert prof.coclass == 0
            assert is_cyclic(algebra)[0] or algebra.dim <= 1
