"""Structure-constant algebras: bracket, identity checking, substructures."""

import copy
import itertools
import random
from fractions import Fraction

import pytest

from leibalg import (
    GF,
    QQ,
    BadIndex,
    BadVector,
    DuplicateEntry,
    FieldMismatch,
    LeibnizAlgebra,
    NotAnIdeal,
    NotApplicable,
    NotASubalgebra,
    Subspace,
    enumerate_maximal,
    instantiate,
    is_nilpotent,
)


def heisenberg(field):
    return LeibnizAlgebra.from_table(
        3, field, [(1, 2, {3: 1}), (2, 1, {3: -1})], labels=("x", "y", "z")
    )


def cyclic4(field):
    return LeibnizAlgebra.from_table(
        4, field, [(1, 1, {2: 1}), (1, 2, {3: 1}), (1, 3, {4: 1})]
    )


def boxed_product(table, x, y):
    """[x, y] by FieldElement arithmetic on the boxed structure constants."""
    n = len(table)
    acc = [x[0].field.zero()] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc[k] = acc[k] + x[i] * y[j] * table[i][j][k]
    return acc


def boxed_in_span(space, v):
    """Does v reduce to zero against the echelon rows, in FieldElements?"""
    for row, pc in zip(space.rows, space.pivots):
        c = v[pc]
        v = [a - c * b for a, b in zip(v, row)]
    return not any(v)


class TestConstruction:
    def test_heisenberg(self):
        algebra = heisenberg(GF(5))
        assert algebra.dim == 3
        assert algebra.bracket([1, 0, 0], [0, 1, 0]) == algebra.vector([0, 0, 1])

    def test_cyclic4(self):
        algebra = cyclic4(QQ)
        assert algebra.bracket([1, 0, 0, 0], [1, 0, 0, 0]) == algebra.vector([0, 1, 0, 0])

    def test_empty_table_is_abelian(self):
        algebra = LeibnizAlgebra.from_table(2, GF(3), [])
        assert algebra.derived().is_zero()

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            LeibnizAlgebra.from_table(2, GF(3), [(1, 3, {1: 1})])
        with pytest.raises(BadIndex):
            LeibnizAlgebra.from_table(2, GF(3), [(1, 2, {5: 1})])

    def test_duplicate_entry(self):
        with pytest.raises(DuplicateEntry):
            LeibnizAlgebra.from_table(2, GF(3), [(1, 1, {2: 1}), (1, 1, {2: 2})])

    def test_dense_value(self):
        algebra = LeibnizAlgebra.from_table(2, GF(3), [(1, 1, [0, 1])])
        assert algebra.bracket([1, 0], [1, 0]) == algebra.vector([0, 1])

    @pytest.mark.parametrize("dim", [-1, -3, True, 2.0, "2", None])
    def test_dimension_must_be_a_nonnegative_int(self, dim):
        with pytest.raises(BadVector):
            LeibnizAlgebra.from_table(dim, GF(5), [])

    @pytest.mark.parametrize(
        "entry",
        [("1", 2, {1: 1}), (1, 2.0, {1: 1}), (True, 2, {1: 1}), (1, False, {1: 1}),
         (1, 2, {"2": 1}), (1, 2, {True: 1}), (1, 2, {None: 1}), (1, 2, {2: 1, 1.0: 1})],
    )
    def test_indices_must_be_ints(self, entry):
        with pytest.raises(BadIndex):
            LeibnizAlgebra.from_table(2, GF(5), [entry])

    @pytest.mark.parametrize("value", [None, 3, 1.5, object()])
    def test_product_value_must_be_a_dict_or_a_sequence(self, value):
        with pytest.raises(BadVector):
            LeibnizAlgebra.from_table(2, GF(5), [(1, 2, value)])

    @pytest.mark.parametrize(
        "table",
        [[[0, 0], [0, 0]], [[[0, 0], 0], [[0, 0], [0, 0]]], [None, None], [[None]], None, 5],
    )
    def test_dense_cells_must_be_sequences(self, table):
        with pytest.raises(BadVector):
            LeibnizAlgebra(GF(5), table)


class TestBracket:
    def test_zero_left_factor(self):
        algebra = cyclic4(GF(7))
        zero = algebra.zero_vector()
        assert algebra.bracket(zero, [1, 2, 3, 4]) == zero

    def test_bilinearity_sampled(self):
        rng = random.Random(11)
        algebra = instantiate("cex_A8", GF(7), {})
        field = algebra.field
        for _ in range(25):
            u = algebra.vector([rng.randrange(7) for _ in range(5)])
            v = algebra.vector([rng.randrange(7) for _ in range(5)])
            w = algebra.vector([rng.randrange(7) for _ in range(5)])
            c = field(rng.randrange(7))
            left = algebra.bracket([c * a + b for a, b in zip(u, v)], w)
            right = tuple(
                c * x + y
                for x, y in zip(algebra.bracket(u, w), algebra.bracket(v, w))
            )
            assert left == right

    def test_square_expansion_family(self):
        # [a x1 + b x2, a x1 + b x2] = (a^2 + ab*alpha) x3 + (ab - b^2) x4
        field = GF(7)
        alpha = field(3)
        algebra = instantiate("A18", field, {"alpha": 3})
        for a in range(7):
            for b in range(7):
                v = algebra.vector([a, b, 0, 0])
                fa, fb = field(a), field(b)
                expected = algebra.vector(
                    [0, 0, fa * fa + fa * fb * alpha, fa * fb - fb * fb]
                )
                assert algebra.bracket(v, v) == expected


class TestLeibnizCheck:
    def test_cyclic4_valid(self):
        assert cyclic4(GF(5)).check_leibniz() == []
        assert cyclic4(QQ).check_leibniz() == []

    def test_abelian_valid(self):
        assert LeibnizAlgebra.from_table(3, GF(2), []).check_leibniz() == []

    def test_perturbed_heisenberg_invalid(self):
        for field, coeff in ((GF(5), 1), (QQ, Fraction(-3, 7))):
            # add [x, z] = coeff * x: the identity must break somewhere
            algebra = LeibnizAlgebra.from_table(
                3, field, [(1, 2, {3: 1}), (2, 1, {3: -1}), (1, 3, {1: coeff})]
            )
            violations = algebra.check_leibniz()
            assert violations
            # independent residual check on every triple, in (i, j, k) order
            e = [algebra.basis_vector(i) for i in range(3)]
            expected = []
            for i, j, k in itertools.product(range(3), repeat=3):
                lhs = algebra.bracket(e[i], algebra.bracket(e[j], e[k]))
                rhs = tuple(
                    a + b
                    for a, b in zip(
                        algebra.bracket(algebra.bracket(e[i], e[j]), e[k]),
                        algebra.bracket(e[j], algebra.bracket(e[i], e[k])),
                    )
                )
                residual = tuple(x - y for x, y in zip(lhs, rhs))
                if any(residual):
                    expected.append((i + 1, j + 1, k + 1, residual))
            assert [(v.i, v.j, v.k, v.residual) for v in violations] == expected

    def test_verified_flag(self):
        algebra = heisenberg(GF(3))
        assert algebra.verified


class TestSpanProducts:
    def test_heisenberg_derived(self):
        algebra = heisenberg(GF(3))
        assert algebra.derived() == algebra.subspace([[0, 0, 1]])

    def test_abelian_derived(self):
        algebra = LeibnizAlgebra.from_table(4, GF(5), [])
        assert algebra.derived().is_zero()

    def test_cyclic4_third_term(self):
        algebra = cyclic4(GF(5))
        third = algebra.span_products(algebra.full_space(), algebra.derived())
        assert third == algebra.subspace([[0, 0, 1, 0], [0, 0, 0, 1]])

    def test_basis_products_suffice(self):
        # oracle: the span over ALL vector pairs equals the basis-pair span
        field = GF(2)
        algebra = instantiate("cex_fourdim_A1", field, {})
        u = algebra.subspace([[1, 0, 1, 0], [0, 1, 0, 0]])
        v = algebra.subspace([[0, 0, 1, 0], [0, 0, 0, 1]])
        everything = []
        for cu in itertools.product(range(2), repeat=2):
            for cv in itertools.product(range(2), repeat=2):
                x = u.linear_combination([field(c) for c in cu])
                y = v.linear_combination([field(c) for c in cv])
                everything.append(algebra.bracket(x, y))
        oracle = Subspace.span(field, 4, everything)
        assert algebra.span_products(u, v) == oracle


class TestLeibIdeal:
    def test_lie_algebra_squares_vanish(self):
        assert heisenberg(GF(7)).leib_ideal().is_zero()

    def test_family_squares_by_enumeration(self):
        # oracle: span of [v, v] over all 3^4 vectors
        field = GF(3)
        algebra = instantiate("A18", field, {"alpha": 0})
        squares = []
        for combo in itertools.product(range(3), repeat=4):
            v = algebra.vector(combo)
            squares.append(algebra.bracket(v, v))
        oracle = Subspace.span(field, 4, squares)
        got = algebra.leib_ideal()
        assert got == oracle
        assert got == algebra.subspace([[0, 0, 1, 0], [0, 0, 0, 1]])

    def test_cyclic4_square_span(self):
        # oracle: (x1 + b x2 + c x3)^2 = x2 + b x3 + c x4, so the squares
        # span {x2, x3, x4} (cross terms [x1,x2], [x1,x3] do not cancel)
        algebra = cyclic4(GF(5))
        squares = []
        for combo in itertools.product(range(5), repeat=4):
            v = algebra.vector(combo)
            squares.append(algebra.bracket(v, v))
        oracle = Subspace.span(GF(5), 4, squares)
        assert algebra.leib_ideal() == oracle
        assert oracle == algebra.subspace([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])

    def test_leib_is_left_annihilating_ideal(self):
        for name, field in (("cex_A8", GF(3)), ("A19", GF(5)), ("cyclic_example4", QQ)):
            algebra = instantiate(name, field, {})
            leib = algebra.leib_ideal()
            assert algebra.is_ideal(leib)
            assert algebra.span_products(leib, algebra.full_space()).is_zero()


class TestCenters:
    def test_heisenberg_center(self):
        algebra = heisenberg(GF(3))
        assert algebra.center() == algebra.subspace([[0, 0, 1]])

    def test_cyclic4_center(self):
        algebra = cyclic4(GF(5))
        assert algebra.center() == algebra.subspace([[0, 0, 0, 1]])

    def test_abelian_center_full(self):
        algebra = LeibnizAlgebra.from_table(3, GF(2), [])
        assert algebra.center().is_full()

    @pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
    def test_one_sided_product(self, field):
        # [x, y] = y with [y, x] = 0: y is in the left center, not the center
        algebra = LeibnizAlgebra.from_table(2, field, [(1, 2, {2: 1})])
        assert algebra.check_leibniz() == []
        assert algebra.center().is_zero()
        assert algebra.left_center() == algebra.subspace([[0, 1]])

    def test_center_inside_left_center(self):
        for name in ("heisenberg3", "cex_A8", "A19", "cyclic_example4"):
            algebra = instantiate(name, GF(5), {})
            assert algebra.left_center().contains_space(algebra.center())

    def test_left_center_of_first_maximal(self):
        # in the six-dimensional family, the maximal containing t has a
        # two-dimensional left center spanned by z and an x/y combination
        import leibalg

        field = GF(5)
        prm = leibalg.sample_params("A1_6dim", field)
        algebra = instantiate("A1_6dim", field, prm)
        m1 = algebra.subspace(
            [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
             [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
        )
        induced = algebra.restrict(m1)
        left = induced.left_center()
        assert left.dim == 2
        assert left.contains([0, 0, 0, 0, 1])  # the central z line
        assert algebra.left_center().dim == 1  # the whole algebra: only z


class TestIdealsQuotients:
    def test_center_is_ideal(self):
        algebra = heisenberg(GF(3))
        assert algebra.is_ideal(algebra.subspace([[0, 0, 1]]))

    def test_non_ideal(self):
        algebra = cyclic4(GF(5))
        assert not algebra.is_ideal(algebra.subspace([[1, 0, 0, 0]]))

    def test_zero_is_ideal(self):
        algebra = cyclic4(GF(5))
        assert algebra.is_ideal(algebra.zero_space())

    @pytest.mark.parametrize("p", [2, 3])
    def test_is_ideal_matches_span_products_on_every_subspace(self, p):
        # is_ideal against the products [e_i, r] and [r, e_i], r a basis row
        # of u, bracketed and reduced modulo u on the boxed table, on towers,
        # fixed forms and random tables (the identity is not needed)
        from leibalg.randomgen import random_nilpotent_algebra
        from leibalg.reproduce import enumerate_subspaces

        field = GF(p)
        rng = random.Random(p)
        algebras = [heisenberg(field), cyclic4(field).quotient(
            cyclic4(field).subspace([[0, 0, 0, 1]])).algebra]
        algebras += [random_nilpotent_algebra(rng, field, rng.randrange(1, 4)) for _ in range(12)]
        for _ in range(12):
            n = rng.randrange(1, 4)
            table = [
                [[rng.randrange(p) if rng.random() < 0.3 else 0 for _ in range(n)]
                 for _ in range(n)]
                for _ in range(n)
            ]
            algebras.append(LeibnizAlgebra(field, table))
        verdicts = set()
        for algebra in algebras:
            for u in enumerate_subspaces(algebra.full_space(), 0):
                expected = all(
                    boxed_in_span(u, boxed_product(algebra.table, a, b))
                    for r in u.rows
                    for e in algebra.full_space().rows
                    for a, b in ((e, r), (r, e))
                )
                assert algebra.is_ideal(u) == expected, (algebra.table, u.rows)
                verdicts.add(expected)
        assert verdicts == {True, False}

    def test_quotient_heisenberg(self):
        algebra = heisenberg(GF(3))
        q = algebra.quotient(algebra.subspace([[0, 0, 1]]))
        assert q.algebra.dim == 2
        assert q.algebra.derived().is_zero()
        assert q.algebra.check_leibniz() == []

    def test_quotient_by_zero(self):
        algebra = cyclic4(GF(5))
        q = algebra.quotient(algebra.zero_space())
        assert q.algebra == algebra

    def test_quotient_cyclic4(self):
        for field in (GF(5), QQ):
            algebra = cyclic4(field)
            q = algebra.quotient(algebra.subspace([[0, 0, 0, 1]]))
            expected = LeibnizAlgebra.from_table(
                3, field, [(1, 1, {2: 1}), (1, 2, {3: 1})]
            )
            assert q.algebra == expected
            assert q.algebra.check_leibniz() == []

    def test_quotient_requires_ideal(self):
        algebra = cyclic4(GF(5))
        with pytest.raises(NotAnIdeal):
            algebra.quotient(algebra.subspace([[1, 0, 0, 0]]))

    def test_quotient_projection_maps(self):
        algebra = cyclic4(GF(7))
        ideal = algebra.subspace([[0, 0, 0, 1]])
        q = algebra.quotient(ideal)
        v = algebra.vector([1, 2, 3, 4])
        proj = q.project_vector(v)
        assert ideal.contains(
            tuple(a - b for a, b in zip(v, q.lift_vector(proj)))
        )
        assert q.preimage(q.algebra.full_space()) == algebra.full_space()

    def test_quotient_dims(self):
        for name in ("cex_A8", "A19"):
            algebra = instantiate(name, GF(3), {})
            for rows in ([algebra.center().rows[0]],):
                ideal = Subspace.span(algebra.field, algebra.dim, rows)
                q = algebra.quotient(ideal)
                assert q.algebra.dim == algebra.dim - ideal.dim
                assert q.algebra.check_leibniz() == []


FOREIGN_SUBSPACES = {
    "other_prime": lambda: Subspace.span(GF(7), 3, [[0, 0, 1]]),
    "rationals": lambda: Subspace.span(QQ, 3, [[0, 0, 1]]),
    "wrong_dim": lambda: Subspace.span(GF(5), 4, [[0, 0, 0, 1]]),
}


class TestForeignSubspaces:
    """Every method taking a subspace rejects one that is not in the algebra."""

    @pytest.fixture(params=sorted(FOREIGN_SUBSPACES))
    def foreign(self, request):
        return FOREIGN_SUBSPACES[request.param]()

    def assert_rejected(self, call):
        with pytest.raises(BadVector, match="subspace does not live in this algebra"):
            call()

    def test_span_products(self, foreign):
        algebra = heisenberg(GF(5))
        full = algebra.full_space()
        self.assert_rejected(lambda: algebra.span_products(foreign, full))
        self.assert_rejected(lambda: algebra.span_products(full, foreign))

    def test_is_ideal(self, foreign):
        algebra = heisenberg(GF(5))
        self.assert_rejected(lambda: algebra.is_ideal(foreign))

    def test_centralizer_mod(self, foreign):
        algebra = heisenberg(GF(5))
        self.assert_rejected(lambda: algebra.centralizer_mod(foreign))

    def test_quotient(self, foreign):
        algebra = heisenberg(GF(5))
        self.assert_rejected(lambda: algebra.quotient(foreign))

    def test_restrict(self, foreign):
        algebra = heisenberg(GF(5))
        self.assert_rejected(lambda: algebra.restrict(foreign))

    def test_rational_algebra_rejects_a_prime_field_subspace(self):
        algebra = heisenberg(QQ)
        foreign = Subspace.span(GF(5), 3, [[0, 0, 1]])
        for call in (
            lambda: algebra.span_products(foreign, foreign),
            lambda: algebra.is_ideal(foreign),
            lambda: algebra.centralizer_mod(foreign),
            lambda: algebra.quotient(foreign),
            lambda: algebra.restrict(foreign),
        ):
            self.assert_rejected(call)


class TestDirectSum:
    def test_split_coclass_two(self):
        field = GF(5)
        plane = LeibnizAlgebra.from_table(2, field, [(1, 1, {2: 1})])
        total = plane.direct_sum(plane)
        # matches the split four-dimensional algebra up to basis order
        split = instantiate("cc2_split4", field, {})
        reordered = LeibnizAlgebra.from_table(
            4, field, [(1, 1, {2: 1}), (3, 3, {4: 1})]
        )
        assert total == reordered
        from leibalg import is_isomorphic

        assert is_isomorphic(total, split).status == "yes"

    def test_sum_with_zero_dim(self):
        algebra = cyclic4(GF(5))
        zero = LeibnizAlgebra.from_table(0, GF(5), [])
        assert algebra.direct_sum(zero) == algebra

    def test_heisenberg_plus_line(self):
        algebra = heisenberg(GF(3)).direct_sum(LeibnizAlgebra.from_table(1, GF(3), []))
        assert algebra.center().dim == 2

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            heisenberg(GF(3)).direct_sum(heisenberg(GF(5)))

    def test_summands_embed_as_ideals(self):
        a = heisenberg(GF(3))
        b = instantiate("cex_fourdim_A1", GF(3), {})
        total = a.direct_sum(b)
        zero = GF(3)(0)
        left = Subspace.span(GF(3), 7, [tuple(r) + (zero,) * 4 for r in a.full_space().rows])
        right = Subspace.span(GF(3), 7, [(zero,) * 3 + tuple(r) for r in b.full_space().rows])
        assert total.is_ideal(left)
        assert total.is_ideal(right)

    def test_center_splits(self):
        a = heisenberg(GF(3))
        b = instantiate("cex_fourdim_A1", GF(3), {})
        total = a.direct_sum(b)
        za, zb = a.center(), b.center()
        lifted = [tuple(r) + (GF(3)(0),) * 4 for r in za.rows]
        lifted += [(GF(3)(0),) * 3 + tuple(r) for r in zb.rows]
        assert total.center() == Subspace.span(GF(3), 7, lifted)


class TestSplitCodimOneCenter:
    def test_cyclic_plane(self):
        field = GF(5)
        algebra = LeibnizAlgebra.from_table(2, field, [(1, 1, {2: 1})])
        i_space, j_space = algebra.split_codim1_center()
        assert i_space == algebra.full_space()
        assert j_space.is_zero()

    def test_three_dim_with_central_line(self):
        field = GF(3)
        algebra = LeibnizAlgebra.from_table(3, field, [(1, 1, {3: 1})])
        i_space, j_space = algebra.split_codim1_center()
        assert i_space == algebra.subspace([[1, 0, 0], [0, 0, 1]])
        assert j_space == algebra.subspace([[0, 1, 0]])
        assert algebra.is_ideal(i_space) and algebra.is_ideal(j_space)

    def test_heisenberg_not_applicable(self):
        with pytest.raises(NotApplicable):
            heisenberg(GF(3)).split_codim1_center()


class TestRestrictAndMisc:
    def test_restrict_requires_closure(self):
        algebra = cyclic4(GF(5))
        open_subspace = algebra.subspace([[1, 0, 0, 0], [0, 1, 0, 0]])
        with pytest.raises(NotASubalgebra):
            algebra.restrict(open_subspace)

    def test_is_nilpotent(self):
        assert is_nilpotent(heisenberg(GF(3)))
        solvable = LeibnizAlgebra.from_table(
            2, GF(3), [(1, 2, {2: 1}), (2, 1, {2: -1})]
        )
        assert solvable.check_leibniz() == []
        assert not is_nilpotent(solvable)

    def test_immutability(self):
        algebra = heisenberg(GF(3))
        with pytest.raises(AttributeError):
            algebra.dim = 5
        with pytest.raises(AttributeError):
            algebra.labels = ("a", "b", "c")

    def test_default_labels_are_formatted_on_first_read(self):
        algebra = heisenberg(GF(3))
        induced = [m.induced for m in enumerate_maximal(algebra)]
        assert all(m._labels is None for m in induced)
        assert [m.labels for m in induced] == [("x1", "x2")] * len(induced)
        assert induced[0].labels is induced[0].labels
        named = LeibnizAlgebra.from_table(2, GF(3), [], labels=("u", "v"))
        assert named.labels == ("u", "v")
        assert named.direct_sum(induced[0]).labels == ("u'", "v'", "x1''", "x2''")


def test_result_records_hold_no_instance_dict():
    # slotted records keep dataclass equality, hash and repr
    from dataclasses import FrozenInstanceError

    from leibalg.constraints import RelationCheck, VerificationReport
    from leibalg.core import LeibnizViolation
    from leibalg.maximal import IsoVerdict, MaximalPairWitness
    from leibalg.reproduce import ReportEntry

    first, second = enumerate_maximal(heisenberg(GF(3)))[:2]
    check = RelationCheck("pass", "spans agree")
    records = {
        IsoVerdict("no", reason="dimensions differ", invariant=("dim", 2, 3)):
            "IsoVerdict(status='no', matrix=None, reason='dimensions differ', "
            "invariant=('dim', 2, 3))",
        MaximalPairWitness(first, second, "differ"): None,
        check: "RelationCheck(status='pass', detail='spans agree')",
        VerificationReport(check, check, check):
            "VerificationReport(relations_imply_constraints="
            + repr(check) + ", constraints_imply_relations=" + repr(check)
            + ", minimal=" + repr(check) + ")",
        ReportEntry("id", "a claim", "pass", "held", 3):
            "ReportEntry(claim_id='id', description='a claim', verdict='pass', "
            "evidence='held', elapsed_ms=3)",
        LeibnizViolation(1, 2, 3, (QQ(1),)):
            "LeibnizViolation(i=1, j=2, k=3, residual=(<1 in Q>,))",
    }
    for record, text in records.items():
        cls = type(record)
        assert not hasattr(record, "__dict__"), cls
        assert "__slots__" in vars(cls), cls
        twin = copy.copy(record)
        assert twin == record and hash(twin) == hash(record) and twin is not record
        if text is not None:
            assert repr(record) == text
        with pytest.raises(FrozenInstanceError):
            setattr(record, next(iter(cls.__dataclass_fields__)), None)
        # a name that is no field has no slot; before Python 3.12 the frozen
        # __setattr__ of a slotted dataclass reports it with TypeError
        with pytest.raises((AttributeError, TypeError)):
            record.extra = 1
