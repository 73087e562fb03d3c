"""Canonical subspaces and exact linear algebra."""

import itertools

import pytest

from leibalg import GF, QQ, Subspace, _modp
from leibalg.errors import BadVector, FieldMismatch
from leibalg.linalg import nullspace, rref


def span(field, *vectors):
    return Subspace.span(field, len(vectors[0]), vectors)


class TestEchelon:
    def test_rref_canonical(self):
        field = GF(5)
        rows, pivots = rref([[field(2), field(4)], [field(1), field(2)]], field, 2)
        assert pivots == [0]
        assert rows == [(field(1), field(2))]

    def test_rref_identity_block(self):
        field = QQ
        rows, pivots = rref(
            [[field(1), field(2), field(3)], [field(0), field(1), field(4)]], field, 3
        )
        assert pivots == [0, 1]
        assert rows[0][1] == field(0)  # zeros above pivots

    def test_nullspace_orthogonal(self):
        field = GF(7)
        rows = [[field(1), field(2), field(3)]]
        for v in nullspace(rows, field, 3):
            assert sum((a * b for a, b in zip(rows[0], v)), field.zero()) == field.zero()


class TestInputChecks:
    def test_rref_rejects_elements_of_another_prime_field(self):
        # the GF(7) residues used to be read as GF(5) residues
        with pytest.raises(FieldMismatch):
            rref([[GF(7)(3), GF(7)(5)]], GF(5), 2)

    def test_rref_rejects_rational_elements_over_a_prime_field(self):
        # used to end in a TypeError from pow
        with pytest.raises(FieldMismatch):
            rref([[QQ(3), QQ(5)]], GF(5), 2)
        with pytest.raises(FieldMismatch):
            rref([[GF(5)(3), GF(5)(1)]], QQ, 2)

    def test_nullspace_rejects_short_rows(self):
        # used to end in an IndexError
        with pytest.raises(BadVector):
            nullspace([[GF(5)(0)]], GF(5), 2)
        with pytest.raises(BadVector):
            rref([[QQ(1), QQ(2), QQ(3)]], QQ, 2)

    def test_plain_ints_are_coerced(self):
        assert rref([[2, 4], [1, 2]], GF(5), 2) == ([(GF(5)(1), GF(5)(2))], [0])
        assert nullspace([[2, 4]], QQ, 2) == [(QQ(-2), QQ(1))]


class TestSubspace:
    def test_equality_by_canonical_basis(self):
        field = GF(3)
        a = span(field, [1, 1, 0], [0, 0, 1])
        b = span(field, [1, 1, 1], [0, 0, 2])
        assert a == b
        assert hash(a) == hash(b)
        # same pivots, different rows
        assert span(field, [1, 1, 0]) != span(field, [1, 2, 0])

    def test_containment_and_reduce(self):
        field = GF(5)
        s = span(field, [1, 2, 0])
        assert s.contains([2, 4, 0])
        assert not s.contains([1, 0, 0])
        reduced = s.reduce([field(1), field(0), field(3)])
        assert reduced[0] == field(0)

    def test_sum_and_intersection(self):
        field = GF(3)
        a = span(field, [1, 0, 0], [0, 1, 0])
        b = span(field, [0, 1, 0], [0, 0, 1])
        assert a.sum_with(b).dim == 3
        meet = a.intersect(b)
        assert meet.dim == 1
        assert meet.contains([0, 1, 0])

    @pytest.mark.parametrize("field", [GF(3), QQ])
    def test_contains_space_refuses_a_larger_space_on_its_dimension(self, field, monkeypatch):
        small = span(field, [1, 0, 1])
        large = span(field, [1, 0, 1], [0, 1, 0])
        assert large.contains_space(small) and small.contains_space(small)

        def membership(*args):
            raise AssertionError("a row was tested for membership")

        monkeypatch.setattr(_modp, "contains", membership)
        assert not small.contains_space(large)
        assert not Subspace.zero(field, 3).contains_space(small)
        # incompatible spaces are refused before their dimensions are compared
        with pytest.raises(FieldMismatch):
            small.contains_space(span(GF(5), [1, 0, 1], [0, 1, 0]))
        with pytest.raises(BadVector):
            small.contains_space(Subspace.full(field, 4))

    def test_intersection_exhaustive_oracle(self):
        # compare against direct membership over all vectors of GF(2)^4
        field = GF(2)
        a = Subspace.span(field, 4, [[1, 1, 0, 0], [0, 0, 1, 1]])
        b = Subspace.span(field, 4, [[1, 1, 1, 1], [1, 0, 1, 0]])
        meet = a.intersect(b)
        for combo in itertools.product(range(2), repeat=4):
            v = [field(c) for c in combo]
            assert meet.contains(v) == (a.contains(v) and b.contains(v))

    def test_coords_roundtrip(self):
        field = GF(7)
        s = span(field, [1, 2, 3], [0, 1, 5])
        v = s.linear_combination([field(2), field(3)])
        assert s.coords_of(v) == (field(2), field(3))
        assert s.coords_of([field(0), field(0), field(1)]) is None

    def test_coords_of_raw_ints_are_field_elements(self):
        field = GF(3)
        s = Subspace.span(field, 3, [[1, 0, 0], [0, 1, 0]])
        coords = s.coords_of([4, -1, 0])
        assert coords == (field(1), field(2))
        assert [c.value for c in coords] == [1, 2]
        assert all(c.field is field for c in coords)

        s = Subspace.span(QQ, 3, [[1, 0, 0], [0, 1, 0]])
        coords = s.coords_of([4, -1, 0])
        assert coords == (QQ(4), QQ(-1))
        assert all(c.field is QQ for c in coords)

    @pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
    def test_wrong_length_vectors_are_rejected(self, field):
        s = Subspace.span(field, 3, [[1, 0, 0]])
        for call, arg in (
            (s.contains, [1]),
            (s.reduce, [0, 1]),
            (s.coords_of, [1, 0, 0, 0]),
            (s.linear_combination, [1, 1]),
            (s.linear_combination, []),
        ):
            with pytest.raises(BadVector):
                call([field(a) for a in arg])
        assert s.contains([field(2), field(0), field(0)])
        assert s.linear_combination([field(2)]) == (field(2), field(0), field(0))

    @pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
    def test_constructor_rejects_rows_not_in_echelon_form(self, field):
        for rows, pivots in (
            ([[2, 2]], [0]),  # pivot entry not one
            ([[1, 1]], [1]),  # nonzero before the pivot
            ([[1, 1], [0, 1]], [0, 1]),  # nonzero at another pivot
            ([[0, 1], [1, 0]], [1, 0]),  # pivots not increasing
            ([[1, 0]], [0, 1]),  # fewer rows than pivots
            ([[1, 0], [0, 1]], [0]),  # more rows than pivots
            ([[1, 0, 0]], [0]),  # row of the wrong length
            ([[0, 0]], [2]),  # pivot outside the ambient space
        ):
            with pytest.raises(BadVector):
                Subspace(field, 2, [[field(a) for a in r] for r in rows], pivots)
        given = Subspace(field, 2, [[1, field(2)]], [0])
        assert given == span(field, [1, 2]) and given.contains([field(2), field(4)])
        assert Subspace(field, 2, [], []) == Subspace.zero(field, 2)
        assert Subspace(field, 2, [[1, 0], [0, 1]], [0, 1]) == Subspace.full(field, 2)
        assert Subspace(field, 3, [[1, 2, 0], [0, 0, 1]], [0, 2]).complement_coords() == (1,)

    def test_complement_coords(self):
        field = GF(3)
        s = span(field, [1, 0, 2], [0, 1, 1])
        assert s.pivots == (0, 1)
        assert s.complement_coords() == (2,)

    def test_annihilator_dims(self):
        field = GF(5)
        s = span(field, [1, 2, 3, 4])
        ann = s.annihilator()
        assert ann.dim == 3
        assert ann.annihilator() == s
