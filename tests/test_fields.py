"""Exact field arithmetic: construction, canonical forms, squares."""

import random
from fractions import Fraction

import pytest

from leibalg import (
    GF,
    QQ,
    ConstructionError,
    DivisionByZero,
    Field,
    FieldMismatch,
    ParseError,
    is_square,
    sqrt,
)
from leibalg.fields import PRIMALITY_BOUND, is_prime


class TestConstruction:
    def test_prime_field(self):
        field = GF(5)
        assert field.is_finite()
        assert field.modulus == 5
        assert field.characteristic == 5

    def test_composite_modulus_rejected(self):
        with pytest.raises(ConstructionError):
            GF(4)

    def test_rationals(self):
        assert not QQ.is_finite()
        assert QQ.characteristic == 0

    def test_large_prime_accepted(self):
        GF(101)
        GF(7919)

    def test_parse_literals(self):
        assert Field.parse("Q") == QQ
        assert Field.parse("GF(7)") == GF(7)
        assert str(GF(7)) == "GF(7)"
        assert str(QQ) == "Q"


class TestArithmetic:
    def test_mul_mod7(self):
        field = GF(7)
        assert field(2) * field(4) == field(1)

    def test_inv_zero_rationals(self):
        with pytest.raises(DivisionByZero):
            QQ(0).inv()

    def test_rational_addition(self):
        assert QQ(Fraction(1, 2)) + QQ(Fraction(1, 3)) == QQ(Fraction(5, 6))

    def test_field_mismatch_rejected(self):
        with pytest.raises(FieldMismatch):
            GF(5)(1) + GF(7)(1)
        with pytest.raises(FieldMismatch):
            QQ(1) * GF(3)(1)

    def test_int_coercion(self):
        assert GF(5)(3) + 4 == GF(5)(2)
        assert 2 * QQ(Fraction(1, 4)) == QQ(Fraction(1, 2))

    def test_division(self):
        assert GF(7)(3) / GF(7)(5) == GF(7)(2)  # 3 * 5^-1 = 3 * 3 = 9 = 2
        with pytest.raises(DivisionByZero):
            GF(7)(3) / GF(7)(0)

    def test_pow(self):
        assert GF(7)(3) ** 6 == GF(7)(1)
        assert QQ(2) ** -2 == QQ(Fraction(1, 4))

    def test_inverse_law_everywhere(self):
        for p in (2, 3, 5, 11):
            field = GF(p)
            for x in field.elements():
                if x:
                    assert x * x.inv() == field.one()
        for v in (Fraction(3, 7), Fraction(-2, 5), Fraction(12)):
            x = QQ(v)
            assert x * x.inv() == QQ.one()

    def test_canonical_forms(self):
        # residues reduced, fractions in lowest terms with positive denominator
        assert GF(5)(12).value == 2
        assert GF(5)(-1).value == 4
        x = QQ(Fraction(6, -4))
        assert x.value == Fraction(-3, 2)
        assert x.value.denominator == 2
        # renormalizing a stored value changes nothing
        assert QQ(x.value) == x
        assert GF(5)(GF(5)(3).value) == GF(5)(3)

    def test_scalar_literals(self):
        assert QQ("3/4") == QQ(Fraction(3, 4))
        assert QQ("-12") == QQ(-12)
        assert GF(7)("10") == GF(7)(3)
        assert GF(7)("1/2") == GF(7)(4)  # residues may come as fractions


class TestSquares:
    def test_two_mod_three_not_square(self):
        # oracle: enumerate squares mod 3 = {0, 1}
        squares = {(y * y) % 3 for y in range(3)}
        assert squares == {0, 1}
        assert not is_square(GF(3)(2))

    def test_two_mod_seven_square(self):
        assert is_square(GF(7)(2))  # 3*3 = 9 = 2
        assert sqrt(GF(7)(2)) == GF(7)(3)

    def test_rational_square(self):
        assert is_square(QQ(Fraction(4, 9)))
        assert sqrt(QQ(Fraction(4, 9))) == QQ(Fraction(2, 3))
        assert not is_square(QQ(-1))
        assert not is_square(QQ(2))

    def test_sqrt_missing(self):
        assert sqrt(GF(3)(2)) is None

    def test_zero_sqrt(self):
        assert sqrt(GF(11)(0)) == GF(11)(0)
        assert sqrt(QQ(0)) == QQ(0)

    def test_sqrt_returns_smaller_residue(self):
        # oracle: exhaustive roots; the function must pick the smaller
        for p in (5, 7, 11, 13):
            field = GF(p)
            for x in range(p):
                roots = [r for r in range(p) if r * r % p == x]
                got = sqrt(field(x))
                if roots:
                    assert got == field(min(roots))
                else:
                    assert got is None

    def test_tonelli_shanks_matches_exhaustive_scan(self):
        # primes = 1 mod 8 (17, 41, 97, 113) give 2-adic order s >= 3, so
        # the inner loop of Tonelli-Shanks runs more than once
        for p in (2, 3, 5, 13, 17, 41, 97, 113):
            field = GF(p)
            for x in range(p):
                scan = next((r for r in range(p // 2 + 1) if r * r % p == x), None)
                got = sqrt(field(x))
                if scan is None:
                    assert got is None, (p, x)
                else:
                    assert got == field(scan), (p, x)

    def test_sqrt_at_a_large_prime(self):
        p = 1_000_003
        field = GF(p)
        for r in (1, 2, 12345, 499_999, 500_001, 999_999):
            root = sqrt(field(r * r))
            assert root is not None and root.value == min(r, p - r)
        non_residue = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)
        assert sqrt(field(non_residue)) is None

    def test_square_of_square(self):
        for p in (3, 5, 7):
            for x in GF(p).elements():
                assert is_square(x * x)
                root = sqrt(x * x)
                assert root is not None and root * root == x * x

    def test_square_count_odd_primes(self):
        # exactly (p-1)/2 nonzero squares, verified by exhaustion for p <= 97
        odd_primes = [
            3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
            53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
        ]
        for p in odd_primes:
            field = GF(p)
            count = sum(1 for x in field.elements() if x and is_square(x))
            assert count == (p - 1) // 2

    def test_gf2_everything_square(self):
        assert is_square(GF(2)(0)) and is_square(GF(2)(1))


class TestSharedScalars:
    def test_one_field_object_per_prime(self):
        assert GF(7) is GF(7)
        assert Field.parse("GF(7)") is GF(7)

    def test_separately_built_field_interoperates(self):
        other = Field("prime", 7)
        assert other == GF(7) and hash(other) == hash(GF(7))
        assert other(3) + GF(7)(5) == GF(7)(1)
        assert GF(7)(3) * other(5) == other(1)
        assert GF(7)(other(4)) == GF(7)(4)
        assert {other(2), GF(7)(2)} == {GF(7)(2)}

    def test_results_are_the_shared_elements(self):
        field = GF(7)
        assert field(3) == field(10) == field(Fraction(3)) == field("-4")
        assert field(3) + field(5) == field(1)
        assert field(3) - field(5) == field(5)
        assert field(3) * field(5) == field(1)
        assert -field(3) == field(4)
        assert field(3).inv() == field(5)
        assert field(field(2)) == field(2)
        assert list(field.elements()) == [field(i) for i in range(7)]

    def test_mixed_fields_still_rejected(self):
        with pytest.raises(FieldMismatch):
            GF(5)(1) + GF(7)(1)
        with pytest.raises(FieldMismatch):
            GF(5)(GF(7)(1))

    @pytest.mark.parametrize("p", [7, 101, 10007, 2**61 - 1])
    def test_arithmetic_matches_integers(self, p):
        field = GF(p)
        rng = random.Random(p)
        for _ in range(200):
            a, b = rng.randrange(-p * p, p * p), rng.randrange(1, p)
            x, y = field(a), field(b)
            assert x.value == a % p
            assert (x + y).value == (a + b) % p
            assert (x - y).value == (a - b) % p
            assert (x * y).value == (a * b) % p
            assert (-x).value == -a % p
            assert (y.inv() * b).value == 1
            assert (x / y).value == a * pow(b, -1, p) % p
            assert field(Fraction(a, b)) == x / y
        assert field(Fraction(1, 2)).value == (p + 1) // 2


class TestRaw:
    """``Field.raw`` is the value ``Field.__call__`` boxes, with the same errors."""

    @pytest.mark.parametrize("field", [GF(2), GF(5), GF(7), GF(101), QQ], ids=str)
    def test_raw_is_the_boxed_value(self, field):
        p = field.characteristic or 13
        values = [-7, -p - 3, p, p + 4, 3 * p * p + 2, 0, Fraction(-5, 3), Fraction(2 * p, 4),
                  " -12/9 ", "7", field(4), Field.parse(str(field))(-2)]
        for value in values:
            raw = field.raw(value)
            assert raw == field(value).value
            assert raw.__class__ is (Fraction if field is QQ else int)
            if field is not QQ:
                assert 0 <= raw < p

    @pytest.mark.parametrize("field", [GF(5), QQ], ids=str)
    def test_raw_raises_what_the_call_raises(self, field):
        bad = [("1/0", DivisionByZero), (1.5, ConstructionError), (None, ConstructionError),
               (GF(3)(1), FieldMismatch), ("x", ParseError)]
        if field is not QQ:
            bad += [(Fraction(1, 5), DivisionByZero), (Fraction(2, 15), DivisionByZero)]
        for value, error in bad:
            with pytest.raises(error):
                field.raw(value)
            with pytest.raises(error):
                field(value)


class TestPrimalityBound:
    def test_prime_below_the_bound_accepted(self):
        below = 318665857834031151167441  # the largest prime under the bound
        assert below < PRIMALITY_BOUND
        assert is_prime(below)
        assert GF(below).modulus == below

    def test_bound_itself_rejected(self):
        # psi_12 is composite yet passes Miller-Rabin for all twelve witnesses
        assert PRIMALITY_BOUND == 399165290221 * 798330580441
        with pytest.raises(ConstructionError, match=str(PRIMALITY_BOUND)):
            GF(PRIMALITY_BOUND)
        with pytest.raises(ValueError):
            is_prime(PRIMALITY_BOUND)

    def test_prime_above_the_bound_rejected(self):
        above = 318665857834031151167483  # the smallest prime over the bound
        with pytest.raises(ConstructionError, match=str(PRIMALITY_BOUND)):
            GF(above)
