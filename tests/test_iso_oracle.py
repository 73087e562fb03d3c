"""Completeness of the isomorphism search against a brute-force oracle.

The oracle enumerates every invertible matrix over GF(p) and checks the
bracket-compatibility condition directly, so it is complete by
construction; the search must agree with it on both yes and no instances.
Kept to small dimensions where full GL(n, p) enumeration is affordable.
"""

import itertools
import random

import pytest

from leibalg import (
    GF,
    LeibnizAlgebra,
    check_p1,
    check_p2,
    instantiate,
    is_isomorphic,
    is_square,
)
from leibalg.catalog import sample_params
from leibalg.maximal import _assert_isomorphism, _search_isomorphism, _Side
from leibalg import _modp
from leibalg.randomgen import (
    change_of_basis,
    random_invertible_matrix,
    random_nilpotent_algebra,
)


def _residue_table(algebra: LeibnizAlgebra):
    return [[[c.value for c in cell] for cell in row] for row in algebra.table]


def _apply(table, x, y, p):
    """[x, y] from a dense residue table, with plain loops."""
    n = len(table)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            c = x[i] * y[j]
            if c:
                for k in range(n):
                    out[k] = (out[k] + c * table[i][j][k]) % p
    return out


def oracle_isomorphic(a: LeibnizAlgebra, b: LeibnizAlgebra) -> bool:
    ta, tb = _residue_table(a), _residue_table(b)
    p, n = a.field.modulus, a.dim
    for flat in itertools.product(range(p), repeat=n * n):
        rows = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        if _modp.rank(rows, p, n) < n:
            continue
        ok = True
        for i in range(n):
            for j in range(n):
                lhs = [0] * n
                for k in range(n):
                    c = ta[i][j][k]
                    if c:
                        lhs = [(acc + c * r) % p for acc, r in zip(lhs, rows[k])]
                if lhs != _apply(tb, rows[i], rows[j], p):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def cc1_table(field, tau, lam, eps):
    return LeibnizAlgebra.from_table(
        3,
        field,
        [(1, 1, {3: 1}), (2, 2, {3: tau}), (1, 2, {3: lam}), (2, 1, {3: eps})],
    )


class TestSearchAgainstOracle:
    def test_random_towers_gf2(self):
        rng = random.Random(2024)
        field = GF(2)
        algebras = [random_nilpotent_algebra(rng, field, 3) for _ in range(8)]
        for a in algebras:
            for b in algebras:
                expected = oracle_isomorphic(a, b)
                got = _search_isomorphism(_Side(a), _Side(b)) is not None or a.table == b.table
                assert got == expected, (a.table, b.table)

    def test_random_towers_gf3_dim2(self):
        rng = random.Random(77)
        field = GF(3)
        algebras = [random_nilpotent_algebra(rng, field, 2) for _ in range(8)]
        for a in algebras:
            for b in algebras:
                expected = oracle_isomorphic(a, b)
                got = _search_isomorphism(_Side(a), _Side(b)) is not None or a.table == b.table
                assert got == expected

    def test_coclass_one_pair_gf3(self):
        # tau = 1 (non-square discriminant) vs tau = 2 (square): the oracle
        # proves non-isomorphism and the search must agree by exhaustion
        a = cc1_table(GF(3), 1, 0, 0)
        b = cc1_table(GF(3), 2, 0, 0)
        assert not oracle_isomorphic(a, b)
        assert _search_isomorphism(_Side(a), _Side(b)) is None

    def test_coclass_one_scrambled_pair_gf3(self):
        # a random change of basis produces a genuinely isomorphic table;
        # oracle and search must both say yes
        from leibalg.randomgen import change_of_basis, random_invertible_matrix

        rng = random.Random(31)
        a = cc1_table(GF(3), 1, 0, 0)
        b = change_of_basis(a, random_invertible_matrix(rng, GF(3), 3))
        assert a.table != b.table
        assert oracle_isomorphic(a, b)
        assert _search_isomorphism(_Side(a), _Side(b)) is not None

    def test_antisymmetric_part_distinguishes(self):
        # equal discriminant class is not enough: [x,y] = z, [y,x] = 2z is
        # not isomorphic to the symmetric table, and both tools prove it
        a = cc1_table(GF(3), 1, 0, 0)
        b = cc1_table(GF(3), 1, 1, 2)  # same non-square discriminant 2
        assert not oracle_isomorphic(a, b)
        from leibalg import is_isomorphic

        assert is_isomorphic(a, b).status == "no"


class TestCentralNormalisation:
    """Generator images are searched with zero entries at the pivots of
    W = Z(B) meet [B,B]; on non-abelian nilpotent algebras W != 0, so these
    pairs exercise the normalisation, and the search must still find every
    isomorphism the oracle finds.  Over GF(5) only dim 2 is affordable, and
    there every non-abelian nilpotent algebra is [x, x] = y in some basis."""

    @pytest.mark.parametrize(
        "p, dim, seed, outcomes",
        [(2, 3, 11, {True, False}), (3, 3, 12, {True, False}), (5, 2, 13, {True})],
    )
    def test_agrees_with_oracle(self, p, dim, seed, outcomes):
        rng = random.Random(seed)
        field = GF(p)
        algebras = []
        while len(algebras) < 4:
            algebra = random_nilpotent_algebra(rng, field, dim)
            if not algebra.derived().is_zero():
                algebras.append(algebra)
        pairs = [(a, b) for a in algebras for b in algebras if a is not b]
        pairs += [
            (a, change_of_basis(a, random_invertible_matrix(rng, field, dim)))
            for a in algebras
        ]
        seen = set()
        for a, b in pairs:
            assert not b.center().intersect(b.derived()).is_zero()
            raw = _search_isomorphism(_Side(a), _Side(b))
            expected = oracle_isomorphic(a, b)
            assert (raw is not None) == expected, (a.table, b.table)
            if raw is not None:
                _assert_isomorphism(a, b, raw)
            seen.add(expected)
        assert seen == outcomes

    @pytest.mark.parametrize("p", [7, 13])
    @pytest.mark.parametrize("name", ["A1_6dim", "A3_6dim"])
    def test_scrambled_six_dim_copies(self, name, p):
        rng = random.Random(p)
        field = GF(p)
        a = instantiate(name, field, sample_params(name, field))
        b = change_of_basis(a, random_invertible_matrix(rng, field, a.dim))
        assert a.table != b.table
        verdict = is_isomorphic(a, b)
        assert verdict.status == "yes"
        _assert_isomorphism(a, b, [[c.value for c in row] for row in verdict.matrix])


class TestCoclassOneTheoremScan:
    def test_p2_iff_nonsquare_discriminant(self):
        # mechanical scan of the classification condition: for every
        # parameter triple with tau != 0, the table has P2 (equivalently P1)
        # exactly when (lambda+epsilon)^2 - 4*tau is a non-square
        for p in (3, 5):
            field = GF(p)
            for tau in range(1, p):
                for lam in range(p):
                    for eps in range(p):
                        algebra = cc1_table(field, tau, lam, eps)
                        disc = (field(lam) + field(eps)) ** 2 - 4 * field(tau)
                        expected = not is_square(disc)
                        assert check_p2(algebra)[0] == expected, (p, tau, lam, eps)
                        assert check_p1(algebra)[0] == expected, (p, tau, lam, eps)


class TestSixDimDiscriminantDependence:
    def test_p1_iff_nonsquare_quadratic(self):
        # the six-dimensional family: maximal span{mt+nu}+[A,A] has third
        # lower term spanned by (c m^2 + 3d mn + g n^2) z, so P1 holds
        # exactly when 9d^2 - 4cg is a non-square
        field = GF(5)
        for g in range(1, 5):
            params = {"c": -3, "g": g, "d": 1, "shat": 1, "rhat": 1}
            algebra = instantiate("A1_6dim", field, params)
            disc = field(9) - 4 * field(-3) * field(g)
            assert check_p1(algebra)[0] == (not is_square(disc)), g
