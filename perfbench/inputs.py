"""Seeded inputs made by the benchmark itself, in plain Python.

Nothing here imports the library: the matrices and tables are drawn from
a ``random.Random`` that the caller seeds from ``--seed``, so the same seed
always gives the same inputs.
"""

from __future__ import annotations

from fractions import Fraction


RATIONAL_SCALES = (Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(3))


def rational_matrix(rng, n: int) -> list:
    """A random invertible n x n matrix P*U*D of small rationals.

    P is a permutation, U is unit upper triangular with every entry above
    the diagonal +1 or -1, and D is diagonal with entries +-1/3, +-1/2, +-2
    or +-3.  Every seed gives the same shape of matrix, so the cost of the
    copies varies little from seed to seed.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    scales = [rng.choice((-1, 1)) * rng.choice(RATIONAL_SCALES) for _ in range(n)]
    upper = [
        [Fraction(rng.choice((-1, 1))) if j > i else Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    return [[upper[perm[i]][j] * scales[j] for j in range(n)] for i in range(n)]


FILTERED_DIM = 5
FILTERED_PARAMS = 12
FILTERED_CONSTANTS = 8


def filtered_table_text(rng) -> str:
    """A parametric table on e1..e5 with [e_i, e_j] in span{e_k : k > max(i, j)}.

    Of the 30 coefficient slots this filtration allows, a seeded choice of
    12 holds a free parameter, 8 hold a small nonzero constant and the rest
    are zero.
    """
    n = FILTERED_DIM
    slots = [
        (i, j, k)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for k in range(max(i, j) + 1, n + 1)
    ]
    rng.shuffle(slots)
    coeff = {}
    for idx, slot in enumerate(slots[:FILTERED_PARAMS]):
        coeff[slot] = f"q{idx + 1}"
    for slot in slots[FILTERED_PARAMS : FILTERED_PARAMS + FILTERED_CONSTANTS]:
        coeff[slot] = str(rng.choice((-3, -2, -1, 1, 2, 3)))
    names = " ".join(f"q{idx + 1}" for idx in range(FILTERED_PARAMS))
    lines = ["leibalg v1", f"params {names}", f"dim {n}"]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            terms = [f"{coeff[(i, j, k)]}*{k}" for k in range(1, n + 1) if (i, j, k) in coeff]
            if terms:
                lines.append(f"[{i},{j}] = " + " + ".join(terms))
    return "\n".join(lines) + "\n"
