"""Central series, nilpotency class, coclass, Frattini subalgebra, cyclicity.

Lower central series: A^1 = A, A^{i+1} = [A, A^i].  Upper central series:
Z_0 = 0 and Z_i = {x : [x, A] and [A, x] lie in Z_{i-1}}, computed by a
linear solve per step.  For a nilpotent algebra both series have the same
number of strict steps; that common length is the class, and
coclass = dim - class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import LeibnizAlgebra
from .errors import InternalError, NotNilpotent
from .linalg import Subspace, Vector


@dataclass(frozen=True)
class SeriesProfile:
    """Dimension profiles of both central series plus class and coclass."""

    lower_dims: tuple[int, ...]
    upper_dims: tuple[int, ...]
    nilpotent: bool
    cls: int | None
    coclass: int | None


def lower_central_series(algebra: LeibnizAlgebra) -> list[Subspace]:
    """Terms of the descending series until stabilization (listed once).

    A zero term is final, because [A, 0] = 0.
    """
    full = algebra.full_space()
    terms = [full]
    while not terms[-1].is_zero():
        nxt = algebra.span_products(full, terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return terms


def upper_central_series(algebra: LeibnizAlgebra) -> list[Subspace]:
    """Terms of the ascending series until stabilization (listed once).

    The full space is final, because every bracket lies in it.
    """
    terms = [algebra.zero_space()]
    while not terms[-1].is_full():
        nxt = algebra.centralizer_mod(terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return terms


def nilpotency_data(algebra: LeibnizAlgebra) -> SeriesProfile:
    lower = lower_central_series(algebra)
    upper = upper_central_series(algebra)
    nilpotent = lower[-1].is_zero()
    cls = len(lower) - 1 if nilpotent else None
    coclass = algebra.dim - cls if cls is not None else None
    return SeriesProfile(
        lower_dims=tuple(t.dim for t in lower),
        upper_dims=tuple(t.dim for t in upper),
        nilpotent=nilpotent,
        cls=cls,
        coclass=coclass,
    )


def frattini(algebra: LeibnizAlgebra) -> Subspace:
    """The Frattini subalgebra of a nilpotent algebra, which equals [A, A].

    The intersection-of-maximals characterization is computed separately
    (over finite fields) for cross-validation.
    """
    if not lower_central_series(algebra)[-1].is_zero():
        raise NotNilpotent("Frattini shortcut phi(A) = [A, A] needs nilpotency")
    return algebra.derived()


def is_cyclic(algebra: LeibnizAlgebra) -> tuple[bool, Vector | None]:
    """Single-generator test: the derived subalgebra has codimension one.

    Returns (flag, witness); the witness is the lowest-index basis vector
    outside [A, A], verified to generate by iterated bracketing.  Algebras of
    dimension <= 1 count as cyclic with a trivial witness.
    """
    lower = lower_central_series(algebra)
    if not lower[-1].is_zero():
        raise NotNilpotent("cyclicity test defined for nilpotent algebras")
    if algebra.dim == 0:
        return True, None
    if algebra.dim == 1:
        return True, algebra.basis_vector(0)
    derived = lower[1] if len(lower) > 1 else algebra.derived()
    if derived.dim != algebra.dim - 1:
        return False, None
    witness = next(
        e for e in map(algebra.basis_vector, range(algebra.dim)) if not derived.contains(e)
    )
    if not _generated_subalgebra(algebra, witness).is_full():
        raise InternalError("a witness outside [A,A] of codimension one must generate")
    return True, witness


def _generated_subalgebra(algebra: LeibnizAlgebra, seed: Vector) -> Subspace:
    span = algebra.subspace([seed])
    while True:
        grown = list(span.rows)
        for u in span.rows:
            for v in span.rows:
                grown.append(algebra.bracket(u, v))
        nxt = algebra.subspace(grown)
        if nxt == span:
            return span
        span = nxt
