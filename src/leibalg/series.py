"""Central series, nilpotency class, coclass, Frattini subalgebra, cyclicity.

Lower central series: A^1 = A, A^{i+1} = [A, A^i], each term read off the
structure cells with one elimination, the same body for GF(p) and Q.
Upper central series: Z_0 = 0 and Z_i = {x : [x, A] and [A, x] lie in
Z_{i-1}}.  Over GF(p) it carries the covectors vanishing on each term, so
a step is one elimination whose echelon rows are the next step's
covectors; over Q a step is the boxed ``centralizer_mod``.  For a
nilpotent algebra both series have the same number of strict steps; that
common length is the class, and coclass = dim - class.
"""

from __future__ import annotations

from functools import cached_property

from . import _modp
from .core import LeibnizAlgebra
from .errors import InternalError, NotApplicable, NotNilpotent
from .linalg import Subspace, Vector, _raw, _span_residues, vec_is_zero


class SeriesProfile:
    """The central series of one algebra, and what is read off them.

    ``lower`` and ``upper`` are built on first read, by one call each of
    ``lower_central_series`` and ``upper_central_series``.  The dims, the
    class and coclass, [A, A] (``derived``) and Z(A) (``center``) are read
    off those terms, so a reader builds only the series it needs: the
    coclass needs the lower series alone.  ``cyclic`` and ``codim1_split``
    are built at most once.  Equality, hashing and printing use the five
    values ``lower_dims``, ``upper_dims``, ``nilpotent``, ``cls`` and
    ``coclass``; the algebra and the terms take no part.
    """

    _VALUES = ("lower_dims", "upper_dims", "nilpotent", "cls", "coclass")

    def __init__(self, algebra: LeibnizAlgebra):
        self.algebra = algebra

    @cached_property
    def lower(self) -> tuple[Subspace, ...]:
        return tuple(lower_central_series(self.algebra))

    @cached_property
    def upper(self) -> tuple[Subspace, ...]:
        return tuple(upper_central_series(self.algebra))

    @property
    def lower_dims(self) -> tuple[int, ...]:
        return tuple(t.dim for t in self.lower)

    @property
    def upper_dims(self) -> tuple[int, ...]:
        return tuple(t.dim for t in self.upper)

    @property
    def nilpotent(self) -> bool:
        return self.lower[-1].is_zero()

    @property
    def cls(self) -> int | None:
        return len(self.lower) - 1 if self.nilpotent else None

    @property
    def coclass(self) -> int | None:
        cls = self.cls
        return self.algebra.dim - cls if cls is not None else None

    @property
    def derived(self) -> Subspace:
        return _second(self.lower)

    @property
    def center(self) -> Subspace:
        return _second(self.upper)

    @property
    def frattini(self) -> Subspace:
        """The Frattini subalgebra of a nilpotent algebra, which equals [A, A]."""
        if not self.nilpotent:
            raise NotNilpotent("Frattini shortcut phi(A) = [A, A] needs nilpotency")
        return self.derived

    @cached_property
    def cyclic(self) -> tuple[bool, Vector | None]:
        """``is_cyclic``: the flag and the witness."""
        if not self.nilpotent:
            raise NotNilpotent("cyclicity test defined for nilpotent algebras")
        algebra = self.algebra
        if algebra.dim == 0:
            return True, None
        if algebra.dim == 1:
            return True, algebra.basis_vector(0)
        derived = self.derived
        if derived.dim != algebra.dim - 1:
            return False, None
        witness = next(
            e for e in map(algebra.basis_vector, range(algebra.dim)) if not derived.contains(e)
        )
        if not _generated_subalgebra(algebra, witness).is_full():
            raise InternalError("a witness outside [A,A] of codimension one must generate")
        return True, witness

    @cached_property
    def codim1_split(self) -> tuple[Subspace, Subspace]:
        """``LeibnizAlgebra.split_codim1_center``, with Z(A) read off the upper series."""
        if not self.nilpotent:
            raise NotApplicable("decomposition defined for nilpotent algebras")
        algebra, z = self.algebra, self.center
        if z.dim != algebra.dim - 1:
            raise NotApplicable(f"center has dimension {z.dim}, expected {algebra.dim - 1}")
        a = next(e for e in map(algebra.basis_vector, range(algebra.dim)) if not z.contains(e))
        a2 = algebra.bracket(a, a)
        if vec_is_zero(a2):
            raise NotApplicable("chosen generator squares to zero")  # cannot happen
        i_space = algebra.subspace([a, a2])
        # canonical complement of span{a2} inside the center: keep center rows
        # that stay independent after a2 and the rows kept before them.
        field, n = algebra.field, algebra.dim
        p = field.characteristic
        rows = []
        acc, acc_pivots = _modp.rref([_raw(field, a2)], p, n)
        for row in z._res_rows:
            if not _modp.contains(row, acc, acc_pivots, p):
                rows.append(row)
                acc, acc_pivots = _modp.rref(acc + [row], p, n)
        j_space = _span_residues(field, n, rows)
        if not (algebra.is_ideal(i_space) and algebra.is_ideal(j_space)):
            raise NotApplicable("decomposition summands failed the ideal check")
        if not i_space.intersect(j_space).is_zero():
            raise NotApplicable("decomposition summands are not independent")
        if i_space.sum_with(j_space).dim != algebra.dim:
            raise NotApplicable("decomposition does not fill the algebra")
        return i_space, j_space

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._VALUES)

    def __eq__(self, other):
        return isinstance(other, SeriesProfile) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        values = ", ".join(f"{name}={value!r}" for name, value in zip(self._VALUES, self._values()))
        return f"SeriesProfile({values})"


def _second(terms) -> Subspace:
    """The second term of a central series, or its only one.

    That is [A, A] for the lower series and Z(A) for the upper one: a
    series stops after one term exactly when A = 0, A = [A, A] or
    Z(A) = 0.
    """
    return terms[1] if len(terms) > 1 else terms[0]


def lower_central_series(algebra: LeibnizAlgebra) -> list[Subspace]:
    """Terms of the descending series until stabilization (listed once).

    gamma_{k+1} = [A, gamma_k] is spanned by the [e_i, r] for the echelon
    rows r of gamma_k, and [e_i, r] = sum_j r_j [e_i, e_j] is read straight
    off the cells, with one ``_span_residues`` per term; the left factor is
    the basis vector, which matters for a non-Lie algebra.  Each term lies
    in the one before, so the series has stabilized once a step leaves the
    dimension unchanged; a zero term is final, because [A, 0] = 0.
    """
    field, n, cells = algebra.field, algebra.dim, algebra._cells
    zero = _modp._zero_one(field.characteristic)[0]
    terms = [algebra.full_space()]
    while not terms[-1].is_zero():
        products = []
        for r in terms[-1]._res_rows:
            support = [(j, rj) for j, rj in enumerate(r) if rj]
            for row in cells:
                v = None
                for j, rj in support:
                    for k, c in row[j]:
                        if v is None:
                            v = [zero] * n
                        v[k] += rj * c
                if v is not None:
                    products.append(v)
        nxt = _span_residues(field, n, products)
        if nxt.dim == terms[-1].dim:
            break
        terms.append(nxt)
    return terms


def upper_central_series(algebra: LeibnizAlgebra) -> list[Subspace]:
    """Terms of the ascending series until stabilization (listed once).

    Each term contains the one before, so the series has stabilized once a
    step leaves the dimension unchanged; the full space is final, because
    every bracket lies in it.  Over GF(p) the series carries covectors:
    ann Z_{i+1} = span{f o R_j, f o L_j : f in ann Z_i}, so the echelon rows
    of one step's equations are the covectors of the next, and each step is
    one elimination (``LeibnizAlgebra._centralizer_steps``).  Over Q each
    step is the boxed ``centralizer_mod``; its comment says why.
    """
    terms = [algebra.zero_space()]
    steps = None
    if algebra.field.is_finite():
        n = algebra.dim  # ann Z_0 is spanned by the coordinate covectors
        steps = algebra._centralizer_steps([[int(i == k) for k in range(n)] for i in range(n)])
    while not terms[-1].is_full():
        nxt = next(steps) if steps else algebra.centralizer_mod(terms[-1])
        if nxt.dim == terms[-1].dim:
            break
        terms.append(nxt)
    return terms


def nilpotency_data(algebra: LeibnizAlgebra) -> SeriesProfile:
    """The series profile of ``algebra``, with both series built."""
    profile = SeriesProfile(algebra)
    profile.lower, profile.upper  # build both series now
    return profile


def frattini(algebra: LeibnizAlgebra) -> Subspace:
    """The Frattini subalgebra of a nilpotent algebra, which equals [A, A].

    The intersection-of-maximals characterization is computed separately
    (over finite fields) for cross-validation.
    """
    return SeriesProfile(algebra).frattini


def is_cyclic(algebra: LeibnizAlgebra) -> tuple[bool, Vector | None]:
    """Single-generator test: the derived subalgebra has codimension one.

    Returns (flag, witness); the witness is the lowest-index basis vector
    outside [A, A], verified to generate by iterated bracketing.  Algebras of
    dimension <= 1 count as cyclic with a trivial witness.
    """
    return SeriesProfile(algebra).cyclic


def _generated_subalgebra(algebra: LeibnizAlgebra, seed: Vector) -> Subspace:
    span = algebra.subspace([seed])
    while True:
        nxt = span.sum_with(algebra.span_products(span, span))
        if nxt == span:
            return span
        span = nxt
