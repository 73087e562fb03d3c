"""Maximal subalgebras, isomorphism testing, and the P1/P2 properties.

For a nilpotent algebra over GF(p) the maximal subalgebras are exactly the
codimension-one subspaces containing the derived subalgebra, i.e. the
pullbacks of the (p^d - 1)/(p - 1) hyperplanes of A/[A,A]; this is
cross-validated against the intersection-of-maximals Frattini computation.

P1 means all maximal subalgebras are pairwise isomorphic; P2 means they all
share the same upper central series dimension profile (P1 implies P2).

Isomorphism search contract: over GF(p), for nilpotent algebras with
dim <= 7 and dim(A/[A,A]) <= 3, the search is complete -- a `no` answer is
an exhaustion proof -- as long as it generates at most
SEARCH_CANDIDATE_BOUND (20000) candidate generator images over all depths.
The number of candidates grows with p, so past that budget the search
raises SearchBoundExceeded instead of answering.

An isomorphism is determined by the images of a coset basis of A/[A,A];
candidate images are enumerated inside the affine solution spaces of
necessary linear conditions (membership in the series terms, the relations
of the generators found so far), filtered by per-element invariants, and
extended by bracketing with every induced product checked.

The images are also normalised by central automorphisms.  Lemma: let
W = Z(B) meet [B,B], with Z(B) the two-sided centre, and let f: B -> W be
linear with f([B,B]) = 0.  Then id + f is an automorphism of B: W is
central, so [x + f(x), y + f(y)] = [x, y] = (id + f)([x, y]), and
f(W) = 0, so f^2 = 0 and id - f is the inverse.  Images of generators are
independent modulo [B,B], so such an f may add any element of W to each of
them independently.  Hence if some isomorphism extends the images chosen
so far, one also does whose next image is zero at the pivot columns of W;
the search asks for those zeros as linear equations.  Every filter is a
necessary condition and the normalisation loses no isomorphism, so a
`no` stays an exhaustion proof, and the first map found in the fixed
deterministic order is returned.  The normalisation is the one of
O'Brien's p-group generation algorithm and of de Graaf's classification
of six-dimensional nilpotent Lie algebras.

The search runs on the integer residues of ``_modp`` throughout: the
algebras' sparse residue cells, the residue rows of their subspaces, and
the one residue bracket ``_modp.bracket``, which ``core`` uses for GF(p) as
well; only a found matrix is boxed.  Its linear algebra is the
``rref``-based functions of ``_modp``.  The bracket closure of each
generator prefix of the source is recorded once as a recipe, ``_Closure``:
the products that are new elements, and the coefficients of the others over
the elements, all from one ``_modp.coordinates``.  A candidate is replayed
by bracketing its images along the recipe, comparing the dependent
products, and one rank check that the images are independent.  A found
matrix is the coordinates of the standard basis over the closure elements,
applied to their images.  Maximal subalgebras are built on residues too:
the hyperplane pullbacks are spanned from residue rows, and the induced
algebras come straight from residue cells.

Each algebra of a decision has one record, ``_Side``: its lower and upper
central series are computed once, and the fingerprint (with Z(A) and
[A, A] read off their terms) and, when a search runs, the search data are
derived from them.  Each ``MaximalSubalgebra`` builds its record on first
use and keeps it for as long as the enumeration that made it lives, so
the comparisons of ``check_p1`` against the first and its transitivity spot
check share them.  Both ``check_p1`` and ``check_p2`` decide each distinct
induced table once per call, on the first maximal in tag order that carries
it: equal tables have equal verdicts and equal upper series, so the witness
is unchanged.  Nothing is cached on ``LeibnizAlgebra`` itself, and no memo
outlives a call.

Enumerations and pairwise checks are pure functions of immutable inputs,
so callers may evaluate distinct maximal subalgebras concurrently; output
lists are always sorted by hyperplane tag.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, fields as dataclass_fields
from functools import cached_property

from . import _modp
from .core import LeibnizAlgebra
from .errors import (
    FieldMismatch,
    InternalError,
    NeedsFiniteField,
    NotNilpotent,
    SearchBoundExceeded,
)
from .fields import FieldElement
from .linalg import Subspace, _span_residues
from .series import lower_central_series, nilpotency_data, upper_central_series

_SQUARE_PROFILE_LIMIT = 4096

_SEARCH_DIM_BOUND = 7
_SEARCH_GEN_BOUND = 3
# Candidate generator images one search may generate, summed over all
# depths.  The searches of `leibalg reproduce` stay below 400 and those of
# the test suite below 2000; an exhaustive "no" on three-dimensional
# coclass-one forms generates about 2(p^2 - 1) of them (1920 at GF(31)), so
# it is decided up to GF(97) and refused from GF(101) on.
SEARCH_CANDIDATE_BOUND = 20_000


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism invariants; equality is necessary for isomorphism.

    ``square_profile`` counts the vectors v with [v, v] = 0 and with
    [v, v] != 0.  It is computed over GF(p) when p^dim <= 4096 and is None
    otherwise.  [v + z, v + z] = [v, v] for z in the two-sided centre Z(A),
    so it is counted on the span C of the basis vectors e_c off the pivot
    columns of Z(A), a complement of Z(A); and [cv, cv] = c^2 [v, v], so on
    one vector of C per line through 0.  The zero count is
    p^(dim Z(A)) (1 + (p - 1) N), N the number of those vectors whose
    square vanishes.
    """

    dim: int
    lower_dims: tuple[int, ...]
    upper_dims: tuple[int, ...]
    leib_dim: int
    center_dim: int
    left_center_dim: int
    derived_dim: int
    square_profile: tuple[int, int] | None  # (# v with v*v = 0, # with v*v != 0)


def fingerprint(algebra: LeibnizAlgebra) -> Fingerprint:
    return _Side(algebra).fingerprint


class _Side:
    """One algebra of an isomorphism decision, with each invariant built once.

    The lower and upper central series are computed once, by
    ``nilpotency_data``, and everything else is read off their terms: the
    fingerprint, with Z(A) and [A, A] taken from the profile, and over
    GF(p), once a search needs them, the search data.  ``member_spaces``
    holds, per series term, its residue rows, pivots and annihilating
    covectors (v lies in the term iff every covector vanishes on v).
    ``central_pivots`` are the pivot columns of Z(B) meet [B,B], the
    coordinates a normalised generator image has equal to zero.  Over Q
    no search data is built.
    """

    def __init__(self, algebra: LeibnizAlgebra):
        self.algebra = algebra
        self.cells = algebra._cells
        self.p = algebra.field.modulus
        self.n = algebra.dim
        self.profile = nilpotency_data(algebra)
        self.derived = self.profile.derived
        self.fingerprint = Fingerprint(
            dim=algebra.dim,
            lower_dims=self.profile.lower_dims,
            upper_dims=self.profile.upper_dims,
            leib_dim=algebra.leib_ideal().dim,
            center_dim=self.profile.center.dim,
            left_center_dim=algebra.left_center().dim,
            derived_dim=self.derived.dim,
            square_profile=_square_profile(algebra, self.profile.center),
        )

    @cached_property
    def coset_coords(self) -> list[int]:
        return list(self.derived.complement_coords())

    @cached_property
    def member_spaces(self):
        p, n = self.p, self.n
        return [
            (s._res_rows, s.pivots, _modp.nullspace(s._res_rows, p, n))
            for s in self.profile.lower[1:] + self.profile.upper[1:]
        ]

    @cached_property
    def central_pivots(self) -> list[int]:
        return self.profile.center.intersect(self.derived).pivots

    def coset(self, v):
        derived = self.derived
        reduced = _modp.reduce_mod(v, derived._res_rows, derived.pivots, self.p)
        return [reduced[c] for c in self.coset_coords]

    def membership_profile(self, v):
        return tuple(
            _modp.contains(v, ech, piv, self.p) for ech, piv, _ in self.member_spaces
        )

    def square_is_zero(self, v) -> bool:
        return not any(_modp.bracket(self.cells, v, v, self.p))

    def mult_data(self, v):
        """(rank L_v, rank R_v, nilindex L_v, nilindex R_v)."""
        cells, p, n = self.cells, self.p, self.n
        zero = [0] * n
        lrows = _operator_rows(cells, v, zero, p)
        rrows = _operator_rows(cells, zero, v, p)
        return (
            _modp.rank(lrows, p, n),
            _modp.rank(rrows, p, n),
            _nilindex(lrows, p, n),
            _nilindex(rrows, p, n),
        )


def _square_profile(algebra: LeibnizAlgebra, center: Subspace) -> tuple[int, int] | None:
    """The square profile, counted on a complement of the centre ``center``."""
    if not algebra.field.is_finite():
        return None
    p, n = algebra.field.modulus, algebra.dim
    if p**n > _SQUARE_PROFILE_LIMIT:
        return None
    comp = center.complement_coords()
    v = [0] * n
    lines = 0
    for w in _normalized_vectors(p, len(comp)):
        for c, a in zip(comp, w):
            v[c] = a
        lines += not any(_modp.bracket(algebra._cells, v, v, p))
    zero = p**center.dim * (1 + (p - 1) * lines)
    return zero, p**n - zero


def _first_fingerprint_diff(a: Fingerprint, b: Fingerprint):
    for f in dataclass_fields(Fingerprint):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if va != vb:
            return (f.name, va, vb)
    return None


# ---------------------------------------------------------------------------
# maximal subalgebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaximalSubalgebra:
    """A codimension-one subalgebra containing [A, A].

    ``hyperplane_tag`` is the defining covector on A/[A,A] in projective
    normal form (first nonzero coordinate equal to one), stored as residues.
    ``induced`` is the algebra structure on the echelon basis of the
    subspace.
    """

    subspace: Subspace
    induced: LeibnizAlgebra
    hyperplane_tag: tuple[int, ...]

    @cached_property
    def _side(self) -> _Side:
        """The isomorphism record of ``induced``, built on first use."""
        return _Side(self.induced)


def enumerate_maximal(algebra: LeibnizAlgebra) -> list[MaximalSubalgebra]:
    """All maximal subalgebras, sorted by hyperplane tag.

    There are exactly (p^d - 1)/(p - 1) of them, d = dim(A/[A,A]): the
    pullbacks of the hyperplanes of A/[A,A].  Each contains the derived
    subalgebra, hence is closed under the bracket.
    """
    if not algebra.field.is_finite():
        raise NeedsFiniteField("maximal subalgebra enumeration needs GF(p)")
    return _enumerate_maximal(algebra, lower_central_series(algebra))


def _enumerate_maximal(algebra: LeibnizAlgebra, lower) -> list[MaximalSubalgebra]:
    """``enumerate_maximal`` on the lower central series the caller already has."""
    if not lower[-1].is_zero():
        raise NotNilpotent("maximal enumeration requires a nilpotent algebra")
    if len(lower) == 1:  # the zero algebra
        return []
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
        induced = algebra.restrict(subspace)
        result.append(MaximalSubalgebra(subspace, induced, tag))
    result.sort(key=lambda m: m.hyperplane_tag)
    return result


def _normalized_vectors(p: int, d: int):
    """One vector of GF(p)^d per line through 0: first nonzero coordinate 1."""
    for t0 in range(d):
        tail_len = d - t0 - 1
        for tail in itertools.product(range(p), repeat=tail_len):
            yield (0,) * t0 + (1,) + tail


def frattini_by_intersection(algebra: LeibnizAlgebra) -> Subspace:
    """Intersection of all maximal subalgebras (must equal [A, A])."""
    return _intersection(algebra, enumerate_maximal(algebra))


def _intersection(algebra: LeibnizAlgebra, maximals) -> Subspace:
    """The common zeros of the annihilating covectors of the maximal subspaces."""
    field, n = algebra.field, algebra.dim
    p = field.modulus
    covectors = [f for m in maximals for f in _modp.nullspace(m.subspace._res_rows, p, n)]
    return _span_residues(field, n, _modp.nullspace(covectors, p, n))


# ---------------------------------------------------------------------------
# isomorphism verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsoVerdict:
    """Outcome of an isomorphism test.

    ``yes`` carries the matrix whose row i is the image of the i-th basis
    vector of the source; ``no`` carries either the differing invariant or
    an exhaustion statement; ``unknown`` only occurs over Q with equal
    fingerprints.
    """

    status: str  # "yes" | "no" | "unknown"
    matrix: tuple[tuple[FieldElement, ...], ...] | None = None
    reason: str = ""
    invariant: tuple | None = None

    def __bool__(self):
        return self.status == "yes"


@dataclass(frozen=True)
class MaximalPairWitness:
    """A pair of maximal subalgebras witnessing a property failure."""

    a: MaximalSubalgebra
    b: MaximalSubalgebra
    detail: str


def is_isomorphic(a: LeibnizAlgebra, b: LeibnizAlgebra) -> IsoVerdict:
    """Decide isomorphism; complete over GF(p) within the search bounds.

    The bounds: both algebras nilpotent, dim <= 7, dim(A/[A,A]) <= 3, and at
    most SEARCH_CANDIDATE_BOUND candidate generator images generated by the
    search over all depths.  Past any of them SearchBoundExceeded is raised;
    an answer is never given from a partial search.
    """
    if a.field != b.field:
        raise FieldMismatch("isomorphism test needs a common field")
    return _fast_verdict(a, b) or _decide(_Side(a), _Side(b))


def _fast_verdict(a: LeibnizAlgebra, b: LeibnizAlgebra) -> IsoVerdict | None:
    """The verdict when the dimensions differ or the tables are equal, else None."""
    if a.dim != b.dim:
        return IsoVerdict("no", reason="dimensions differ", invariant=("dim", a.dim, b.dim))
    if a == b:
        identity = tuple(a.basis_vector(i) for i in range(a.dim))
        return IsoVerdict("yes", matrix=identity, reason="identical structure constants")
    return None


def _decide(side_a: _Side, side_b: _Side) -> IsoVerdict:
    """Isomorphism of two algebras of one field and dimension, by their records."""
    a, b = side_a.algebra, side_b.algebra
    fa, fb = side_a.fingerprint, side_b.fingerprint
    diff = _first_fingerprint_diff(fa, fb)
    if diff is not None:
        return IsoVerdict(
            "no",
            reason=f"invariant {diff[0]} differs: {diff[1]} vs {diff[2]}",
            invariant=diff,
        )
    if not a.field.is_finite():
        return IsoVerdict("unknown", reason="equal fingerprints; no search over Q")
    if not (fa.lower_dims[-1] == 0 and fb.lower_dims[-1] == 0):
        raise SearchBoundExceeded("generator search covers nilpotent algebras only")
    gen_count = a.dim - fa.derived_dim
    if a.dim > _SEARCH_DIM_BOUND or gen_count > _SEARCH_GEN_BOUND:
        raise SearchBoundExceeded(
            f"search bounds are dim <= {_SEARCH_DIM_BOUND} and "
            f"dim(A/[A,A]) <= {_SEARCH_GEN_BOUND}; got dim={a.dim}, "
            f"generators={gen_count}"
        )
    raw = _search_isomorphism(side_a, side_b)
    if raw is None:
        return IsoVerdict("no", reason="exhaustive generator-image search found no map")
    _assert_isomorphism(a, b, raw)
    matrix = tuple(tuple(a.field(c) for c in row) for row in raw)
    return IsoVerdict("yes", matrix=matrix, reason="explicit isomorphism found")


def _assert_isomorphism(a: LeibnizAlgebra, b: LeibnizAlgebra, raw) -> None:
    """Full bilinear check of a claimed isomorphism matrix; bug if it fails."""
    p, n = a.field.modulus, a.dim
    if _modp.rank(raw, p, n) != n:
        raise InternalError("claimed isomorphism matrix is singular")
    for i in range(n):
        for j in range(n):
            cell = a._cells[i][j]
            lhs = _modp.combine([c for _, c in cell], [raw[k] for k, _ in cell], p, n)
            if lhs != _modp.bracket(b._cells, raw[i], raw[j], p):
                raise InternalError("claimed isomorphism fails the bracket check")


def check_p1(
    algebra: LeibnizAlgebra, spot_seed: int = 0
) -> tuple[bool, MaximalPairWitness | None]:
    """All maximal subalgebras pairwise isomorphic?

    Compares every distinct induced table against the first maximal's (tag
    order), then spot-verifies transitivity on one seeded random pair.  Each
    distinct table is decided once, and its fingerprint and search data are
    built once, on the first maximal that carries it.
    """
    return _check_p1(enumerate_maximal(algebra), spot_seed)


def _check_p1(maximals, spot_seed: int) -> tuple[bool, MaximalPairWitness | None]:
    if len(maximals) <= 1:
        return True, None
    first = maximals[0]
    # the first maximal of each distinct table, in tag order; a later one is
    # isomorphic to the first exactly when its representative is
    carrier = {first.induced: first}
    for m in maximals[1:]:
        if m.induced in carrier:
            continue
        carrier[m.induced] = m
        verdict = _decide(m._side, first._side)
        if verdict.status != "yes":
            return False, MaximalPairWitness(first, m, verdict.reason)
    if len(maximals) >= 3:
        rng = random.Random(spot_seed)
        i, j = rng.sample(range(1, len(maximals)), 2)
        a, b = carrier[maximals[i].induced], carrier[maximals[j].induced]
        verdict = _fast_verdict(a.induced, b.induced) or _decide(a._side, b._side)
        if verdict.status != "yes":
            raise InternalError(
                "transitivity spot check failed although all maximal "
                "subalgebras matched the first"
            )
    return True, None


def check_p2(algebra: LeibnizAlgebra) -> tuple[bool, MaximalPairWitness | None]:
    """Do all maximal subalgebras share one upper-series dimension profile?

    The upper series is computed once per distinct induced table; the
    witness is the first maximal in tag order whose profile differs from
    the first maximal's.
    """
    return _check_p2(enumerate_maximal(algebra))


def _check_p2(maximals) -> tuple[bool, MaximalPairWitness | None]:
    if len(maximals) <= 1:
        return True, None
    # one upper series per distinct induced table; equal tables have equal profiles
    first = maximals[0]
    expected = _upper_dims(first.induced)
    profiles = {first.induced: expected}
    for m in maximals[1:]:
        prof = profiles.get(m.induced)
        if prof is None:
            prof = profiles[m.induced] = _upper_dims(m.induced)
        if prof != expected:
            detail = f"upper series dims {expected} vs {prof}"
            return False, MaximalPairWitness(first, m, detail)
    return True, None


def _upper_dims(algebra: LeibnizAlgebra) -> tuple[int, ...]:
    return tuple(s.dim for s in upper_central_series(algebra))


# ---------------------------------------------------------------------------
# generator-image search (integer kernel)
# ---------------------------------------------------------------------------

class _Closure:
    """Bracket closure of a generator prefix, with a replayable recipe.

    ``steps`` processes every ordered pair of closure elements exactly once,
    in a fixed order; ``("new", i, j, None)`` appends the product as a new
    element and ``("dep", i, j, coeffs)`` records its coefficients over the
    elements, which are independent: unique, and zero past the elements
    inserted before the step.  A product is tested against the echelon form
    of the elements so far, rebuilt after each of the at most n insertions,
    and all coefficients come from one ``_modp.coordinates`` at the end.
    """

    __slots__ = ("elems", "steps")

    def __init__(self, cells, p: int, gen_vecs):
        n = len(cells)
        elems = [list(g) for g in gen_vecs]
        ech, pivots = _modp.rref(elems, p, n)
        steps = []
        t = 0
        while t < len(elems):
            pair_list = [(i, t) for i in range(t + 1)] + [(t, j) for j in range(t)]
            for i, j in pair_list:
                w = _modp.bracket(cells, elems[i], elems[j], p)
                if _modp.contains(w, ech, pivots, p):
                    steps.append(("dep", i, j, w))
                else:
                    elems.append(w)
                    steps.append(("new", i, j, None))
                    ech, pivots = _modp.rref(elems, p, n)
            t += 1
        deps = [w for kind, _, _, w in steps if kind == "dep"]
        coeffs = iter(_modp.coordinates(elems, deps, p, n))
        self.elems = elems
        self.steps = [
            (kind, i, j, next(coeffs) if kind == "dep" else None) for kind, i, j, _ in steps
        ]

    def replay(self, cells, p: int, gen_images):
        """Images of all closure elements, or None when any check fails.

        The images must satisfy every "dep" step and be independent; a set
        is independent exactly when each element is independent of the ones
        before it, so one rank check at the end covers every "new" step.
        """
        n = len(cells)
        imgs = [list(g) for g in gen_images]
        for kind, i, j, coeffs in self.steps:
            w = _modp.bracket(cells, imgs[i], imgs[j], p)
            if kind == "new":
                imgs.append(w)
            elif w != _modp.combine(coeffs, imgs, p, n):
                return None
        return imgs if _modp.rank(imgs, p, n) == len(imgs) else None


def _nilindex(op_rows, p: int, n: int) -> int:
    """Smallest m <= n+1 with op^m = 0; op given by rows = images of basis."""
    current = op_rows
    for m in range(1, n + 2):
        if not any(any(r) for r in current):
            return m
        current = [_modp.combine(row, op_rows, p, n) for row in current]
    return n + 2


def _operator_rows(cells, left, right, p: int):
    """Rows of L_left + R_right read from the cells: row i is [left, e_i] + [e_i, right]."""
    n = len(cells)
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        c = left[j]
        if c:
            for row, cell in zip(rows, cells[j]):
                for k, a in cell:
                    row[k] = (row[k] + c * a) % p
        c = right[j]
        if c:
            for row, cells_i in zip(rows, cells):
                for k, a in cells_i[j]:
                    row[k] = (row[k] + c * a) % p
    return rows


def _search_isomorphism(side_a: _Side, side_b: _Side):
    """Complete generator-image search; a matrix (rows = basis images) or None."""
    p = side_a.p
    n = side_a.n
    gens = side_a.coset_coords
    d = len(gens)
    if d == 0:
        return None  # dim-0 algebras are caught by the identical-table fast path
    gen_vecs = [[1 if i == g else 0 for i in range(n)] for g in gens]
    closures = [_Closure(side_a.cells, p, gen_vecs[: k + 1]) for k in range(d)]

    gen_sigs = []
    for g in gen_vecs:
        gen_sigs.append(
            (
                side_a.square_is_zero(g),
                side_a.membership_profile(g),
                side_a.mult_data(g),
            )
        )

    relations: list = [None] * d
    for k in range(1, d):
        relations[k] = _gen_relations(side_a.cells, p, closures[k - 1].elems, gen_vecs[k])

    def candidate_ok(v, sig) -> bool:
        if side_b.square_is_zero(v) != sig[0]:
            return False
        if side_b.membership_profile(v) != sig[1]:
            return False
        return side_b.mult_data(v) == sig[2]

    def cosets_independent(gen_imgs, v) -> bool:
        rows = [side_b.coset(g) for g in gen_imgs] + [side_b.coset(v)]
        return _modp.rank(rows, p, d) == len(rows)

    generated = 0

    def descend(k, gen_imgs, prev_elem_imgs):
        nonlocal generated
        sig = gen_sigs[k]
        rows = [
            f
            for (_, _, covectors), member in zip(side_b.member_spaces, sig[1])
            if member
            for f in covectors
        ]
        rhs = [0] * len(rows)
        if k > 0:
            rel_rows, rel_rhs = _relation_equations(side_b, relations[k], prev_elem_imgs)
            rows += rel_rows
            rhs += rel_rhs
        for v in _constrained_candidates(side_b, rows, rhs):
            generated += 1
            if generated > SEARCH_CANDIDATE_BOUND:
                raise SearchBoundExceeded(
                    f"isomorphism search generated more than {SEARCH_CANDIDATE_BOUND} "
                    f"candidate generator images over GF({p}) (dim={n}, generators={d})"
                )
            if not candidate_ok(v, sig):
                continue
            if not cosets_independent(gen_imgs, v):
                continue
            elem_imgs = closures[k].replay(side_b.cells, p, gen_imgs + [v])
            if elem_imgs is None:
                continue
            if k == d - 1:
                return _assemble_matrix(closures[k], elem_imgs, p, n)
            result = descend(k + 1, gen_imgs + [v], elem_imgs)
            if result is not None:
                return result
        return None

    return descend(0, [], [])


def _gen_relations(cells, p: int, elems, gen_vec):
    """Left-kernel relations among words linear in the next generator.

    Word rows: [g, e_u] then [e_u, g] for each closure element, followed by
    the closure elements themselves.  Every kernel combination is a linear
    identity the generator image must reproduce on the target side.
    """
    rows = []
    for e in elems:
        rows.append(_modp.bracket(cells, gen_vec, e, p))
    for e in elems:
        rows.append(_modp.bracket(cells, e, gen_vec, p))
    for e in elems:
        rows.append(list(e))
    return _modp.left_kernel(rows, p, len(cells))


def _relation_equations(side_b: _Side, kernel, elem_imgs):
    """The relations of ``_gen_relations`` as linear equations on the image v.

    With G, L and C the combinations of the element images by the three
    blocks of a relation, it reads [v, G] + [L, v] + C = 0; by bilinearity
    the coefficient of v_i is [e_i, G] + [L, e_i].
    """
    p, n = side_b.p, side_b.n
    m = len(elem_imgs)
    sys_rows, sys_rhs = [], []
    for kappa in kernel:
        right = _modp.combine(kappa[:m], elem_imgs, p, n)
        left = _modp.combine(kappa[m : 2 * m], elem_imgs, p, n)
        const = _modp.combine(kappa[2 * m :], elem_imgs, p, n)
        coeff_rows = _operator_rows(side_b.cells, left, right, p)
        for k in range(n):
            row = [r[k] for r in coeff_rows]
            rhs = -const[k] % p
            if any(row) or rhs:
                sys_rows.append(row)
                sys_rhs.append(rhs)
    return sys_rows, sys_rhs


def _constrained_candidates(side_b: _Side, rows, rhs):
    """Solutions v of rows . v = rhs that are zero at the central pivots and
    lie outside [B, B], enumerated over the affine solution space.

    Zero central-pivot entries are the normalisation by central
    automorphisms of the module docstring; they lose no isomorphism.
    """
    p, n = side_b.p, side_b.n
    pivots = side_b.central_pivots
    rows = rows + [[1 if i == c else 0 for i in range(n)] for c in pivots]
    solution = _modp.solve_affine(rows, rhs + [0] * len(pivots), p, n)
    if solution is None:
        return
    x0, null_basis = solution
    shifted = [x0] + null_basis
    for combo in itertools.product(range(p), repeat=len(null_basis)):
        v = _modp.combine((1,) + combo, shifted, p, n)
        if any(side_b.coset(v)):
            yield v


def _assemble_matrix(closure: _Closure, elem_imgs, p: int, n: int):
    """Matrix sending the standard basis of the source to images in the target."""
    identity = [[int(i == r) for i in range(n)] for r in range(n)]
    return [
        _modp.combine(row, elem_imgs, p, n)
        for row in _modp.coordinates(closure.elems, identity, p, n)
    ]
