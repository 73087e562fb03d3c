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
well; only a found matrix is boxed.  Maximal subalgebras are built on
residues too: the hyperplane pullbacks are spanned from residue rows, and
the induced algebras come straight from residue cells.

Enumerations and pairwise checks are pure functions of immutable inputs,
so callers may evaluate distinct maximal subalgebras concurrently; output
lists are always sorted by hyperplane tag.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, fields as dataclass_fields

from . import _modp
from ._modp import SpanTracker
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
    otherwise.  [cv, cv] = c^2 [v, v], so it is counted on one vector per
    line through 0: the zero count is 1 + (p - 1) times the number of
    vectors with first nonzero coordinate 1 whose square vanishes.
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
    prof = nilpotency_data(algebra)
    square_profile = None
    if algebra.field.is_finite():
        p = algebra.field.modulus
        if p**algebra.dim <= _SQUARE_PROFILE_LIMIT:
            cells = algebra._cells
            lines = 0
            for v in _normalized_vectors(p, algebra.dim):
                if not any(_modp.bracket(cells, v, v, p)):
                    lines += 1
            zero = 1 + (p - 1) * lines
            square_profile = (zero, p**algebra.dim - zero)
    return Fingerprint(
        dim=algebra.dim,
        lower_dims=prof.lower_dims,
        upper_dims=prof.upper_dims,
        leib_dim=algebra.leib_ideal().dim,
        center_dim=algebra.center().dim,
        left_center_dim=algebra.left_center().dim,
        derived_dim=algebra.derived().dim,
        square_profile=square_profile,
    )


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


def enumerate_maximal(algebra: LeibnizAlgebra) -> list[MaximalSubalgebra]:
    """All maximal subalgebras, sorted by hyperplane tag.

    There are exactly (p^d - 1)/(p - 1) of them, d = dim(A/[A,A]): the
    pullbacks of the hyperplanes of A/[A,A].  Each contains the derived
    subalgebra, hence is closed under the bracket.
    """
    if not algebra.field.is_finite():
        raise NeedsFiniteField("maximal subalgebra enumeration needs GF(p)")
    lower = lower_central_series(algebra)
    if not lower[-1].is_zero():
        raise NotNilpotent("maximal enumeration requires a nilpotent algebra")
    derived = lower[1] if len(lower) > 1 else algebra.derived()
    comp = derived.complement_coords()
    d = len(comp)
    if d == 0:
        return []
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
    acc = algebra.full_space()
    for m in enumerate_maximal(algebra):
        acc = acc.intersect(m.subspace)
    return acc


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


class _Target:
    """The second algebra of is_isomorphic, with its search data built once.

    A caller comparing many algebras against one passes the same instance
    to every call; the fingerprint and the search side are computed on
    first use and then shared.
    """

    __slots__ = ("algebra", "_fingerprint", "_side")

    def __init__(self, algebra: LeibnizAlgebra):
        self.algebra = algebra
        self._fingerprint = None
        self._side = None

    def fingerprint(self) -> Fingerprint:
        if self._fingerprint is None:
            self._fingerprint = fingerprint(self.algebra)
        return self._fingerprint

    def side(self) -> "_SearchSide":
        if self._side is None:
            self._side = _SearchSide(self.algebra)
        return self._side


def is_isomorphic(
    a: LeibnizAlgebra, b: LeibnizAlgebra, *, _target: _Target | None = None
) -> IsoVerdict:
    """Decide isomorphism; complete over GF(p) within the search bounds.

    The bounds: both algebras nilpotent, dim <= 7, dim(A/[A,A]) <= 3, and at
    most SEARCH_CANDIDATE_BOUND candidate generator images generated by the
    search over all depths.  Past any of them SearchBoundExceeded is raised;
    an answer is never given from a partial search.

    ``_target`` is ``_Target(b)`` shared between calls with the same b.
    """
    if _target is None:
        _target = _Target(b)
    elif _target.algebra is not b:
        raise InternalError("search target does not belong to the second algebra")
    if a.field != b.field:
        raise FieldMismatch("isomorphism test needs a common field")
    if a.dim != b.dim:
        return IsoVerdict("no", reason="dimensions differ", invariant=("dim", a.dim, b.dim))
    if a == b:
        identity = tuple(a.basis_vector(i) for i in range(a.dim))
        return IsoVerdict("yes", matrix=identity, reason="identical structure constants")
    fa, fb = fingerprint(a), _target.fingerprint()
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
    raw = _search_isomorphism(a, b, _target.side())
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
            lhs = [0] * n
            for k, c in a._cells[i][j]:
                lhs = [(x + c * y) % p for x, y in zip(lhs, raw[k])]
            if lhs != _modp.bracket(b._cells, raw[i], raw[j], p):
                raise InternalError("claimed isomorphism fails the bracket check")


def check_p1(
    algebra: LeibnizAlgebra, spot_seed: int = 0
) -> tuple[bool, MaximalPairWitness | None]:
    """All maximal subalgebras pairwise isomorphic?

    Compares every maximal subalgebra against the first (tag order), whose
    fingerprint and search data are built once, then spot-verifies
    transitivity on one seeded random pair.
    """
    maximals = enumerate_maximal(algebra)
    if len(maximals) <= 1:
        return True, None
    first = maximals[0]
    target = _Target(first.induced)
    for m in maximals[1:]:
        verdict = is_isomorphic(m.induced, first.induced, _target=target)
        if verdict.status != "yes":
            return False, MaximalPairWitness(first, m, verdict.reason)
    if len(maximals) >= 3:
        rng = random.Random(spot_seed)
        i, j = rng.sample(range(1, len(maximals)), 2)
        verdict = is_isomorphic(maximals[i].induced, maximals[j].induced)
        if verdict.status != "yes":
            raise InternalError(
                "transitivity spot check failed although all maximal "
                "subalgebras matched the first"
            )
    return True, None


def check_p2(algebra: LeibnizAlgebra) -> tuple[bool, MaximalPairWitness | None]:
    """Do all maximal subalgebras share one upper-series dimension profile?"""
    maximals = enumerate_maximal(algebra)
    if len(maximals) <= 1:
        return True, None
    profiles = [tuple(s.dim for s in upper_central_series(m.induced)) for m in maximals]
    first = profiles[0]
    for m, prof in zip(maximals[1:], profiles[1:]):
        if prof != first:
            detail = f"upper series dims {first} vs {prof}"
            return False, MaximalPairWitness(maximals[0], m, detail)
    return True, None


# ---------------------------------------------------------------------------
# generator-image search (integer kernel)
# ---------------------------------------------------------------------------

class _Closure:
    """Bracket closure of a generator prefix, with a replayable recipe.

    ``steps`` processes every ordered pair of closure elements exactly once,
    in a fixed order; ``("new", i, j, None)`` appends the product as a new
    element and ``("dep", i, j, coeffs)`` records its sparse expression over
    the elements inserted so far.
    """

    __slots__ = ("elems", "steps", "gen_count")

    def __init__(self, cells, p: int, gen_vecs):
        elems = [list(g) for g in gen_vecs]
        tracker = SpanTracker(p, len(cells))
        for g in elems:
            if not tracker.add(g):
                raise InternalError("generators must be independent")
        steps = []
        t = 0
        while t < len(elems):
            pair_list = [(i, t) for i in range(t + 1)] + [(t, j) for j in range(t)]
            for i, j in pair_list:
                w = _modp.bracket(cells, elems[i], elems[j], p)
                coeffs = tracker.express(w)
                if coeffs is None:
                    tracker.add(w)
                    elems.append(w)
                    steps.append(("new", i, j, None))
                else:
                    sparse = tuple((idx, c) for idx, c in enumerate(coeffs) if c)
                    steps.append(("dep", i, j, sparse))
            t += 1
        self.elems = elems
        self.steps = steps
        self.gen_count = len(gen_vecs)

    def replay(self, cells, p: int, gen_images):
        """Images of all closure elements, or None when any check fails."""
        n = len(cells)
        imgs = [list(g) for g in gen_images]
        tracker = SpanTracker(p, n)
        for g in imgs:
            if not tracker.add(g):
                return None
        for kind, i, j, data in self.steps:
            w = _modp.bracket(cells, imgs[i], imgs[j], p)
            if kind == "new":
                if not tracker.add(w):
                    return None
                imgs.append(w)
            else:
                expected = [0] * n
                for idx, c in data:
                    img = imgs[idx]
                    for k in range(n):
                        if img[k]:
                            expected[k] = (expected[k] + c * img[k]) % p
                if w != expected:
                    return None
        return imgs


class _SearchSide:
    """Per-algebra search data: derived cosets, series membership, invariants.

    ``member_spaces`` holds, per series term, its residue rows, pivots and
    annihilating covectors (v lies in the term iff every covector vanishes
    on v).  ``central_pivots`` are the pivot columns of Z(B) meet [B,B],
    the coordinates a normalised generator image has equal to zero.
    """

    __slots__ = (
        "cells", "p", "n", "derived_ech", "derived_pivots", "coset_coords", "member_spaces",
        "central_pivots",
    )

    def __init__(self, algebra: LeibnizAlgebra):
        self.cells = algebra._cells
        self.p = p = algebra.field.modulus
        self.n = n = algebra.dim
        lower = lower_central_series(algebra)
        upper = upper_central_series(algebra)
        derived = lower[1] if len(lower) > 1 else algebra.derived()
        self.derived_ech, self.derived_pivots = derived._res_rows, derived.pivots
        self.coset_coords = list(derived.complement_coords())
        self.member_spaces = [
            (s._res_rows, s.pivots, _modp.nullspace(s._res_rows, p, n))
            for s in lower[1:] + upper[1:]
        ]
        center = upper[1] if len(upper) > 1 else upper[0]
        self.central_pivots = center.intersect(derived).pivots

    def coset(self, v):
        reduced = _modp.reduce_mod(v, self.derived_ech, self.derived_pivots, self.p)
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
        basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        lrows = [_modp.bracket(cells, v, e, p) for e in basis]
        rrows = [_modp.bracket(cells, e, v, p) for e in basis]
        return (
            _modp.rank(lrows, p, n),
            _modp.rank(rrows, p, n),
            _nilindex(lrows, p, n),
            _nilindex(rrows, p, n),
        )


def _nilindex(op_rows, p: int, n: int) -> int:
    """Smallest m <= n+1 with op^m = 0; op given by rows = images of basis."""
    current = [row[:] for row in op_rows]
    for m in range(1, n + 2):
        if not any(any(r) for r in current):
            return m
        nxt = []
        for row in current:
            acc = [0] * n
            for i, c in enumerate(row):
                if c:
                    src = op_rows[i]
                    for k in range(n):
                        if src[k]:
                            acc[k] = (acc[k] + c * src[k]) % p
            nxt.append(acc)
        current = nxt
    return n + 2


def _search_isomorphism(
    a: LeibnizAlgebra, b: LeibnizAlgebra, side_b: _SearchSide | None = None
):
    """Complete generator-image search; a matrix (rows = basis images) or None.

    ``side_b`` is ``_SearchSide(b)`` when the caller already holds it.
    """
    side_a = _SearchSide(a)
    if side_b is None:
        side_b = _SearchSide(b)
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


def _relation_equations(side_b: _SearchSide, kernel, elem_imgs):
    """The relations of ``_gen_relations`` as linear equations on the image v."""
    cells, p, n = side_b.cells, side_b.p, side_b.n
    m = len(elem_imgs)
    basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    # rword[u][i] = [e_i, E_u] (for words [g, e_u] evaluated at v: sum_i v_i rword)
    # lword[u][i] = [E_u, e_i] (for words [e_u, g])
    rword = [[_modp.bracket(cells, e, img, p) for e in basis] for img in elem_imgs]
    lword = [[_modp.bracket(cells, img, e, p) for e in basis] for img in elem_imgs]
    sys_rows, sys_rhs = [], []
    for kappa in kernel:
        acc = [[0] * n for _ in range(n)]  # acc[i][k]: coefficient of v_i in equation k
        for u in range(m):
            cg = kappa[u]
            cl = kappa[m + u]
            if cg:
                wu = rword[u]
                for i in range(n):
                    src = wu[i]
                    row = acc[i]
                    for k in range(n):
                        if src[k]:
                            row[k] = (row[k] + cg * src[k]) % p
            if cl:
                wu = lword[u]
                for i in range(n):
                    src = wu[i]
                    row = acc[i]
                    for k in range(n):
                        if src[k]:
                            row[k] = (row[k] + cl * src[k]) % p
        const = [0] * n
        for u in range(m):
            ce = kappa[2 * m + u]
            if ce:
                img = elem_imgs[u]
                for k in range(n):
                    if img[k]:
                        const[k] = (const[k] + ce * img[k]) % p
        for k in range(n):
            row = [acc[i][k] for i in range(n)]
            rhs = (-const[k]) % p
            if any(row) or rhs:
                sys_rows.append(row)
                sys_rhs.append(rhs)
    return sys_rows, sys_rhs


def _constrained_candidates(side_b: _SearchSide, rows, rhs):
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
    for combo in itertools.product(range(p), repeat=len(null_basis)):
        v = list(x0)
        for c, direction in zip(combo, null_basis):
            if c:
                for i in range(n):
                    if direction[i]:
                        v[i] = (v[i] + c * direction[i]) % p
        if any(side_b.coset(v)):
            yield v


def _assemble_matrix(closure: _Closure, elem_imgs, p: int, n: int):
    """Matrix sending the standard basis of the source to images in the target."""
    inv = _modp.matinv([list(e) for e in closure.elems], p)
    if inv is None:
        raise InternalError("closure elements must form a basis")
    matrix = []
    for row in inv:
        acc = [0] * n
        for c, img in zip(row, elem_imgs):
            if c:
                for k in range(n):
                    if img[k]:
                        acc[k] = (acc[k] + c * img[k]) % p
        matrix.append(acc)
    return matrix
