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
raises SearchBoundExceeded instead of answering.  A candidate a search
reads from the target's memo (below) counts as generated by it, and so do
the candidates before it that the filters rejected, so the budget counts
the same candidates with or without the memo.

An isomorphism is determined by the images of a coset basis of A/[A,A];
candidate images are enumerated inside the affine solution spaces of
necessary linear conditions (membership in the series terms, the relations
of the generators found so far), filtered by per-element invariants, and
extended by bracketing with every induced product checked.  The cheap
invariants, the square flag and the membership profile, filter every
candidate; the costly one, ``mult_data`` (the ranks and nilpotency indices
of L_v and R_v), is compared only on a candidate whose cosets are
independent and whose bracket extension succeeds, before the search
recurses under it.  All three are necessary, so the order of the checks
changes no answer and no count.

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
applied to their images.  Maximal subalgebras are built on residues too,
in closed form: each is the kernel of one covector, whose echelon basis
and induced cells are written down directly (``_Side.maximals``).

Every invariant of an algebra lives on one record, ``_Side``, built lazily
and at most once per record: its ``SeriesProfile`` (both central series,
with Z(A) and [A, A] read off their terms), the fingerprint, the maximals,
their intersection, the P1 and P2 decisions and, when a search runs, the
search data.  The public functions are one-line readers of a fresh record.
As a source the record builds its closure recipes, generator signatures
and relations once.  As a target it keeps, per filter key (square flag and
membership profile), the candidates for the first generator image that
passed that filter, with their generation indices: with no image chosen
yet there are no relations, so they depend on the target and the key
alone, and sources whose signatures differ only in ``mult_data`` share
them.  It keeps the ``mult_data`` of each candidate it computed it for.
A later search against the same record reads them and extends the scan
only as far as it consumes.  The records of the induced tables of the
maximals are looked up in a ``_Records`` of the call, one record per
table, so the comparisons of ``check_p1`` against the first maximal, which
is the target of each, and its spot check of the second distinct table
against the last share them, and ``check_p2`` computes one upper series
per distinct table; both report the first maximal in tag order that
differs from the first.  A record reaches its ``_Records`` through a weak
proxy, and a scan holds no record, so the records of a call form no
reference cycle and are freed when the call drops them.  Nothing is cached
on ``LeibnizAlgebra`` itself or at module level, and no record outlives a
call.

Enumerations and pairwise checks are pure functions of immutable inputs,
so callers may evaluate distinct maximal subalgebras concurrently; output
lists are always sorted by hyperplane tag.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, fields as dataclass_fields
from functools import cached_property

from . import _modp
from .core import LeibnizAlgebra
from .errors import (
    FieldMismatch,
    InternalError,
    NeedsFiniteField,
    NotASubalgebra,
    NotNilpotent,
    SearchBoundExceeded,
)
from .fields import FieldElement
from .linalg import Subspace, _kernel_space
from .series import SeriesProfile

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
    """The record of one algebra: every invariant a decision reads, each built once.

    Nothing is built in ``__init__``.  ``profile`` is the algebra's
    ``SeriesProfile``; on top of it the record builds on first use the
    ``fingerprint``, the ``maximals`` (GF(p) only) with the ``covectors``
    whose kernels they are and, once a search needs them, the search data.
    ``member_spaces`` holds, per series term, its residue rows, pivots and
    annihilating covectors (v lies in the term iff every covector vanishes
    on v).  ``central_pivots`` are the pivot columns
    of Z(B) meet [B,B], the coordinates a normalised generator image has
    equal to zero.  As a source the record builds ``generators``: the
    closure recipes, signatures and relations of its generators.  As a
    target it keeps, per filter key, the ``_Scan`` of its first-generator
    candidates, which depend on nothing else, and the ``mult_data`` of each
    vector it was asked for.  The records of the induced tables are looked
    up in ``records``, so equal tables share one; a record given no
    ``_Records`` owns a fresh one.
    """

    def __init__(self, algebra: LeibnizAlgebra, records: "_Records | None" = None):
        self.algebra = algebra
        self.cells = algebra._cells
        self.p = algebra.field.modulus
        self.n = algebra.dim
        self.profile = SeriesProfile(algebra)
        self.records = _Records() if records is None else records
        self._first_scans: dict = {}
        self._mult_data: dict = {}

    @cached_property
    def fingerprint(self) -> Fingerprint:
        algebra, profile = self.algebra, self.profile
        return Fingerprint(
            dim=algebra.dim,
            lower_dims=profile.lower_dims,
            upper_dims=profile.upper_dims,
            leib_dim=algebra.leib_ideal().dim,
            center_dim=profile.center.dim,
            left_center_dim=algebra.left_center().dim,
            derived_dim=profile.derived.dim,
            square_profile=_square_profile(algebra, profile.center),
        )

    @cached_property
    def maximals(self) -> list[MaximalSubalgebra]:
        """All maximal subalgebras, sorted by hyperplane tag; GF(p) only.

        Each maximal is the kernel of one covector f of A, in closed form.
        With comp the coset coordinates of [A, A], f is the tag on comp, and
        on the pivot of each echelon row r of [A, A] it is
        -sum_b r[comp[b]] tag[b], so f vanishes on [A, A].  With j the last
        column where f is nonzero, the echelon basis of ker f is
        e_c + beta_c e_j for c != j, beta_c = -f_c/f_j, and the coordinates
        of a vector of ker f are its entries off column j.  So the induced
        product of basis vectors a and b is cells[a][b] + beta_b cells[a][j]
        + beta_a cells[j][b] + beta_a beta_b cells[j][j].  Only the cells of
        that sum that are nonempty and have a nonzero coefficient are read:
        with none, the induced cell is empty, since 0 lies in ker f; any
        other product is checked to lie in ker f, or NotASubalgebra is
        raised.  The covectors f are kept in ``covectors``, one per maximal,
        in the order they were built, for ``intersection``.
        """
        algebra = self.algebra
        field, n, p = algebra.field, self.n, self.p
        if not field.is_finite():
            raise NeedsFiniteField("maximal subalgebra enumeration needs GF(p)")
        lower = self.profile.lower
        if not lower[-1].is_zero():
            raise NotNilpotent("maximal enumeration requires a nilpotent algebra")
        self.covectors = covectors = []
        if len(lower) == 1:  # the zero algebra
            return []
        derived = lower[1]
        comp = derived.complement_coords()
        cells = self.cells
        result = []
        for tag in _normalized_vectors(p, len(comp)):
            f = [0] * n
            for c, t in zip(comp, tag):
                f[c] = t
            for row, pc in zip(derived._res_rows, derived.pivots):
                f[pc] = -sum(row[c] * t for c, t in zip(comp, tag)) % p
            covectors.append(f)
            j = max(c for c in range(n) if f[c])
            inv = pow(f[j], -1, p)
            beta = [-x * inv % p for x in f]  # basis vector c is e_c + beta[c] e_j
            pivots = [c for c in range(n) if c != j]
            rows = []
            for c in pivots:
                row = [0] * n
                row[c] = 1
                row[j] = beta[c]
                rows.append(tuple(row))
            subspace = Subspace._from_residues(field, n, tuple(rows), pivots)
            row_j, cell_jj = cells[j], cells[j][j]
            induced = []
            for a in pivots:
                row_a, cell_aj, beta_a = cells[a], cells[a][j], beta[a]
                induced_row = []
                for b in pivots:
                    beta_b = beta[b]
                    gather = [(1, row_a[b])] if row_a[b] else []
                    if beta_b and cell_aj:
                        gather.append((beta_b, cell_aj))
                    if beta_a and row_j[b]:
                        gather.append((beta_a, row_j[b]))
                    if beta_a and beta_b and cell_jj:
                        gather.append((beta_a * beta_b, cell_jj))
                    if not gather:
                        induced_row.append(())
                        continue
                    w = [0] * n
                    for coeff, cell in gather:
                        for k, x in cell:
                            w[k] += coeff * x
                    w = [x % p for x in w]
                    if sum(fk * wk for fk, wk in zip(f, w)) % p:
                        raise NotASubalgebra(
                            f"the product at columns {a}, {b} leaves the maximal subspace {tag}"
                        )
                    induced_row.append(tuple((t, w[c]) for t, c in enumerate(pivots) if w[c]))
                induced.append(tuple(induced_row))
            result.append(
                MaximalSubalgebra(subspace, LeibnizAlgebra._from_cells(field, tuple(induced)), tag)
            )
        result.sort(key=lambda m: m.hyperplane_tag)
        return result

    def intersection(self) -> Subspace:
        """The intersection of the maximal subspaces: the common zeros of their covectors."""
        self.maximals  # builds and checks the maximals, and sets covectors
        return _kernel_space(self.algebra.field, self.n, self.covectors)

    def isomorphism(self, other: "_Side") -> IsoVerdict:
        """Is this record's algebra isomorphic to ``other``'s?  See ``is_isomorphic``."""
        a, b = self.algebra, other.algebra
        if a.field != b.field:
            raise FieldMismatch("isomorphism test needs a common field")
        if a.dim != b.dim:
            return IsoVerdict("no", reason="dimensions differ", invariant=("dim", a.dim, b.dim))
        if a == b:
            identity = tuple(a.basis_vector(i) for i in range(a.dim))
            return IsoVerdict("yes", matrix=identity, reason="identical structure constants")
        fa, fb = self.fingerprint, other.fingerprint
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
        raw = _search_isomorphism(self, other)
        if raw is None:
            return IsoVerdict("no", reason="exhaustive generator-image search found no map")
        _assert_isomorphism(a, b, raw)
        matrix = tuple(tuple(a.field(c) for c in row) for row in raw)
        return IsoVerdict("yes", matrix=matrix, reason="explicit isomorphism found")

    def p1(self) -> tuple[bool, MaximalPairWitness | None]:
        """``check_p1``: every distinct induced table against the first, in tag
        order, then the second distinct table against the last."""
        maximals = self.maximals
        if len(maximals) <= 1:
            return True, None
        records = self.records
        first = maximals[0]
        # the first maximal of each distinct table, in tag order; a later one is
        # isomorphic to the first exactly when its table's first maximal is
        carriers = {}
        for m in maximals:
            carriers.setdefault(m.induced, m)
        for m in list(carriers.values())[1:]:
            verdict = records[m.induced].isomorphism(records[first.induced])
            if verdict.status != "yes":
                return False, MaximalPairWitness(first, m, verdict.reason)
        tables = list(carriers)
        if len(tables) >= 3 and records[tables[1]].isomorphism(records[tables[-1]]).status != "yes":
            raise InternalError(
                "transitivity spot check failed although all maximal "
                "subalgebras matched the first"
            )
        return True, None

    def p2(self) -> tuple[bool, MaximalPairWitness | None]:
        """``check_p2``: the upper series dims of each maximal's record against the first's."""
        maximals = self.maximals
        if len(maximals) <= 1:
            return True, None
        records = self.records
        first = maximals[0]
        expected = records[first.induced].profile.upper_dims
        for m in maximals[1:]:
            dims = records[m.induced].profile.upper_dims
            if dims != expected:
                return False, MaximalPairWitness(first, m, f"upper series dims {expected} vs {dims}")
        return True, None

    @cached_property
    def coset_coords(self) -> list[int]:
        return list(self.profile.derived.complement_coords())

    @cached_property
    def member_spaces(self):
        p, n = self.p, self.n
        return [
            (s._res_rows, s.pivots, _modp.echelon_nullspace(s._res_rows, s.pivots, p, n))
            for s in self.profile.lower[1:] + self.profile.upper[1:]
        ]

    @cached_property
    def central_pivots(self) -> list[int]:
        return self.profile.center.intersect(self.profile.derived).pivots

    @cached_property
    def generators(self):
        """The source data of a search: per generator, in coset order, the
        ``_Closure`` of the generators up to it, its signature and the
        relations a next image must satisfy (None for the first).  A
        signature is the pair (filter key, ``mult_data``): the key is the
        square flag and the membership profile, which the scans filter on,
        and ``mult_data`` is None for the last generator; ``_descend`` says
        why."""
        p, n = self.p, self.n
        gen_vecs = [[int(i == g) for i in range(n)] for g in self.coset_coords]
        closures = [_Closure(self.cells, p, gen_vecs[: k + 1]) for k in range(len(gen_vecs))]
        last = len(gen_vecs) - 1
        sigs = [
            (
                (self.square_is_zero(g), self.membership_profile(g)),
                self.mult_data(g) if k < last else None,
            )
            for k, g in enumerate(gen_vecs)
        ]
        relations = [None] + [
            _gen_relations(self.cells, p, closures[k - 1].elems, gen_vecs[k])
            for k in range(1, len(gen_vecs))
        ]
        return closures, sigs, relations

    def member_equations(self, profile) -> list:
        """The covectors of the series terms a membership ``profile`` puts v in."""
        return [
            f
            for (_, _, covectors), member in zip(self.member_spaces, profile)
            if member
            for f in covectors
        ]

    def first_scan(self, key) -> "_Scan":
        """The candidates for a first generator with the filter ``key``
        (square flag, membership profile).

        With no generator chosen yet there are no relations: the system is
        the member covectors ``key[1]`` selects, so the scan depends on this
        record and ``key`` alone and is shared by every search against it,
        whatever the ``mult_data`` of the source's first generator.
        """
        scan = self._first_scans.get(key)
        if scan is None:
            rows = self.member_equations(key[1])
            scan = self._first_scans[key] = _Scan(self, rows, [0] * len(rows), key)
        return scan

    def coset(self, v):
        derived = self.profile.derived
        reduced = _modp.reduce_mod(v, derived._res_rows, derived.pivots, self.p)
        return [reduced[c] for c in self.coset_coords]

    def membership_profile(self, v):
        return tuple(
            _modp.contains(v, ech, piv, self.p) for ech, piv, _ in self.member_spaces
        )

    def square_is_zero(self, v) -> bool:
        return not any(_modp.bracket(self.cells, v, v, self.p))

    def mult_data(self, v):
        """(rank L_v, rank R_v, nilindex L_v, nilindex R_v), computed once
        per vector by ``_mult_data`` and kept on the record: the first scans
        are shared, so one candidate is met by every search against it."""
        key = tuple(v)
        data = self._mult_data.get(key)
        if data is None:
            data = self._mult_data[key] = _mult_data(self.cells, v, self.p)
        return data

    def matches(self, v, key) -> bool:
        """Does ``v`` have the square flag and membership profile of ``key``?"""
        return self.square_is_zero(v) == key[0] and self.membership_profile(v) == key[1]


class _Records(dict):
    """The records of one call: one ``_Side`` per table, built on first lookup.

    A record reaches it through a weak proxy, never a reference, so the
    call's records are freed by reference counting when it is dropped.
    """

    def __missing__(self, algebra: LeibnizAlgebra) -> _Side:
        record = self[algebra] = _Side(algebra, weakref.proxy(self))
        return record


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


def enumerate_maximal(algebra: LeibnizAlgebra) -> list[MaximalSubalgebra]:
    """All maximal subalgebras, sorted by hyperplane tag.

    There are exactly (p^d - 1)/(p - 1) of them, d = dim(A/[A,A]): the
    pullbacks of the hyperplanes of A/[A,A].  Each contains the derived
    subalgebra, hence is closed under the bracket.
    """
    return _Side(algebra).maximals


def _normalized_vectors(p: int, d: int):
    """One vector of GF(p)^d per line through 0: first nonzero coordinate 1."""
    for t0 in range(d):
        tail_len = d - t0 - 1
        for tail in itertools.product(range(p), repeat=tail_len):
            yield (0,) * t0 + (1,) + tail


def frattini_by_intersection(algebra: LeibnizAlgebra) -> Subspace:
    """Intersection of all maximal subalgebras (must equal [A, A])."""
    return _Side(algebra).intersection()


# ---------------------------------------------------------------------------
# isomorphism verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
    return _Side(a).isomorphism(_Side(b))


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


def check_p1(algebra: LeibnizAlgebra) -> tuple[bool, MaximalPairWitness | None]:
    """All maximal subalgebras pairwise isomorphic?

    Compares every distinct induced table against the first maximal's (tag
    order).  With at least three distinct tables it then spot-verifies
    transitivity by comparing the second distinct table with the last, which
    is a real search, since the two differ.  Each distinct table is decided
    once, and its fingerprint and search data are built once, on the first
    maximal that carries it.
    """
    return _Side(algebra).p1()


def check_p2(algebra: LeibnizAlgebra) -> tuple[bool, MaximalPairWitness | None]:
    """Do all maximal subalgebras share one upper-series dimension profile?

    The upper series is computed once per distinct induced table; the
    witness is the first maximal in tag order whose profile differs from
    the first maximal's.
    """
    return _Side(algebra).p2()


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


def _mult_data(cells, v, p: int):
    """(rank L_v, rank R_v, nilindex L_v, nilindex R_v) of the raw vector ``v``."""
    n = len(cells)
    zero = [0] * n
    lrows = _operator_rows(cells, v, zero, p)
    rrows = _operator_rows(cells, zero, v, p)
    return (
        _modp.rank(lrows, p, n),
        _modp.rank(rrows, p, n),
        _nilindex(lrows, p, n),
        _nilindex(rrows, p, n),
    )


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
    d = len(side_a.coset_coords)
    if d == 0:
        return None  # dim-0 algebras are caught by the identical-table fast path
    budget = _Budget(
        f"isomorphism search generated more than {SEARCH_CANDIDATE_BOUND} "
        f"candidate generator images over GF({side_a.p}) (dim={side_a.n}, generators={d})"
    )
    return _descend(side_a, side_b, budget, 0, [], [])


def _descend(side_a: _Side, side_b: _Side, budget: "_Budget", k: int, gen_imgs, prev_elem_imgs):
    """The images of generators k, k+1, ... extending ``gen_imgs``, as a matrix, or None.

    The scan keeps the candidates with the generator's square flag and
    membership profile; ``mult_data`` is compared only on a candidate whose
    cosets are independent and whose replay succeeds, and only below the
    last generator (k < d - 1): it is the costly filter, and those two
    checks drop most candidates first.  At the last generator it is not
    compared at all: a replay that succeeds there spans the algebra and
    gives an isomorphism, which preserves ``mult_data``.  Every filter is a
    necessary condition and nothing recurses under a candidate
    ``mult_data`` drops, so the generation order, the budget charges and
    the returned matrix are those of the search that filters every
    candidate on all three.
    """
    p, n = side_a.p, side_a.n
    d = len(side_a.coset_coords)
    closures, sigs, relations = side_a.generators
    key, mult_data = sigs[k]
    if k == 0:
        scan = side_b.first_scan(key)
    else:
        rows = side_b.member_equations(key[1])
        rel_rows, rel_rhs = _relation_equations(side_b, relations[k], prev_elem_imgs)
        scan = _Scan(side_b, rows + rel_rows, [0] * len(rows) + rel_rhs, key)
    for v in scan.read(side_b, budget):
        cosets = [side_b.coset(g) for g in gen_imgs] + [side_b.coset(v)]
        if _modp.rank(cosets, p, d) != len(cosets):
            continue
        elem_imgs = closures[k].replay(side_b.cells, p, gen_imgs + [v])
        if elem_imgs is None:
            continue
        if k == d - 1:
            return _assemble_matrix(closures[k], elem_imgs, p, n)
        if side_b.mult_data(v) != mult_data:
            continue
        result = _descend(side_a, side_b, budget, k + 1, gen_imgs + [v], elem_imgs)
        if result is not None:
            return result
    return None


class _Budget:
    """The candidates a search may still generate, ``SEARCH_CANDIDATE_BOUND`` at first."""

    __slots__ = ("left", "message")

    def __init__(self, message: str):
        self.left = SEARCH_CANDIDATE_BOUND
        self.message = message

    def charge(self, count: int) -> None:
        self.left -= count
        if self.left < 0:
            raise SearchBoundExceeded(self.message)


class _Scan:
    """The candidates of one linear system that pass one filter key.

    ``_constrained_candidates`` generates the candidates in a fixed order;
    ``kept`` holds those with the square flag and membership profile of
    ``key`` (``_Side.matches``; ``mult_data`` is compared later, see
    ``_descend``), each with its generation index (1 for the first
    generated), and ``scanned`` counts the candidates generated so far.
    The scan is extended lazily, one kept candidate at a time, and never
    past what a reader's budget allows.  It
    holds no record: the target record that filters the candidates is
    handed to ``read``, so a scan kept on its record is no reference cycle.
    """

    __slots__ = ("key", "raw", "kept", "scanned", "exhausted")

    def __init__(self, side: _Side, rows, rhs, key):
        self.key = key
        self.raw = _constrained_candidates(side, rows, rhs)
        self.kept: list = []
        self.scanned = 0
        self.exhausted = False

    def read(self, side: _Side, budget: _Budget):
        """The kept candidates in generation order, each charged to ``budget``.

        ``side`` is the target record the scan was built on.  A candidate at
        index i charges i minus the index of the one before, so every
        generated candidate counts, kept or not, exactly as when the search
        generates them itself; the end of the scan charges the rest.  Past
        the budget ``charge`` raises.
        """
        last = t = 0
        while True:
            if t == len(self.kept) and not self.exhausted:
                self._extend(side, last + budget.left + 1)
            if t == len(self.kept):
                budget.charge(self.scanned - last)
                return
            index, v = self.kept[t]
            t += 1
            budget.charge(index - last)
            last = index
            yield v

    def _extend(self, side: _Side, stop: int) -> None:
        """Generate candidates until one is kept or ``stop`` are generated."""
        key = self.key
        while self.scanned < stop:
            v = next(self.raw, None)
            if v is None:
                self.exhausted = True
                return
            self.scanned += 1
            if side.matches(v, key):
                self.kept.append((self.scanned, v))
                return


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
    automorphisms of the module docstring; they lose no isomorphism.  The
    system is solved here, and the iterator returned holds the solution and
    the rows of [B, B], not the record.
    """
    p, n = side_b.p, side_b.n
    pivots = side_b.central_pivots
    rows = rows + [[1 if i == c else 0 for i in range(n)] for c in pivots]
    solution = _modp.solve_affine(rows, rhs + [0] * len(pivots), p, n)
    if solution is None:
        return iter(())
    shifted = [solution[0]] + solution[1]
    ech, ech_pivots = side_b.profile.derived._res_rows, side_b.profile.derived.pivots
    points = (
        _modp.combine((1,) + combo, shifted, p, n)
        for combo in itertools.product(range(p), repeat=len(shifted) - 1)
    )
    return (v for v in points if not _modp.contains(v, ech, ech_pivots, p))


def _assemble_matrix(closure: _Closure, elem_imgs, p: int, n: int):
    """Matrix sending the standard basis of the source to images in the target."""
    identity = [[int(i == r) for i in range(n)] for r in range(n)]
    return [
        _modp.combine(row, elem_imgs, p, n)
        for row in _modp.coordinates(closure.elems, identity, p, n)
    ]
