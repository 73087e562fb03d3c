"""Batch verification driver: every checkable claim as a report entry.

Each claim is a named, deterministic check (given the field list and the
seed); running the suite produces one report line per claim plus a summary.
Closed-field statements are exercised through exact finite-field proxies:
the square / non-square conditions governing the families are natural over
GF(p), and the classification is field dependent by design.

Claims may be executed concurrently by callers; report lines are emitted
in fixed claim-id order regardless of completion order.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable

from . import _modp, catalog, constraints, maximal, randomgen
from .core import LeibnizAlgebra
from .errors import ConstraintViolated, LeibalgError, NeedsFiniteField, SearchBoundExceeded
from .fields import GF, QQ, Field
from .formats import parse_relations
from .linalg import Subspace


class ClaimFailed(LeibalgError):
    """A verification claim did not hold; the message is the evidence."""


class ClaimSkipped(LeibalgError):
    """A claim does not apply in this configuration; the message says why."""


@dataclass(frozen=True)
class Claim:
    claim_id: str
    description: str
    run: Callable[[], str]


@dataclass(frozen=True, slots=True)
class ReportEntry:
    claim_id: str
    description: str
    verdict: str  # "pass" | "fail" | "skipped"
    evidence: str
    elapsed_ms: int


def run_claims(claims: list[Claim]) -> list[ReportEntry]:
    entries = []
    for claim in claims:
        start = time.perf_counter()
        try:
            evidence = claim.run()
            verdict = "pass"
        except ClaimSkipped as exc:
            verdict, evidence = "skipped", str(exc)
        except LeibalgError as exc:
            verdict, evidence = "fail", f"{type(exc).__name__}: {exc}"
        except AssertionError as exc:
            verdict, evidence = "fail", f"assertion failed: {exc}"
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        entries.append(
            ReportEntry(claim.claim_id, claim.description, verdict, evidence, elapsed_ms)
        )
    return entries


def render_report(entries: list[ReportEntry], include_timing: bool = True) -> str:
    lines = []
    for e in entries:
        timing = f" ({e.elapsed_ms} ms)" if include_timing else ""
        lines.append(f"{e.verdict.upper():7s} {e.claim_id}{timing}: {e.evidence}")
    passed = sum(1 for e in entries if e.verdict == "pass")
    failed = sum(1 for e in entries if e.verdict == "fail")
    skipped = sum(1 for e in entries if e.verdict == "skipped")
    lines.append(f"summary: {passed} passed, {failed} failed, {skipped} skipped")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# claim helpers
# ---------------------------------------------------------------------------

def reference_cyclic_plane(field: Field) -> LeibnizAlgebra:
    """The three-dimensional algebra with the single product r*r = s."""
    return LeibnizAlgebra.from_table(3, field, [(1, 1, {2: 1})], labels=("r", "s", "t"))


def build_table8(field: Field, c, g, f, rhat, shat) -> LeibnizAlgebra:
    """The row/column-swapped twin of the A1 six-dimensional family.

    Closure: dhat = 0, gamma = f, d = 2f, fhat = -3f, subject to
    shat*g = rhat*fhat and -f != fhat.
    """
    c, g, f = field(c), field(g), field(f)
    rhat, shat = field(rhat), field(shat)
    gamma = f
    d = 2 * f
    return LeibnizAlgebra.from_table(
        6,
        field,
        [
            (1, 2, {3: 1}),
            (2, 1, {3: -1}),
            (1, 3, {4: rhat.inv()}),
            (3, 1, {4: -rhat.inv()}),
            (2, 3, {5: shat.inv()}),
            (3, 2, {5: -shat.inv()}),
            (3, 3, {6: gamma}),
            (1, 4, {6: rhat * c}),
            (4, 1, {6: -(rhat * c)}),
            (1, 5, {6: shat * d}),
            (2, 4, {6: rhat * f}),
            (4, 2, {6: shat * g}),
            (2, 5, {6: shat * g}),
            (5, 2, {6: -(shat * g)}),
        ],
        labels=("t", "u", "w", "rx", "sy", "z"),
    )


def forced_cc1_table(field: Field, tau, lam, eps) -> LeibnizAlgebra:
    """The catalog's coclass-one table built raw, bypassing its constraints."""
    params = {"tau": field(tau), "lambda": field(lam), "epsilon": field(eps)}
    return catalog.get_entry("cc1_case2").builder(field, params)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ClaimFailed(message)


def _span_of_labels(algebra: LeibnizAlgebra, *indices: int) -> Subspace:
    return algebra.subspace([algebra.basis_vector(i) for i in indices])


# More subspaces than this are refused before any is built.  The largest
# count the structural suites can meet is 2542, the subspaces of dim >= 2 of
# a five-dimensional center over GF(3).
MAX_SUBSPACES = 10_000


def _gaussian_binomial(d: int, k: int, p: int) -> int:
    """[d, k]_p, the number of k-dimensional subspaces of GF(p)^d."""
    num = den = 1
    for i in range(k):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _echelon_coefficients(field: Field, d: int, min_dim: int):
    """Each k x d reduced echelon matrix over GF(p), k >= min_dim, as (pivots, rows).

    They are listed by ascending k, then by pivot set, then by the values
    of the free entries: row r is e_{pivots[r]} plus any multiples of the
    e_c for the free columns c after its pivot.  Raises NeedsFiniteField
    over Q, and SearchBoundExceeded when the count, a sum of Gaussian
    binomials [d, k]_p, is more than MAX_SUBSPACES; both before the first
    matrix is yielded.
    """
    if not field.is_finite():
        raise NeedsFiniteField("subspace enumeration needs GF(p)")
    p = field.modulus
    dims = range(max(min_dim, 0), d + 1)
    count = sum(_gaussian_binomial(d, k, p) for k in dims)
    if count > MAX_SUBSPACES:
        raise SearchBoundExceeded(
            f"{count} subspaces of dim >= {min_dim} in a {d}-dimensional space over {field}"
            f" exceed MAX_SUBSPACES = {MAX_SUBSPACES}"
        )
    for k in dims:
        for pivots in itertools.combinations(range(d), k):
            row_choices = []
            for pc in pivots:
                free = [c for c in range(pc + 1, d) if c not in pivots]
                choices = []
                for values in itertools.product(range(p), repeat=len(free)):
                    row = [0] * d
                    row[pc] = 1
                    for c, x in zip(free, values):
                        row[c] = x
                    choices.append(tuple(row))
                row_choices.append(choices)
            for rows in itertools.product(*row_choices):
                yield pivots, rows


def enumerate_subspaces(space: Subspace, min_dim: int) -> list[Subspace]:
    """All subspaces of ``space`` with dim >= min_dim, each exactly once.

    A k-dimensional subspace is the row space of exactly one k x d matrix C
    in reduced echelon form (d = space.dim), and C times the echelon basis
    of ``space`` is again in reduced echelon form, with pivots at the basis
    pivots that C's pivots select.  So the subspaces are C times that basis
    for each C of ``_echelon_coefficients``: [d, k]_p of each dimension k,
    in ascending k, rows already canonical.  GF(p) only.  Raises
    SearchBoundExceeded, before building any, when there are more than
    MAX_SUBSPACES.
    """
    field = space.field
    p, n = field.characteristic, space.ambient_dim
    basis = space._res_rows
    images: dict[tuple, tuple] = {}  # a row of C, times the basis
    out = []
    for pivots, rows in _echelon_coefficients(field, space.dim, min_dim):
        res_rows = []
        for row in rows:
            image = images.get(row)
            if image is None:
                image = images[row] = tuple(_modp.combine(row, basis, p, n))
            res_rows.append(image)
        ambient_pivots = tuple(space.pivots[pc] for pc in pivots)
        out.append(Subspace._from_residues(field, n, tuple(res_rows), ambient_pivots))
    return out


def _central_ideal_classes(center: Subspace, lower, min_dim: int):
    """(dim I, class of A/I) for each subspace I of Z(A) with dim >= min_dim.

    The ideals come in the order of ``enumerate_subspaces(center,
    min_dim)``, each as the row space of its coefficient matrix C over the
    echelon basis of Z(A), and none is built.  The class of A/I is the
    least c with lower[c] = gamma_{c+1}(A) inside I; only the terms inside
    Z(A) can be, and a vector of Z(A) has its entries at Z(A)'s pivot
    columns as coordinates over that basis, so each such term is tested
    against rowspace(C) on those coordinates.  None when no term lies in I,
    which for a nilpotent A cannot happen.
    """
    p = center.field.characteristic
    inside = [
        (c, [tuple(row[pc] for pc in center.pivots) for row in term._res_rows])
        for c, term in enumerate(lower)
        if center.contains_space(term)
    ]
    for pivots, rows in _echelon_coefficients(center.field, center.dim, min_dim):
        dim = len(rows)
        for c, coords in inside:
            if len(coords) <= dim and all(_modp.contains(v, rows, pivots, p) for v in coords):
                yield dim, c
                break
        else:
            yield dim, None


def run_structural_suite(field: Field, count: int, max_dim: int, seed: int) -> str:
    """Randomized structural property suite on seeded nilpotent towers.

    Checks, per algebra: equal strict-step counts of the two central series;
    the derived subalgebra equals both the Frattini shortcut and the
    intersection of maximal subalgebras; cyclicity iff the derived
    subalgebra has codimension one; under the series-profile property the
    next-to-last upper term equals the Frattini subalgebra; central ideals
    of dimension > 1 drop the coclass; codimension-one centers split off a
    two-dimensional ideal.

    Every tower is drawn from the seeded rng, but each distinct table is
    decided once per call: a tower equal to an earlier one adds that one's
    counts, since the checks are functions of the table and draw nothing
    from the rng.  The call makes one ``maximal._Records`` and takes each
    tower's record from it too, so each distinct table, tower or induced
    maximal, has one record, and its series are computed once per call,
    across towers; the class of each central-ideal quotient is read off
    the tower's lower series, with no quotient or ideal built.
    The towers share one dict of cocycle spaces, so the space of each
    distinct table a tower extends is computed once per call.  Nothing
    outlives the call.
    """
    if max_dim < 2:
        raise LeibalgError(f"towers need max_dim >= 2, got {max_dim}")
    if count < 0:
        raise LeibalgError(f"tower count must be >= 0, got {count}")
    rng = random.Random(seed)
    outcomes: dict[LeibnizAlgebra, tuple[bool, int, bool]] = {}
    records = maximal._Records()
    cocycle_spaces: dict = {}
    splits = 0
    central_ideals = 0
    p2_holds = 0
    for _ in range(count):
        dim = rng.randrange(2, max_dim + 1)
        algebra = randomgen._random_tower(rng, field, dim, cocycle_spaces)
        outcome = outcomes.get(algebra)
        if outcome is None:
            outcome = outcomes[algebra] = _check_tower(records[algebra])
        p2, ideals, split = outcome
        p2_holds += p2
        central_ideals += ideals
        splits += split
    return (
        f"{count} towers over {field}: series step counts equal, "
        f"frattini = derived = intersection of maximals, cyclicity matches "
        f"codim-1 derived; {p2_holds} with the series-profile property had "
        f"next-to-last upper term = frattini; {central_ideals} central ideals "
        f"dropped the coclass; {splits} codim-1-center splits verified"
    )


def _check_tower(record: maximal._Side) -> tuple[bool, int, bool]:
    """The structural checks on one tower's record, as its contributions to the counts.

    Returns (series-profile property with class >= 1, central ideals of
    dim >= 2, codim-1 center split), with every invariant read off the
    record.  The class of A/I for a central ideal I is read off the lower
    series of A: gamma_i(A/I) = (gamma_i(A) + I)/I, so it is the least c
    with gamma_{c+1}(A) inside I.  Every subspace of Z(A) is an ideal, and
    ``_central_ideal_classes`` tests each on the coordinates over Z(A)'s
    echelon basis of the lower terms inside Z(A), building no subspace.
    """
    algebra, prof = record.algebra, record.profile
    _require(not algebra.check_leibniz(), "random tower violated the identity")
    _require(prof.nilpotent, "random tower must be nilpotent")
    _require(
        len(prof.lower_dims) == len(prof.upper_dims),
        f"series step counts differ: {prof.lower_dims} vs {prof.upper_dims}",
    )
    derived = prof.derived
    frattini = prof.frattini
    _require(frattini == derived, "frattini shortcut mismatch")
    _require(
        record.intersection() == derived,
        "intersection of maximals differs from the derived subalgebra",
    )
    cyclic, witness = prof.cyclic
    _require(
        cyclic == (derived.dim == algebra.dim - 1),
        "cyclicity must match codimension-one derived subalgebra",
    )
    if cyclic and algebra.dim > 0:
        _require(witness is not None, "cyclic algebras carry a witness")
    p2, _ = record.p2()
    p2_counted = p2 and prof.cls is not None and prof.cls >= 1
    if p2_counted:
        # the step counts are equal, so the upper series has cls + 1 terms
        _require(
            prof.upper[prof.cls - 1] == frattini,
            "under the series-profile property the next-to-last upper "
            "term must equal the Frattini subalgebra",
        )
    center, coclass = prof.center, prof.coclass
    ideals = 0
    for dim, cls in _central_ideal_classes(center, prof.lower, 2):
        ideals += 1
        _require(
            cls is not None and coclass is not None,
            "quotients of nilpotent algebras are nilpotent",
        )
        q_coclass = algebra.dim - dim - cls
        _require(
            q_coclass <= coclass,
            "coclass may not grow under quotients",
        )
        _require(
            q_coclass <= coclass - 1,
            f"central ideal of dim {dim} must drop the coclass",
        )
    split = center.dim == algebra.dim - 1
    if split:
        i_space, j_space = prof.codim1_split
        _require(i_space.dim == 2, "split part must be two-dimensional")
        _require(
            i_space.sum_with(j_space).dim == algebra.dim,
            "split parts must fill the algebra",
        )
    return p2_counted, ideals, split


# ---------------------------------------------------------------------------
# the claim suite
# ---------------------------------------------------------------------------

def build_claims(field_primes: list[int], seed: int) -> list[Claim]:
    """The claims for the given primes, in report order.

    Raises LeibalgError when the prime list is empty or names a prime twice,
    since either would make a report without its per-field lines or with
    each of them twice.
    """
    if not field_primes:
        raise LeibalgError("the claim suite needs at least one field")
    repeated = sorted({p for p in field_primes if field_primes.count(p) > 1})
    if repeated:
        raise LeibalgError(f"fields must be distinct; repeated: {repeated}")
    claims: list[Claim] = []
    fields = [GF(p) for p in field_primes]

    def add(claim_id: str, description: str, fn: Callable[[], str]) -> None:
        claims.append(Claim(claim_id, description, fn))

    # 1. identity suite over every requested field
    for entry in catalog.list_catalog():
        for field in fields:
            add(
                f"identity.{entry.name}@{field}",
                f"{entry.name} instantiates over {field} and satisfies the "
                "defining identity",
                _identity_claim(entry.name, field),
            )

    # 2. the cyclic four-dimensional example
    for field in fields:
        add(
            f"example4.structure@{field}",
            "cyclic example: center span{x4}, second center span{x3,x4}, "
            "class 4, coclass 0, a single maximal subalgebra",
            _example4_claim(field),
        )

    # 3. coclass-one positive direction
    add(
        "cc1.p1@GF(3)",
        "coclass-one family with non-square discriminant has P1 over GF(3)",
        _cc1_positive_claim(GF(3), tau=1, lam=0, eps=0),
    )
    add(
        "cc1.p1@GF(5)",
        "coclass-one family with non-square discriminant has P1 over GF(5)",
        _cc1_positive_claim(GF(5), tau=1, lam=1, eps=0),
    )

    # 4. coclass-one negative direction
    add(
        "cc1.reject@GF(5)",
        "square discriminant parameters are rejected by validation",
        _cc1_reject_claim,
    )
    add(
        "cc1.forced@GF(5)",
        "force-built square-discriminant table fails P1 with a concrete pair",
        _cc1_forced_claim,
    )

    # 5. coclass-two, dimension four
    for p in (3, 5):
        field = GF(p)
        add(
            f"cc2dim4.cc2_split4@{field}",
            "split coclass-two algebra has P1 and maximal normal form r*r = s",
            _cc2dim4_claim(field, "cc2_split4", {}),
        )
        for alpha in (0, 1, 2):
            if (alpha - (p - 1)) % p == 0:
                continue  # alpha = -1 in this field
            add(
                f"cc2dim4.A18(alpha={alpha})@{field}",
                "four-dimensional non-split family has P1 and maximal normal "
                "form r*r = s",
                _cc2dim4_claim(field, "A18", {"alpha": alpha}),
            )
        add(
            f"cc2dim4.A19@{field}",
            "four-dimensional non-split algebra has P1 and maximal normal "
            "form r*r = s",
            _cc2dim4_claim(field, "A19", {}),
        )

    # 6. coclass-two, dimension six
    add(
        "cc2dim6.A1@GF(5)",
        "six-dimensional family: P1, coclass 2, second center of dim 3",
        _cc2dim6_claim(GF(5), "A1_6dim"),
    )
    add(
        "cc2dim6.A1@GF(7)",
        "six-dimensional family: P1, coclass 2, second center of dim 3",
        _cc2dim6_claim(GF(7), "A1_6dim"),
    )
    add(
        "cc2dim6.A3@GF(5)",
        "six-dimensional skew family: P1, coclass 2, second center of dim 3",
        _cc2dim6_claim(GF(5), "A3_6dim"),
    )
    add(
        "cc2dim6.table8@GF(5)",
        "the row/column-swapped twin table is isomorphic to the A1 family",
        _table8_claim,
    )

    # 7. counterexamples
    add(
        "counterexample.p2.cex_fourdim_A1@GF(3)",
        "four-dimensional counterexample fails the series-profile property "
        "with an abelian/non-abelian witness pair",
        _cex_p2_claim,
    )
    add(
        "counterexample.p1.cex_A8@GF(3)",
        "five-dimensional counterexample fails the isomorphism property; "
        "the witness pair has square-ideal dims 1 vs 0",
        _cex_p1_claim,
    )

    # 8. constraint derivations
    add(
        "relations.table6",
        "the three closure relations of the generic six-dimensional table "
        "are exactly its identity constraints over Q, none redundant",
        _relations_claim(
            catalog.parametric_table6,
            "gamma - d + f\ngamma + d + fhat\ngamma - dhat - f\n",
            catalog.TABLE6_VARIABLES,
        ),
    )
    add(
        "relations.table1",
        "bhat = -b, chat = -c, gamma = 0 are exactly the identity constraints "
        "of the four-dimensional symbolic table over Q, none redundant",
        _relations_claim(
            catalog.parametric_table1,
            "bhat + b\nchat + c\ngamma\n",
            catalog.TABLE1_VARIABLES,
        ),
    )

    # 9. randomized structural suite
    add(
        "structural.random@GF(2)",
        "randomized structural property suite over GF(2)",
        lambda: run_structural_suite(GF(2), count=100, max_dim=5, seed=seed),
    )
    add(
        "structural.random@GF(3)",
        "randomized structural property suite over GF(3)",
        lambda: run_structural_suite(GF(3), count=100, max_dim=5, seed=seed + 1),
    )

    # 10. field dependence
    add(
        "field_dependence.holmes_iii",
        "the non-square family instantiates over GF(5) but is rejected for "
        "every rational parameter whose negation is a square",
        _holmes_field_dependence_claim,
    )
    return claims


def _identity_claim(name: str, field: Field):
    def run() -> str:
        params = catalog.sample_params(name, field)
        if params is None:
            raise ClaimSkipped(f"constraints unsatisfiable over {field}")
        algebra = catalog.instantiate(name, field, params)
        _require(algebra.verified, "identity residuals must be empty")
        shown = {k: str(v) for k, v in sorted(params.items())}
        return f"instantiated with {shown}; all identity residuals vanish"

    return run


def _example4_claim(field: Field):
    def run() -> str:
        record = maximal._Side(catalog.instantiate("cyclic_example4", field, {}))
        algebra, prof = record.algebra, record.profile
        _require(prof.center == _span_of_labels(algebra, 3), "center must be span{x4}")
        _require(
            prof.upper[2] == _span_of_labels(algebra, 2, 3), "second center must be span{x3,x4}"
        )
        _require(prof.cls == 4 and prof.coclass == 0, f"class/coclass {prof.cls}/{prof.coclass}")
        maxes = record.maximals
        _require(len(maxes) == 1, f"expected a single maximal subalgebra, got {len(maxes)}")
        ok, _ = record.p1()
        _require(ok, "P1 must hold trivially")
        return "center, second center, class 4, coclass 0, one maximal subalgebra"

    return run


def _cc1_positive_claim(field: Field, tau: int, lam: int, eps: int):
    def run() -> str:
        params = {"tau": tau, "lambda": lam, "epsilon": eps}
        record = maximal._Side(catalog.instantiate("cc1_case2", field, params))
        p = field.modulus
        maxes = record.maximals
        expected = (p * p - 1) // (p - 1)
        _require(len(maxes) == expected, f"{len(maxes)} maximals, expected {expected}")
        ok, witness = record.p1()
        _require(ok, f"P1 failed: {witness}")
        disc = (field(lam) + field(eps)) ** 2 - 4 * field(tau)
        return (
            f"discriminant {disc} is a non-square; all {expected} maximal "
            "subalgebras pairwise isomorphic"
        )

    return run


def _cc1_reject_claim() -> str:
    reports = catalog.validate_params(
        "cc1_case2", GF(5), {"tau": 1, "lambda": 1, "epsilon": 1}
    )
    bad = [r for r in reports if not r.ok]
    _require(
        any(r.name == "discriminant_nonsquare" for r in bad),
        "square discriminant must be reported",
    )
    try:
        catalog.instantiate("cc1_case2", GF(5), {"tau": 1, "lambda": 1, "epsilon": 1})
    except ConstraintViolated as exc:
        return f"rejected as expected: {exc}"
    raise ClaimFailed("instantiation must reject a square discriminant")


def _cc1_forced_claim() -> str:
    algebra = forced_cc1_table(GF(5), tau=1, lam=1, eps=1)
    _require(not algebra.check_leibniz(), "the forced table is still an algebra")
    ok, witness = maximal.check_p1(algebra)
    _require(not ok, "P1 must fail for a square discriminant")
    _require(witness is not None, "a P1 failure carries a witness pair")
    return (
        f"non-isomorphic pair: tags {witness.a.hyperplane_tag} vs "
        f"{witness.b.hyperplane_tag} ({witness.detail})"
    )


def _cc2dim4_claim(field: Field, name: str, params: dict):
    def run() -> str:
        record = maximal._Side(catalog.instantiate(name, field, params))
        coclass = record.profile.coclass
        _require(coclass == 2, f"coclass {coclass}, expected 2")
        maxes = record.maximals
        ok, witness = record.p1()
        _require(ok, f"P1 failed: {witness}")
        # P1 holds, so the first maximal's verdict carries to every other
        records = record.records
        first = maxes[0]
        verdict = records[first.induced].isomorphism(records[reference_cyclic_plane(field)])
        _require(
            verdict.status == "yes",
            f"maximal {first.hyperplane_tag} not isomorphic to the r*r = s form",
        )
        return (
            f"coclass 2, P1 holds, all {len(maxes)} maximal subalgebras "
            "isomorphic to the reference r*r = s algebra"
        )

    return run


def _cc2dim6_claim(field: Field, name: str):
    def run() -> str:
        params = catalog.sample_params(name, field)
        if params is None:
            raise ClaimSkipped(f"constraints unsatisfiable over {field}")
        record = maximal._Side(catalog.instantiate(name, field, params))
        prof = record.profile
        _require(prof.coclass == 2, f"coclass {prof.coclass}, expected 2")
        z2 = prof.upper[2]
        _require(z2.dim == 3, f"second center dim {z2.dim}, expected 3")
        maxes = record.maximals
        ok, witness = record.p1()
        _require(ok, f"P1 failed: {witness}")
        return f"coclass 2, dim Z2 = 3, P1 over {len(maxes)} maximal subalgebras"

    return run


def _table8_claim() -> str:
    field = GF(5)
    t8 = build_table8(field, c=1, g=1, f=1, rhat=1, shat=2)
    _require(not t8.check_leibniz(), "the twin table satisfies the identity")
    a1 = catalog.instantiate(
        "A1_6dim", field, {"c": -1, "g": -1, "d": -1, "shat": 1, "rhat": 2}
    )
    verdict = maximal.is_isomorphic(t8, a1)
    _require(verdict.status == "yes", f"expected an isomorphism, got {verdict.status}")
    return "explicit isomorphism found between the twin table and the A1 family"


def _cex_p2_claim() -> str:
    record = maximal._Side(catalog.instantiate("cex_fourdim_A1", GF(3), {}))
    ok, witness = record.p2()
    _require(not ok, "the counterexample must fail the series-profile property")
    _require(witness is not None, "a series-profile failure carries a witness pair")
    # [M, M] = 0 exactly when Z(M) = M, read off the upper series P2 built
    abelian_flags = {
        m.hyperplane_tag: record.records[m.induced].profile.center.dim == m.induced.dim
        for m in (witness.a, witness.b)
    }
    _require(
        sorted(abelian_flags.values()) == [False, True],
        f"witness pair must be one abelian and one non-abelian: {abelian_flags}",
    )
    return f"witness pair {sorted(abelian_flags.items())}; {witness.detail}"


def _cex_p1_claim() -> str:
    record = maximal._Side(catalog.instantiate("cex_A8", GF(3), {}))
    ok, witness = record.p1()
    _require(not ok, "the counterexample must fail the isomorphism property")
    _require(witness is not None, "a P1 failure carries a witness pair")
    leib_a, leib_b = (
        record.records[m.induced].fingerprint.leib_dim for m in (witness.a, witness.b)
    )
    _require(
        sorted((leib_a, leib_b)) == [0, 1],
        f"witness pair must have square-ideal dims 1 vs 0, got {leib_a}, {leib_b}",
    )
    return (
        f"witness tags {witness.a.hyperplane_tag} vs {witness.b.hyperplane_tag}: "
        f"square-ideal dims {leib_a} vs {leib_b} ({witness.detail})"
    )


def _relations_claim(build_table, relations_text: str, variables):
    """The relations of a parametric table, checked exactly over Q."""

    def run() -> str:
        relations = parse_relations(relations_text, variables)
        report = constraints.verify_implied_relations(build_table(), relations)
        _require(report.ok, f"relation verification failed: {report}")
        details = "; ".join(check.detail for _, check in report.named_checks)
        return f"exact row-space check over Q: {details}"

    return run


def _holmes_field_dependence_claim() -> str:
    algebra = catalog.instantiate("holmes_iii", GF(5), {"gamma": 2})
    _require(algebra.dim == 6, "six-dimensional instantiation expected")
    rejected = []
    for gamma in ("-1", "-4", "-9/4", "-25"):
        reports = catalog.validate_params("holmes_iii", QQ, {"gamma": gamma})
        _require(
            not all(r.ok for r in reports),
            f"gamma = {gamma} must be rejected over the rationals",
        )
        rejected.append(gamma)
    ok_reports = catalog.validate_params("holmes_iii", QQ, {"gamma": 2})
    _require(all(r.ok for r in ok_reports), "gamma = 2 stays valid over the rationals")
    return (
        "instantiated over GF(5) with gamma = 2; rational gammas "
        f"{rejected} all rejected because -gamma is a square"
    )
