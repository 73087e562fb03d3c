"""Named constructors for the classified algebra families.

Each entry builds a structure-constant table from exact parameters and
enforces its field-dependent validity constraints (non-vanishing, square /
non-square conditions, characteristic restrictions, closure relations
forced by the defining identity).  Instantiation always re-checks the
defining identity on the built table; a violation there is a bug, never a
user error.

Parameters are never defaulted: field-dependent validity makes silent
defaults dangerous.  ``sample_params`` suggests one valid assignment per
field (or None when the constraints are unsatisfiable there), which the
verification driver uses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .constraints import ParametricAlgebra
from .core import LeibnizAlgebra
from .errors import ConstraintViolated, IncompleteAssignment, InternalError, NoSuchEntry
from .fields import Field, FieldElement, is_square
from .poly import MultiPoly


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str  # "scalar" (field element) | "size" (int >= 0, or its decimal string)
    description: str


@dataclass(frozen=True)
class ConstraintReport:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dim: int | None  # None when a size parameter decides it
    params: tuple[ParamSpec, ...]
    description: str
    builder: Callable[[Field, dict], LeibnizAlgebra]
    constraints: Callable[[Field, dict], list[ConstraintReport]]
    sample: Callable[[Field], dict | None]


def _coerce_params(entry: CatalogEntry, field: Field, params: dict) -> dict:
    wanted = {p.name for p in entry.params}
    given = set(params)
    missing = sorted(wanted - given)
    if missing:
        raise IncompleteAssignment(
            f"entry {entry.name!r} needs parameters: {', '.join(missing)}"
        )
    extra = sorted(given - wanted)
    if extra:
        raise ConstraintViolated(
            f"entry {entry.name!r} does not take parameters: {', '.join(extra)}"
        )
    out = {}
    for spec in entry.params:
        value = params[spec.name]
        if spec.kind == "size":
            if isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value):
                value = int(value)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConstraintViolated(f"parameter {spec.name} must be an integer, not {value!r}")
            if value < 0:
                raise ConstraintViolated(f"parameter {spec.name} must be >= 0")
            out[spec.name] = value
        else:
            out[spec.name] = field(value)
    return out


def list_catalog() -> list[CatalogEntry]:
    """The fixed entry list, in catalog order."""
    return list(_ENTRIES.values())


def get_entry(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise NoSuchEntry(f"no catalog entry named {name!r}") from None


def validate_params(name: str, field: Field, params: dict) -> list[ConstraintReport]:
    """Per-constraint pass/fail reports for a parameter assignment."""
    entry = get_entry(name)
    coerced = _coerce_params(entry, field, params)
    return entry.constraints(field, coerced)


def instantiate(name: str, field: Field, params: dict | None = None) -> LeibnizAlgebra:
    """Build a catalog algebra; every constraint is enforced.

    The result always passes check_leibniz; a residual there raises
    InternalError because the closure relations below make it impossible.
    """
    entry = get_entry(name)
    coerced = _coerce_params(entry, field, params or {})
    reports = entry.constraints(field, coerced)
    failures = [r for r in reports if not r.ok]
    if failures:
        raise ConstraintViolated(
            "; ".join(f"{r.name}: {r.detail}" for r in failures)
        )
    algebra = entry.builder(field, coerced)
    if algebra.check_leibniz():
        raise InternalError(
            f"catalog entry {name!r} built a table violating the defining identity"
        )
    return algebra


def sample_params(name: str, field: Field) -> dict | None:
    """One valid parameter assignment for this field, or None if impossible."""
    return get_entry(name).sample(field)


# ---------------------------------------------------------------------------
# constraint helpers
# ---------------------------------------------------------------------------

def _nonzero_reports(params: dict, names: list[str]) -> list[ConstraintReport]:
    out = []
    for n in names:
        ok = bool(params[n])
        out.append(
            ConstraintReport(f"{n}_nonzero", ok, f"{n} = {params[n]}" + ("" if ok else " must be nonzero"))
        )
    return out


def _char_not_in(field: Field, bad: tuple[int, ...]) -> ConstraintReport:
    ok = field.characteristic not in bad
    return ConstraintReport(
        "characteristic",
        ok,
        f"characteristic {field.characteristic} "
        + ("allowed" if ok else f"must avoid {set(bad)}"),
    )


def _nonsquare_report(name: str, value: FieldElement) -> ConstraintReport:
    square = is_square(value)
    return ConstraintReport(
        name,
        not square,
        f"{value} is {'a square' if square else 'a non-square'} in {value.field}",
    )


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _abelian(field: Field, prm: dict) -> LeibnizAlgebra:
    n = prm["n"]
    return LeibnizAlgebra.from_table(n, field, [])


def _cyclic_example4(field: Field, prm: dict) -> LeibnizAlgebra:
    return LeibnizAlgebra.from_table(
        4, field, [(1, 1, {2: 1}), (1, 2, {3: 1}), (1, 3, {4: 1})]
    )


def _heisenberg3(field: Field, prm: dict) -> LeibnizAlgebra:
    return LeibnizAlgebra.from_table(
        3, field, [(1, 2, {3: 1}), (2, 1, {3: -1})], labels=("x", "y", "z")
    )


def _cc1_case2(field: Field, prm: dict) -> LeibnizAlgebra:
    tau, lam, eps = prm["tau"], prm["lambda"], prm["epsilon"]
    return LeibnizAlgebra.from_table(
        3,
        field,
        [
            (1, 1, {3: 1}),
            (2, 2, {3: tau}),
            (1, 2, {3: lam}),
            (2, 1, {3: eps}),
        ],
        labels=("x", "y", "z"),
    )


def _cc2_split4(field: Field, prm: dict) -> LeibnizAlgebra:
    return LeibnizAlgebra.from_table(4, field, [(1, 1, {3: 1}), (2, 2, {4: 1})])


def _a18(field: Field, prm: dict) -> LeibnizAlgebra:
    alpha = prm["alpha"]
    return LeibnizAlgebra.from_table(
        4,
        field,
        [
            (1, 1, {3: 1}),
            (2, 1, {4: 1}),
            (1, 2, {3: alpha}),
            (2, 2, {4: -1}),
        ],
    )


def _a19(field: Field, prm: dict) -> LeibnizAlgebra:
    return LeibnizAlgebra.from_table(
        4,
        field,
        [
            (1, 1, {3: 1}),
            (1, 2, {3: 1}),
            (2, 1, {3: 1, 4: 1}),
            (2, 2, {4: 1}),
        ],
    )


def _a1_6dim(field: Field, prm: dict) -> LeibnizAlgebra:
    c, g, d = prm["c"], prm["g"], prm["d"]
    shat, rhat = prm["shat"], prm["rhat"]
    gamma = -d
    f = 2 * d
    # dhat = -3*d is wired in through shat*dhat = rhat*c at [5,1]
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
            (5, 1, {6: rhat * c}),
            (2, 4, {6: rhat * f}),
            (2, 5, {6: shat * g}),
            (5, 2, {6: -(shat * g)}),
        ],
        labels=("t", "u", "w", "rx", "sy", "z"),
    )


def _a3_6dim(field: Field, prm: dict) -> LeibnizAlgebra:
    d, dhat = prm["d"], prm["dhat"]
    f = -d
    fhat = -dhat
    gamma = (d + dhat) / field(2)
    return LeibnizAlgebra.from_table(
        6,
        field,
        [
            (1, 2, {3: 1}),
            (2, 1, {3: -1}),
            (1, 3, {4: 1}),
            (3, 1, {4: -1}),
            (2, 3, {5: 1}),
            (3, 2, {5: -1}),
            (3, 3, {6: gamma}),
            (1, 5, {6: d}),
            (5, 1, {6: dhat}),
            (2, 4, {6: f}),
            (4, 2, {6: fhat}),
        ],
        labels=("t", "u", "w", "x", "y", "z"),
    )


def _table6_products(prm: dict) -> list:
    """The products of the six-dimensional table at parameter values ``prm``."""
    a, b, ab = prm["alpha"], prm["beta"], prm["abar"]
    gamma, c, d = prm["gamma"], prm["c"], prm["d"]
    f, g = prm["f"], prm["g"]
    dhat, fhat = prm["dhat"], prm["fhat"]
    return [
        (1, 1, {6: a}),
        (1, 2, {3: 1}),
        (1, 3, {4: 1}),
        (1, 4, {6: c}),
        (1, 5, {6: d}),
        (2, 1, {3: -1, 6: ab}),
        (2, 2, {6: b}),
        (2, 3, {5: 1}),
        (2, 4, {6: f}),
        (2, 5, {6: g}),
        (3, 1, {4: -1}),
        (3, 2, {5: -1}),
        (3, 3, {6: gamma}),
        (4, 1, {6: -c}),
        (4, 2, {6: fhat}),
        (5, 1, {6: dhat}),
        (5, 2, {6: -g}),
    ]


def _table6_generic(field: Field, prm: dict) -> LeibnizAlgebra:
    return LeibnizAlgebra.from_table(
        6, field, _table6_products(prm), labels=("t", "u", "w", "x", "y", "z")
    )


def _table1_products(prm: dict) -> list:
    """The products of the four-dimensional table at parameter values ``prm``."""
    alpha, beta, gamma = prm["alpha"], prm["beta"], prm["gamma"]
    a, ahat, b, c = prm["a"], prm["ahat"], prm["b"], prm["c"]
    return [
        (1, 1, {4: alpha}),
        (1, 2, {3: 1, 4: a}),
        (1, 3, {4: b}),
        (2, 1, {3: -1, 4: ahat}),
        (2, 2, {4: beta}),
        (2, 3, {4: c}),
        (3, 1, {4: prm["bhat"]}),
        (3, 2, {4: prm["chat"]}),
        (3, 3, {4: gamma}),
    ]


def _table1_case1(field: Field, prm: dict) -> LeibnizAlgebra:
    products = _table1_products({**prm, "bhat": -prm["b"], "chat": -prm["c"]})
    return LeibnizAlgebra.from_table(4, field, products, labels=("w", "x", "y", "z"))


def _holmes_ii(field: Field, prm: dict) -> LeibnizAlgebra:
    return LeibnizAlgebra.from_table(
        5,
        field,
        [
            (1, 2, {3: 1}),
            (2, 1, {3: -1}),
            (1, 3, {4: 1}),
            (3, 1, {4: -1}),
            (2, 3, {5: 1}),
            (3, 2, {5: -1}),
        ],
        labels=("x", "y", "z", "a", "b"),
    )


def _holmes_iii(field: Field, prm: dict) -> LeibnizAlgebra:
    gamma = prm["gamma"]
    return LeibnizAlgebra.from_table(
        6,
        field,
        [
            (1, 2, {3: 1}),
            (2, 1, {3: -1}),
            (1, 3, {4: 1}),
            (3, 1, {4: -1}),
            (2, 3, {5: 1}),
            (3, 2, {5: -1}),
            (1, 4, {6: 1}),
            (4, 1, {6: -1}),
            (2, 5, {6: gamma}),
            (5, 2, {6: -gamma}),
        ],
        labels=("a", "b", "c", "x", "y", "z"),
    )


def _cex_fourdim_a1(field: Field, prm: dict) -> LeibnizAlgebra:
    return LeibnizAlgebra.from_table(4, field, [(1, 3, {4: 1}), (3, 2, {4: 1})])


def _cex_a8(field: Field, prm: dict) -> LeibnizAlgebra:
    return LeibnizAlgebra.from_table(
        5,
        field,
        [
            (1, 1, {5: 1}),
            (1, 2, {3: 1}),
            (2, 1, {3: -1}),
            (1, 3, {4: 1}),
            (3, 1, {4: -1}),
            (2, 3, {5: 1}),
            (3, 2, {5: -1}),
        ],
    )


# ---------------------------------------------------------------------------
# constraint functions and samples
# ---------------------------------------------------------------------------

def _no_constraints(field: Field, prm: dict) -> list[ConstraintReport]:
    return []


def _cc1_constraints(field: Field, prm: dict) -> list[ConstraintReport]:
    tau, lam, eps = prm["tau"], prm["lambda"], prm["epsilon"]
    disc = (lam + eps) ** 2 - 4 * tau
    return _nonzero_reports(prm, ["tau"]) + [
        _nonsquare_report("discriminant_nonsquare", disc)
    ]


def _cc1_sample(field: Field) -> dict | None:
    if field.is_finite():
        p = field.modulus
        for tau in range(1, p):
            for lam in range(p):
                prm = {"tau": field(tau), "lambda": field(lam), "epsilon": field(0)}
                if all(r.ok for r in _cc1_constraints(field, prm)):
                    return {"tau": tau, "lambda": lam, "epsilon": 0}
        return None
    return {"tau": 1, "lambda": 0, "epsilon": 0}  # discriminant -4, not a square


def _a18_constraints(field: Field, prm: dict) -> list[ConstraintReport]:
    alpha = prm["alpha"]
    ok = alpha != field(-1)
    return [
        ConstraintReport(
            "alpha_not_minus_one",
            ok,
            f"alpha = {alpha}" + ("" if ok else " equals -1, the degenerate value"),
        )
    ]


def _a1_constraints(field: Field, prm: dict) -> list[ConstraintReport]:
    reports = _nonzero_reports(prm, ["c", "g", "d", "shat", "rhat"])
    reports.append(_char_not_in(field, (2, 3)))
    if field.characteristic in (2, 3):
        return reports
    lhs = prm["shat"] * (field(-3) * prm["d"])
    rhs = prm["rhat"] * prm["c"]
    reports.append(
        ConstraintReport(
            "scaling_relation",
            lhs == rhs,
            f"shat*(-3d) = {lhs}, rhat*c = {rhs}"
            + ("" if lhs == rhs else " (must be equal)"),
        )
    )
    return reports


def _a1_sample(field: Field) -> dict | None:
    # Besides the validity constraints, prefer parameters for which the
    # binary quadratic c*m^2 + 3d*mn + g*n^2 has no nontrivial zero (its
    # discriminant 9d^2 - 4cg is a non-square): exactly then every maximal
    # subalgebra keeps class three and the isomorphism property can hold.
    if field.characteristic in (2, 3):
        return None
    fallback = {"c": -3, "g": 1, "d": 1, "shat": 1, "rhat": 1}
    if not field.is_finite():
        return fallback
    c = field(-3)
    for g in range(1, field.modulus):
        disc = field(9) - 4 * c * field(g)
        if not is_square(disc):
            return {"c": -3, "g": g, "d": 1, "shat": 1, "rhat": 1}
    return fallback


def _a3_constraints(field: Field, prm: dict) -> list[ConstraintReport]:
    reports = [_char_not_in(field, (2,))]
    reports += _nonzero_reports(prm, ["d"])
    ok = prm["dhat"] == field(3) * prm["d"]
    reports.append(
        ConstraintReport(
            "closure_dhat",
            ok,
            f"dhat = {prm['dhat']}, 3d = {field(3) * prm['d']}"
            + ("" if ok else " (the defining identity forces dhat = 3d)"),
        )
    )
    return reports


def _a3_sample(field: Field) -> dict | None:
    if field.characteristic == 2:
        return None
    return {"d": 1, "dhat": 3}


def _table6_constraints(field: Field, prm: dict) -> list[ConstraintReport]:
    gamma, d, f = prm["gamma"], prm["d"], prm["f"]
    dhat, fhat = prm["dhat"], prm["fhat"]
    conds = [
        ("closure_gamma_d_f", gamma == d - f, "gamma = d - f"),
        ("closure_gamma_d_fhat", gamma == -d - fhat, "gamma = -d - fhat"),
        ("closure_gamma_dhat_f", gamma == dhat + f, "gamma = dhat + f"),
    ]
    return [
        ConstraintReport(name, ok, desc + ("" if ok else " violated"))
        for name, ok, desc in conds
    ]


def _table6_sample(field: Field) -> dict | None:
    return {
        "alpha": 1,
        "beta": 1,
        "abar": 1,
        "gamma": 0,
        "c": 1,
        "d": 1,
        "f": 1,
        "g": 1,
        "dhat": -1,
        "fhat": -1,
    }


def _table1_constraints(field: Field, prm: dict) -> list[ConstraintReport]:
    ok = not prm["gamma"]
    return [
        ConstraintReport(
            "closure_gamma_zero",
            ok,
            "gamma = 0" if ok else f"gamma = {prm['gamma']}, but the identity forces 0",
        )
    ]


def _holmes_iii_constraints(field: Field, prm: dict) -> list[ConstraintReport]:
    return [_nonsquare_report("neg_gamma_nonsquare", -prm["gamma"])]


def _holmes_iii_sample(field: Field) -> dict | None:
    if field.is_finite():
        for g in range(1, field.modulus):
            if not is_square(field(-g)):
                return {"gamma": g}
        return None
    return {"gamma": 2}


_SCALAR = "scalar"


_ENTRIES: dict[str, CatalogEntry] = {
    e.name: e
    for e in [
        CatalogEntry(
            "abelian",
            None,
            (ParamSpec("n", "size", "dimension"),),
            "Abelian algebra of the requested dimension; every product is zero.",
            _abelian,
            _no_constraints,
            lambda field: {"n": 3},
        ),
        CatalogEntry(
            "cyclic_example4",
            4,
            (),
            "Four-dimensional cyclic algebra: x1*x1 = x2, [x1,x2] = x3, "
            "[x1,x3] = x4; class four, coclass zero, two-dimensional second "
            "center.",
            _cyclic_example4,
            _no_constraints,
            lambda field: {},
        ),
        CatalogEntry(
            "heisenberg3",
            3,
            (),
            "Three-dimensional Heisenberg Lie algebra: [x,y] = z = -[y,x].",
            _heisenberg3,
            _no_constraints,
            lambda field: {},
        ),
        CatalogEntry(
            "cc1_case2",
            3,
            (
                ParamSpec("tau", _SCALAR, "coefficient of y*y"),
                ParamSpec("lambda", _SCALAR, "coefficient of [x,y]"),
                ParamSpec("epsilon", _SCALAR, "coefficient of [y,x]"),
            ),
            "Three-dimensional coclass-one family: x*x = z, y*y = tau z, "
            "[x,y] = lambda z, [y,x] = epsilon z.  Valid when tau is nonzero "
            "and (lambda+epsilon)^2 - 4*tau is a non-square; normalizing "
            "tau = 1 turns that into (lambda+epsilon)^2 - 4.",
            _cc1_case2,
            _cc1_constraints,
            _cc1_sample,
        ),
        CatalogEntry(
            "cc2_split4",
            4,
            (),
            "Split four-dimensional coclass-two algebra: sum of two cyclic "
            "planes, x1*x1 = x3 and x2*x2 = x4.",
            _cc2_split4,
            _no_constraints,
            lambda field: {},
        ),
        CatalogEntry(
            "A18",
            4,
            (ParamSpec("alpha", _SCALAR, "coefficient of [x1,x2] on x3"),),
            "Non-split four-dimensional coclass-two family: x1*x1 = x3, "
            "[x2,x1] = x4, [x1,x2] = alpha x3, x2*x2 = -x4; alpha = -1 makes "
            "a maximal subalgebra degenerate and is rejected.",
            _a18,
            _a18_constraints,
            lambda field: {"alpha": 0},
        ),
        CatalogEntry(
            "A19",
            4,
            (),
            "Non-split four-dimensional coclass-two algebra: x1*x1 = x3, "
            "[x1,x2] = x3, [x2,x1] = x3 + x4, x2*x2 = x4.",
            _a19,
            _no_constraints,
            lambda field: {},
        ),
        CatalogEntry(
            "A1_6dim",
            6,
            (
                ParamSpec("c", _SCALAR, "coefficient of [t,x] on z (unscaled)"),
                ParamSpec("g", _SCALAR, "coefficient of [u,y] on z (unscaled)"),
                ParamSpec("d", _SCALAR, "coefficient of [t,y] on z (unscaled)"),
                ParamSpec("shat", _SCALAR, "scaling of the y basis vector"),
                ParamSpec("rhat", _SCALAR, "scaling of the x basis vector"),
            ),
            "Six-dimensional coclass-two family on basis t,u,w,rx,sy,z whose "
            "quotient by the second center is Heisenberg.  The defining "
            "identity forces fhat = 0, gamma = -d, f = 2d, dhat = -3d, so "
            "validity needs shat*(-3d) = rhat*c, all of c,g,d,rhat,shat "
            "nonzero, and characteristic outside {2, 3}.",
            _a1_6dim,
            _a1_constraints,
            _a1_sample,
        ),
        CatalogEntry(
            "A3_6dim",
            6,
            (
                ParamSpec("d", _SCALAR, "coefficient of [t,y] on z"),
                ParamSpec("dhat", _SCALAR, "coefficient of [y,t] on z"),
            ),
            "Six-dimensional coclass-two family on basis t,u,w,x,y,z with "
            "f = -d, fhat = -dhat, gamma = (d+dhat)/2; the defining identity "
            "additionally forces dhat = 3d, and d must be nonzero so the "
            "family keeps coclass two.  Characteristic two is excluded.",
            _a3_6dim,
            _a3_constraints,
            _a3_sample,
        ),
        CatalogEntry(
            "table6_generic",
            6,
            (
                ParamSpec("alpha", _SCALAR, "coefficient of t*t on z"),
                ParamSpec("beta", _SCALAR, "coefficient of u*u on z"),
                ParamSpec("abar", _SCALAR, "z-part of [u,t]"),
                ParamSpec("gamma", _SCALAR, "coefficient of w*w on z"),
                ParamSpec("c", _SCALAR, "coefficient of [t,x] on z"),
                ParamSpec("d", _SCALAR, "coefficient of [t,y] on z"),
                ParamSpec("f", _SCALAR, "coefficient of [u,x] on z"),
                ParamSpec("g", _SCALAR, "coefficient of [u,y] on z"),
                ParamSpec("dhat", _SCALAR, "coefficient of [y,t] on z"),
                ParamSpec("fhat", _SCALAR, "coefficient of [x,u] on z"),
            ),
            "Six-dimensional symbolic table used as feedstock for constraint "
            "extraction; it is a Leibniz algebra exactly when gamma = d - f "
            "= -d - fhat = dhat + f (alpha, beta, abar stay free).",
            _table6_generic,
            _table6_constraints,
            _table6_sample,
        ),
        CatalogEntry(
            "table1_case1",
            4,
            (
                ParamSpec("alpha", _SCALAR, "coefficient of w*w on z"),
                ParamSpec("beta", _SCALAR, "coefficient of x*x on z"),
                ParamSpec("gamma", _SCALAR, "coefficient of y*y on z"),
                ParamSpec("a", _SCALAR, "z-part of [w,x]"),
                ParamSpec("ahat", _SCALAR, "z-part of [x,w]"),
                ParamSpec("b", _SCALAR, "coefficient of [w,y] on z"),
                ParamSpec("c", _SCALAR, "coefficient of [x,y] on z"),
            ),
            "Four-dimensional symbolic table with bhat = -b and chat = -c "
            "already substituted; the defining identity further forces "
            "gamma = 0, which instantiation enforces.",
            _table1_case1,
            _table1_constraints,
            lambda field: {
                "alpha": 1,
                "beta": 1,
                "gamma": 0,
                "a": 1,
                "ahat": 1,
                "b": 1,
                "c": 1,
            },
        ),
        CatalogEntry(
            "holmes_ii",
            5,
            (),
            "Five-dimensional coclass-two Lie algebra: [x,y] = z, [x,z] = a, "
            "[y,z] = b (all products skew).",
            _holmes_ii,
            _no_constraints,
            lambda field: {},
        ),
        CatalogEntry(
            "holmes_iii",
            6,
            (ParamSpec("gamma", _SCALAR, "coefficient of [b,y] on z"),),
            "Six-dimensional coclass-two Lie family: [a,b] = c, [a,c] = x, "
            "[b,c] = y, [a,x] = z, [b,y] = gamma z, with -gamma a non-square; "
            "over any field where every element is a square (e.g. closed "
            "fields) the family is empty.",
            _holmes_iii,
            _holmes_iii_constraints,
            _holmes_iii_sample,
        ),
        CatalogEntry(
            "cex_fourdim_A1",
            4,
            (),
            "Four-dimensional algebra [x1,x3] = x4, [x3,x2] = x4; one maximal "
            "subalgebra is abelian and another is not, so the upper-series "
            "profile property fails.",
            _cex_fourdim_a1,
            _no_constraints,
            lambda field: {},
        ),
        CatalogEntry(
            "cex_A8",
            5,
            (),
            "Five-dimensional algebra with x1*x1 = x5 on top of a Lie core "
            "([x1,x2] = x3, [x1,x3] = x4, [x2,x3] = x5, all skew); one "
            "maximal subalgebra is Lie and another is not, so the "
            "isomorphism property fails.",
            _cex_a8,
            _no_constraints,
            lambda field: {},
        ),
    ]
}


# ---------------------------------------------------------------------------
# parametric tables for the constraint solver
# ---------------------------------------------------------------------------

TABLE6_VARIABLES = tuple(spec.name for spec in _ENTRIES["table6_generic"].params)

TABLE1_VARIABLES = tuple(spec.name for spec in _ENTRIES["table1_case1"].params) + ("bhat", "chat")


def _parametric(dim: int, variables, products) -> ParametricAlgebra:
    """The table of ``products`` with every parameter a free variable."""
    values = {name: MultiPoly.variable(variables, name) for name in variables}
    return ParametricAlgebra.from_table(dim, variables, {(i, j): v for i, j, v in products(values)})


def parametric_table6() -> ParametricAlgebra:
    """The six-dimensional symbolic table with all ten parameters free."""
    return _parametric(6, TABLE6_VARIABLES, _table6_products)


def parametric_table1() -> ParametricAlgebra:
    """The four-dimensional symbolic table with bhat, chat, gamma free."""
    return _parametric(4, TABLE1_VARIABLES, _table1_products)
