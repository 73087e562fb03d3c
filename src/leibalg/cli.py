"""Command-line front end.

Exit codes: 0 success / property true; 1 property false (with a witness
description); 2 usage or input error; 3 internal invariant breach.
The LEIBALG_SEED environment variable is the fallback for --seed; a
value that is not an integer is a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import catalog, constraints, maximal, reproduce, series
from .core import LeibnizAlgebra
from .errors import InternalError, LeibalgError, ParseError
from .fields import Field
from .formats import format_algebra, parse_algebra, parse_parametric, parse_relations

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _seed(text: str) -> int:
    """--seed as an int; argparse also applies it to the LEIBALG_SEED default."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed {text!r} is not an integer (from --seed, or LEIBALG_SEED without it)"
        ) from None


def _default_seed() -> str:
    return os.environ.get("LEIBALG_SEED", "0")


def _read(path: str) -> str:
    """The text of an input file; a file that cannot be read is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _load_algebra(path: str) -> LeibnizAlgebra:
    return parse_algebra(_read(path))


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ParseError(f"bad --param {pair!r}, expected name=value")
        name, value = pair.split("=", 1)
        out[name.strip()] = value.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibalg",
        description="Exact tools for finite-dimensional left Leibniz algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the defining identity of a table file")
    p.add_argument("file")

    p = sub.add_parser("analyze", help="series, class, coclass, and flags")
    p.add_argument("file")

    p = sub.add_parser("maximals", help="list maximal subalgebras (GF(p) only)")
    p.add_argument("file")

    p = sub.add_parser("iso", help="decide isomorphism of two table files")
    p.add_argument("file_a")
    p.add_argument("file_b")

    p = sub.add_parser("p1", help="are all maximal subalgebras isomorphic?")
    p.add_argument("file")

    p = sub.add_parser("p2", help="do all maximal subalgebras share series dims?")
    p.add_argument("file")

    p = sub.add_parser("catalog", help="named algebra families")
    csub = p.add_subparsers(dest="catalog_command", required=True)
    csub.add_parser("list", help="list entries")
    c = csub.add_parser("make", help="instantiate an entry and write the table")
    c.add_argument("name")
    c.add_argument("--field", required=True)
    c.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    c.add_argument("-o", "--output", default=None)
    c = csub.add_parser("check", help="report per-constraint validity")
    c.add_argument("name")
    c.add_argument("--field", required=True)
    c.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")

    p = sub.add_parser("derive", help="print the identity constraints of a parametric table")
    p.add_argument("file")

    p = sub.add_parser(
        "verify-relations", help="exact check over Q of a relations file, both directions"
    )
    p.add_argument("file")
    p.add_argument("--relations", required=True)

    p = sub.add_parser("reproduce", help="run the full claim suite and write a report")
    p.add_argument("--fields", default="3,5,7", help="comma-separated primes")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_seed, default=_default_seed())
    p.add_argument("--only", default=None, help="run only claims whose id contains this")
    p.add_argument(
        "--no-timing",
        action="store_true",
        help="omit the elapsed-ms column (byte-stable regression reports)",
    )

    return parser


def cmd_verify(args) -> int:
    algebra = _load_algebra(args.file)
    violations = algebra.check_leibniz()
    if not violations:
        print(f"ok: {algebra.dim}-dimensional algebra over {algebra.field}")
        return EXIT_OK
    for v in violations:
        residual = " ".join(str(c) for c in v.residual)
        print(f"violation at triple ({v.i},{v.j},{v.k}): residual [{residual}]")
    print(f"{len(violations)} violating triples")
    return EXIT_FALSE


def cmd_analyze(args) -> int:
    algebra = _load_algebra(args.file)
    prof = series.nilpotency_data(algebra)
    print(f"field {algebra.field}")
    print(f"dim {algebra.dim}")
    print(f"lower {list(prof.lower_dims)}")
    print(f"upper {list(prof.upper_dims)}")
    print(f"nilpotent {str(prof.nilpotent).lower()}")
    print(f"class {prof.cls if prof.cls is not None else '-'}")
    print(f"coclass {prof.coclass if prof.coclass is not None else '-'}")
    print(f"center_dim {prof.center.dim}")
    leib = algebra.leib_ideal()
    print(f"leib_dim {leib.dim}")
    cyclic = prof.nilpotent and prof.cyclic[0]
    print(f"cyclic {str(cyclic).lower()}")
    print(f"lie {str(leib.is_zero()).lower()}")
    return EXIT_OK


def _fingerprint_digest(fp: maximal.Fingerprint) -> str:
    square = "-" if fp.square_profile is None else f"{fp.square_profile[0]}/{fp.square_profile[1]}"
    return (
        f"dim={fp.dim} lower={list(fp.lower_dims)} upper={list(fp.upper_dims)} "
        f"leib={fp.leib_dim} z={fp.center_dim} zl={fp.left_center_dim} "
        f"der={fp.derived_dim} sq={square}"
    )


def cmd_maximals(args) -> int:
    record = maximal._Side(_load_algebra(args.file))
    for m in record.maximals:
        tag = ",".join(str(c) for c in m.hyperplane_tag)
        print(f"[{tag}] {_fingerprint_digest(record.records[m.induced].fingerprint)}")
    return EXIT_OK


def cmd_iso(args) -> int:
    a = _load_algebra(args.file_a)
    b = _load_algebra(args.file_b)
    verdict = maximal.is_isomorphic(a, b)
    if verdict.status == "yes":
        print("isomorphic")
        for row in verdict.matrix:
            print("  " + " ".join(str(c) for c in row))
        return EXIT_OK
    print(f"{verdict.status}: {verdict.reason}")
    return EXIT_FALSE


def _property_verdict(name: str, holds: str, ok: bool, witness) -> int:
    """Print a P1/P2 verdict, with the witness pair of maximals when it fails."""
    if ok:
        print(f"{name} holds: all maximal subalgebras {holds}")
        return EXIT_OK
    a, b = (",".join(map(str, m.hyperplane_tag)) for m in (witness.a, witness.b))
    print(f"{name} fails: maximal [{a}] vs [{b}]: {witness.detail}")
    return EXIT_FALSE


def cmd_p1(args) -> int:
    return _property_verdict("P1", "are isomorphic", *maximal.check_p1(_load_algebra(args.file)))


def cmd_p2(args) -> int:
    return _property_verdict(
        "P2", "share the series profile", *maximal.check_p2(_load_algebra(args.file))
    )


def cmd_catalog(args) -> int:
    if args.catalog_command == "list":
        for entry in catalog.list_catalog():
            params = ", ".join(p.name for p in entry.params) or "-"
            dim = entry.dim if entry.dim is not None else "n"
            print(f"{entry.name:16s} dim {dim:>2}  params: {params}")
            print(f"    {entry.description}")
        return EXIT_OK
    field = Field.parse(args.field)
    params = _parse_params(args.param)
    if args.catalog_command == "check":
        reports = catalog.validate_params(args.name, field, params)
        all_ok = True
        for r in reports:
            status = "PASS" if r.ok else "FAIL"
            all_ok = all_ok and r.ok
            print(f"{status} {r.name}: {r.detail}")
        if not reports:
            print("no constraints")
        return EXIT_OK if all_ok else EXIT_FALSE
    algebra = catalog.instantiate(args.name, field, params)
    text = format_algebra(algebra)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"cannot write table: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_derive(args) -> int:
    parametric = parse_parametric(_read(args.file))
    for poly in constraints.leibniz_constraints(parametric):
        print(poly)
    return EXIT_OK


def cmd_verify_relations(args) -> int:
    parametric = parse_parametric(_read(args.file))
    relations = parse_relations(_read(args.relations), parametric.variables)
    report = constraints.verify_implied_relations(parametric, relations)
    for name, check in report.named_checks:
        print(f"{check.status} {name}: {check.detail}")
    return EXIT_OK if report.ok else EXIT_FALSE


def cmd_reproduce(args) -> int:
    try:
        primes = [int(x) for x in args.fields.split(",") if x.strip()]
    except ValueError:
        print(f"bad --fields {args.fields!r}", file=sys.stderr)
        return EXIT_USAGE
    claims = reproduce.build_claims(primes, args.seed)
    if args.only:
        claims = [c for c in claims if args.only in c.claim_id]
        if not claims:
            print(f"no claim id contains {args.only!r}", file=sys.stderr)
            return EXIT_USAGE
    entries = reproduce.run_claims(claims)
    text = reproduce.render_report(entries, include_timing=not args.no_timing)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return EXIT_USAGE
    sys.stdout.write(text)
    return EXIT_OK if all(e.verdict != "fail" for e in entries) else EXIT_FALSE


_COMMANDS = {
    "verify": cmd_verify,
    "analyze": cmd_analyze,
    "maximals": cmd_maximals,
    "iso": cmd_iso,
    "p1": cmd_p1,
    "p2": cmd_p2,
    "catalog": cmd_catalog,
    "derive": cmd_derive,
    "verify-relations": cmd_verify_relations,
    "reproduce": cmd_reproduce,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except InternalError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (LeibalgError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
