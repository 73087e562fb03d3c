"""Text formats: structure-constant files, parametric tables, relations.

The v1 algebra format is consumed and produced bit-exactly::

    leibalg v1
    field GF(3)          # or: field Q
    dim 4
    basis x1 x2 x3 x4    # optional
    [1,1] = 1*3          # [e1,e1] = 1*e3; terms "coeff*index" joined by '+'
    [2,1] = 1*3 + 1*4

Both table formats share one grammar.  ``#`` starts a comment and blank
lines are skipped.  The first line is the header ``leibalg v1``; every
other line is a keyword line or a product line.  A keyword line starts
with one of the exact words ``field``, ``params``, ``dim`` or ``basis``
(``dimension 2`` is not one), and each keyword appears at most once.
``dim`` is required: an integer >= 0 that comes before any product line.
A product line ``[i,j] = t + t + ...`` names each cell at most once, with
1 <= i, j <= dim; a term is ``coeff*k``, or ``k`` for coefficient 1, with
1 <= k <= dim, and ``0`` is the empty sum.  Omitted products are zero.

The algebra format requires ``field``, takes no ``params``, and its
optional ``basis`` line names exactly dim vectors.  The parametric format
allows parameter names as coefficient factors (``[3,3] = gamma*6``) and an
optional ``params`` line of distinct identifiers fixing the variable
order; without it the variables are ordered by first appearance.  Its
``field`` and ``basis`` lines are read past: parametric coefficients are
field-independent rationals.  A relations file holds one polynomial per
line in the same scalar/monomial syntax.  A coefficient or polynomial is a
sum of terms, each a product of factors joined by ``*``; a ``*`` with no
factor after it (``a*``, so also ``[1,1] = a**2``) is an error.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .constraints import ParametricAlgebra
from .core import LeibnizAlgebra
from .errors import LeibalgError, ParseError
from .fields import Field
from .poly import MultiPoly

_HEADER = "leibalg v1"

_PRODUCT_RE = re.compile(r"\[(\d+)\s*,\s*(\d+)\]\s*=\s*(.+)")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _read_v1(text: str, keywords: tuple[str, ...]):
    """Check the grammar both table formats share; see the module docstring.

    Returns ``(values, dim, products)``.  ``values`` maps each keyword line
    present to ``(lineno, rest of the line)``; ``products`` lists
    ``(lineno, i, j, [(coeff_text, k), ...])`` with 1-based indices.
    """
    lines = list(_logical_lines(text))
    if not lines or lines[0][1] != _HEADER:
        raise ParseError(f"expected header {_HEADER!r}", lines[0][0] if lines else 1)
    values: dict[str, tuple[int, str]] = {}
    dim: int | None = None
    products = []
    seen: set[tuple[int, int]] = set()
    for lineno, line in lines[1:]:
        word = line.split(None, 1)[0]
        if word in keywords:
            if word in values:
                first = values[word][0]
                raise ParseError(f"second {word} line, the first is line {first}", lineno)
            rest = line[len(word) :].strip()
            values[word] = (lineno, rest)
            if word == "dim":
                try:
                    dim = int(rest)
                except ValueError:
                    raise ParseError(f"bad dimension {line!r}", lineno) from None
                if dim < 0:
                    raise ParseError(f"negative dimension {dim}", lineno)
            continue
        m = _PRODUCT_RE.fullmatch(line)
        if not m:
            raise ParseError(f"unrecognized line {line!r}", lineno)
        if dim is None:
            raise ParseError("dim must precede product lines", lineno)
        i, j = int(m.group(1)), int(m.group(2))
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ParseError(f"product index [{i},{j}] outside 1..{dim}", lineno)
        if (i, j) in seen:
            raise ParseError(f"product [{i},{j}] specified twice", lineno)
        seen.add((i, j))
        products.append((lineno, i, j, _split_terms(m.group(3), dim, lineno)))
    if dim is None:
        raise ParseError("missing dim line")
    return values, dim, products


def _split_terms(rhs: str, dim: int, lineno: int) -> list[tuple[str, int]]:
    if rhs == "0":
        return []
    terms = []
    for chunk in rhs.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty term", lineno)
        coeff_text, star, index_text = chunk.rpartition("*")
        try:
            k = int(index_text)
        except ValueError:
            raise ParseError(f"bad basis index {index_text.strip()!r}", lineno) from None
        if not 1 <= k <= dim:
            raise ParseError(f"basis index {k} outside 1..{dim}", lineno)
        terms.append((coeff_text.strip() if star else "1", k))
    return terms


def _names_in_order(texts) -> tuple[str, ...]:
    """The identifiers in ``texts``, each once, in order of first appearance."""
    return tuple(dict.fromkeys(name for text in texts for name in _IDENT_RE.findall(text)))


def _product_lines(cells, coeff_texts) -> list[str]:
    """The ``[i,j] = ...`` lines of a table of coefficients.

    ``cells[i][j]`` holds the pairs (k, coefficient of e_k in [e_i, e_j]),
    0-based k ascending, and ``coeff_texts`` lists the texts of one
    coefficient, none for zero.
    """
    lines = []
    for i, row in enumerate(cells, start=1):
        for j, cell in enumerate(row, start=1):
            terms = [f"{c}*{k + 1}" for k, coeff in cell for c in coeff_texts(coeff)]
            if terms:
                lines.append(f"[{i},{j}] = " + " + ".join(terms))
    return lines


def parse_algebra(text: str) -> LeibnizAlgebra:
    """Parse the v1 structure-constant format."""
    values, dim, products = _read_v1(text, ("field", "dim", "basis"))
    if "field" not in values:
        raise ParseError("missing field line")
    lineno, literal = values["field"]
    try:
        field = Field.parse(literal)
    except LeibalgError as exc:
        raise ParseError(str(exc), lineno) from None
    labels = None
    if "basis" in values:
        lineno, names = values["basis"]
        labels = names.split()
        if len(labels) != dim:
            raise ParseError(f"basis line names {len(labels)} vectors, dim is {dim}", lineno)
    entries = []
    for lineno, i, j, terms in products:
        vec: dict[int, object] = {}
        for coeff_text, k in terms:
            try:
                coeff = field(coeff_text)
            except LeibalgError as exc:
                raise ParseError(str(exc), lineno) from None
            vec[k] = vec.get(k, field.zero()) + coeff
        entries.append((i, j, vec))
    return LeibnizAlgebra.from_table(dim, field, entries, labels)


def format_algebra(algebra: LeibnizAlgebra) -> str:
    """Canonical v1 text; parse(format(A)) == A and the text round-trips."""
    out = [
        _HEADER,
        f"field {algebra.field}",
        f"dim {algebra.dim}",
        "basis " + " ".join(algebra.labels),
    ]
    # the cells hold nonzero raw values, whose text is their FieldElement's
    out += _product_lines(algebra._cells, lambda c: [c])
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# polynomials and parametric tables
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(rf"\s*(?:(\d+(?:/\d+)?)|({_IDENT_RE.pattern})|(\S))")


def parse_poly(text: str, variables) -> MultiPoly:
    """Parse sums of '*'-joined factors (rationals and variable names).

    A '+' or '-' right after a factor ends the term; any other is a unary
    sign of the next term.
    """
    variables = tuple(variables)
    result = MultiPoly.zero(variables)
    term = None  # the product of the current term's factors so far
    sign = 1
    expect_factor = True
    for number, name, other in _TOKEN_RE.findall(text):
        if number or name:
            if not expect_factor:
                raise ParseError(f"missing operator in {text!r}")
            if name and name not in variables:
                raise ParseError(f"unknown variable {name!r} in {text!r}")
            try:
                factor = MultiPoly.variable(variables, name) if name else Fraction(number)
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {text!r}") from None
            term = factor if term is None else term * factor
            expect_factor = False
        elif other == "*":
            if expect_factor:
                raise ParseError(f"misplaced '*' in {text!r}")
            expect_factor = True
        elif other in ("+", "-"):
            if not expect_factor:
                result = result + sign * term
                term, sign = None, 1
                expect_factor = True
            if other == "-":
                sign = -sign
        else:
            raise ParseError(f"bad character {other!r} in polynomial {text!r}")
    if term is None:
        raise ParseError(f"missing term in polynomial {text!r}")
    if expect_factor:
        raise ParseError(f"trailing '*' in {text!r}")
    return result + sign * term


def parse_relations(text: str, variables=None) -> list[MultiPoly]:
    """One polynomial per line; variables inferred in order of appearance."""
    lines = list(_logical_lines(text))
    if variables is None:
        variables = _names_in_order(line for _, line in lines)
    out = []
    for lineno, line in lines:
        try:
            out.append(parse_poly(line, variables))
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from None
    return out


def parse_parametric(text: str) -> ParametricAlgebra:
    """Parse the parametric extension of the v1 format."""
    values, dim, products = _read_v1(text, ("field", "params", "dim", "basis"))
    if "params" in values:
        lineno, names = values["params"]
        variables = tuple(names.split())
        bad = next((v for v in variables if not _IDENT_RE.fullmatch(v)), None)
        if bad is not None:
            raise ParseError(f"params name {bad!r} is not an identifier", lineno)
        if len(set(variables)) != len(variables):
            raise ParseError(f"params names a variable twice: {names!r}", lineno)
    else:
        variables = _names_in_order(coeff for *_, terms in products for coeff, _ in terms)
    cells: dict[tuple[int, int], dict[int, MultiPoly]] = {}
    for lineno, i, j, terms in products:
        for coeff_text, k in terms:
            try:
                poly = parse_poly(coeff_text, variables)
            except ParseError as exc:
                raise ParseError(str(exc), lineno) from None
            vec = cells.setdefault((i, j), {})
            vec[k] = vec.get(k, MultiPoly.zero(variables)) + poly
    return ParametricAlgebra.from_table(dim, variables, cells)


def _monomial_strings(poly: MultiPoly) -> list[str]:
    pieces = []
    items = sorted(poly.terms.items(), key=lambda t: MultiPoly._grlex_key(t[0]), reverse=True)
    for exp, coeff in items:
        factors = []
        for idx, e in enumerate(exp):
            factors.extend([poly.variables[idx]] * e)
        if not factors:
            pieces.append(str(coeff))
        elif coeff == 1:
            pieces.append("*".join(factors))
        else:
            pieces.append(str(coeff) + "*" + "*".join(factors))
    return pieces


def format_parametric(p: ParametricAlgebra) -> str:
    out = [_HEADER, "params " + " ".join(p.variables), f"dim {p.dim}"]
    cells = [[list(enumerate(cell)) for cell in row] for row in p.entries]
    out += _product_lines(cells, _monomial_strings)
    return "\n".join(out) + "\n"
