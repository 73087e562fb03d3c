"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a map from exponent tuples (one entry per variable in a
fixed variable list) to nonzero Fraction coefficients; the zero polynomial
has no terms.  Term order is graded lexicographic over the declared
variable order, which fixes leading terms, monic normal forms, printing,
and the canonical ordering of constraint lists.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatch, IncompleteAssignment, LeibalgError, UnknownVariable
from .fields import Field, FieldElement

Exponent = tuple[int, ...]


class MultiPoly:
    """Immutable polynomial over a fixed ordered tuple of variable names."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        variables = tuple(variables)
        object.__setattr__(self, "variables", variables)
        clean = {}
        for exp, c in (terms if isinstance(terms, dict) else dict(terms)).items():
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c:
                exp = tuple(exp)
                if len(exp) != len(variables):
                    raise LeibalgError("exponent arity does not match variable count")
                clean[exp] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, value) -> "MultiPoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): Fraction(value)})

    @classmethod
    def variable(cls, variables, name: str) -> "MultiPoly":
        variables = tuple(variables)
        exp = [0] * len(variables)
        exp[_position(variables, name)] = 1
        return cls(variables, {tuple(exp): Fraction(1)})

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.variables != other.variables:
            raise LeibalgError("polynomials over different variable lists")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.variables, other)
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, Fraction(0)) + c
        return MultiPoly(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.variables, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return MultiPoly(self.variables, {e: c * v for e, v in self.terms.items()})
        self._check(other)
        terms: dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                terms[exp] = terms.get(exp, Fraction(0)) + ca * cb
        return MultiPoly(self.variables, terms)

    __rmul__ = __mul__

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    @staticmethod
    def _grlex_key(exp: Exponent):
        return (sum(exp), exp)

    def leading(self) -> tuple[Exponent, Fraction]:
        exp = max(self.terms, key=self._grlex_key)
        return exp, self.terms[exp]

    def monic(self) -> "MultiPoly":
        """Scale so the graded-lex leading coefficient is one."""
        if self.is_zero():
            return self
        _, c = self.leading()
        return self * (Fraction(1) / c)

    def sort_key(self):
        """Deterministic ordering key for constraint lists."""
        items = sorted(self.terms.items(), key=lambda t: self._grlex_key(t[0]), reverse=True)
        return (
            self.total_degree(),
            tuple((exp, (c.numerator, c.denominator)) for exp, c in items),
        )

    def substitute(self, assignment: dict[str, "MultiPoly | Fraction | int"]) -> "MultiPoly":
        """Substitute rationals, or polynomials over the same variables, for some variables."""
        values = {
            _position(self.variables, name): (
                value if isinstance(value, MultiPoly) else MultiPoly.constant(self.variables, value)
            )
            for name, value in assignment.items()
        }
        result = MultiPoly.zero(self.variables)
        for exp, c in self.terms.items():
            kept = tuple(0 if i in values else e for i, e in enumerate(exp))
            term = MultiPoly(self.variables, {kept: c})
            for i, value in values.items():
                for _ in range(exp[i]):
                    term = term * value
            result = result + term
        return result

    def restrict_variables(self, variables) -> "MultiPoly":
        """Re-express over a sub-list of variables (others must not occur)."""
        variables = tuple(variables)
        positions = [_position(self.variables, v) for v in variables]
        keep = set(positions)
        terms = {}
        for exp, c in self.terms.items():
            for i, e in enumerate(exp):
                if e and i not in keep:
                    raise LeibalgError(f"variable {self.variables[i]!r} still occurs")
            terms[tuple(exp[i] for i in positions)] = c
        return MultiPoly(variables, terms)

    def eval(self, assignment: dict[str, FieldElement], field: Field) -> FieldElement:
        """Exact evaluation in a field; all variables must be assigned."""
        missing = [v for v in self.variables if v not in assignment and self._occurs(v)]
        if missing:
            raise IncompleteAssignment(f"unassigned variables: {', '.join(missing)}")
        total = field.zero()
        for exp, c in self.terms.items():
            try:
                term = field(c)
            except ZeroDivisionError as exc:
                raise FieldMismatch(
                    f"coefficient {c} has no image in {field}"
                ) from exc
            for i, e in enumerate(exp):
                if e:
                    term = term * assignment[self.variables[i]] ** e
            total = total + term
        return total

    def _occurs(self, name: str) -> bool:
        i = self.variables.index(name)
        return any(exp[i] for exp in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"MultiPoly({self})"

    def __str__(self):
        if self.is_zero():
            return "0"
        items = sorted(self.terms.items(), key=lambda t: self._grlex_key(t[0]), reverse=True)
        pieces = []
        for pos, (exp, coeff) in enumerate(items):
            factors = []
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(self.variables[i])
                elif e > 1:
                    factors.extend([self.variables[i]] * e)
            mag = abs(coeff)
            body = "*".join(factors)
            if not factors:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            if pos == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)


def _position(variables: tuple[str, ...], name: str) -> int:
    """Index of ``name`` among ``variables``; UnknownVariable if absent."""
    if name not in variables:
        raise UnknownVariable(f"unknown variable {name!r}; variables are {', '.join(variables)}")
    return variables.index(name)
