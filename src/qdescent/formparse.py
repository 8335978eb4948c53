"""Text form of quadratic polynomials: parsing and canonical formatting.

Grammar (whitespace insignificant, offsets are character positions):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := variable | literal | '(' expr ')'

Variables are x1..xd, with x, y, z, w accepted as aliases for x1..x4.
Literals follow the domain: decimal integers everywhere, `i`/`3i` for
Gaussian integers, polynomials in `t` for F_p[t].  Parsing is one pass:
each production returns its expanded and collected polynomial, and the
total-degree <= 2 bound is enforced on the final result, so inputs like
"(x+y)^2 - x^2" are fine.  The leading optional minus is there so that
formatted output such as "-x1^2" reads back in.  Parentheses nest at
most _MAX_DEPTH deep.  Exponents stop at _MAX_EXPONENT, because a power
is expanded by repeated multiplication; a power of the bare literal t
is the monomial itself and stops at _MAX_MONOMIALS instead, so the
F_p[t] elements the package prints read back up to that degree.

Every diagnostic carries the character offset it points at; for a
degree violation that is the position where the offending monomial was
first created.  A variable or literal creates its monomial at its own
token; a product or power creates its monomials at the start of its
first factor.  A parenthesized single term starts where that term
starts, while a sum or a leading minus starts at its own first token,
so "((x)+y)*z*w" reports offset 1 and "((x))*y*z" offset 2.  A
monomial-budget overflow is reported as soon as it happens, ahead of any
fault later in the text.  Variable indices stop at
quadratic._MAX_DIMENSION, the package's one dimension limit, so the
dimension is bounded before any coefficient vector is built.
"""

from __future__ import annotations

import sys

from .domains import Domain, DomainElement, _Record
from .errors import (
    FormCoefficientError,
    FormDegreeError,
    FormError,
    FormSyntaxError,
    FormVariableError,
)
from .quadratic import _MAX_DIMENSION, QuadraticPolynomial

_MAX_EXPONENT = 64
_MAX_MONOMIALS = 20000
_MAX_DEPTH = 100

_ALIASES = {"x": 1, "y": 2, "z": 3, "w": 4}


def _int_literal(text: str, pos: int) -> int:
    """int(text) for a decimal literal, refused with an offset when it is
    longer than Python's integer-string limit (which int() would raise
    with no position)."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit is not None else 4300
    if limit and len(text) > limit:
        raise FormError(
            f"literal of {len(text)} digits exceeds the limit of {limit} digits", pos
        )
    return int(text)


# -- lexer ------------------------------------------------------------------


class _Token(_Record):
    kind: str  # NUM, IMAG, NAME, OP, END
    text: str
    pos: int


def _lex(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == "i" and (j + 1 >= n or not text[j + 1].isalnum()):
                tokens.append(_Token("IMAG", text[i : j + 1], i))
                i = j + 1
            else:
                tokens.append(_Token("NUM", text[i:j], i))
                i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(_Token("NAME", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        raise FormSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


# -- expansion ----------------------------------------------------------------

# A polynomial under expansion: monomial key -> (raw coefficient, offset),
# where the key is the sorted tuple of 1-based variable indices with
# multiplicity and the offset is where the monomial was first created, for
# diagnostics.


def _poly_add(dom, p1, p2):
    out = dict(p1)
    for key, (c, at) in p2.items():
        old = out.get(key)
        out[key] = (c, at) if old is None else (dom._add(old[0], c), old[1])
    return out


def _poly_neg(dom, p):
    return {k: (dom._neg(c), at) for k, (c, at) in p.items()}


def _poly_mul(dom, p1, p2, at):
    out = {}
    for k1, (c1, _) in p1.items():
        for k2, (c2, _) in p2.items():
            key = tuple(sorted(k1 + k2))
            c = dom._mul(c1, c2)
            old = out.get(key)
            out[key] = (c if old is None else dom._add(old[0], c), at)
            if len(out) > _MAX_MONOMIALS:
                raise FormError("expansion exceeds the monomial budget", at)
    return out


# -- parser -------------------------------------------------------------------


class _Parser:
    """Recursive-descent parser that expands as it goes.

    Each production returns (poly, start), where start is the offset the
    production's monomials are created at (see the module docstring).
    Variable and literal resolution depend on the domain and the
    dimension.
    """

    def __init__(self, text: str, domain: Domain, d: int | None):
        self.domain = domain
        self.d = d
        self.max_index = 0
        self.depth = 0
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def eat(self, kind, text=None) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise FormSyntaxError(f"expected {want}, found {tok.text or 'end of input'!r}", tok.pos)
        self.pos += 1
        return tok

    def take(self, ops: str) -> _Token | None:
        """Consume the next token if it is one of the operators ops."""
        tok = self.tokens[self.pos]
        if tok.kind == "OP" and tok.text in ops:
            self.pos += 1
            return tok
        return None

    def parse(self):
        poly, _ = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise FormSyntaxError(f"unexpected {tok.text!r}", tok.pos)
        return poly

    def expr(self):
        dom = self.domain
        start = self.peek().pos
        if self.take("-"):
            p = _poly_neg(dom, self.term()[0])
        else:
            p, first = self.term()
            if self.peek().text not in ("+", "-"):
                return p, first
        while (tok := self.take("+-")) is not None:
            q = self.term()[0]
            p = _poly_add(dom, p, _poly_neg(dom, q) if tok.text == "-" else q)
        return p, start

    def term(self):
        p, start = self.factor()
        while self.take("*"):
            p = _poly_mul(self.domain, p, self.factor()[0], start)
        return p, start

    def factor(self):
        tok = self.peek()
        base, start = self.base()
        if not self.take("^"):
            return base, start
        num = self.eat("NUM")
        exp = _int_literal(num.text, num.pos)
        if tok.kind == "NAME" and tok.text == "t":
            # a power of the bare t literal (base() accepted it, so the
            # domain is F_p[t]) is the monomial t^exp itself, built in
            # O(exp) with no expansion
            if exp > _MAX_MONOMIALS:
                raise FormDegreeError(f"exponent {exp} is too large", num.pos)
            return self.constant(self.domain.coerce_raw((0,) * exp + (1,)), tok)
        if exp > _MAX_EXPONENT:
            raise FormDegreeError(f"exponent {exp} is too large", num.pos)
        dom = self.domain
        p = {(): (dom._ONE, start)}
        for _ in range(exp):
            p = _poly_mul(dom, p, base, start)
        return p, start

    def base(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.eat("NUM")
            return self.constant(self.domain.coerce_raw(_int_literal(tok.text, tok.pos)), tok)
        if tok.kind == "IMAG":
            self.eat("IMAG")
            if self.domain._GENERATOR != "i":
                raise FormCoefficientError(
                    f"imaginary literal {tok.text!r} is not an element of {self.domain.name}",
                    tok.pos,
                )
            im = _int_literal(tok.text[:-1], tok.pos)
            return self.constant(self.domain.coerce_raw((0, im)), tok)
        if tok.kind == "NAME":
            self.eat("NAME")
            return self.resolve_name(tok)
        if tok.kind == "OP" and tok.text == "(":
            if self.depth == _MAX_DEPTH:
                raise FormSyntaxError(f"parentheses nested deeper than {_MAX_DEPTH}", tok.pos)
            self.eat("OP", "(")
            self.depth += 1
            inner = self.expr()
            self.eat("OP", ")")
            self.depth -= 1
            return inner
        raise FormSyntaxError(
            f"expected a variable, literal, or '(', found {tok.text or 'end of input'!r}",
            tok.pos,
        )

    @staticmethod
    def constant(raw, tok: _Token):
        return {(): (raw, tok.pos)}, tok.pos

    def resolve_name(self, tok: _Token):
        name = tok.text
        if name == self.domain._GENERATOR:
            return self.constant(self.domain.coerce_raw((0, 1)), tok)
        if name in ("i", "t"):
            raise FormCoefficientError(
                f"{name!r} is not an element of {self.domain.name}", tok.pos
            )
        index = None
        if name in _ALIASES:
            index = _ALIASES[name]
        elif name.startswith("x") and name[1:].isdecimal():
            digits = name[1:].lstrip("0")
            # the length test keeps int() off overlong digit strings
            if len(digits) > len(str(_MAX_DIMENSION)) or int(digits or 0) > _MAX_DIMENSION:
                raise FormVariableError(
                    f"variable {name!r} is beyond x{_MAX_DIMENSION}", tok.pos
                )
            index = int(digits or 0)
            if index < 1:
                raise FormVariableError(f"variable indices start at 1: {name!r}", tok.pos)
        if index is None:
            raise FormVariableError(f"unknown variable {name!r}", tok.pos)
        if self.d is not None and index > self.d:
            raise FormVariableError(
                f"variable {name!r} exceeds dimension {self.d}", tok.pos
            )
        self.max_index = max(self.max_index, index)
        return {(index,): (self.domain._ONE, tok.pos)}, tok.pos


def parse_form(text: str, domain: Domain, d: int | None = None) -> QuadraticPolynomial:
    """Parse text into a QuadraticPolynomial over the domain.

    With d given, variables beyond x_d are rejected; with d omitted the
    dimension is inferred as the largest variable index used (at least 1).
    Raises a FormError subclass with a character offset on any problem.
    """
    parser = _Parser(text, domain, d)
    poly = {k: ca for k, ca in parser.parse().items() if not domain._is_zero(ca[0])}
    over = [k for k in poly if len(k) > 2]
    if over:
        key = min(over, key=lambda k: poly[k][1])
        raise FormDegreeError(
            f"monomial of degree {len(key)} exceeds degree 2", poly[key][1]
        )
    dim = d if d is not None else max(1, parser.max_index)
    quad = {}
    lin = [0] * dim
    const = domain._ZERO
    for key, (c, _) in poly.items():
        if len(key) == 0:
            const = c
        elif len(key) == 1:
            lin[key[0] - 1] = c
        else:
            quad[(key[0] - 1, key[1] - 1)] = c
    return QuadraticPolynomial(domain, dim, quad, lin, const)


def parse_element(text: str, domain: Domain) -> DomainElement:
    """Parse a single ring element (no variables allowed)."""
    poly = _Parser(text, domain, 0).parse()
    # d = 0 rejects every variable during parsing, so only () remains
    return DomainElement(domain, poly[()][0])


# -- formatting ----------------------------------------------------------------


def _coefficient_text(domain: Domain, raw) -> tuple[str, str]:
    """Render a coefficient as (sign, magnitude text).

    The sign is lifted out only when the element's text is '-' followed by
    text with no other sign (negative integers, negative real or
    pure-imaginary Gaussian integers), in every ring alike; everything else
    renders with sign '+' and gets parenthesized by the caller if it
    contains + or -.
    """
    text = domain._format(raw)
    if text[0] == "-" and "+" not in text and "-" not in text[1:]:
        return "-", text[1:]
    return "+", text


def _monomial_piece(dom, c, mono) -> tuple[str, str]:
    one = dom._ONE
    sign, mag = _coefficient_text(dom, c)
    if c == one:
        return (sign, mono)
    if sign == "-" and dom._is_zero(dom._add(c, one)):
        # coefficient -1 with the sign lifted into the joiner
        return ("-", mono)
    return (sign, f"{_wrap(mag)}*{mono}")


def format_form(f: QuadraticPolynomial) -> str:
    """Canonical text for f: graded-lex monomial order, variables x1..xd.

    parse_form(format_form(f), f.domain, f.d) reproduces f exactly.
    """
    dom = f.domain
    pieces = []  # (sign, text)
    for (i, j), c in f.quad.items():
        mono = f"x{i + 1}^2" if i == j else f"x{i + 1}*x{j + 1}"
        pieces.append(_monomial_piece(dom, c, mono))
    for i, c in enumerate(f.lin):
        if not dom._is_zero(c):
            pieces.append(_monomial_piece(dom, c, f"x{i + 1}"))
    if not dom._is_zero(f.const):
        sign, mag = _coefficient_text(dom, f.const)
        pieces.append((sign, _wrap(mag)))
    if not pieces:
        return "0"
    out = []
    for k, (sign, text) in enumerate(pieces):
        if k == 0:
            out.append(text if sign == "+" else f"-{text}")
        else:
            out.append(f"{sign}{text}")
    return "".join(out)


def _wrap(text: str) -> str:
    """Parenthesize coefficient text whose interior contains a sign."""
    if "+" in text or "-" in text:
        return f"({text})"
    return text
