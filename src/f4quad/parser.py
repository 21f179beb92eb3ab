"""Instance files: four definitions over s, t, e with +, *, /, ^, parens.

    delta = s + t
    phiE  = e + s
    beta  = s
    alpha = t

A line (lines end at '\\n' only) is blank, a comment whose first
non-space character is '#', or `name = expression`.  One pattern,
_TOKEN, reads a right-hand side: a token is an ASCII integer, a variable
s, t or e not followed by a word character, or one of + - * / ^ ( ).
Whitespace separates tokens; any other character is an error.  The
grammar, read by recursive descent, is

    expr := term (('+'|'-') term)*    term := factor (('*'|'/') factor)*
    factor := atom ('^' int)*         atom := var | int | '(' expr ')'

and '-' is a synonym of '+' since the coefficients live in GF(2).
Errors carry line and column.

delta is parsed first, inside K ('e' is rejected: L is not yet
defined); the other three are parsed in L = K[e]/(e^2 + e + delta).
beta and alpha must be nonzero and free of e, phiE must involve e, no
power, product or quotient may have a numerator or denominator of total
degree above MAX_DEGREE, and parentheses may not nest deeper than
MAX_NESTING.
"""

from __future__ import annotations

import re
from functools import reduce

from .fields import (K_ONE, K_S, K_T, K_ZERO, L_E, L_ONE, L_ZERO, FieldError,
                     FieldInstance, LElem)

MAX_DEGREE = 64
MAX_NESTING = 64
_FIELDS = ("delta", "phiE", "beta", "alpha")
_VARS = {"s": LElem(K_S), "t": LElem(K_T), "e": L_E}

# \s and \w match exactly what str.isspace and str.isalnum (or '_') accept
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<var>[ste])(?!\w)|(?P<op>[-+*/^()])"
                    r"|(?P<bad>\S)")


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line, self.col = line, col


class _Parser:
    """One right-hand side as (kind, text, column) tokens, the last of
    kind "end"; `offset` is the number of characters before it on its
    line, so columns count from the line start."""

    def __init__(self, text: str, line: int, offset: int,
                 inst: FieldInstance | None):
        self.line = line
        self.tokens = []
        for m in _TOKEN.finditer(text):
            col = offset + m.start() + 1
            if m.lastgroup != "bad":
                self.tokens.append((m.lastgroup, m[0], col))
            elif m[0] in "ste":
                raise ParseError("unknown name starting at "
                                 f"{text[m.start():m.start() + 8]!r}", line, col)
            else:
                raise ParseError(f"unexpected character {m[0]!r}", line, col)
        self.tokens.append(("end", "", offset + len(text) + 1))
        self.idx = self.depth = 0  # next token; open parentheses
        self.in_k = inst is None
        self.inst = inst or FieldInstance(K_ZERO, L_E, K_ONE, K_ONE)

    def take(self, ops: str = ""):
        """The next token, or with `ops` the next operator among them
        (None if it is none of them); the end token stays."""
        tok = self.tokens[self.idx]
        if ops and not (tok[0] == "op" and tok[1] in ops):
            return None
        self.idx += tok[0] != "end"
        return tok

    def expr(self) -> LElem:
        val = self.term()
        while self.take("+-"):
            val = val + self.term()
        return val

    def term(self) -> LElem:
        val = self.factor()
        while op := self.take("*/"):
            rhs = self.factor()
            if op[1] == "/":
                try:
                    rhs = self.inst.linv(rhs)
                except FieldError:  # a zero divisor (zero norm)
                    raise ParseError("division by zero", self.line,
                                     op[2]) from None
            val = self.inst.lmul(val, rhs)
            if _degree(val) > MAX_DEGREE:
                raise ParseError("product or quotient of total degree "
                                 f"above {MAX_DEGREE}", self.line, op[2])
        return val

    def factor(self) -> LElem:
        val = self.atom()
        while self.take("^"):
            kind, text, col = self.take()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer",
                                 self.line, col)
            if len(text) > 9 or int(text) * max(1, _degree(val)) > MAX_DEGREE:
                raise ParseError("power too large (exponent times degree "
                                 f"above {MAX_DEGREE})", self.line, col)
            val = reduce(self.inst.lmul, [val] * int(text), L_ONE)
        return val

    def atom(self) -> LElem:
        kind, text, col = self.take()
        if kind == "var":
            if text == "e" and self.in_k:
                raise ParseError("delta must not involve e", self.line, col)
            return _VARS[text]
        if kind == "int":
            return L_ONE if int(text[-1]) % 2 else L_ZERO
        if text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 self.line, col)
            self.depth += 1
            val = self.expr()
            self.depth -= 1
            if not self.take(")"):
                raise ParseError("expected ')'", self.line, self.take()[2])
            return val
        raise ParseError("unexpected end of expression" if kind == "end"
                         else f"unexpected token {text!r}", self.line, col)


def _degree(z: LElem) -> int:
    return max(p.total_degree() for c in (z.c0, z.c1) for p in (c.num, c.den))


def parse_expression(text: str, line: int, inst: FieldInstance | None,
                     offset: int = 0) -> LElem:
    """One right-hand side, in L over `inst`; without an instance the
    expression is delta's and must stay in K.  `offset` is the number of
    characters before `text` on its line."""
    parser = _Parser(text, line, offset, inst)
    val = parser.expr()
    kind, rest, col = parser.take()
    if kind != "end":
        raise ParseError(f"trailing input {rest!r}", line, col)
    return val


def parse_instance_text(text: str) -> FieldInstance:
    """Parse the four definitions into a FieldInstance (not yet validated)."""
    raw: dict[str, tuple[str, int, int]] = {}
    lines = text.split("\n")
    for lineno, line in enumerate(lines, start=1):
        body = line.lstrip()
        if body[:1] in ("", "#"):
            continue
        name, eq, rhs = line.partition("=")
        col = len(line) - len(body) + 1  # of the name
        if not eq:
            raise ParseError("expected 'name = expression'", lineno, col)
        name = name.strip()
        if name not in _FIELDS:
            raise ParseError(f"unknown field {name!r}", lineno, col)
        if name in raw:
            raise ParseError(f"duplicate field {name!r}", lineno, col)
        # the columns of the right-hand side count from the line start
        raw[name] = (rhs.rstrip(), lineno, len(line) - len(rhs))
    if missing := set(_FIELDS) - set(raw):
        raise ParseError(f"missing fields: {', '.join(sorted(missing))}",
                         len(lines), len(lines[-1]) + 1)

    def value(name: str, inst: FieldInstance | None):
        rhs, lineno, offset = raw[name]
        val = parse_expression(rhs, lineno, inst, offset)
        col = offset + len(rhs) - len(rhs.lstrip()) + 1  # of the rhs
        if (name == "phiE") == val.c1.is_zero():
            must = "must" if name == "phiE" else "must not"
            raise ParseError(f"{name} {must} involve e", lineno, col)
        if name in ("beta", "alpha") and val.is_zero():
            raise ParseError(f"{name} must be nonzero", lineno, col)
        return val if name == "phiE" else val.c0

    delta = value("delta", None)
    inst = FieldInstance(delta, L_E, K_ONE, K_ONE)
    beta, alpha, phi_e = (value(n, inst) for n in ("beta", "alpha", "phiE"))
    return FieldInstance(delta=delta, phi_e=phi_e, beta=beta, alpha=alpha)


def parse_instance_file(path: str) -> FieldInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance_text(fh.read())


def load_instance(path: str):
    """Parse and validate; returns the instance with its report attached."""
    inst = parse_instance_file(path)
    return inst, inst.validate()
