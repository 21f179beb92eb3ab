"""Instance files: four definitions over s, t, e with +, *, /, ^, parens.

    delta = s + t
    phiE  = e + s
    beta  = s
    alpha = t

Recursive descent with the usual precedence (^ binds tightest, then
* and /, then + and -); '-' is accepted as a synonym of '+' since the
coefficients live in GF(2).  Errors carry line and column.

delta is parsed first, inside K ('e' is rejected: L is not yet
defined); the other three are parsed in L = K[e]/(e^2 + e + delta).
beta and alpha must be nonzero and free of e, phiE must involve e, no
power, product or quotient may have a numerator or denominator of total
degree above MAX_DEGREE, and parentheses may not nest deeper than
MAX_NESTING.
"""

from __future__ import annotations

from .fields import (K_ONE, K_S, K_T, K_ZERO, L_E, L_ONE, L_ZERO, FieldError,
                     FieldInstance, LElem)

MAX_DEGREE = 64
MAX_NESTING = 64


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


_PUNCT = set("+-*/^()")
_DIGITS = set("0123456789")  # str.isdigit also takes "²" and "٣"


class _Tokenizer:
    """Tokens of one right-hand side; `offset` is the number of
    characters before it on its line, so columns count from the line
    start."""

    def __init__(self, text: str, line: int, offset: int = 0):
        self.text = text
        self.line = line
        self.offset = offset
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.idx = 0

    def _scan(self):
        i, n, col0 = 0, len(self.text), self.offset + 1
        while i < n:
            ch = self.text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in _PUNCT:
                self.tokens.append(("punct", ch, col0 + i))
                i += 1
                continue
            if ch in _DIGITS:
                j = i
                while j < n and self.text[j] in _DIGITS:
                    j += 1
                self.tokens.append(("int", self.text[i:j], col0 + i))
                i = j
                continue
            if ch in ("s", "t", "e"):
                nxt = self.text[i + 1] if i + 1 < n else " "
                if nxt.isalnum() or nxt == "_":
                    raise ParseError(f"unknown name starting at {self.text[i:i+8]!r}",
                                     self.line, col0 + i)
                self.tokens.append(("var", ch, col0 + i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", self.line, col0 + i)
        self.tokens.append(("end", "", col0 + n))

    def peek(self):
        return self.tokens[self.idx]

    def take(self):
        tok = self.tokens[self.idx]
        if tok[0] != "end":
            self.idx += 1
        return tok


class _Parser:
    """expr := term (('+'|'-') term)* ; term := factor (('*'|'/') factor)* ;
    factor := atom ('^' int)* ; atom := var | int | '(' expr ')'."""

    def __init__(self, tz: _Tokenizer, inst: FieldInstance | None):
        self.tz = tz
        self.depth = 0  # open parentheses around the current atom
        self.in_k = inst is None
        self.inst = inst or FieldInstance(K_ZERO, L_E, K_ONE, K_ONE)

    def parse(self) -> LElem:
        val = self.expr()
        kind, text, col = self.tz.peek()
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", self.tz.line, col)
        return val

    def expr(self) -> LElem:
        val = self.term()
        while True:
            kind, text, _ = self.tz.peek()
            if kind == "punct" and text in "+-":
                self.tz.take()
                val = val + self.term()
            else:
                return val

    def term(self) -> LElem:
        val = self.factor()
        while True:
            kind, text, col = self.tz.peek()
            if kind == "punct" and text in "*/":
                self.tz.take()
                rhs = self.factor()
                if text == "*":
                    val = self.inst.lmul(val, rhs)
                else:
                    try:
                        val = self.inst.lmul(val, self.inst.linv(rhs))
                    except FieldError:  # a zero divisor (zero norm)
                        raise ParseError("division by zero", self.tz.line,
                                         col) from None
                if _degree(val) > MAX_DEGREE:
                    raise ParseError("product or quotient of total degree "
                                     f"above {MAX_DEGREE}", self.tz.line, col)
            else:
                return val

    def factor(self) -> LElem:
        val = self.atom()
        while True:
            kind, text, col = self.tz.peek()
            if kind == "punct" and text == "^":
                self.tz.take()
                kind2, text2, col2 = self.tz.take()
                if kind2 != "int":
                    raise ParseError("exponent must be a non-negative integer",
                                     self.tz.line, col2)
                if (len(text2) > 9
                        or int(text2) * max(1, _degree(val)) > MAX_DEGREE):
                    raise ParseError("power too large (exponent times degree "
                                     f"above {MAX_DEGREE})", self.tz.line, col2)
                acc = L_ONE
                for _ in range(int(text2)):
                    acc = self.inst.lmul(acc, val)
                val = acc
            else:
                return val

    def atom(self) -> LElem:
        kind, text, col = self.tz.take()
        if kind == "var":
            if text == "s":
                return LElem(K_S)
            if text == "t":
                return LElem(K_T)
            if self.in_k:
                raise ParseError("delta must not involve e", self.tz.line, col)
            return L_E
        if kind == "int":
            return L_ONE if int(text[-1]) % 2 else L_ZERO
        if kind == "punct" and text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 self.tz.line, col)
            self.depth += 1
            val = self.expr()
            self.depth -= 1
            kind2, text2, col2 = self.tz.take()
            if not (kind2 == "punct" and text2 == ")"):
                raise ParseError("expected ')'", self.tz.line, col2)
            return val
        if kind == "end":
            raise ParseError("unexpected end of expression", self.tz.line, col)
        raise ParseError(f"unexpected token {text!r}", self.tz.line, col)


def _degree(z: LElem) -> int:
    return max(p.total_degree() for c in (z.c0, z.c1) for p in (c.num, c.den))


def parse_expression(text: str, line: int, inst: FieldInstance | None,
                     offset: int = 0) -> LElem:
    """One right-hand side, in L over `inst`; without an instance the
    expression is delta's and must stay in K.  `offset` is the number of
    characters before `text` on its line."""
    return _Parser(_Tokenizer(text, line, offset), inst).parse()


def parse_instance_text(text: str) -> FieldInstance:
    """Parse the four definitions into a FieldInstance (not yet validated)."""
    raw: dict[str, tuple[str, int, int]] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError("expected 'name = expression'", lineno,
                             len(line) - len(line.lstrip()) + 1)
        name, _, rhs = stripped.partition("=")
        # characters before the right-hand side on the line
        offset = len(line) - len(line.lstrip()) + len(name) + 1
        name = name.strip()
        if name not in ("delta", "phiE", "beta", "alpha"):
            raise ParseError(f"unknown field {name!r}", lineno, 1)
        if name in raw:
            raise ParseError(f"duplicate field {name!r}", lineno, 1)
        raw[name] = (rhs, lineno, offset)
    missing = {"delta", "phiE", "beta", "alpha"} - set(raw)
    if missing:
        raise ParseError(f"missing fields: {', '.join(sorted(missing))}", 0, 0)

    def value(name: str, inst: FieldInstance | None):
        rhs, lineno, offset = raw[name]
        val = parse_expression(rhs, lineno, inst, offset)
        if name == "phiE":
            if val.c1.is_zero():
                raise ParseError("phiE must involve e", lineno, 1)
            return val
        if not val.c1.is_zero():
            raise ParseError(f"{name} must not involve e", lineno, 1)
        if name != "delta" and val.is_zero():
            raise ParseError(f"{name} must be nonzero", lineno, 1)
        return val.c0

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
