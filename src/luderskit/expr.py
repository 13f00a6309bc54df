"""Operator expression trees over a, a†, q, p with exact rational scalars.

Grammar (whitespace insignificant, no implicit multiplication):

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | atom ['^' uint]
    atom     := 'a' | 'ad' | 'q' | 'p' | 'id' | 'i' | rational | '(' expr ')'
    rational := uint ['/' uint] | decimal

Negative literals are produced by the unary minus; 'i' is the imaginary
unit, a scalar literal rather than an operator symbol.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

# Largest exponent the parser accepts and largest degree of any product the
# ordering engine forms; a product's cost grows steeply with its degree (the
# README gives measured costs).
MAX_DEGREE = 64

# Deepest nesting of parentheses and unary minus signs the parser accepts.
# Parsing and evaluating take up to about 5 interpreter frames per level: at
# 100 levels the deepest inputs run in 500 frames, half of CPython's default
# recursion limit, which leaves the rest to the caller's own stack.
MAX_NESTING = 100

# Most digits in one number literal: below CPython's default 4,300-digit limit
# on int conversion, which would raise ValueError instead of a ParseError.
MAX_NUMBER_DIGITS = 4000


class ParseError(ValueError):
    """Raised on malformed expression text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class ComplexRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def real(cls, value) -> "ComplexRational":
        return cls(Fraction(value), Fraction(0))

    @classmethod
    def imag_unit(cls) -> "ComplexRational":
        return cls(Fraction(0), Fraction(1))

    def __add__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}*i"
        return f"({self.re} {sign} {imag})"


ONE = ComplexRational.real(1)
I_UNIT = ComplexRational.imag_unit()


# --- abstract syntax tree ---------------------------------------------------

@dataclass(frozen=True)
class Literal:
    value: ComplexRational


@dataclass(frozen=True)
class Symbol:
    name: str  # one of 'a', 'ad', 'q', 'p', 'id'


@dataclass(frozen=True)
class Neg:
    operand: "ExprNode"


@dataclass(frozen=True)
class Add:
    lhs: "ExprNode"
    rhs: "ExprNode"


@dataclass(frozen=True)
class Sub:
    lhs: "ExprNode"
    rhs: "ExprNode"


@dataclass(frozen=True)
class Mul:
    lhs: "ExprNode"
    rhs: "ExprNode"


@dataclass(frozen=True)
class Pow:
    base: "ExprNode"
    exponent: int


ExprNode = Literal | Symbol | Neg | Add | Sub | Mul | Pow

OPERATOR_SYMBOLS = ("a", "ad", "q", "p", "id")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z]+)|(?P<number>\d+\.\d*|\.\d+|\d+)|(?P<op>[-+*^/()])|(?P<junk>\S))"
)


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN_RE.finditer(text):  # only trailing whitespace goes unmatched
        kind = match.lastgroup
        if kind == "junk":
            raise ParseError(f"unexpected character {match.group(kind)!r}", match.start(kind))
        tokens.append((kind, match.group(kind), match.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def nested(self, parse, pos: int) -> ExprNode:
        """parse() one level deeper, refusing nesting past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"more than {MAX_NESTING} nested parentheses and unary minus signs", pos)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self) -> ExprNode:
        node = self.parse_expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return node

    def parse_expr(self) -> ExprNode:
        node = self.parse_term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.parse_term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
            else:
                return node

    def parse_term(self) -> ExprNode:
        node = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                node = Mul(node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> ExprNode:
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.nested(self.parse_factor, pos))
        node = self.parse_atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            node = Pow(node, self.parse_uint_exponent())
        return node

    def parse_uint_exponent(self) -> int:
        kind, value, pos = self.peek()
        if kind != "number" or "." in value:
            raise ParseError("exponent must be a nonnegative integer", pos)
        # lengths first, so a long digit string is refused without converting it
        digits = value.lstrip("0") or "0"
        if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
            raise ParseError(f"exponent {value} exceeds the degree cap {MAX_DEGREE}", pos)
        self.advance()
        return int(digits)

    def parse_atom(self) -> ExprNode:
        kind, value, pos = self.advance()
        if kind == "name":
            if value == "i":
                return Literal(I_UNIT)
            if value in OPERATOR_SYMBOLS:
                return Symbol(value)
            raise ParseError(f"unknown symbol {value!r}", pos)
        if kind == "number":
            return Literal(ComplexRational.real(self.parse_rational_tail(value, pos)))
        if kind == "op" and value == "(":
            node = self.nested(self.parse_expr, pos)
            self.expect_op(")")
            return node
        raise ParseError(f"expected an atom, got {value!r}" if value else "unexpected end of input", pos)

    def parse_rational_tail(self, text: str, pos: int) -> Fraction:
        _check_digits(text, pos)
        if "." in text:
            return Fraction(text)  # exact decimal
        kind, value, _ = self.peek()
        if kind == "op" and value == "/":
            self.advance()
            dkind, dvalue, dpos = self.peek()
            if dkind != "number" or "." in dvalue:
                raise ParseError("denominator must be a positive integer", dpos)
            _check_digits(dvalue, dpos)
            self.advance()
            if int(dvalue) == 0:
                raise ParseError("zero denominator", dpos)
            return Fraction(int(text), int(dvalue))
        return Fraction(int(text))


def _check_digits(number: str, pos: int):
    """Refuse a number literal of more than MAX_NUMBER_DIGITS digits before converting it."""
    digits = len(number) - number.count(".")
    if digits > MAX_NUMBER_DIGITS:
        raise ParseError(f"number of {digits} digits exceeds the limit {MAX_NUMBER_DIGITS}", pos)


def parse_expression(text: str) -> ExprNode:
    """Parse expression text into an AST; raises ParseError with a position."""
    return _Parser(text).parse()


def to_source(node: ExprNode) -> str:
    """Render an AST back to grammar text; parse(to_source(e)) == e."""
    return _render(node, 0)


# precedence levels: 0 add/sub, 1 mul, 2 unary minus, 3 power/atom
def _render(node: ExprNode, context: int) -> str:
    if isinstance(node, Literal):
        text = str(node.value)
        needs_parens = text.startswith("-") and context >= 2
        return f"({text})" if needs_parens else text
    if isinstance(node, Symbol):
        return node.name
    if isinstance(node, Neg):
        inner = _render(node.operand, 2)
        text = f"-{inner}"
        return f"({text})" if context >= 2 else text
    # left-nested chains render without recursion, as the ordering engine evaluates them
    if isinstance(node, (Add, Sub)):
        pieces = []
        while isinstance(node, (Add, Sub)):
            pieces.append(f" {'+' if isinstance(node, Add) else '-'} {_render(node.rhs, 1)}")
            node = node.lhs
        text = _render(node, 0) + "".join(reversed(pieces))
        return f"({text})" if context >= 1 else text
    if isinstance(node, Mul):
        pieces = []
        while isinstance(node, Mul):
            pieces.append(_render(node.rhs, 2))
            node = node.lhs
        text = "*".join([_render(node, 1)] + pieces[::-1])
        return f"({text})" if context >= 2 else text
    if isinstance(node, Pow):
        base = _render(node.base, 3)
        if isinstance(node.base, Pow):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    raise TypeError(f"not an expression node: {node!r}")
