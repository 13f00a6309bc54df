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


_ZERO = Fraction(0)
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

# Nodes are frozen, so the parser hands out one node per symbol and one for i.
_ATOMS = {name: Symbol(name) for name in OPERATOR_SYMBOLS}
_ATOMS["i"] = Literal(I_UNIT)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z]+)|(?P<number>\d+\.\d*|\.\d+|\d+)|(?P<op>[-+*^/()])|(?P<junk>\S))"
)
_KINDS = (None, "name", "number", "op", "junk")  # by group index, as match.lastindex gives it


def _tokenize(text: str):
    tokens = []
    append = tokens.append
    for match in _TOKEN_RE.finditer(text):  # only trailing whitespace goes unmatched
        group = match.lastindex
        if group == 4:
            raise ParseError(f"unexpected character {match[group]!r}", match.start(group))
        append((_KINDS[group], match[group], match.start(group)))
    append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list.

    The hot loops read self.tokens[self.index] directly.  An op token's value
    is its one character, which no other token has, so they test the value
    alone; the end token's value is "".
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def expect_op(self, op: str):
        _, value, pos = self.tokens[self.index]
        if value != op:
            raise ParseError(f"expected {op!r}", pos)
        self.index += 1

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
        kind, value, pos = self.tokens[self.index]
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return node

    def parse_expr(self) -> ExprNode:
        tokens = self.tokens
        node = self.parse_term()
        while True:
            value = tokens[self.index][1]
            if value == "+":
                self.index += 1
                node = Add(node, self.parse_term())
            elif value == "-":
                self.index += 1
                node = Sub(node, self.parse_term())
            else:
                return node

    def parse_term(self) -> ExprNode:
        tokens = self.tokens
        node = self.parse_factor()
        while tokens[self.index][1] == "*":
            self.index += 1
            node = Mul(node, self.parse_factor())
        return node

    def parse_factor(self) -> ExprNode:
        tokens = self.tokens
        kind, value, pos = tokens[self.index]
        self.index += 1
        if kind == "name":
            node = _ATOMS.get(value)
            if node is None:
                raise ParseError(f"unknown symbol {value!r}", pos)
        elif kind == "number":
            node = Literal(ComplexRational(self.parse_rational_tail(value, pos), _ZERO))
        elif value == "(":
            node = self.nested(self.parse_expr, pos)
            self.expect_op(")")
        elif value == "-":
            return Neg(self.nested(self.parse_factor, pos))
        else:
            raise ParseError(f"expected an atom, got {value!r}" if value else "unexpected end of input", pos)
        if tokens[self.index][1] == "^":
            self.index += 1
            node = Pow(node, self.parse_uint_exponent())
        return node

    def parse_uint_exponent(self) -> int:
        kind, value, pos = self.tokens[self.index]
        if kind != "number" or "." in value:
            raise ParseError("exponent must be a nonnegative integer", pos)
        # lengths first, so a long digit string is refused without converting it
        digits = value.lstrip("0") or "0"
        if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
            raise ParseError(f"exponent {value} exceeds the degree cap {MAX_DEGREE}", pos)
        self.index += 1
        return int(digits)

    def parse_rational_tail(self, text: str, pos: int) -> Fraction:
        _check_digits(text, pos)
        if "." in text:
            return Fraction(text)  # exact decimal
        if self.tokens[self.index][1] != "/":
            return Fraction(int(text))
        dkind, dvalue, dpos = self.tokens[self.index + 1]
        if dkind != "number" or "." in dvalue:
            raise ParseError("denominator must be a positive integer", dpos)
        _check_digits(dvalue, dpos)
        self.index += 2
        if int(dvalue) == 0:
            raise ParseError("zero denominator", dpos)
        return Fraction(int(text), int(dvalue))


def _check_digits(number: str, pos: int):
    """Refuse a number literal of more than MAX_NUMBER_DIGITS digits before converting it."""
    digits = len(number) - number.count(".")
    if digits > MAX_NUMBER_DIGITS:
        raise ParseError(f"number of {digits} digits exceeds the limit {MAX_NUMBER_DIGITS}", pos)


def parse_expression(text: str) -> ExprNode:
    """Parse expression text into an AST; raises ParseError with a position."""
    return _Parser(text).parse()


def to_source(node: ExprNode) -> str:
    """Render an AST back to grammar text.

    Trees the parser makes round-trip as trees, parse(to_source(e)) == e; every
    tree round-trips in value, normal_order(parse(to_source(e))) == normal_order(e).
    """
    return _render(node, 0)


def _chain(node: ExprNode, kinds) -> list[tuple[ExprNode, int]]:
    """The operands of a left-nested chain of `kinds` nodes, left to right, each with its sign.

    The sign is -1 after a Sub, else +1.  The parser nests a chain of N
    operands N deep, so the chain is walked in a loop: recursing down it
    would overflow the interpreter stack for long normal forms.
    """
    operands = []
    while isinstance(node, kinds):
        operands.append((node.rhs, -1 if isinstance(node, Sub) else 1))
        node = node.lhs
    operands.append((node, 1))
    operands.reverse()
    return operands


# A node's text binds at 1 (sums), 2 (products, unary minus, literals printed as
# -c or c*i) or 3 (powers); symbols and the other literals are atoms.  The text
# is parenthesized where its context is at least its binding.
_ATOM = 4


def _render(node: ExprNode, context: int) -> str:
    if isinstance(node, Literal):
        text = str(node.value)
        binding = 2 if text.startswith("-") or text.endswith("*i") else _ATOM
    elif isinstance(node, Symbol):
        text, binding = node.name, _ATOM
    elif isinstance(node, Neg):
        text, binding = "-" + _render(node.operand, 2), 2
    elif isinstance(node, (Add, Sub)):
        (first, _), *rest = _chain(node, (Add, Sub))
        text = _render(first, 0) + "".join(
            f" {'+' if sign > 0 else '-'} {_render(operand, 1)}" for operand, sign in rest)
        binding = 1
    elif isinstance(node, Mul):
        (first, _), *rest = _chain(node, Mul)
        text = "*".join([_render(first, 1)] + [_render(factor, 2) for factor, _ in rest])
        binding = 2
    elif isinstance(node, Pow):
        text, binding = f"{_render(node.base, 3)}^{node.exponent}", 3
    else:
        raise TypeError(f"not an expression node: {node!r}")
    return f"({text})" if context >= binding else text
