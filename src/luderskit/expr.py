"""Operator expression trees over a, a†, q, p with exact rational scalars.

Grammar (whitespace insignificant, no implicit multiplication):

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | atom ['^' uint]
    atom     := 'a' | 'ad' | 'q' | 'p' | 'id' | 'i' | rational | '(' expr ')'
    rational := uint ['/' uint] | decimal

Negative literals are produced by the unary minus; 'i' is the imaginary
unit, a scalar literal rather than an operator symbol.

The lexer reads lexemes, not characters: a name, a decimal, an integer
(or p/q as one token when q is a whole integer), '^k' as one token when k
is a whole integer, an op, or one junk character, which is refused.  A
printed term c/d*ad^m*a^n is 7 tokens.  An error inside a joined token
names the lexeme it starts with ('^' of ^k, p of p/q) and its position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

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

_LEXEMES = (
    r"[A-Za-z]+"                     # a name
    r"|\d+\.\d*|\.\d+"               # a decimal
    r"|\d+(?:\s*/\s*\d+(?![.\d]))?"  # an integer, or p/q when q is a whole integer
    r"|\^\s*\d+(?![.\d])"            # ^k when k is a whole integer
    r"|[-+*^/()]"                    # an op
)
_LEXEME_RE = re.compile(_LEXEMES)
_TOKEN_RE = re.compile(rf"\s*({_LEXEMES}|\S)")  # \S: one junk character
# A text of these characters alone holds no junk token; others are scanned for one.
_PLAIN_RE = re.compile(r"[A-Za-z0-9\s+\-*^/()]*")

# Exponent tokens as printed forms write them, and their values.
_POWERS = {f"^{k}": k for k in range(MAX_DEGREE + 1)}


def _tokenize(text: str) -> list[str]:
    """The tokens of the text as strings, then the end token ""; refuses the first junk one."""
    if not _PLAIN_RE.fullmatch(text):
        for match in _TOKEN_RE.finditer(text):
            if not _LEXEME_RE.fullmatch(match[1]):
                raise ParseError(f"unexpected character {match[1]!r}", match.start(1))
    tokens = _TOKEN_RE.findall(text)  # only trailing whitespace goes unmatched
    tokens.append("")
    return tokens


def _lexeme(token: str) -> str:
    """The lexeme a token starts with: '^' of ^k, p of p/q; any other token is one lexeme."""
    if token[:1] == "^":
        return "^"
    head = token.partition("/")[0]
    return head.rstrip() if head else token


class _Parser:
    """Recursive descent over the token strings.

    A token's kind is its first character: a letter starts a name, a digit
    or '.' a number, '^' an exponent (a '^' alone is followed by no whole
    number); any other token is a one-character op, and the end token is "".
    Tokens hold no positions: `error` finds the position of the failing one
    by scanning the text again.  `atoms` maps the symbol names, i and the p/q
    literals met so far in this parse to their shared nodes.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0
        self.atoms = dict(_ATOMS)

    def error(self, message: str, index: int, offset: int = 0) -> ParseError:
        """A ParseError at token `index`, `offset` characters into it (the end token at len(text))."""
        match = next(islice(_TOKEN_RE.finditer(self.text), index, None), None)
        return ParseError(message, len(self.text) if match is None else match.start(1) + offset)

    def expect_op(self, op: str):
        if self.tokens[self.index] != op:
            raise self.error(f"expected {op!r}", self.index)
        self.index += 1

    def nested(self, parse, index: int) -> ExprNode:
        """parse() one level deeper, refusing nesting past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise self.error(
                f"more than {MAX_NESTING} nested parentheses and unary minus signs", index)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self) -> ExprNode:
        node = self.parse_expr()
        token = self.tokens[self.index]
        if token:
            raise self.error(f"unexpected trailing input {_lexeme(token)!r}", self.index)
        return node

    def parse_expr(self) -> ExprNode:
        tokens = self.tokens
        node = self.parse_term()
        while True:
            token = tokens[self.index]
            if token == "+":
                self.index += 1
                node = Add(node, self.parse_term())
            elif token == "-":
                self.index += 1
                node = Sub(node, self.parse_term())
            else:
                return node

    def parse_term(self) -> ExprNode:
        tokens = self.tokens
        node = self.parse_factor()
        while tokens[self.index] == "*":
            self.index += 1
            node = Mul(node, self.parse_factor())
        return node

    def parse_factor(self) -> ExprNode:
        tokens, index = self.tokens, self.index
        token = tokens[index]
        self.index = index + 1
        node = self.atoms.get(token)
        if node is None:
            first = token[:1]
            if first.isdecimal() or first == ".":
                node = self.parse_number(token, index)
            elif first == "(":
                node = self.nested(self.parse_expr, index)
                self.expect_op(")")
            elif first == "-":
                return Neg(self.nested(self.parse_factor, index))
            elif first.isalpha():
                raise self.error(f"unknown symbol {token!r}", index)
            else:
                raise self.error(
                    f"expected an atom, got {_lexeme(token)!r}" if token else "unexpected end of input",
                    index)
        token = tokens[self.index]
        if token[:1] == "^":
            exponent = _POWERS.get(token)
            node = Pow(node, self.parse_exponent(token) if exponent is None else exponent)
            self.index += 1
        return node

    def parse_exponent(self, token: str) -> int:
        """The exponent of a `^` token that `_POWERS` does not hold."""
        if token == "^":  # no whole number follows
            raise self.error("exponent must be a nonnegative integer", self.index + 1)
        value = token[1:].lstrip()
        # lengths first, so a long digit string is refused without converting it
        digits = value.lstrip("0") or "0"
        if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
            raise self.error(f"exponent {value} exceeds the degree cap {MAX_DEGREE}",
                             self.index, len(token) - len(value))
        return int(digits)

    def parse_number(self, token: str, index: int) -> Literal:
        """A decimal, an integer or a p/q token; a p/q node is shared for the rest of the parse."""
        numerator, slash, denominator = token.partition("/")
        numerator, denominator = numerator.rstrip(), denominator.lstrip()
        offset = len(token) - len(denominator)  # where the denominator starts
        if len(token) > MAX_NUMBER_DIGITS:  # a shorter token has no part past the limit
            self.check_digits(numerator, index)
            if slash:
                self.check_digits(denominator, index, offset)
        if "." in numerator:
            return Literal(ComplexRational(Fraction(numerator), _ZERO))  # exact decimal
        if slash:
            if int(denominator) == 0:
                raise self.error("zero denominator", index, offset)
            node = self.atoms[token] = Literal(
                ComplexRational(Fraction(int(numerator), int(denominator)), _ZERO))
            return node
        if self.tokens[index + 1] == "/":  # a '/' not followed by a whole number
            raise self.error("denominator must be a positive integer", index + 2)
        return Literal(ComplexRational(Fraction(int(numerator)), _ZERO))

    def check_digits(self, number: str, index: int, offset: int = 0):
        """Refuse a number literal of more than MAX_NUMBER_DIGITS digits before converting it."""
        digits = len(number) - number.count(".")
        if digits > MAX_NUMBER_DIGITS:
            raise self.error(f"number of {digits} digits exceeds the limit {MAX_NUMBER_DIGITS}",
                             index, offset)


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
