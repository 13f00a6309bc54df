from fractions import Fraction

import pytest

from luderskit.expr import (
    Add,
    ComplexRational,
    Literal,
    MAX_DEGREE,
    MAX_NESTING,
    MAX_NUMBER_DIGITS,
    Mul,
    ParseError,
    Pow,
    Sub,
    Symbol,
    parse_expression,
    to_source,
)


def test_mul_of_symbols():
    assert parse_expression("a*ad") == Mul(Symbol("a"), Symbol("ad"))


def test_parenthesized_difference_of_powers():
    assert parse_expression("(q^2 - p^2)") == Sub(Pow(Symbol("q"), 2), Pow(Symbol("p"), 2))


def test_scalar_arithmetic_with_imaginary_unit():
    node = parse_expression("2*i*a - 3/2")
    expected = Sub(
        Mul(Mul(Literal(ComplexRational.real(2)), Literal(ComplexRational.imag_unit())), Symbol("a")),
        Literal(ComplexRational(Fraction(3, 2))),
    )
    assert node == expected


def test_decimal_literal_is_exact():
    node = parse_expression("0.125")
    assert node == Literal(ComplexRational(Fraction(1, 8)))


def test_precedence_mul_over_add():
    assert parse_expression("a + q*p") == Add(Symbol("a"), Mul(Symbol("q"), Symbol("p")))


def test_unary_minus():
    node = parse_expression("-a^2")
    assert to_source(node) == "-a^2"
    assert parse_expression(to_source(node)) == node


@pytest.mark.parametrize("text", [
    "a*ad",
    "(q^2 - p^2)",
    "2*i*a - 3/2",
    "-(q + p)^3*a",
    "id - 1/3*ad^4",
    "0.5*q^2 + i*p",
    "a - -a",
])
def test_print_parse_round_trip(text):
    node = parse_expression(text)
    assert parse_expression(to_source(node)) == node


def test_round_trip_of_nested_pow():
    node = Pow(Pow(Symbol("a"), 2), 3)
    assert parse_expression(to_source(node)) == node


@pytest.mark.parametrize("operator, joiner", [("+", " + "), ("-", " - "), ("*", "*")],
                         ids=["sum", "difference", "product"])
def test_round_trip_of_a_3000_term_chain(operator, joiner):
    # the tree nests 3,000 deep, so text is compared, not trees
    text = to_source(parse_expression(operator.join(["a"] * 3000)))
    assert text == joiner.join(["a"] * 3000)
    assert to_source(parse_expression(text)) == text


@pytest.mark.parametrize("text,position", [
    ("a^x", 2),
    ("a^(2)", 2),
    ("a^2.5", 2),
    ("a^-2", 2),
])
def test_non_integer_exponent_rejected(text, position):
    with pytest.raises(ParseError) as excinfo:
        parse_expression(text)
    assert excinfo.value.position == position


@pytest.mark.parametrize("text", ["", "a +", "(a", "a b", "foo", "3/0", "a / 2", "$"])
def test_syntax_errors(text):
    with pytest.raises(ParseError):
        parse_expression(text)


def test_error_carries_position():
    with pytest.raises(ParseError) as excinfo:
        parse_expression("a + bogus")
    assert excinfo.value.position == 4


@pytest.mark.parametrize("opener", ["(", "-", "-("])
def test_nesting_limit(opener):
    closer = ")" if opener.endswith("(") else ""
    depth = MAX_NESTING // len(opener)
    assert parse_expression(opener * depth + "a" + closer * depth)
    text = opener * (depth + 1) + "a" + closer * (depth + 1)
    with pytest.raises(ParseError, match="nested") as excinfo:
        parse_expression(text)
    assert excinfo.value.position == len(opener) * depth


@pytest.mark.parametrize("template, position",
                         [("{}", 0), (".{}", 0), ("1/{}", 2), ("2*{}*a", 2)])
def test_number_digit_limit(template, position):
    assert parse_expression(template.format("7" * MAX_NUMBER_DIGITS))
    with pytest.raises(ParseError, match="digits") as excinfo:
        parse_expression(template.format("7" * (MAX_NUMBER_DIGITS + 1)))
    assert excinfo.value.position == position


def test_complex_rational_arithmetic():
    z = ComplexRational(Fraction(1, 2), Fraction(-3, 4))
    w = ComplexRational(Fraction(2), Fraction(1, 4))
    assert (z * w).re == Fraction(1, 2) * 2 - Fraction(-3, 4) * Fraction(1, 4)
    assert (z + w - w) == z
    assert z.conjugate().conjugate() == z
    assert complex(z) == 0.5 - 0.75j


@pytest.mark.parametrize("lhs, rhs", [
    ((Fraction(3, 7), Fraction(0)), (Fraction(-5, 2), Fraction(0))),    # real × real
    ((Fraction(3, 7), Fraction(0)), (Fraction(-5, 2), Fraction(1, 9))),  # real × complex
    ((Fraction(3, 7), Fraction(2, 3)), (Fraction(-5, 2), Fraction(0))),  # complex × real
    ((Fraction(3, 7), Fraction(2, 3)), (Fraction(-5, 2), Fraction(1, 9))),
    ((Fraction(0), Fraction(2, 3)), (Fraction(0), Fraction(-1, 4))),     # imaginary × imaginary
    ((Fraction(0), Fraction(0)), (Fraction(-5, 2), Fraction(1, 9))),
])
def test_complex_rational_product_matches_four_product_formula(lhs, rhs):
    (a, b), (c, d) = lhs, rhs
    product = ComplexRational(a, b) * ComplexRational(c, d)
    assert (product.re, product.im) == (a * c - b * d, a * d + b * c)
    assert type(product.re) is Fraction and type(product.im) is Fraction


@pytest.mark.parametrize("text", ["1/a", "1/2.5"])
def test_denominator_must_be_a_positive_integer(text):
    with pytest.raises(ParseError, match="denominator must be a positive integer") as excinfo:
        parse_expression(text)
    assert excinfo.value.position == 2


@pytest.mark.parametrize("text, message, position", [
    ("2^3/4", "unexpected trailing input '/'", 3),
    ("7/8/9", "unexpected trailing input '/'", 3),
    ("a^2^3", "unexpected trailing input '^'", 3),
    ("^2", "expected an atom, got '^'", 0),
    ("a*^2", "expected an atom, got '^'", 2),
    ("65+65/", "denominator must be a positive integer", 6),
    ("q7/8", "unexpected trailing input '7'", 1),
    ("3 / 0", "zero denominator", 4),
    ("a ^ 100", f"exponent 100 exceeds the degree cap {MAX_DEGREE}", 4),
    ("a^²", "unexpected character '²'", 2),
])
def test_errors_at_joined_lexemes_name_the_lexeme_and_its_position(text, message, position):
    """A p/q or ^k is one token, yet an error names the lexeme a character scan meets there."""
    with pytest.raises(ParseError) as excinfo:
        parse_expression(text)
    assert str(excinfo.value) == f"{message} (at position {position})"
    assert excinfo.value.position == position
