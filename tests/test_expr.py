from fractions import Fraction

import pytest

from luderskit.expr import (
    Add,
    ComplexRational,
    Literal,
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
