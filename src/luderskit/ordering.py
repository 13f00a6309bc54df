"""Exact normal/anti-normal ordering of ladder-operator polynomials.

Coefficients live in the complex rationals, so every ordering identity,
the Lüders rewrite a†^m a^n -> a^n a†^m, and the fixed-space kernel are
computed without rounding.  Position and momentum enter through
q = (a + a†)/2 and p = (a - a†)/2i.

A polynomial is stored as Gaussian-integer numerators over one positive
denominator, so the engine's products and sums run on plain ints and
reduce by one gcd per result.  Powers of affine bases c + x·a† + y·a are
formed in closed form, `*` chains fold their one-term factors into one
word, and the printed forms are rendered from the integers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm

from .expr import (
    Add,
    ComplexRational,
    ExprNode,
    Literal,
    MAX_DEGREE,
    Mul,
    Neg,
    ONE,
    Pow,
    Sub,
    Symbol,
    _ZERO,
    _chain,
    parse_expression,
)

_HALF = ComplexRational.real(Fraction(1, 2))
_NEG_HALF_I = ComplexRational(Fraction(0), Fraction(-1, 2))  # 1/(2i)


class DegreeError(ValueError):
    """Raised before forming a product whose degree would exceed MAX_DEGREE."""


def reordering_coefficients(m: int, n: int) -> dict[tuple[int, int], int]:
    """Closed-form normal ordering of a^m a†^n.

    Returns {(n-s, m-s): s! C(m,s) C(n,s)} keyed by (ad_pow, a_pow).
    """
    return {
        (n - s, m - s): factorial(s) * comb(m, s) * comb(n, s)
        for s in range(min(m, n) + 1)
    }


@functools.lru_cache(maxsize=None)
def _swapped_word(m: int, n: int, sign: int):
    """A two-letter word x^m y^n rewritten with its letters swapped.

    sign = +1 normal-orders a^m a†^n with reordering_coefficients(m, n);
    sign = -1 anti-normal-orders its mirror,
    a†^m a^n = Σ_s (-1)^s s! C(m,s) C(n,s) a^(n-s) a†^(m-s).
    Terms are ((power of y, power of x), integer weight), s = m - (power of x).
    """
    return tuple(
        ((y, x), sign ** (m - x) * w)
        for (y, x), w in reordering_coefficients(m, n).items()
    )


def _swapped_sum(words, sign: int) -> dict[tuple[int, int], list[int]]:
    """Σ c · y^i (x^m y^n swapped) x^j over words ((i, j), (m, n), (re, im)), keyed (y, x) powers.

    c = re + i·im is a Gaussian integer; the sums come back unreduced as
    [re, im] lists.  A word with (m, n) = (0, 0) adds c at (i, j) unchanged.
    """
    out: dict[tuple[int, int], list[int]] = {}
    get = out.get
    for (i, j), (m, n), (re, im) in words:
        for (y, x), w in _swapped_word(m, n, sign):
            key = (i + y, x + j)
            acc = get(key)
            if acc is None:
                out[key] = [re * w, im * w]
            else:
                acc[0] += re * w
                acc[1] += im * w
    return out


def _gaussian(c: ComplexRational) -> tuple[int, int, int]:
    """c as (re, im, den): a Gaussian-integer numerator over the lcm of its denominators.

    The lcm of the reduced parts' denominators leaves no common factor, so
    (re, im, den) is in lowest terms.
    """
    re, im = c.re, c.im
    if not im:
        return (re.numerator, 0, re.denominator)
    den = lcm(re.denominator, im.denominator)
    return (re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den)


def _lowest(re: int, im: int, den: int) -> tuple[int, int, int]:
    """The scalar (re + i·im)/den, den > 0, in lowest terms; zero is (0, 0, 1)."""
    g = gcd(re, im, den)
    return (re // g, im // g, den // g)


class _OrderedPolynomial:
    """Sparse exact polynomial: num[(m, n)] / den weights one ordered word.

    Each numerator is a Gaussian integer (re, im) over the shared positive
    denominator `den`, in lowest terms (den and all numerators have gcd 1)
    with zero terms dropped, so equal polynomials have equal storage.
    `terms` is the {(m, n): ComplexRational} view, built on demand.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms: dict[tuple[int, int], ComplexRational] | None = None):
        # over the lcm of the reduced coefficient denominators no common factor is left
        parts = {k: _gaussian(c) for k, c in (terms or {}).items() if not c.is_zero()}
        den = lcm(*(d for _, _, d in parts.values()))
        self.num = {k: (re * (den // d), im * (den // d)) for k, (re, im, d) in parts.items()}
        self.den = den

    @classmethod
    def _stored(cls, num: dict, den: int):
        """A polynomial over storage already in lowest terms."""
        out = cls.__new__(cls)
        out.num = num
        out.den = den
        return out

    @classmethod
    def _reduced(cls, sums: dict, den: int):
        """A polynomial from unreduced numerator sums {key: (re, im)} over den, by one gcd."""
        g = den
        for re, im in sums.values():
            g = gcd(g, re, im)
            if g == 1:
                return cls._stored({k: (re, im) for k, (re, im) in sums.items() if re or im}, den)
        return cls._stored(
            {k: (re // g, im // g) for k, (re, im) in sums.items() if re or im}, den // g)

    @property
    def terms(self) -> dict[tuple[int, int], ComplexRational]:
        den = self.den
        return {k: ComplexRational(Fraction(re, den), Fraction(im, den))
                for k, (re, im) in self.num.items()}

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))

    def __repr__(self):
        return f"{type(self).__name__}({self.to_source()})"


class NormalPolynomial(_OrderedPolynomial):
    """Sparse exact polynomial sum beta[(m, n)] a†^m a^n, zero terms dropped."""

    __slots__ = ()

    @classmethod
    def identity(cls) -> "NormalPolynomial":
        return cls({(0, 0): ONE})

    @classmethod
    def monomial(cls, m: int, n: int, coeff: ComplexRational = ONE) -> "NormalPolynomial":
        if m < 0 or n < 0:
            raise ValueError("ladder powers must be nonnegative")
        return cls({(m, n): coeff})

    def __add__(self, other: "NormalPolynomial") -> "NormalPolynomial":
        return _signed_sum(((self, 1), (other, 1)))

    def __sub__(self, other: "NormalPolynomial") -> "NormalPolynomial":
        return _signed_sum(((self, 1), (other, -1)))

    def __neg__(self) -> "NormalPolynomial":
        return NormalPolynomial._stored(
            {k: (-re, -im) for k, (re, im) in self.num.items()}, self.den)

    def scaled(self, coeff: ComplexRational) -> "NormalPolynomial":
        cr, ci, d = _gaussian(coeff)
        return NormalPolynomial._reduced(
            {k: (re * cr - im * ci, re * ci + im * cr) for k, (re, im) in self.num.items()},
            self.den * d)

    def __mul__(self, other: "NormalPolynomial") -> "NormalPolynomial":
        # (a†^m1 a^n1)(a†^m2 a^n2) = a†^m1 (a^n1 a†^m2) a^n2, middle word normal-ordered
        return NormalPolynomial._reduced(_swapped_sum(
            (((m1, n2), (n1, m2), (r1 * r2 - i1 * i2, r1 * i2 + i1 * r2))
             for (m1, n1), (r1, i1) in self.num.items()
             for (m2, n2), (r2, i2) in other.num.items()),
            1,
        ), self.den * other.den)

    def degree(self) -> int:
        return max((m + n for m, n in self.num), default=0)

    def adjoint(self) -> "NormalPolynomial":
        return NormalPolynomial._stored(
            {(n, m): (re, -im) for (m, n), (re, im) in self.num.items()}, self.den)

    def is_hermitian(self) -> bool:
        return self == self.adjoint()

    def to_source(self) -> str:
        return _poly_source(self, creation_first=True)


class AntiNormalPolynomial(_OrderedPolynomial):
    """Sparse exact polynomial sum beta[(m, n)] a^m a†^n."""

    __slots__ = ()

    def to_source(self) -> str:
        return _poly_source(self, creation_first=False)

    def to_normal(self) -> NormalPolynomial:
        return NormalPolynomial._reduced(_swapped_sum(
            (((0, 0), key, c) for key, c in self.num.items()), 1), self.den)


def _signed_sum(signed) -> NormalPolynomial:
    """Σ sign · poly over (poly, ±1) pairs, on the lcm of their denominators."""
    signed = tuple(signed)
    den = lcm(*(poly.den for poly, _ in signed))
    sums: dict[tuple[int, int], list[int]] = {}
    get = sums.get
    for poly, sign in signed:
        f = sign * (den // poly.den)
        for key, (re, im) in poly.num.items():
            acc = get(key)
            if acc is None:
                sums[key] = [f * re, f * im]
            else:
                acc[0] += f * re
                acc[1] += f * im
    return NormalPolynomial._reduced(sums, den)


def _poly_source(poly: _OrderedPolynomial, creation_first: bool) -> str:
    """The polynomial as expression text: total degree descending, then the a†-power descending."""
    if not poly.num:
        return "0"
    den = poly.den
    pieces = []
    for (m, n), (re, im) in sorted(
            poly.num.items(),
            key=lambda kv: (-kv[0][0] - kv[0][1], -kv[0][0] if creation_first else -kv[0][1])):
        word = _word_source(m, n, creation_first)
        if not word:
            body = _coefficient_source(re, im, den)
        elif not im and re == den:
            body = word
        elif not im and re == -den:
            body = "-" + word
        else:
            body = f"{_coefficient_source(re, im, den)}*{word}"
        pieces.append(f" - {body[1:]}" if body[0] == "-" else f" + {body}")
    text = "".join(pieces)  # every piece starts " + " or " - "; the first sign is written bare
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _rational_source(num: int, den: int) -> str:
    """num/den as str(Fraction(num, den)) prints it, den > 0."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _coefficient_source(re: int, im: int, den: int) -> str:
    """(re + i·im)/den as str(ComplexRational) prints it, from one gcd per nonzero part."""
    if not im:
        return _rational_source(re, den)
    imag = "i" if abs(im) == den else f"{_rational_source(abs(im), den)}*i"
    if not re:
        return imag if im > 0 else "-" + imag
    return f"({_rational_source(re, den)} {'+' if im > 0 else '-'} {imag})"


@functools.lru_cache(maxsize=None)
def _word_source(m: int, n: int, creation_first: bool) -> str:
    """ad^m*a^n (or a^m*ad^n), first powers bare and zero powers left out."""
    names = ("ad", "a") if creation_first else ("a", "ad")
    return "*".join(f"{sym}^{power}" if power > 1 else sym
                    for sym, power in zip(names, (m, n)) if power)


# --- expression evaluation ---------------------------------------------------

_SYMBOL_POLYS = {
    "a": NormalPolynomial({(0, 1): ONE}),
    "ad": NormalPolynomial({(1, 0): ONE}),
    "id": NormalPolynomial.identity(),
    "q": NormalPolynomial({(1, 0): _HALF, (0, 1): _HALF}),
    "p": NormalPolynomial({(1, 0): -_NEG_HALF_I, (0, 1): _NEG_HALF_I}),
}


def normal_order(expression: ExprNode | str) -> NormalPolynomial:
    """Normal-order an expression (or its source text) exactly."""
    if isinstance(expression, str):
        expression = parse_expression(expression)
    return _as_poly(_eval_node(expression))


def _eval_node(node: ExprNode):
    """The value of a tree: a lowest-terms scalar (re, im, den) or a NormalPolynomial.

    A subtree with no operator symbol folds to its scalar on Gaussian
    integers, with no polynomial formed; so does a `*` chain whose word
    reduces to a number (a zero factor, id).
    """
    if isinstance(node, Literal):
        return _gaussian(node.value)
    if isinstance(node, Mul):
        return _eval_product(node)
    if isinstance(node, (Add, Sub)):
        return _eval_sum(node)
    if isinstance(node, Symbol):
        return _SYMBOL_POLYS[node.name]
    if isinstance(node, Neg):
        value = _eval_node(node.operand)
        if type(value) is tuple:
            re, im, den = value
            return (-re, -im, den)
        return -value
    if isinstance(node, Pow):
        base, k = _eval_node(node.base), node.exponent
        if type(base) is tuple:
            re, im, den = base
            return _lowest(*_gaussian_powers((re, im), k)[k], den ** k)
        _check_degree(base.degree() * k)
        if len(base.num) == 1 and 0 in next(iter(base.num)):
            # c·a†^m or c·a^n: its power needs no reordering, only c^k
            (m, n), c = next(iter(base.num.items()))
            return NormalPolynomial._reduced({(m * k, n * k): _gaussian_powers(c, k)[k]},
                                             base.den ** k)
        if base.num.keys() <= _AFFINE_KEYS:
            return _affine_power(base, k)
        out = NormalPolynomial.identity()
        for _ in range(k):
            out = out * base
        return out
    raise TypeError(f"not an expression node: {node!r}")


def _as_poly(value) -> NormalPolynomial:
    """A value of `_eval_node` as a polynomial: a scalar (re, im, den) is its constant term."""
    if type(value) is not tuple:
        return value
    re, im, den = value
    return NormalPolynomial._stored({(0, 0): (re, im)} if re or im else {}, den)


def _eval_sum(node: Add | Sub):
    """A `+`/`-` chain: scalars summed on Gaussian integers while every operand is one."""
    values = [(_eval_node(operand), sign) for operand, sign in _chain(node, (Add, Sub))]
    if all(type(value) is tuple for value, _ in values):
        den = lcm(*(d for (_, _, d), _ in values))
        re = im = 0
        for (r, i, d), sign in values:
            f = sign * (den // d)
            re += f * r
            im += f * i
        return _lowest(re, im, den)
    return _signed_sum((_as_poly(value), sign) for value, sign in values)


_AFFINE_KEYS = {(0, 0), (1, 0), (0, 1)}


def _affine_power(base: NormalPolynomial, k: int) -> NormalPolynomial:
    """(c + x·a† + y·a)^k in closed form, with no polynomial product.

    From e^{t(c + x a† + y a)} = e^{tc} e^{t x a†} e^{t y a} e^{t² xy/2}
    ([a, a†] = 1), the coefficient of a†^m a^n, s = m + n, is
    C(s, m) x^m y^n · u_s with u_s = Σ_j k!/(r! s! j!) c^r (xy/2)^j over
    r + s + 2j = k.  Numerators are Gaussian integers over den^k · 2^⌊k/2⌋.
    """
    c, (xr, xi), (yr, yi) = (base.num.get(key, (0, 0)) for key in ((0, 0), (1, 0), (0, 1)))
    half = k // 2
    c_pow, x_pow, y_pow = (_gaussian_powers(z, k) for z in (c, (xr, xi), (yr, yi)))
    xy_pow = _gaussian_powers((xr * yr - xi * yi, xr * yi + xi * yr), half)
    sums = {}
    for s in range(k + 1):
        ur = ui = 0
        for j in range((k - s) // 2 + 1):
            r = k - s - 2 * j
            (pr, pi), (qr, qi) = c_pow[r], xy_pow[j]
            w = factorial(k) // (factorial(r) * factorial(s) * factorial(j)) << (half - j)
            ur += w * (pr * qr - pi * qi)
            ui += w * (pr * qi + pi * qr)
        if not (ur or ui):
            continue
        for m in range(s + 1):
            (pr, pi), (qr, qi) = x_pow[m], y_pow[s - m]
            w = comb(s, m)
            vr, vi = w * (pr * qr - pi * qi), w * (pr * qi + pi * qr)
            sums[(m, s - m)] = (ur * vr - ui * vi, ur * vi + ui * vr)
    return NormalPolynomial._reduced(sums, base.den ** k << half)


def _gaussian_powers(z: tuple[int, int], top: int) -> list[tuple[int, int]]:
    """[z^0, z^1, ..., z^top] for the Gaussian integer z = (re, im)."""
    re, im = z
    out = [(1, 0)]
    for _ in range(top):
        pr, pi = out[-1]
        out.append((pr * re - pi * im, pr * im + pi * re))
    return out


def _check_degree(degree: int):
    """Refuse a product of this degree before forming it; its cost grows with the degree."""
    if degree > MAX_DEGREE:
        raise DegreeError(f"a product of degree {degree} exceeds the degree cap {MAX_DEGREE}")


def _eval_product(node: Mul):
    """Evaluate a `*` chain left to right, as `expr._chain` walks it.

    Factors of one term fold into one word (re + i·im)/den · a†^m a^n while
    it stays in normal order (no a†-power after an a-power).  From the first
    factor that needs reordering or has more terms on, the chain goes on by
    polynomial products.  A zero word is kept at degree 0, as the zero
    polynomial is, so the degree checks see the degrees the products have.
    A chain whose word has no ladder power is the scalar (re, im, den).
    """
    m = n = im = 0
    re = den = 1
    out = None
    for factor, _ in _chain(node, Mul):
        if out is not None:
            rhs = _as_poly(_eval_node(factor))
            _check_degree(out.degree() + rhs.degree())
            out = out * rhs
            continue
        rhs = _factor(factor)
        if type(rhs) is tuple:
            m2, n2, r2, i2, d2 = rhs
            _check_degree(m + n + m2 + n2)
            if not (n and m2):
                m, n, re, im, den = m + m2, n + n2, re * r2 - im * i2, re * i2 + im * r2, den * d2
                if not (re or im):
                    m = n = 0
                continue
            rhs = NormalPolynomial._stored({(m2, n2): (r2, i2)}, d2)
        else:
            _check_degree(m + n + rhs.degree())
        out = NormalPolynomial._reduced({(m, n): (re, im)}, den) * rhs
    if out is not None:
        return out
    return NormalPolynomial._reduced({(m, n): (re, im)}, den) if m or n else _lowest(re, im, den)


_WORD_SYMBOLS = {"a": (0, 1), "ad": (1, 0), "id": (0, 0)}


def _factor(node: ExprNode):
    """One factor of a `*` chain: the word (m, n, re, im, den) if it has at most one term, else
    its polynomial.

    A zero factor is the word (0, 0, 0, 0, 1).  Numbers, a, ad, id, powers of
    a and ad and every symbol-free subtree are read without forming a polynomial.
    """
    base, k = (node.base, node.exponent) if isinstance(node, Pow) else (node, 1)
    if isinstance(base, Symbol) and base.name in _WORD_SYMBOLS:
        m, n = _WORD_SYMBOLS[base.name]
        _check_degree((m + n) * k)
        return (m * k, n * k, 1, 0, 1)
    value = _eval_node(node)
    if type(value) is tuple:
        return (0, 0) + value
    if len(value.num) > 1:
        return value
    ((m, n), (re, im)), = value.num.items() or (((0, 0), (0, 0)),)
    return (m, n, re, im, value.den)


def anti_normal_order(poly: NormalPolynomial) -> AntiNormalPolynomial:
    """Rewrite a normal-ordered polynomial with all a† pushed to the right."""
    return AntiNormalPolynomial._reduced(_swapped_sum(
        (((0, 0), key, c) for key, c in poly.num.items()), -1), poly.den)


def luders_symbolic(poly: NormalPolynomial) -> NormalPolynomial:
    """Image under the coherent-state Lüders map: a†^m a^n -> a^n a†^m."""
    return AntiNormalPolynomial._stored(
        {(n, m): c for (m, n), c in poly.num.items()}, poly.den).to_normal()


def is_well_ordered(poly: NormalPolynomial) -> bool:
    """True iff the normal and anti-normal coefficient families coincide.

    This is equivalent to invariance under the Lüders map.
    """
    return _families_coincide(poly, anti_normal_order(poly))


def _families_coincide(poly: NormalPolynomial, anti: AntiNormalPolynomial) -> bool:
    """True iff `anti`, the anti-normal form of `poly`, has the coefficient family of `poly`.

    Families are matched through the symbol substitution a -> z, a† -> z*:
    the normal term a†^m a^n and the anti-normal term a^n a†^m both read as
    z*^m z^n, so the anti-normal key order is reversed before comparing.
    """
    return poly.den == anti.den and poly.num == {(n, m): c for (m, n), c in anti.num.items()}


# --- invariant family and fixed-space enumeration ----------------------------

def family_q(n: int) -> NormalPolynomial:
    """(a^n + a†^n)/2."""
    return NormalPolynomial({(n, 0): _HALF, (0, n): _HALF})


def family_p(n: int) -> NormalPolynomial:
    """(a^n - a†^n)/2i."""
    return NormalPolynomial({(n, 0): -_NEG_HALF_I, (0, n): _NEG_HALF_I})


@dataclass(frozen=True)
class LuedersFamilyCoefficients:
    """Coordinates b0, bq[n], bp[n] of a polynomial in the invariant family."""

    max_degree: int
    b0: Fraction
    bq: tuple[Fraction, ...]
    bp: tuple[Fraction, ...]


@dataclass(frozen=True)
class FixedSpaceResult:
    max_degree: int
    dimension: int
    basis: tuple[NormalPolynomial, ...]
    family_coordinates: tuple[LuedersFamilyCoefficients, ...]


def decompose_in_family(poly: NormalPolynomial, max_degree: int) -> LuedersFamilyCoefficients:
    """Express a polynomial as b0 I + sum_n (bq_n Bq_n + bp_n Bp_n), exactly.

    Raises ValueError if the polynomial has any mixed a†^m a^n term with
    m, n >= 1, i.e. falls outside the invariant family, or a term of degree
    above max_degree, which the coordinates could not hold.
    """
    if any(m >= 1 and n >= 1 for m, n in poly.num):
        raise ValueError("polynomial is not in the well-ordered invariant family")
    if poly.degree() > max_degree:
        raise ValueError(f"polynomial of degree {poly.degree()} exceeds max_degree {max_degree}")
    if not poly.is_hermitian():
        raise ValueError("polynomial is not Hermitian")
    num, den = poly.num, poly.den
    # the coefficient of a†^n is (bq + i bp)/2
    heads = [num.get((n, 0), (0, 0)) for n in range(1, max_degree + 1)]
    return LuedersFamilyCoefficients(
        max_degree, Fraction(num.get((0, 0), (0, 0))[0], den),
        tuple(Fraction(2 * re, den) if re else _ZERO for re, _ in heads),
        tuple(Fraction(2 * im, den) if im else _ZERO for _, im in heads))


def luders_fixed_space(max_degree: int) -> FixedSpaceResult:
    """Exact kernel of (Lüders map - id) on Hermitian polynomials, certified by charge chain.

    Each ladder monomial a†^m a^n with m + n <= max_degree must map under
    (Λ - id) onto terms (m-s, n-s), s >= 1, of its charge chain m - n,
    including (m-1, n-1) when min(m, n) >= 1; otherwise RuntimeError.  The
    check reads Λ(a†^m a^n) alone: coefficient 1 at (m, n), the rest on the
    chain below.  So
    Λ - id is strictly triangular per chain with a nonzero subdiagonal, and
    its kernel is spanned by 1, a†^n and a^n; its Hermitian part (dimension
    2*max_degree + 1) by 1, a†^n + a^n and i·a†^n - i·a^n, which are
    returned with their family coordinates.
    """
    if max_degree < 0 or max_degree > MAX_DEGREE:
        raise ValueError(f"max_degree must be in 0..{MAX_DEGREE}, got {max_degree}")
    for m in range(max_degree + 1):
        for n in range(max_degree - m + 1):
            image = luders_symbolic(NormalPolynomial._stored({(m, n): (1, 0)}, 1))
            keys = set(image.num) | {(m, n)}  # the terms of Λ(word) - word
            if image.num.get((m, n)) == (image.den, 0):
                keys.remove((m, n))
            below = {(m - s, n - s) for s in range(1, min(m, n) + 1)}
            if not keys <= below or (below and (m - 1, n - 1) not in keys):
                raise RuntimeError(
                    f"Lüders image of a†^{m} a^{n} is not triangular in its charge "
                    f"chain: terms on {sorted(keys)}"
                )
    # 1, then a†^n + a^n and i·a†^n - i·a^n, stored as Gaussian integers over 1
    heads = (NormalPolynomial._stored({(0, 0): (1, 0)}, 1),) + tuple(
        NormalPolynomial._stored({(n, 0): (re, im), (0, n): (re, -im)}, 1)
        for n in range(1, max_degree + 1) for re, im in ((1, 0), (0, 1)))
    coords = tuple(decompose_in_family(poly, max_degree) for poly in heads)
    return FixedSpaceResult(max_degree, len(heads), heads, coords)


def to_matrix(poly: NormalPolynomial, space):
    """Realize a polynomial on a truncated Fock space as Σ c · `space.ladder_word(m, n)`.

    The polynomial degree may not exceed the space's guard margin
    (dim - guard_dim), so that matrix elements inside the guard block are
    unaffected by truncation.
    """
    import numpy as np

    margin = space.dim - space.guard_dim
    if poly.degree() > margin:
        raise ValueError(
            f"polynomial degree {poly.degree()} exceeds guard margin {margin}"
        )
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for (m, n), c in poly.terms.items():
        out += complex(c) * space.ladder_word(m, n)
    return out
