import functools
import random
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from luderskit.expr import I_UNIT, MAX_DEGREE, ComplexRational
from luderskit.fock import FockSpace, plane_quadrature, grid_channel_apply, disk_monomial_image
from luderskit.ordering import (
    AntiNormalPolynomial,
    DegreeError,
    NormalPolynomial,
    anti_normal_order,
    decompose_in_family,
    family_p,
    family_q,
    is_well_ordered,
    luders_fixed_space,
    luders_symbolic,
    normal_order,
    reordering_coefficients,
    to_matrix,
)

ONE = ComplexRational.real(1)


# Literal iterated-commutation oracle: words over 'a' (annihilation) and
# 'd' (creation), rewriting each 'ad' pair via a a† = a†a + 1 until sorted.
@functools.lru_cache(maxsize=None)
def word_oracle(word):
    for i in range(len(word) - 1):
        if word[i] == "a" and word[i + 1] == "d":
            swapped = word_oracle(word[:i] + ("d", "a") + word[i + 2:])
            dropped = word_oracle(word[:i] + word[i + 2:])
            acc = dict(swapped)
            for key, c in dropped:
                acc[key] = acc.get(key, 0) + c
            return tuple(sorted(acc.items()))
    return (((word.count("d"), word.count("a")), 1),)


def oracle_normal_form(n_a: int, n_d: int) -> dict:
    """Normal form of a^n_a a†^n_d by pure word rewriting."""
    return dict(word_oracle(("a",) * n_a + ("d",) * n_d))


def test_single_commutation():
    assert normal_order("a*ad").terms == {(1, 1): ONE, (0, 0): ONE}


def test_a2_ad2_example():
    expected = normal_order("ad^2*a^2 + 4*ad*a + 2")
    assert normal_order("a^2*ad^2") == expected


def test_q_squared_expansion():
    quarter = ComplexRational.real(Fraction(1, 4))
    half = ComplexRational.real(Fraction(1, 2))
    assert normal_order("q^2").terms == {
        (2, 0): quarter, (0, 2): quarter, (1, 1): half, (0, 0): quarter,
    }


@pytest.mark.parametrize("m,n", [(m, n) for m in range(7) for n in range(7)])
def test_engine_word_matches_rewrite_oracle(m, n):
    engine = {k: v for k, v in normal_order(f"a^{m}*ad^{n}").terms.items()}
    oracle = {k: ComplexRational.real(v) for k, v in oracle_normal_form(m, n).items()}
    assert engine == oracle


@pytest.mark.parametrize("m,n", [(m, n) for m in range(7) for n in range(7)])
def test_closed_form_matches_rewrite_oracle(m, n):
    assert reordering_coefficients(m, n) == oracle_normal_form(m, n)


def test_closed_form_values():
    assert reordering_coefficients(2, 2) == {(2, 2): 1, (1, 1): 4, (0, 0): 2}
    assert reordering_coefficients(3, 1) == {(1, 3): 1, (0, 2): 3}


def test_anti_normal_examples():
    assert anti_normal_order(normal_order("ad*a")).terms == {
        (1, 1): ONE, (0, 0): -ONE,
    }
    assert anti_normal_order(NormalPolynomial.identity()).terms == {(0, 0): ONE}
    got = anti_normal_order(normal_order("ad^2*a^2"))
    assert got.terms == {
        (2, 2): ONE, (1, 1): ComplexRational.real(-4), (0, 0): ComplexRational.real(2),
    }


def _random_poly(rng, degree):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        m = rng.randint(0, degree)
        n = rng.randint(0, degree - m)
        coeff = ComplexRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        terms[(m, n)] = terms.get((m, n), ComplexRational()) + coeff
    return NormalPolynomial(terms)


def test_anti_normal_round_trip_on_200_random_polynomials():
    rng = random.Random(42)
    for _ in range(200):
        poly = _random_poly(rng, 8)
        assert anti_normal_order(poly).to_normal() == poly


def test_luders_examples():
    assert luders_symbolic(NormalPolynomial.identity()) == NormalPolynomial.identity()
    assert luders_symbolic(normal_order("q^2")) == normal_order("q^2 + 1/2")
    assert luders_symbolic(normal_order("ad*a")) == normal_order("ad*a + 1")
    assert luders_symbolic(normal_order("a*ad")) == normal_order("ad*a + 2")


def test_luders_linear_unital_hermitian_preserving():
    rng = random.Random(7)
    for _ in range(50):
        poly = _random_poly(rng, 6)
        herm = poly + poly.adjoint()
        assert herm.is_hermitian()
        image = luders_symbolic(herm)
        assert image.is_hermitian()
        scaled = luders_symbolic(herm.scaled(ComplexRational.real(3)))
        assert scaled == image.scaled(ComplexRational.real(3))


@pytest.mark.parametrize("text,expected", [
    ("q^2 - p^2", True),
    ("q*p + p*q", True),
    ("q^2", False),
    ("q", True),
    ("p", True),
    ("id", True),
    ("ad*a", False),
])
def test_is_well_ordered(text, expected):
    assert is_well_ordered(normal_order(text)) is expected


def test_well_ordered_iff_luders_invariant():
    rng = random.Random(11)
    for _ in range(100):
        poly = _random_poly(rng, 6)
        poly = poly + poly.adjoint()
        assert is_well_ordered(poly) == (luders_symbolic(poly) == poly)


def test_invariant_family_members_well_ordered_up_to_12():
    for n in range(1, 13):
        assert is_well_ordered(family_q(n))
        assert is_well_ordered(family_p(n))


def test_symbol_equality_for_fixed_space_elements():
    # Q-symbol of the normal form and P-symbol of the anti-normal form,
    # both read off by a -> z, a† -> z*, coincide monomial by monomial.
    for n in range(1, 7):
        for poly in (family_q(n), family_p(n)):
            anti = anti_normal_order(poly)
            q_monomials = dict(poly.terms)                       # (conj_pow, plain_pow)
            p_monomials = {(dd, aa): c for (aa, dd), c in anti.terms.items()}
            assert q_monomials == p_monomials


def test_fixed_space_dimensions_and_membership():
    for n_max in range(0, 7):
        result = luders_fixed_space(n_max)
        assert result.dimension == 2 * n_max + 1
        for poly in result.basis:
            assert luders_symbolic(poly) == poly
            assert poly.is_hermitian()
        for n in range(1, n_max + 1):
            assert luders_symbolic(family_q(n)) == family_q(n)
            assert luders_symbolic(family_p(n)) == family_p(n)


def test_fixed_space_n2_excludes_number_like_directions():
    result = luders_fixed_space(2)
    assert result.dimension == 5
    for poly in result.basis:
        assert all(m == 0 or n == 0 for (m, n) in poly.terms)
    # q^2 - p^2 and qp + pq are invariant, q^2 + p^2 is not
    assert is_well_ordered(normal_order("q^2 - p^2"))
    assert is_well_ordered(normal_order("q*p + p*q"))
    assert not is_well_ordered(normal_order("q^2 + p^2"))


def test_fixed_space_family_coordinates_reconstruct_basis():
    result = luders_fixed_space(3)
    for poly, coeffs in zip(result.basis, result.family_coordinates):
        rebuilt = NormalPolynomial.identity().scaled(ComplexRational.real(coeffs.b0))
        for n in range(1, 4):
            rebuilt = rebuilt + family_q(n).scaled(ComplexRational.real(coeffs.bq[n - 1]))
            rebuilt = rebuilt + family_p(n).scaled(ComplexRational.real(coeffs.bp[n - 1]))
        assert rebuilt == poly


def test_fixed_space_certificate_rejects_identity_map(monkeypatch):
    import luderskit.ordering as ordering

    monkeypatch.setattr(ordering, "luders_symbolic", lambda poly: poly)
    with pytest.raises(RuntimeError):
        luders_fixed_space(3)


def test_fixed_space_certificate_rejects_a_scaled_image(monkeypatch):
    # 2·Λ(word) has the terms of Λ(word): only the coefficient of the word
    # itself, 2 instead of 1, tells the two maps apart
    import luderskit.ordering as ordering

    monkeypatch.setattr(ordering, "luders_symbolic",
                        lambda poly: luders_symbolic(poly).scaled(ComplexRational.real(2)))
    with pytest.raises(RuntimeError):
        luders_fixed_space(3)


def test_fixed_space_certificate_rejects_a_missing_diagonal(monkeypatch):
    # Λ(word) - word drops the word itself from every image, so Λ - id has
    # -1 on its diagonal: the word's key is absent, and must still count
    import luderskit.ordering as ordering

    monkeypatch.setattr(ordering, "luders_symbolic", lambda poly: luders_symbolic(poly) - poly)
    with pytest.raises(RuntimeError):
        luders_fixed_space(3)


@pytest.mark.parametrize("leak", ["a", "a + ad"])
def test_fixed_space_certificate_rejects_off_chain_leaks(monkeypatch, leak):
    # a term outside the charge chain of each image, including one that
    # keeps Hermitian inputs Hermitian, must fail the certificate
    import luderskit.ordering as ordering

    extra = normal_order(leak)
    monkeypatch.setattr(ordering, "luders_symbolic", lambda poly: luders_symbolic(poly) + extra)
    with pytest.raises(RuntimeError):
        luders_fixed_space(3)


@pytest.mark.parametrize("n_max", range(7, 13))
def test_fixed_space_basis_is_chain_heads(n_max):
    # identity, then a†^n + a^n and i·a†^n - i·a^n for n = 1..n_max
    expected = [NormalPolynomial.identity()]
    for n in range(1, n_max + 1):
        expected.append(NormalPolynomial({(n, 0): ONE, (0, n): ONE}))
        expected.append(NormalPolynomial({(n, 0): I_UNIT, (0, n): -I_UNIT}))
    # family coordinates (b0, bq..., bp...) hold one entry: b0 = 1, bq[n] = 2 or bp[n] = 2
    entries = [(0, 1)] + [(i, 2) for n in range(1, n_max + 1) for i in (n, n_max + n)]
    result = luders_fixed_space(n_max)
    assert list(result.basis) == expected
    for (i, value), coeffs in zip(entries, result.family_coordinates, strict=True):
        flat = [coeffs.b0, *coeffs.bq, *coeffs.bp]
        assert flat == [value if j == i else 0 for j in range(2 * n_max + 1)]


def test_fixed_space_heads_are_the_complex_rational_heads_at_every_degree():
    for n_max in range(MAX_DEGREE + 1):
        result = luders_fixed_space(n_max)
        assert list(result.basis) == [NormalPolynomial.identity()] + [
            NormalPolynomial({(n, 0): c, (0, n): c.conjugate()})
            for n in range(1, n_max + 1) for c in (ONE, I_UNIT)]
        # (b0, bq..., bp...) holds one nonzero entry: b0 = 1, bq[n - 1] = 2 or bp[n - 1] = 2
        entries = [(0, 1)] + [(i, 2) for n in range(1, n_max + 1) for i in (n, n_max + n)]
        for (i, value), coeffs in zip(entries, result.family_coordinates, strict=True):
            flat = [coeffs.b0, *coeffs.bq, *coeffs.bp]
            assert flat == [value if j == i else 0 for j in range(2 * n_max + 1)]
            assert all(type(entry) is Fraction for entry in flat)


def test_fixed_space_coordinates_are_the_family_decomposition_of_each_head():
    for n_max in range(MAX_DEGREE + 1):
        result = luders_fixed_space(n_max)
        assert result.family_coordinates == tuple(
            decompose_in_family(head, n_max) for head in result.basis)


def test_decompose_rejects_mixed_terms():
    with pytest.raises(ValueError):
        decompose_in_family(normal_order("ad*a"), 2)


def test_fixed_space_degree_cap():
    with pytest.raises(ValueError):
        luders_fixed_space(65)
    with pytest.raises(ValueError):
        luders_fixed_space(-1)


def test_to_matrix_identity_and_number():
    space = FockSpace(12, guard_dim=4)
    assert np.allclose(to_matrix(NormalPolynomial.identity(), space), np.eye(12))
    number = normal_order("ad*a")
    assert np.allclose(to_matrix(number, space), np.diag(np.arange(12.0)))


def test_to_matrix_q_squared_matches_matrix_product():
    # tridiagonal-plus-corner structure; the direct product differs only in
    # the last diagonal entry, where truncation breaks [a, a†] = 1
    space = FockSpace(4, guard_dim=2)
    q_mat = (space.a + space.adag) / 2
    diff = to_matrix(normal_order("q^2"), space) - q_mat @ q_mat
    assert abs(diff[3, 3] - 1.0) < 1e-14
    diff[3, 3] = 0.0
    assert np.abs(diff).max() < 1e-14
    built = to_matrix(normal_order("q^2"), space)
    assert abs(built[0, 2] - np.sqrt(2) / 4) < 1e-14
    assert abs(built[3, 1] - np.sqrt(6) / 4) < 1e-14


def test_to_matrix_rejects_degree_beyond_guard_margin():
    space = FockSpace(12, guard_dim=10)
    with pytest.raises(ValueError):
        to_matrix(normal_order("q^3"), space)


def test_grid_channel_consistent_with_symbolic_on_disk_limit():
    # to_matrix(luders_symbolic(p)) equals the disk-grid channel output up
    # to the analytic disk-truncation factors; comparing against the
    # disk-limit prediction isolates the machinery from the R=3 mass gap.
    space = FockSpace(40)
    quad = plane_quadrature(space)
    g = space.guard_dim
    worst = 0.0
    for m in range(3):
        for n in range(3 - m):
            mono = NormalPolynomial.monomial(m, n)
            grid = grid_channel_apply(space, quad, to_matrix(mono, space))
            disk = disk_monomial_image(space, m, n, quad.radius)
            worst = max(worst, np.abs(grid - disk).max())
            exact = to_matrix(luders_symbolic(mono), space)
            plane = np.linalg.matrix_power(space.a, n) @ np.linalg.matrix_power(space.adag, m)
            assert np.allclose(exact[:g, :g], plane[:g, :g], atol=1e-10)
    assert worst < 1e-9


def test_canonical_printing_order():
    poly = normal_order("a + ad^2*a - 3 + ad*a^2")
    assert poly.to_source() == "ad^2*a + ad*a^2 + a - 3"
    anti = anti_normal_order(normal_order("a*ad"))
    assert isinstance(anti, AntiNormalPolynomial)
    assert anti.to_source() == "a*ad"


@pytest.mark.parametrize("text", ["(a^60)^60", "q^40*q^40", "(q^33)^2", "(ad^20*a^20)^2"])
def test_degree_cap_refuses_the_product_before_forming_it(monkeypatch, text):
    formed = []
    original = NormalPolynomial.__mul__

    def recording(self, other):
        formed.append(self.degree() + other.degree())
        return original(self, other)

    monkeypatch.setattr(NormalPolynomial, "__mul__", recording)
    with pytest.raises(DegreeError, match="degree cap"):
        normal_order(text)
    assert max(formed, default=0) <= MAX_DEGREE


def test_storage_is_one_denominator_in_lowest_terms():
    poly = normal_order("1/6*ad + 1/4*i*a + 3")
    assert (poly.den, poly.num) == (12, {(1, 0): (2, 0), (0, 1): (0, 3), (0, 0): (36, 0)})
    # (1 + i)/2 squared is i/2: the numerator (0, 2) over 4 reduces
    assert normal_order("(1/2 + 1/2*i)^2").num == {(0, 0): (0, 1)}
    assert normal_order("(1/2 + 1/2*i)^2").den == 2
    zero = normal_order("2/3*q - 2/3*q")
    assert (zero.den, zero.num, zero.terms) == (1, {}, {})


def test_monomial_refuses_negative_powers():
    with pytest.raises(ValueError, match="nonnegative"):
        NormalPolynomial.monomial(-1, 0)


def test_decompose_in_family_refuses_a_non_hermitian_polynomial():
    with pytest.raises(ValueError, match="not Hermitian"):
        decompose_in_family(normal_order("i*ad"), 2)


def test_decompose_in_family_refuses_terms_above_max_degree():
    with pytest.raises(ValueError, match="degree 5 exceeds max_degree 3"):
        decompose_in_family(family_q(5), 3)
    coords = decompose_in_family(family_q(5), 5)  # at max_degree, the term is kept
    assert coords.bq == (0, 0, 0, 0, 1) and coords.bp == (0,) * 5 and coords.b0 == 0
