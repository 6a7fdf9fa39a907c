"""Polynomial ring tests.

Independent oracles: an int-tuple polynomial arithmetic (mod p) written here
from scratch for trial-division irreducibility and naive powering, the
evaluate-at-root rule for division remainders, and sympy's cyclotomic
polynomials and irreducibility test. ``cyclotomic_index`` is checked against
the scan it ran before it built its candidates from the divisors of deg g
(every m <= 2 deg(g)^2, on the recursive QQ division that built Phi_m then),
kept here as ``oracle_cyclotomic_index``.
"""

import functools
import itertools
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from kummerkit import linalg
from kummerkit.errors import CharacteristicDividesN, DivisionByZero, FieldMismatch, NotMonic
from kummerkit.families import default_modulus
from kummerkit.polynomials import (
    Polynomial,
    cyclotomic_index,
    cyclotomic_polynomial,
    is_irreducible_mod_p,
    mul_mod,
    poly_divmod,
    poly_gcd,
    poly_gcd_extended,
    poly_pow_mod,
    rabin_frobenius,
    raw_pow_mod,
)
from kummerkit.scalars import PrimeField, RationalField, prime_factors

F5 = PrimeField(5)
F13 = PrimeField(13)
QQ = RationalField()
WIDE_P = 2417851639229258349405569  # prime, 81 bits: slots wider than one word


# -- int-tuple oracle arithmetic (mod p), independent of the package --------

def o_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def o_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return o_trim(out)


def o_divmod(a, b, p):
    assert b
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] * inv % p
        q[k] = c
        for j, y in enumerate(b):
            a[k + j] = (a[k + j] - c * y) % p
    return o_trim(q), o_trim(a[: len(b) - 1])


def o_monic_polys(p, deg):
    for tail in itertools.product(range(p), repeat=deg):
        yield tail + (1,)


def o_irreducible(f, p):
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for g in o_monic_polys(p, d):
            if not o_divmod(f, g, p)[1]:
                return False
    return deg >= 1


def o_pow_mod(base, e, f, p):
    """base^e mod f by square and multiply, each step reduced by o_divmod."""
    result = o_divmod((1,), f, p)[1]
    for bit in bin(e)[2:]:
        result = o_divmod(o_mul(result, result, p), f, p)[1]
        if bit == "1":
            result = o_divmod(o_mul(result, base, p), f, p)[1]
    return result


def as_ints(poly):
    return tuple(c.value for c in poly.coeffs)


# ---------------------------------------------------------------------------

class TestDivmod:
    def test_exact_factorization(self):
        a = Polynomial(QQ, [-1, 0, 1])  # X^2 - 1
        b = Polynomial(QQ, [-1, 1])  # X - 1
        q, r = poly_divmod(a, b)
        assert q == Polynomial(QQ, [1, 1])
        assert not r

    def test_degree_underflow(self):
        a = Polynomial(QQ, [0, 1])
        b = Polynomial(QQ, [0, 0, 1])
        q, r = poly_divmod(a, b)
        assert not q
        assert r == a

    def test_remainder_by_linear_is_evaluation(self):
        # dividing by X - 5 over F_13 leaves f(5); here f = X^4 - 2
        expected = (pow(5, 4, 13) - 2) % 13
        assert expected == 12
        f = Polynomial(F13, [-2, 0, 0, 0, 1])
        _, r = poly_divmod(f, Polynomial(F13, [-5, 1]))
        assert as_ints(r) == (expected,)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            poly_divmod(Polynomial(QQ, [1]), Polynomial.zero(QQ))

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            poly_divmod(Polynomial(QQ, [1, 1]), Polynomial(F5, [1, 1]))

    @given(
        p=st.sampled_from([2, 5, 13]),
        a=st.lists(st.integers(0, 12), max_size=8),
        b=st.lists(st.integers(0, 12), min_size=1, max_size=5),
    )
    def test_round_trip_mod_p(self, p, a, b):
        field = PrimeField(p)
        pa, pb = Polynomial(field, a), Polynomial(field, b)
        if not pb:
            return
        q, r = poly_divmod(pa, pb)
        assert q * pb + r == pa
        assert r.degree < pb.degree

    @given(
        a=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9), max_size=6),
        b=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9), min_size=1, max_size=4),
    )
    def test_round_trip_rationals(self, a, b):
        pa, pb = Polynomial(QQ, a), Polynomial(QQ, b)
        if not pb:
            return
        q, r = poly_divmod(pa, pb)
        assert q * pb + r == pa
        assert r.degree < pb.degree


class TestGcd:
    def test_coprime_pair(self):
        g, u, v = poly_gcd_extended(Polynomial(QQ, [1, 0, 1]), Polynomial(QQ, [0, 1]))
        assert g == Polynomial.one(QQ)
        assert u * Polynomial(QQ, [1, 0, 1]) + v * Polynomial(QQ, [0, 1]) == g

    def test_common_factor(self):
        g = poly_gcd(Polynomial(QQ, [-1, 0, 1]), Polynomial(QQ, [-1, 1]))
        assert g == Polynomial(QQ, [-1, 1])

    def test_irreducible_forces_coprime(self):
        f = Polynomial(F13, [-2, 0, 0, 0, 1])  # irreducible, see below
        for coeffs in [(3,), (0, 1), (1, 2, 3), (0, 0, 0, 5)]:
            s = Polynomial(F13, coeffs)
            g, u, v = poly_gcd_extended(f, s)
            assert g == Polynomial.one(F13)
            assert u * f + v * s == g

    @given(
        a=st.lists(st.integers(0, 4), min_size=1, max_size=6),
        b=st.lists(st.integers(0, 4), min_size=1, max_size=6),
    )
    def test_bezout_identity(self, a, b):
        pa, pb = Polynomial(F5, a), Polynomial(F5, b)
        if not pa and not pb:
            return
        g, u, v = poly_gcd_extended(pa, pb)
        assert u * pa + v * pb == g
        if g:
            assert g.is_monic()
            assert not pa % g and not pb % g


class TestCyclotomic:
    def test_first_is_x_minus_1(self):
        assert cyclotomic_polynomial(1, QQ) == Polynomial(QQ, [-1, 1])

    @pytest.mark.parametrize("n", range(1, 25))
    def test_matches_sympy(self, n):
        x = sympy.symbols("x")
        expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        got = cyclotomic_polynomial(n, QQ)
        assert [Fraction(int(c)) for c in expected] == list(got.coeffs)

    def test_quartic_and_sextic(self):
        assert cyclotomic_polynomial(4, QQ) == Polynomial(QQ, [1, 0, 1])
        assert cyclotomic_polynomial(6, QQ) == Polynomial(QQ, [1, -1, 1])

    @pytest.mark.parametrize("n", range(1, 25))
    def test_product_over_divisors(self, n):
        product = Polynomial.one(QQ)
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic_polynomial(d, QQ)
        assert product == Polynomial.x_pow_minus_const(QQ, n, 1)

    def test_mapped_into_prime_field(self):
        assert as_ints(cyclotomic_polynomial(4, F13)) == (1, 0, 1)

    def test_characteristic_divides_n(self):
        with pytest.raises(CharacteristicDividesN):
            cyclotomic_polynomial(4, PrimeField(2))


@functools.cache
def oracle_cyclotomic_int_coeffs(n: int) -> tuple[int, ...]:
    # the recursive exact division over QQ that built Phi_n before the
    # product over the divisors of n did: (X^n - 1) / prod of lower cyclotomics
    num = Polynomial.x_pow_minus_const(QQ, n, 1)
    den = Polynomial.one(QQ)
    for d in range(1, n):
        if n % d == 0:
            den = den * Polynomial(QQ, list(oracle_cyclotomic_int_coeffs(d)))
    quo, rem = poly_divmod(num, den)
    assert not rem
    return tuple(int(c) for c in quo.coeffs)


def oracle_cyclotomic_index(g: Polynomial):
    # the scan that cyclotomic_index ran before it built its candidates from
    # the divisors of deg g: every m <= 2 deg(g)^2, each trial-factored
    if not isinstance(g.field, RationalField) or g.degree < 1:
        return None
    for m in range(1, 2 * g.degree**2 + 1):
        phi = m
        for q in prime_factors(m):
            phi = phi // q * (q - 1)
        if phi == g.degree and g.coeffs == oracle_cyclotomic_int_coeffs(m):
            return m
    return None


def at_minus_t(g: Polynomial) -> Polynomial:
    """(-1)^deg g * g(-t), monic again."""
    return Polynomial(QQ, [c if (g.degree - i) % 2 == 0 else -c for i, c in enumerate(g.coeffs)])


class TestCyclotomicIndex:
    ORACLE_DEGREE = 24  # the scan is quadratic in the degree

    def expect(self, g: Polynomial, answer):
        assert cyclotomic_index(g) == answer, g
        if g.degree <= self.ORACLE_DEGREE:
            assert oracle_cyclotomic_index(g) == answer, g

    @pytest.mark.parametrize("m", range(1, 301))
    def test_each_cyclotomic_polynomial_and_its_twist(self, m):
        phi_m = cyclotomic_polynomial(m, QQ)
        x = sympy.symbols("x")
        assert list(phi_m.coeffs) == sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        if m <= 120:
            assert phi_m.coeffs == oracle_cyclotomic_int_coeffs(m)
        self.expect(phi_m, m)
        # Phi_m(-t) is Phi_2m for odd m, Phi_(m/2) for m = 2 mod 4, else Phi_m
        self.expect(at_minus_t(phi_m), 2 * m if m % 2 else m // 2 if m % 4 == 2 else m)

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (3, 3), (3, 4), (5, 8), (7, 9), (12, 13), (15, 16), (60, 61)])
    def test_products_of_two_are_no_cyclotomic_polynomial(self, a, b):
        self.expect(cyclotomic_polynomial(a, QQ) * cyclotomic_polynomial(b, QQ), None)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 100, 128, 200])
    def test_binomials(self, d):
        self.expect(Polynomial.x_pow_minus_const(QQ, d, 1), 1 if d == 1 else None)
        self.expect(Polynomial.x_pow_minus_const(QQ, d, -1), 2 * d if d & (d - 1) == 0 else None)
        self.expect(Polynomial.x_pow_minus_const(QQ, d, -3), None)

    @pytest.mark.parametrize(
        "coeffs",
        [
            [1, 1, 2, 1, 1],  # constant 1 and t^3 coefficient -mu(5), yet not Phi_5
            [1, 0, 3, 0, 1],
            [1, -1, 1, -1, 1, -1, 1, -1, 1],  # Phi_18 has degree 6, Phi_20 is t^8 - t^6 + t^4 - t^2 + 1
            [1, 1, 1, 0, 1, 1, 1],
            [2, 1, 2],
            [Fraction(1, 2), 1],
        ],
    )
    def test_other_polynomials(self, coeffs):
        self.expect(Polynomial(QQ, coeffs), None)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 1, -1, 2]), st.lists(st.integers(-2, 2), max_size=6), st.booleans())
    def test_small_polynomials_against_the_scan(self, constant, middle, palindromic):
        # monic, mostly with the constant 1 of every Phi_m for m >= 2, and
        # half the time palindromic in the middle, as each such Phi_m is
        g = Polynomial(QQ, [constant] + middle + (middle[-2::-1] if palindromic else []) + [1])
        assert cyclotomic_index(g) == oracle_cyclotomic_index(g), g

    def test_degree_1000_is_decided_fast(self):
        for g, answer in (
            (Polynomial.x_pow_minus_const(QQ, 1000, -3), None),
            (Polynomial.x_pow_minus_const(QQ, 1000, -1), None),
            (cyclotomic_polynomial(1111, QQ), 1111),  # phi(11 * 101) = 1000
            (cyclotomic_polynomial(1111, QQ) + Polynomial(QQ, [0, 0, 1]), None),
        ):
            start = time.perf_counter()
            assert cyclotomic_index(g) == answer
            assert time.perf_counter() - start < 0.5


class TestIrreducibility:
    def test_quadratic_without_roots(self):
        # oracle: X^2 - 2 has no root among 0..4
        assert all((a * a - 2) % 5 for a in range(5))
        assert is_irreducible_mod_p(Polynomial(F5, [-2, 0, 1]))

    def test_quadratic_with_root(self):
        assert not is_irreducible_mod_p(Polynomial(F5, [-1, 0, 1]))

    def test_quartic_binomial(self):
        # oracle: exhaustive trial division over F_13
        assert o_irreducible((11, 0, 0, 0, 1), 13)
        assert is_irreducible_mod_p(Polynomial(F13, [-2, 0, 0, 0, 1]))

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            is_irreducible_mod_p(Polynomial(F5, [1, 2]))

    def test_constants_are_not_irreducible(self):
        assert not is_irreducible_mod_p(Polynomial(F5, [3]))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_agrees_with_trial_division(self, p):
        field = PrimeField(p)
        max_deg = 5 if p <= 5 else 3
        for deg in range(1, max_deg + 1):
            for f in o_monic_polys(p, deg):
                assert is_irreducible_mod_p(Polynomial(field, f)) == o_irreducible(f, p), f
        if p == 7:  # degree 4 sampled to keep the oracle affordable
            for f in itertools.islice(o_monic_polys(7, 4), 0, 2401, 17):
                assert is_irreducible_mod_p(Polynomial(field, f)) == o_irreducible(f, 7), f


def sympy_irreducible(f, p):
    return sympy.Poly(list(reversed(f)), sympy.Symbol("x"), modulus=p).is_irreducible


class TestIrreducibilityAgainstSympy:
    """The Frobenius Q-matrix form of Rabin's test against sympy's factoring."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_every_monic_up_to_degree_4(self, p):
        field = PrimeField(p)
        for deg in range(1, 5):
            for f in o_monic_polys(p, deg):
                assert is_irreducible_mod_p(Polynomial(field, f)) == sympy_irreducible(f, p), f

    def test_seeded_random_up_to_degree_10(self):
        rng = random.Random(20161)
        primes = [q for q in range(2, 98) if sympy.isprime(q)]
        irreducible = 0
        for _ in range(300):
            p = rng.choice(primes)
            deg = rng.randrange(1, 11)
            f = tuple(rng.randrange(p) for _ in range(deg)) + (1,)
            got = is_irreducible_mod_p(Polynomial(PrimeField(p), f))
            assert got == sympy_irreducible(f, p), (p, f)
            irreducible += got
        assert 0 < irreducible < 300  # both outcomes exercised


def sympy_first_irreducible(p, n):
    """The lex-first monic irreducible of degree n over F_p by sympy, with
    the coefficient tuple (c_0, ..., c_{n-1}) read left to right; for
    n >= 2 the tuples with c_0 = 0 are skipped, since X divides them."""
    for c_0 in range(1 if n >= 2 else 0, p):
        for rest in itertools.product(range(p), repeat=n - 1):
            if sympy_irreducible((c_0,) + rest + (1,), p):
                return (c_0,) + rest + (1,)
    raise AssertionError(f"no irreducible of degree {n} over F_{p}")


def sympy_irreducible_factor(p, deg, rng):
    """A random monic irreducible of the given degree over F_p, by sympy."""
    while True:
        g = tuple(rng.randrange(p) for _ in range(deg)) + (1,)
        if sympy_irreducible(g, p):
            return g


class TestRabinTest:
    """``rabin_frobenius`` rejects f with a root before it builds Q, and runs
    each gcd test of Rabin's criterion as its Frobenius loop reaches it."""

    def test_seeded_random_up_to_degree_16_against_sympy(self):
        rng = random.Random(1997)
        primes = [q for q in range(2, 2000) if sympy.isprime(q)]
        irreducible = 0
        for _ in range(150):
            p = rng.choice(primes)
            deg = rng.randrange(1, 17)
            f = tuple(rng.randrange(p) for _ in range(deg)) + (1,)
            got = rabin_frobenius(Polynomial(PrimeField(p), f)) is not None
            assert got == sympy_irreducible(f, p), (p, f)
            irreducible += got
        assert 0 < irreducible < 150  # both outcomes exercised

    @pytest.mark.parametrize(
        "degrees",
        [
            (2, 2),  # d = 4: rejected by the gcd test at k = 2
            (3, 3),  # d = 6: passes k = 2, rejected at k = 3
            (4, 4),  # d = 8: rejected at k = 4
            (2, 3),  # d = 5 prime: no gcd test after the root test; X^(p^5) != X
            (2, 5),  # d = 7 prime: likewise
            (3, 5),  # d = 8: passes k = 4, X^(p^8) != X
            (4, 5),  # d = 9: passes k = 3, X^(p^9) != X
        ],
    )
    def test_reducible_without_a_root(self, degrees):
        rng = random.Random(str(degrees))
        for p in (2, 3, 1009, 1999):
            f = o_mul(*(sympy_irreducible_factor(p, e, rng) for e in degrees), p)
            assert not sympy_irreducible(f, p)
            assert rabin_frobenius(Polynomial(PrimeField(p), f)) is None, (p, f)

    def test_a_root_rejects_before_q_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("substitution_matrix reached")

        monkeypatch.setattr(linalg, "substitution_matrix", refuse)
        rng = random.Random(1981)
        for p in (2, 3, 7, 1201):
            field = PrimeField(p)
            for deg in range(2, 17):
                root = rng.randrange(p)
                cofactor = tuple(rng.randrange(p) for _ in range(deg - 1)) + (1,)
                f = o_mul((-root % p, 1), cofactor, p)
                assert rabin_frobenius(Polynomial(field, f)) is None, (p, f)
        with pytest.raises(AssertionError, match="substitution_matrix reached"):
            rabin_frobenius(Polynomial(PrimeField(7), [1, 0, 1]))  # no root: Q is needed

    def test_the_frobenius_steps_make_no_mat_apply_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("mat_apply reached")

        monkeypatch.setattr(linalg, "mat_apply", refuse)
        field = PrimeField(1249)
        f = default_modulus(field, 16).modulus
        assert rabin_frobenius(f) is not None

    @pytest.mark.parametrize("p", [q for q in range(2, 200) if sympy.isprime(q)])
    def test_default_modulus_is_the_lex_first_irreducible(self, p):
        for n in range(1, 13):
            if (p - 1) % n == 0:
                assert default_modulus(PrimeField(p), n).modulus.coeffs == Polynomial(PrimeField(p), sympy_first_irreducible(p, n)).coeffs, (p, n)


class TestPowMod:
    def test_frobenius_on_quadratic(self):
        # oracle: naive repeated multiplication, then reduce
        f = (3, 0, 1)  # X^2 - 2 over F_5
        naive = (0, 1)
        for _ in range(4):
            naive = o_mul(naive, (0, 1), 5)
        assert o_divmod(naive, f, 5)[1] == (0, 4)
        got = poly_pow_mod(Polynomial.x(F5), 5, Polynomial(F5, [-2, 0, 1]))
        assert as_ints(got) == (0, 4)

    def test_zero_exponent(self):
        f = Polynomial(F5, [-2, 0, 1])
        assert poly_pow_mod(Polynomial.x(F5), 0, f) == Polynomial.one(F5)

    def test_frobenius_on_quartic(self):
        got = poly_pow_mod(Polynomial.x(F13), 13, Polynomial(F13, [-2, 0, 0, 0, 1]))
        assert as_ints(got) == (0, 8)

    def test_modulus_must_be_monic(self):
        with pytest.raises(NotMonic):
            poly_pow_mod(Polynomial.x(F5), 3, Polynomial(F5, [1, 2]))

    @given(
        e1=st.integers(0, 40),
        e2=st.integers(0, 40),
        base=st.lists(st.integers(0, 12), min_size=1, max_size=4),
    )
    @settings(max_examples=40)
    def test_exponent_additivity(self, e1, e2, base):
        f = Polynomial(F13, [-2, 0, 0, 0, 1])
        b = Polynomial(F13, base)
        lhs = poly_pow_mod(b, e1 + e2, f)
        rhs = (poly_pow_mod(b, e1, f) * poly_pow_mod(b, e2, f)) % f
        assert lhs == rhs


@st.composite
def power_cases(draw):
    """(p, monic f of degree 1 to 24 as an int tuple, e): p in {2, 3, 13,
    7681, WIDE_P}, and e 0, 1, 2, p or below 2^70."""
    p = draw(st.sampled_from([2, 3, 13, 7681, WIDE_P]))
    d = draw(st.integers(1, 24))
    f = tuple(draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))) + (1,)
    e = draw(st.one_of(st.sampled_from([0, 1, 2, p]), st.integers(0, 2**70 - 1)))
    return p, f, e


class TestRawPowMod:
    """``raw_pow_mod`` against the schoolbook oracle: X's set bits are shifts,
    any other base's are products."""

    @staticmethod
    def padded(values, d):
        return list(values) + [0] * (d - len(values))

    @given(power_cases())
    @settings(max_examples=150, deadline=None)
    def test_x_to_e_with_shifts(self, case):
        p, f, e = case
        d, field = len(f) - 1, PrimeField(p)
        x = o_divmod((0, 1), f, p)[1]
        got = raw_pow_mod(field, self.padded(x, d), e, Polynomial(field, f))
        assert got == self.padded(o_pow_mod(x, e, f, p), d)

    @given(power_cases(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_another_base_with_products(self, case, rng):
        p, f, e = case
        d, field = len(f) - 1, PrimeField(p)
        base = o_trim(rng.randrange(p) for _ in range(d))
        modulus = Polynomial(field, f)
        got = raw_pow_mod(field, self.padded(base, d), e, modulus)
        assert got == self.padded(o_pow_mod(base, e, f, p), d)
        assert as_ints(poly_pow_mod(Polynomial(field, base), e, modulus)) == o_pow_mod(base, e, f, p)

    @pytest.mark.parametrize("p,d", [(2, 2), (13, 5), (7681, 16), (WIDE_P, 8)])
    def test_a_power_of_x_makes_products_past_degree_d_only(self, p, d):
        field, rng = PrimeField(p), random.Random(f"{p}-{d}")
        f = Polynomial(field, [rng.randrange(p) for _ in range(d)] + [1])
        products = []
        packed_mul = mul_mod(field, f)  # f's fold table, built and kept

        def counting(a, b):
            products.append(a is b)
            return packed_mul(a, b)

        object.__setattr__(f, "mul_mod", counting)
        for e in (1, 2, 3, d - 1, d, p, p**2 - 1, 2**70 - 1):
            products.clear()
            raw_pow_mod(field, [0, 1] + [0] * (d - 2), e, f)
            # squares only, from the first power of X past degree d - 1
            assert products == [True] * sum(e >> j >= d for j in range(e.bit_length() - 1)), e
        products.clear()
        raw_pow_mod(field, [1, 1] + [0] * (d - 2), 7, f)  # X + 1: 7 = 0b111
        assert products == [True, False, True, False]


class TestRecordedRabinAnswer:
    """``rabin_frobenius`` records its answer on f, which ``ExtensionField``
    reads in place of a second test."""

    @given(
        st.sampled_from([2, 3, 13, 7681]),
        st.integers(1, 10),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_the_recorded_answer_is_a_fresh_copys(self, p, d, rng):
        field = PrimeField(p)
        coeffs = [rng.randrange(p) for _ in range(d)] + [1]
        f = Polynomial(field, coeffs)
        assert f.rabin is None
        answer = rabin_frobenius(f)
        assert f.rabin is (answer if answer is not None else False)
        assert (f.rabin or None) == rabin_frobenius(Polynomial(field, coeffs))
        assert (answer is not None) == sympy_irreducible(tuple(coeffs), p)


class TestRepresentation:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial(QQ, [1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
        assert not Polynomial(QQ, [0, 0]).coeffs

    def test_degree_convention(self):
        assert Polynomial.zero(QQ).degree == -1
        assert Polynomial.one(QQ).degree == 0
        assert Polynomial.x(QQ).degree == 1

    def test_str(self):
        assert str(Polynomial(F13, [5, 0, 0, 0, 1])) == "X^4 + 5"

    @pytest.mark.parametrize("field,c", [(F13, 1), (F13, 5), (QQ, Fraction(1)), (QQ, Fraction(-3, 4))])
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_x_pow_minus_const_against_repeated_multiplication(self, field, c, n):
        power = Polynomial.one(field)
        for _ in range(n):
            power = power * Polynomial.x(field)
        assert Polynomial.x_pow_minus_const(field, n, c) == power - Polynomial(field, [c])
