"""Ground-layer scalar tests.

Oracles used here and nowhere else: trial-division primality and brute-force
power enumeration for multiplicative orders.
"""

import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from kummerkit import scalars
from kummerkit.errors import DivisionByZero, NoPrimitiveRoot, NotPrime, PrimeTooLarge, ValidationError, ZeroDenominator
from kummerkit.scalars import (
    MR_EXACT_BOUND,
    PrimeField,
    PrimeFieldElement,
    RationalField,
    find_nth_root_of_unity,
    invert_mod_p,
    is_prime,
    multiplicative_order,
    prime_factors,
    rational,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def oracle_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def oracle_order(a: int, p: int) -> int:
    acc, k = a % p, 1
    while acc != 1:
        acc = acc * a % p
        k += 1
    return k


class TestRational:
    def test_sign_and_gcd_normalization(self):
        r = rational(-6, -8)
        assert (r.numerator, r.denominator) == (3, 4)

    def test_canonical_zero(self):
        r = rational(0, 5)
        assert (r.numerator, r.denominator) == (0, 1)

    def test_gcd_reduction(self):
        assert rational(2, 4) == Fraction(1, 2)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            rational(3, 0)

    def test_string_form(self):
        assert str(rational(3, 4)) == "3/4"
        assert str(rational(5, 1)) == "5"
        assert str(rational(-6, 8)) == "-3/4"

    @given(
        a=st.integers(-50, 50),
        b=st.integers(1, 50),
        c=st.integers(-50, 50),
        d=st.integers(1, 50),
    )
    def test_addition_round_trip(self, a, b, c, d):
        assert rational(a * d + c * b, b * d) == rational(a, b) + rational(c, d)


class TestPrimality:
    @pytest.mark.parametrize("n", range(0, 2000))
    def test_agrees_with_trial_division(self, n):
        assert is_prime(n) == oracle_is_prime(n)

    @pytest.mark.parametrize(
        "n",
        [561, 1105, 1729, 2047, 1373653, 25326001, 3215031751],  # pseudoprime traps
    )
    def test_pseudoprimes_rejected(self, n):
        assert is_prime(n) == oracle_is_prime(n)

    def test_prime_field_rejects_composites(self):
        with pytest.raises(NotPrime):
            PrimeField(4)

    def test_strong_pseudoprime_to_bases_up_to_37_rejected(self):
        # psi_12: a strong pseudoprime to every prime base 2..37
        n = 318665857834031151167461
        assert n == 399165290221 * 798330580441
        assert not is_prime(n)
        with pytest.raises(NotPrime):
            PrimeField(n)

    def test_bound_is_psi_13(self):
        assert MR_EXACT_BOUND == 3317044064679887385961981
        assert not sympy.isprime(MR_EXACT_BOUND)

    def test_at_or_above_the_exact_range_rejected(self):
        assert issubclass(PrimeTooLarge, ValidationError)
        for n in (MR_EXACT_BOUND, sympy.nextprime(MR_EXACT_BOUND), 2**127 - 1):
            with pytest.raises(PrimeTooLarge):
                is_prime(n)
            with pytest.raises(PrimeTooLarge):
                PrimeField(n)

    def test_largest_prime_below_the_bound_accepted(self):
        p = sympy.prevprime(MR_EXACT_BOUND)
        assert is_prime(p)
        assert PrimeField(p).p == p

    def test_agrees_with_sympy_on_large_random_values(self):
        rng = random.Random(1975)
        for _ in range(300):
            n = rng.randrange(10**18, MR_EXACT_BOUND) | 1
            assert is_prime(n) == sympy.isprime(n), n


class TestPrimeFieldArithmetic:
    def test_invert_examples(self):
        assert invert_mod_p(PrimeFieldElement(3, 7)) == PrimeFieldElement(5, 7)
        assert invert_mod_p(PrimeFieldElement(1, 13)) == PrimeFieldElement(1, 13)

    def test_invert_zero(self):
        with pytest.raises(DivisionByZero):
            invert_mod_p(PrimeFieldElement(0, 7))

    def test_reflected_division(self):
        f13 = PrimeField(13)
        assert 1 / f13.from_int(3) == f13.from_int(9)
        quotient = 2 / f13.from_int(3)
        assert type(quotient) is PrimeFieldElement and quotient.value == 5  # 2 * 9 = 18
        with pytest.raises(DivisionByZero):
            1 / f13.from_int(0)
        assert f13.from_int(3).__rtruediv__("1") is NotImplemented
        with pytest.raises(TypeError):
            "1" / f13.from_int(3)

    @given(st.sampled_from(SMALL_PRIMES), st.integers(1, 10**6))
    def test_inverse_property(self, p, raw):
        a = PrimeFieldElement(raw, p)
        if a.value == 0:
            return
        assert a * invert_mod_p(a) == PrimeFieldElement(1, p)

    def test_order_examples(self):
        assert oracle_order(2, 7) == 3
        assert multiplicative_order(PrimeFieldElement(2, 7)) == 3
        assert multiplicative_order(PrimeFieldElement(1, 13)) == 1
        assert oracle_order(4, 13) == 6
        assert multiplicative_order(PrimeFieldElement(4, 13)) == 6

    def test_order_of_zero(self):
        with pytest.raises(DivisionByZero):
            multiplicative_order(PrimeFieldElement(0, 5))

    @given(st.sampled_from(SMALL_PRIMES), st.integers(1, 10**6))
    def test_order_divides_group_order(self, p, raw):
        a = PrimeFieldElement(raw, p)
        if a.value == 0:
            return
        k = multiplicative_order(a)
        assert k == oracle_order(a.value, p)
        assert (p - 1) % k == 0

    def test_order_matches_brute_force_below_600(self):
        for p in range(2, 600):
            if sympy.isprime(p):
                for a in range(1, p):
                    assert multiplicative_order(PrimeFieldElement(a, p)) == oracle_order(a, p), (a, p)

    def test_order_of_a_generator_mod_a_ten_digit_prime(self):
        # 5 generates (Z/p)^*, so stepping through the powers would take
        # about 10^9 multiplies
        t0 = time.perf_counter()
        assert multiplicative_order(PrimeFieldElement(5, 1000000007)) == 1000000006
        assert time.perf_counter() - t0 < 0.5

    def test_order_mod_a_safe_prime(self):
        # p - 1 = 2q with q = 1000000000000223 prime: trial division up to
        # sqrt(q) took over a second
        p, q = 2000000000000447, 1000000000000223
        t0 = time.perf_counter()
        k = multiplicative_order(PrimeFieldElement(3, p))
        assert time.perf_counter() - t0 < 0.1
        assert k == min(d for d in (1, 2, q, 2 * q) if pow(3, d, p) == 1)


class TestPrimeFactors:
    def test_matches_sympy_below_5000(self):
        assert [prime_factors(n) for n in (-3, 0, 1)] == [[], [], []]
        for n in range(2, 5000):
            assert prime_factors(n) == sorted(sympy.factorint(n)), n

    def test_matches_sympy_on_random_integers_below_10_to_the_24(self):
        rng = random.Random(20260)
        for _ in range(60):
            n = rng.randrange(1, 10**24)
            assert prime_factors(n) == sorted(sympy.factorint(n)), n

    @pytest.mark.parametrize(
        "factors",
        [
            (1000003, 1000003),
            (999983, 1000003),
            (1099511627689, 1099511627791),
            (1009, 1009, 1009, 1013),
        ],
        ids=["prime-square", "two-primes", "two-40-bit-primes", "small-cube"],
    )
    def test_products_of_primes_past_the_trial_bound(self, factors):
        assert prime_factors(math.prod(factors)) == sorted(set(factors))

    def test_cofactor_past_the_primality_bound_is_trial_divided(self):
        # 1009 * q is above MR_EXACT_BOUND, where is_prime cannot decide, so
        # trial division runs until 1009 leaves the prime q below the bound
        q = 3317044064679887385959989
        assert 1009 * q >= scalars.MR_EXACT_BOUND > q
        assert prime_factors(2 * 1009 * q) == [2, 1009, q]


class TestRootsOfUnity:
    def test_smallest_representative_mod_13(self):
        # brute force: orders of 1..12 mod 13; the first of order 4 is 5
        orders = {a: oracle_order(a, 13) for a in range(1, 13)}
        assert min(a for a, k in orders.items() if k == 4) == 5
        assert find_nth_root_of_unity(13, 4) == PrimeFieldElement(5, 13)

    def test_order_two_mod_5(self):
        assert find_nth_root_of_unity(5, 2) == PrimeFieldElement(4, 5)

    def test_no_root_when_n_does_not_divide(self):
        with pytest.raises(NoPrimitiveRoot):
            find_nth_root_of_unity(5, 3)

    def test_trivial_root(self):
        assert find_nth_root_of_unity(7, 1) == PrimeFieldElement(1, 7)

    def test_composite_modulus_rejected(self):
        with pytest.raises(NotPrime):
            find_nth_root_of_unity(9, 2)

    def test_prime_field_argument_is_not_tested_again(self, monkeypatch):
        field = PrimeField(13)
        calls = []
        monkeypatch.setattr(scalars, "is_prime", lambda n: calls.append(n) or True)
        assert find_nth_root_of_unity(field, 4) == PrimeFieldElement(5, 13)
        assert calls == []

    def test_smallest_representative_matches_brute_force(self):
        # every prime p < 600 and every n | p-1: the order of each v is the
        # least divisor d of p-1 with v^d = 1, and the answer is the least v
        # of order n
        for p in range(2, 600):
            if not sympy.isprime(p):
                continue
            divisors = [d for d in range(1, p) if (p - 1) % d == 0]
            smallest = {}
            for v in range(1, p):
                order = next(d for d in divisors if pow(v, d, p) == 1)
                smallest.setdefault(order, v)
            for n in divisors:
                assert find_nth_root_of_unity(p, n) == PrimeFieldElement(smallest[n], p), (p, n)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 41])
    def test_exact_order(self, p):
        for n in range(1, p):
            if (p - 1) % n:
                continue
            zeta = find_nth_root_of_unity(p, n)
            assert zeta**n == PrimeFieldElement(1, p)
            for q in prime_factors(n):
                assert zeta ** (n // q) != PrimeFieldElement(1, p)


class TestFieldDescriptors:
    def test_prime_field_basics(self):
        f = PrimeField(7)
        assert f.zero() == PrimeFieldElement(0, 7)
        assert f.one() == PrimeFieldElement(1, 7)
        assert f.from_int(-1) == PrimeFieldElement(6, 7)
        assert f.characteristic() == 7
        assert f == PrimeField(7)
        assert f != PrimeField(11)

    def test_rational_field_basics(self):
        f = RationalField()
        assert f.zero() == Fraction(0)
        assert f.one() == Fraction(1)
        assert f.characteristic() == 0
        assert f.coerce(3) == Fraction(3)
        assert f == RationalField()
