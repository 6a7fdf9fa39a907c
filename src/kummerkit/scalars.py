"""Exact ground-field scalars: rationals and prime-field elements, plus the
raw-value hooks through which the package's arithmetic loops run.

Rationals are ``fractions.Fraction`` values from the standard library, which
already guarantees the canonical form this package relies on (positive
denominator, fully reduced, 0/1 for zero, ``str()`` gives ``"num/den"`` with
the denominator omitted when it is 1). :func:`rational` is the checked
constructor. Prime-field arithmetic gets its own element class.

The arithmetic loops run on raw values (README, "How it works", lists
which loop runs for each operation over each kind of field) and reach
them through hooks of the field descriptor: ``unbox(elements)`` gives the
raw values, ``box(values)`` reduces and wraps them, ``reduce(value)``
gives a canonical raw value, ``raw_inverse`` inverts a nonzero one and
``raw_zero`` is the raw zero. A loop unboxes its operands once, reduces
where the algorithm needs a canonical value (a pivot test, a multiplier)
and once per sum, and boxes its results once; its inner updates call no
hook. ``raw_int_bound`` is p when the raw values are ints reduced mod p,
which lets ``raw_mul_mod`` pack them into one int, else None.
``int_modulus`` is None but on an extension of F_p or QQ, whose multiply,
dot product and elimination run on ground ints (:mod:`kummerkit.tower`),
as ``rref`` over QQ does. Only the ground fields write elements as ints:
``to_ints(elements)`` gives them as ints over one denominator D (the lcm
of theirs over QQ, 1 over F_p), and ``from_ints(ints, D)`` gives the
elements back.
:class:`PrimeField`'s raw value is an element's ``value``, reduced by
``% p``; :class:`RationalField` and :class:`~kummerkit.tower.ExtensionField`
share the identity hooks of :class:`IdentityHooks`, whose raw values are
the elements themselves.

No floating point appears anywhere in this module or its callers.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DivisionByZero,
    FieldMismatch,
    NoPrimitiveRoot,
    NotPrime,
    PrimeTooLarge,
    ZeroDenominator,
)

Rational = Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_13: the least strong pseudoprime to every prime base up to 41
# (Sorenson & Webster, 2015). Miller-Rabin on _MR_BASES is exact below it.
MR_EXACT_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases 2..41, exact for n < psi_13.

    Above that bound a composite could pass every base, so instead of an
    unproven answer this raises PrimeTooLarge (a ValidationError).
    """
    if n >= MR_EXACT_BOUND:
        raise PrimeTooLarge(f"{n} is at least {MR_EXACT_BOUND}, beyond the exact range of the primality test")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_TRIAL_BOUND = 1000


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n >= 1, ascending.

    Trial division below _TRIAL_BOUND, and on past it while the cofactor is
    at least MR_EXACT_BOUND, where is_prime cannot decide. A cofactor left
    over is proven prime by is_prime or split by Pollard-Brent rho, and so
    are its parts.
    """
    out = []
    d = 2
    while (d < _TRIAL_BOUND or n >= MR_EXACT_BOUND) and d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if d * d > n:  # n is 1 or a prime
        return out + [n] if n > 1 else out
    large = set()  # primes >= d, so they sort after out
    cofactors = [n]
    while cofactors:
        m = cofactors.pop()
        if is_prime(m):
            large.add(m)
        else:
            f = _pollard_brent(m)
            cofactors += [f, m // f]
    return out + sorted(large)


def _pollard_brent(n: int) -> int:
    """A proper divisor of a composite n with no factor below _TRIAL_BOUND:
    Pollard's rho with Brent's cycle search (Brent 1980) on y -> y^2 + c,
    for c = 1, 2, ... from y = 2, so the answer is deterministic. Differences
    are multiplied together in batches of 128 before each gcd."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step again from its start
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def rational(num: int, den: int = 1) -> Fraction:
    """Canonical rational num/den; raises ZeroDenominator when den = 0."""
    if den == 0:
        raise ZeroDenominator(f"denominator of {num}/{den} is zero")
    return Fraction(num, den)


class PrimeFieldElement:
    """An element of F_p, stored as a representative in [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise FieldMismatch(f"F_{self.p} vs F_{other.p}")
            return other
        if isinstance(other, int):
            return PrimeFieldElement(other, self.p)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.value - other.value, self.p)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.p)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * invert_mod_p(other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other * invert_mod_p(self)

    def __pow__(self, e: int):
        if e < 0:
            return invert_mod_p(self) ** (-e)
        return PrimeFieldElement(pow(self.value, e, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"PrimeFieldElement({self.value}, p={self.p})"


def invert_mod_p(a: PrimeFieldElement) -> PrimeFieldElement:
    """Multiplicative inverse in F_p; raises DivisionByZero on a = 0."""
    if a.value == 0:
        raise DivisionByZero(f"0 has no inverse in F_{a.p}")
    return PrimeFieldElement(pow(a.value, -1, a.p), a.p)


def multiplicative_order(a: PrimeFieldElement) -> int:
    """Least k >= 1 with a^k = 1: a divisor of p - 1, found by dividing each
    prime q of p - 1 out of k = p - 1 while a^(k/q) = 1 still holds."""
    if a.value == 0:
        raise DivisionByZero(f"0 has no multiplicative order in F_{a.p}")
    k = a.p - 1
    for q in prime_factors(k):
        while k % q == 0 and pow(a.value, k // q, a.p) == 1:
            k //= q
    return k


def find_nth_root_of_unity(p: int | PrimeField, n: int) -> PrimeFieldElement:
    """Smallest representative in [1, p) of exact order n.

    One exists iff n divides p - 1; the smallest-representative rule makes the
    choice reproducible across runs and implementations. The elements of
    order n are the powers h^k, gcd(k, n) = 1, of any one of them, h. Such
    an h is v^((p-1)/n) for the first v with h^(n/q) != 1 at every prime
    q | n, so the search costs O(n log p), not a scan of [1, p) by order.

    p is the characteristic or a PrimeField; a PrimeField proved p prime
    when it was built, so only a bare int is tested here.
    """
    if isinstance(p, PrimeField):
        p = p.p
    elif not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1 or (p - 1) % n != 0:
        raise NoPrimitiveRoot(f"F_{p} has no primitive {n}th root of unity: {n} does not divide {p - 1}")
    primes = prime_factors(n)
    for v in range(1, p):
        h = pow(v, (p - 1) // n, p)
        if all(pow(h, n // q, p) != 1 for q in primes):
            break
    return PrimeFieldElement(min(pow(h, k, p) for k in range(1, n + 1) if gcd(k, n) == 1), p)


_new = object.__new__


class PrimeField:
    """Descriptor for F_p. Primality is validated once, at construction.
    Its raw values are ints, reduced mod p only by ``reduce`` and ``box``."""

    __slots__ = ("p",)
    proven_field = True  # p passed is_prime

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p

    def zero(self) -> PrimeFieldElement:
        return PrimeFieldElement(0, self.p)

    def one(self) -> PrimeFieldElement:
        return PrimeFieldElement(1, self.p)

    def from_int(self, k: int) -> PrimeFieldElement:
        return PrimeFieldElement(k, self.p)

    def characteristic(self) -> int:
        return self.p

    def height(self) -> int:
        return 1

    def coerce(self, value) -> PrimeFieldElement:
        if isinstance(value, PrimeFieldElement):
            if value.p != self.p:
                raise FieldMismatch(f"element of F_{value.p} is not in F_{self.p}")
            return value
        if isinstance(value, int):
            return PrimeFieldElement(value, self.p)
        raise FieldMismatch(f"{value!r} is not an element of F_{self.p}")

    raw_zero = 0
    int_modulus = None  # no modulus to fold by

    @property
    def raw_int_bound(self) -> int:
        """p: the raw values are ints reduced mod p, canonical in [0, p)."""
        return self.p

    def unbox(self, elements) -> list[int]:
        return [c.value for c in elements]

    def box(self, values) -> list[PrimeFieldElement]:
        """Elements for raw ints, each reduced once; skips __init__."""
        p = self.p
        out = []
        for v in values:
            e = _new(PrimeFieldElement)
            e.value = v % p
            e.p = p
            out.append(e)
        return out

    def reduce(self, value: int) -> int:
        return value % self.p

    def raw_inverse(self, value: int) -> int:
        return pow(value, -1, self.p)

    def to_ints(self, elements) -> tuple[list[int], int]:
        """(ints, 1): the elements' values, over 1."""
        return [c.value for c in elements], 1

    def from_ints(self, ints, den: int) -> list[PrimeFieldElement]:
        """The elements of the ints, each reduced (den is 1)."""
        return self.box(ints)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __str__(self):
        return f"GF({self.p})"


class IdentityHooks:
    """The raw-value hooks of a field whose elements serve as their own raw
    values: elements are exact and canonical after every operation, so
    ``reduce`` and ``box`` change nothing."""

    __slots__ = ()
    raw_int_bound = None  # raw values are not ints
    int_modulus = None  # set by an extension of F_p or QQ only

    @property
    def raw_zero(self):
        return self.zero()

    def unbox(self, elements) -> list:
        return list(elements)

    def box(self, values) -> list:
        return list(values)

    def reduce(self, value):
        return value

    def raw_inverse(self, value):
        return self.one() / value


class RationalField(IdentityHooks):
    """Descriptor for the rationals; elements are fractions.Fraction values."""

    __slots__ = ()
    proven_field = True

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def characteristic(self) -> int:
        return 0

    def height(self) -> int:
        return 1

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise FieldMismatch(f"{value!r} is not a rational")

    def to_ints(self, elements) -> tuple[list[int], int]:
        """(ints, D): the rationals times D, the lcm of their denominators."""
        pairs = [q.as_integer_ratio() for q in elements]
        den = lcm(*[q for _, q in pairs])
        return [n * (den // q) for n, q in pairs], den

    def from_ints(self, ints, den: int) -> list[Fraction]:
        """The rationals c / den for the ints c, each reduced."""
        return [Fraction(c, den) for c in ints]

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "RationalField()"

    def __str__(self):
        return "QQ"
