"""Dense univariate polynomials over an explicit coefficient field.

Coefficients are stored degree-ascending with the leading (highest-index)
coefficient nonzero; the zero polynomial has an empty coefficient tuple.
The coefficient field is any of the descriptors from :mod:`kummerkit.scalars`
or :mod:`kummerkit.tower`; all that is required of its elements is exact
ring arithmetic plus division.
"""

from __future__ import annotations

import functools
import itertools
from math import prod

from .errors import CharacteristicDividesN, DivisionByZero, FieldMismatch, NotMonic
from .scalars import PrimeField, RationalField, is_prime, prime_factors


class Polynomial:
    """Immutable dense polynomial; ``coeffs[i]`` is the coefficient of X^i.

    ``mul_mod`` is None until ``mul_mod(field, f)`` first multiplies mod
    this polynomial; it then holds that multiply, made once for it over
    every base, which every later multiply and power mod it reuses.
    ``rabin`` is None until ``rabin_frobenius`` first tests this polynomial;
    it then holds the test's answer, (Q, X^p mod f) when it is irreducible
    and False when it is not, which ``ExtensionField`` reads in place of a
    second test."""

    __slots__ = ("field", "coeffs", "mul_mod", "rabin")

    def __init__(self, field, coeffs=()):
        coeffs = [field.coerce(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "mul_mod", None)
        object.__setattr__(self, "rabin", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _of(cls, field, coeffs) -> "Polynomial":
        """A polynomial from a list of elements already in the field, which
        are trusted and not coerced; trailing zeros are dropped."""
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        poly = object.__new__(cls)
        object.__setattr__(poly, "field", field)
        object.__setattr__(poly, "coeffs", tuple(coeffs))
        object.__setattr__(poly, "mul_mod", None)
        object.__setattr__(poly, "rabin", None)
        return poly

    @classmethod
    def zero(cls, field) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "Polynomial":
        return cls(field, (field.one(),))

    @classmethod
    def x(cls, field) -> "Polynomial":
        return cls(field, (field.zero(), field.one()))

    @classmethod
    def x_pow_minus_const(cls, field, n: int, c) -> "Polynomial":
        """X^n - c (the constant 1 - c when n = 0)."""
        coeffs = [field.zero()] * n + [field.one()]
        coeffs[0] -= field.coerce(c)
        return cls(field, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self):
        if not self.coeffs:
            raise DivisionByZero("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one()

    def padded(self, length: int) -> tuple:
        """Coefficients zero-padded up to the given length."""
        pad = (self.field.zero(),) * (length - len(self.coeffs))
        return self.coeffs + pad

    def _check_same_field(self, other: "Polynomial"):
        if self.field != other.field:
            raise FieldMismatch(f"polynomials over {self.field} and {other.field}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_field(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(self.field, out)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_field(other)
        if not self.coeffs or not other.coeffs:
            return Polynomial.zero(self.field)
        field = self.field
        return Polynomial._of(field, field.box(raw_product(field, field.unbox(self.coeffs), field.unbox(other.coeffs))))

    def __divmod__(self, other):
        return poly_divmod(self, other)

    def __floordiv__(self, other):
        return poly_divmod(self, other)[0]

    def __mod__(self, other):
        return poly_divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        if lead == self.field.one():
            return self
        inv = self.field.one() / lead
        return Polynomial._of(self.field, [c * inv for c in self.coeffs])

    def evaluate(self, point):
        """Horner evaluation; the point may live in any extension of the field."""
        if not self.coeffs:
            return point * 0 if not isinstance(point, int) else 0
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * point + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Polynomial({self.field!r}, {list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*X" if c != self.field.one() else "X")
            else:
                parts.append(f"{c}*X^{i}" if c != self.field.one() else f"X^{i}")
        return " + ".join(parts)


def raw_product(field, a, b) -> list:
    """The only polynomial product: two nonempty sequences of canonical raw
    values, multiplied into raw values with each sum unreduced, by the
    schoolbook loop, which skips the zero values of a. Over F_p the
    pipeline multiplies mod f only, by the packed ``mul_mod``."""
    out = [field.raw_zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


def mul_mod(field, f: Polynomial):
    """The only multiply mod a monic f of degree d over the field: a
    function of two sequences of d canonical raw values, which gives their
    product mod f as d canonical raw values. It is made once per f, on
    every base, and kept as ``f.mul_mod``, which every later E multiply,
    power (``raw_pow_mod``) and substitution matrix mod f reuses. It holds
    d and f's low values, never f.

    Over F_p it is the only packed product (Kronecker substitution, in
    ``field.pack``'s slots), made from f's fold table (``_build_fold_table``),
    which gives the slot width W, the mask of the d low slots and the
    rows: a and b become the ints A = sum a_i 2^(iW) and B, C = A*B is one
    big-int multiply, and its d - 1 high slots are each reduced mod p and
    folded back by adding h_k times row k, X^(d+k) mod f packed the same
    way; the d low slots are then unpacked and reduced. a, b and the rows
    are canonical, in [0, p), so no slot overflows into the next
    (``field.slot_width``).

    Over an extension base K = ground[t]/(g), ground F_p or QQ (K's
    ``int_modulus`` is set), it is K's ``int_mul_mod(f)``, which flattens
    f's ground coefficients once and multiplies on the ground coordinates
    as ints, with no multiply in K. Over QQ (and a base higher in a tower,
    which no pipeline multiplies over) raw values are canonical elements:
    the schoolbook ``raw_product`` is folded back with f from the top, one
    degree at a time. So there is one path per kind of base."""
    if f.mul_mod is None:
        if isinstance(field, PrimeField):
            mul = _build_fold_table(field, f)
        elif field.int_modulus is not None:
            mul = field.int_mul_mod(f)
        else:
            mul = _schoolbook_mul_mod(field, f)
        object.__setattr__(f, "mul_mod", mul)
    return f.mul_mod


def _schoolbook_mul_mod(field, f: Polynomial):
    """``mul_mod`` over QQ and a base higher in a tower."""
    d, reduce = f.degree, field.reduce
    low = field.unbox(f.coeffs[:d])

    def schoolbook_mul(a, b) -> list:
        prod = raw_product(field, a, b)
        for k in range(len(prod) - 1, d - 1, -1):
            c = reduce(prod[k])
            if c:
                for j, y in enumerate(low, k - d):
                    prod[j] -= c * y
        return prod[:d]

    return schoolbook_mul


def _build_fold_table(field, f: Polynomial):
    """``mul_mod`` over F_p, the packed multiply mod a monic f of degree d,
    built from f's fold table: W, the mask 2^(dW) - 1 of the d low slots,
    and the rows X^(d+k) mod f packed, for k = 0..d-2. W is
    ``field.slot_width(2d - 1)``: a slot sums at most 2d - 1 products.
    Each row comes from the one before by one shift and one fold of
    X^d = -(f_0 + ... + f_(d-1) X^(d-1)), every value reduced."""
    d, p = f.degree, field.p
    pack, unpack = field.pack, field.unpack
    width = field.slot_width(2 * d - 1)
    mask, high = (1 << d * width) - 1, d * width
    x_to_d = [-c % p for c in field.unbox(f.coeffs[:d])]
    row, rows = x_to_d, []
    for _ in range(d - 1):
        rows.append(pack(row, width))
        top = row[-1]
        row = [(c + top * y) % p for c, y in zip([0] + row[:-1], x_to_d)]

    def packed_mul(a, b) -> list:
        packed = pack(a, width)
        prod = packed * packed if a is b else packed * pack(b, width)
        low = prod & mask
        for h, fold in zip(unpack(prod >> high, width, d - 1), rows):
            low += h % p * fold
        return [c % p for c in unpack(low, width, d)]

    return packed_mul


def raw_divmod(field, a, b) -> tuple[list, list]:
    """The only division loop: quotient and remainder of two lists of raw
    values, b with a nonzero last value, by schoolbook long division. A
    remainder coefficient is reduced when it becomes a quotient digit, and
    the remainder once at the end. When a is shorter than b the quotient
    is empty and the remainder is a, with no inverse taken. The remainder
    has min(len(a), len(b) - 1) values, trailing zeros included."""
    reduce = field.reduce
    db = len(b) - 1
    if len(a) <= db:
        return [], [reduce(c) for c in a]
    rem = list(a)
    inv_lead = field.raw_inverse(b[-1])
    quo = [None] * (len(rem) - db)  # every digit is set below
    for k in range(len(quo) - 1, -1, -1):
        c = reduce(rem[k + db] * inv_lead)
        quo[k] = c
        if c:
            for j, y in enumerate(b, k):
                rem[j] -= c * y
    return quo, [reduce(c) for c in rem[:db]]


def poly_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Quotient and remainder with deg r < deg b: ``raw_divmod``, boxed."""
    if not isinstance(a, Polynomial) or not isinstance(b, Polynomial):
        raise TypeError("poly_divmod expects two polynomials")
    a._check_same_field(b)
    if not b:
        raise DivisionByZero("polynomial division by zero")
    field = a.field
    quo, rem = raw_divmod(field, field.unbox(a.coeffs), field.unbox(b.coeffs))
    return Polynomial._of(field, field.box(quo)), Polynomial._of(field, field.box(rem))


def raw_euclid(field, a, b) -> tuple[list, list]:
    """The only Euclid loop, on raw values through ``raw_divmod``: the last
    nonzero remainder of a and b (b empty or with a nonzero last value), not
    yet monic, and the quotient of each step."""
    quotients = []
    while b:
        q, rem = raw_divmod(field, a, b)
        while rem and not rem[-1]:
            rem.pop()
        quotients.append(q)
        a, b = b, rem
    return a, quotients


def raw_discriminant(field, raw_f) -> int:
    """disc f over F_p, for a monic f of degree n >= 1 given as its raw
    values, and 0 when gcd(f, f') != 1. It is read off ``raw_euclid`` of f
    and f', r_0 = f, r_1 = f', ..., r_k a nonzero constant: quotient q_i
    has d_(i-1) - d_i + 1 values and top value lc(r_(i-1))/lc(r_i), so it
    gives the next remainder's degree d_i and leading coefficient, and

        Res(r_(i-1), r_i) = (-1)^(d_(i-1) d_i) lc(r_i)^(d_(i-1) - d_(i+1)) Res(r_i, r_(i+1)),

    with d_(k+1) = 0 and Res(r_k, 0) = 1. Then disc f = (-1)^(n(n-1)/2)
    Res(f, f'); when p | n, f' has degree below n - 1, and the resultant at
    that formal degree is lc(f)^(n - 1 - deg f') = 1 times the one at its
    true degree. The leading coefficients are kept as their inverses, the
    running products of the quotients' top values, so one inverse is taken
    at the end."""
    p, n = field.p, len(raw_f) - 1
    derivative = [i * c % p for i, c in enumerate(raw_f)][1:]
    while derivative and not derivative[-1]:
        derivative.pop()
    g, quotients = raw_euclid(field, raw_f, derivative)
    if len(g) != 1:
        return 0
    degrees = [n]
    for q in quotients:
        degrees.append(degrees[-1] - len(q) + 1)
    degrees.append(0)
    sign, inverse_lc, inverse_res = n * (n - 1) // 2, 1, 1
    for i, q in enumerate(quotients, 1):
        inverse_lc = inverse_lc * q[-1] % p
        sign += degrees[i - 1] * degrees[i]
        inverse_res = inverse_res * pow(inverse_lc, degrees[i - 1] - degrees[i + 1], p) % p
    disc = field.raw_inverse(inverse_res)
    return p - disc if sign % 2 else disc


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd, zero when both operands are zero: ``raw_euclid``'s
    remainder, boxed and made monic."""
    a._check_same_field(b)
    field = a.field
    g = raw_euclid(field, field.unbox(a.coeffs), field.unbox(b.coeffs))[0]
    return Polynomial._of(field, field.box(g)).monic()


def poly_gcd_extended(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """Monic g plus Bezout cofactors, g = u*a + v*b. On raw values, each
    quotient q_k of ``raw_euclid`` steps u (from 1, 0) and v (from 0, 1)
    by c_(k+1) = c_(k-1) - q_k c_k; g, u and v are scaled once at the end."""
    a._check_same_field(b)
    field = a.field
    if not a and not b:
        raise DivisionByZero("gcd(0, 0) is undefined")
    g, quotients = raw_euclid(field, field.unbox(a.coeffs), field.unbox(b.coeffs))
    one = field.unbox([field.one()])
    u0, u1, v0, v1 = one, [], [], one
    for q in quotients:
        u0, u1, v0, v1 = u1, _minus_product(field, u0, q, u1), v1, _minus_product(field, v0, q, v1)
    inv = field.raw_inverse(g[-1])
    return tuple(Polynomial._of(field, field.box([c * inv for c in r])) for r in (g, u0, v0))


def _minus_product(field, c, a, b) -> list:
    """c - a b on raw values, reduced; a b is zero or longer than c."""
    out = raw_product(field, [-x for x in a], b) if a and b else [field.raw_zero] * len(c)
    out[: len(c)] = [x + y for x, y in zip(out, c)]
    return [field.reduce(x) for x in out]


def raw_pow_mod(field, base, e: int, f: Polynomial) -> list:
    """base^e mod a monic f of degree d, on raw values: base and the result
    are the d canonical raw values of a residue. The only residue-power
    loop: left to right through one ``mul_mod`` made for f, from the bit
    below the top bit of e down, square, and on a set bit multiply by base.
    Over F_p every square is one packed multiply and one fold by f's fold
    table; over an extension of F_p or QQ it is one product and one fold
    on the ground coordinates as ints. Either is made once per f and kept.

    When base is X (d >= 2), a multiply by base is a shift: the d values
    move up one place and the one that leaves, times X^d = -(f_0 + ... +
    f_(d-1) X^(d-1)), is folded back, O(d) work and no product; and the
    loop starts from X^m, m the longest run of top bits of e with m < d,
    which is a monomial and needs neither. X^p, which the Rabin test
    computes for every candidate modulus, is then about log2(p/d) squares
    and one shift per set bit of p below them."""
    d = f.degree
    if not e:
        return field.unbox([field.one()]) + [field.raw_zero] * (d - 1)
    mul = mul_mod(field, f)
    times_base, result, done = mul, base, 1  # result is base^m, m the top done bits of e
    if d >= 2 and not base[0] and base[1:] == field.unbox([field.one()]) + [field.raw_zero] * (d - 2):
        zero, low, reduce = field.raw_zero, field.unbox(f.coeffs[:d]), field.reduce

        def times_base(_, r) -> list:
            lead = r[-1]
            return [reduce(c - lead * y) for c, y in zip([zero, *r[:-1]], low)]

        while done < e.bit_length() and e >> (e.bit_length() - done - 1) < d:
            done += 1  # X^m is a monomial while m < d
        result = [zero] * d
        result[e >> (e.bit_length() - done)] = base[1]
    for bit in bin(e)[2 + done :]:
        result = mul(result, result)
        if bit == "1":
            result = times_base(base, result)
    return result


def poly_pow_mod(base: Polynomial, e: int, modulus: Polynomial) -> Polynomial:
    """base^e reduced mod a monic modulus: ``raw_pow_mod`` on the d raw
    values of base mod the modulus, unboxed once, and the result boxed
    once, as ``raw_euclid`` pairs with its boxed callers."""
    if modulus.degree < 1 or not modulus.is_monic():
        raise NotMonic(f"modulus must be monic of degree >= 1, got {modulus}")
    if e < 0:
        raise ValueError("negative exponent")
    field = base.field
    raw = raw_pow_mod(field, field.unbox((base % modulus).padded(modulus.degree)), e, modulus)
    return Polynomial._of(field, field.box(raw))


@functools.cache
def cyclotomic_polynomial(n: int, field) -> Polynomial:
    """The n-th cyclotomic polynomial with coefficients mapped into the field.

    Phi_n is the product over d | n of (t^d - 1)^mu(n/d), and for n >= 2 of
    (1 - t^d)^mu(n/d), as the signs cancel: on ints, a power series cut at
    degree phi(n) is multiplied or divided by each factor in place, for the
    d with n/d a product of k distinct primes of n, mu(n/d) = (-1)^k."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    char = field.characteristic()
    if char and n % char == 0:
        raise CharacteristicDividesN(f"characteristic {char} divides {n}")
    primes = prime_factors(n)
    deg = n // prod(primes) * prod(q - 1 for q in primes)
    series = [1] + [0] * deg
    for k in range(len(primes) + 1):
        for dividing in itertools.combinations(primes, k):
            d, sign = n // prod(dividing), (-1) ** (k + 1)
            for i in range(d, deg + 1) if k % 2 else range(deg, d - 1, -1):  # divide, or multiply
                series[i] += sign * series[i - d]
    return Polynomial(field, [field.from_int(-c if n == 1 else c) for c in series])  # Phi_1 = -(1 - t)


def cyclotomic_index(g: Polynomial) -> int | None:
    """The m with g = Phi_m, for g over QQ; None for any other g. A match
    proves g irreducible over QQ (Gauss), so QQ[t]/(g) is a field.

    Only the m with phi(m) = deg g are tried, built from the primes q with
    (q - 1) | deg g, each checked on its constant term and t^(deg g - 1)
    coefficient, -mu(m), before Phi_m is built (and cached)."""
    if not isinstance(g.field, RationalField) or g.degree < 1:
        return None
    c = g.coeffs
    primes = [q + 1 for q in range(1, len(c)) if g.degree % q == 0 and is_prime(q + 1)]
    stack = [(1, g.degree, 0, 1)]  # (m, deg g / phi(m), index of m's next prime, mu(m))
    while stack:
        m, rest, start, mu = stack.pop()
        if rest == 1 and (m == 1 or c[0] == 1) and c[-2] == -mu and cyclotomic_polynomial(m, g.field) == g:
            return m
        for j in range(start, len(primes)):
            q, power, div, mu_q, left = primes[j], primes[j], primes[j] - 1, -mu, rest
            while left % div == 0:  # phi(q^e) = (q - 1) q^(e - 1)
                left //= div
                stack.append((m * power, left, j + 1, mu_q))
                power, div, mu_q = power * q, q, 0
    return None


def is_irreducible_mod_p(f: Polynomial) -> bool:
    """Rabin irreducibility test over a prime field (``rabin_frobenius``).

    The package never calls it: a modulus is proven by ``rabin_frobenius``,
    whose answer, the Frobenius matrix included, its ExtensionField keeps,
    so a separate yes/no test would only repeat it."""
    return rabin_frobenius(f) is not None


def rabin_frobenius(f: Polynomial):
    """(Q, the d coordinates of X^p mod f as a tuple) for f irreducible
    over a prime field, else None; Q is the Rabin test's Frobenius matrix.
    The answer is recorded on f as ``f.rabin`` (False for None), where
    ``ExtensionField`` reads it, so a modulus found by a search is tested
    once.

    f of degree d is irreducible iff X^(p^d) = X mod f and, for every prime
    q dividing d, gcd(X^(p^(d/q)) - X, f) = 1 (Rabin 1980).

    For d >= 2 the test first rejects f with a root in F_p, that is with
    gcd(X^p - X, f) != 1, before Q is built: most reducible f have one
    (Ben-Or 1981). Q is built only for f with no root.

    The powers X^(p^k) come from iterating Frobenius as a linear map (Gao &
    Panario, 1997). Over F_p, g(X)^p = g(X^p) for every g, so g -> g^p mod f
    is the matrix Q whose column j is X^(j*p) mod f, the substitution matrix
    of X^p mod f ([[1]] when d = 1). X^p mod f is one ``raw_pow_mod`` of the
    raw values of X mod f, whose multiplies by X are shifts. Then
    X^(p^k) = Q^(k-1) X^p costs one d x d ``raw_mat_apply`` per k >= 2, d - 1
    in all; each gcd test (the root test at k = 1, and k = d/q as the loop
    reaches it) is one ``raw_euclid``, and the last power is compared with
    X mod f, all on raw values: only X^p, for Q, is boxed.
    """
    answer = _rabin_test(f)
    object.__setattr__(f, "rabin", answer or False)
    return answer


def _rabin_test(f: Polynomial):
    """``rabin_frobenius``'s answer, not yet recorded."""
    from .linalg import raw_mat_apply, substitution_matrix  # linalg imports this module

    if not isinstance(f.field, PrimeField):
        raise FieldMismatch(f"irreducibility test needs a prime field, got {f.field}")
    d = f.degree
    if d < 1:
        return None
    if not f.is_monic():
        raise NotMonic(f"irreducibility test needs a monic polynomial, got {f}")
    field, raw_f = f.field, f.field.unbox(f.coeffs)

    def coprime(power) -> bool:  # gcd(power - X, f) = 1, for d >= 2 raw values
        return len(raw_euclid(field, [power[0], power[1] - 1, *power[2:]], raw_f)[0]) == 1

    x = raw_divmod(field, [0, 1], raw_f)[1]  # X mod f: [0, 1, 0, ...], or [-f_0] when d = 1
    x += [0] * (d - len(x))
    power = raw_pow_mod(field, x, field.p, f)  # X^(p^k) mod f, from k = 1
    if d >= 2 and not coprime(power):
        return None
    x_to_p = tuple(field.box(power))
    q_matrix = substitution_matrix(field, f, x_to_p)
    tested = {d // q for q in prime_factors(d)} - {1}
    for k in range(2, d + 1):
        power = raw_mat_apply(q_matrix, power)
        if k in tested and not coprime(power):
            return None
    return (q_matrix, x_to_p) if power == x else None


def kummer_frobenius(f: Polynomial, n: int, zeta, image, x):
    """(the d coordinates of X^p mod f as a tuple, (x's d coordinates, x^n))
    when a Kummer witness proves f irreducible over a prime field, else
    None. zeta and the coordinates of s (image) and of x, at most d each,
    are anything the field's ``coerce`` takes, its elements or ints; for
    those and an int n it raises nothing.

    The premises: deg f = n, zeta has exact order n in F_p, s = X^p mod f,
    and x^n, computed, is a nonzero constant c with c^((p-1)/n) = zeta (so
    x != 0). Then f is irreducible. Over F_p, g(X)^p = g(X^p) for every g,
    so a -> a^p is the endomorphism X -> X^p of E = F_p[X]/(f) whatever f
    is, and x^p = x * (x^n)^((p-1)/n) = zeta*x. So 1, x, ..., x^(n-1) are
    nonzero (x is a unit) eigenvectors for the distinct eigenvalues
    zeta^i, a basis of E, and E is F_p[Y]/(Y^n - c). As zeta has exact
    order n, c^((p-1)/q) = zeta^(n/q) != 1 for every prime q | n, so c is
    no q-th power and Y^n - c is irreducible (Capelli; Lang, Algebra,
    VI 9, Thm 9.1, whose -4K^4 clause is void: i = zeta^(n/4) is in F_p
    when 4 | n, so -4 is a fourth power). Costs two ``poly_pow_mod``: X^p
    and x^n, which share f's kept multiply (``mul_mod``).
    """
    field = f.field
    p, d = field.p, f.degree
    zeta = field.coerce(zeta).value
    if d != n or pow(zeta, n, p) != 1 or any(pow(zeta, n // q, p) == 1 for q in prime_factors(n)):
        return None
    x_to_p = poly_pow_mod(Polynomial.x(field), p, f).padded(d)
    if Polynomial(field, image).padded(d) != x_to_p:
        return None
    x = Polynomial(field, x)
    x_to_n = poly_pow_mod(x, n, f)
    if x_to_n.degree != 0 or pow(x_to_n.coeffs[0].value, (p - 1) // n, p) != zeta:
        return None
    return x_to_p, (x.padded(d), x_to_n.coeffs[0])
