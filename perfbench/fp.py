"""Arithmetic over F_p on plain Python ints, independent of kummerkit.

Polynomials are lists of ints in [0, p), degree-ascending, with no trailing
zeros (the zero polynomial is the empty list). The benchmark draws its
random moduli and re-checks every F_p certificate with this module, so a
defect in the program under test cannot hide behind the same defect in its
checker.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    """Trial division; the workloads only draw primes below a few thousand."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n >= 1, ascending."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def has_order(z: int, n: int, p: int) -> bool:
    """True iff z has multiplicative order exactly n modulo p."""
    return pow(z, n, p) == 1 and all(pow(z, n // q, p) != 1 for q in prime_factors(n))


def trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return trim(out)


def scale(a: list[int], k: int, p: int) -> list[int]:
    return trim([c * k % p for c in a])


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return trim([c % p for c in out])


def rem(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod f for any nonzero f."""
    a = trim([c % p for c in a])
    df = len(f) - 1
    inv = pow(f[-1], -1, p)
    while len(a) - 1 >= df:
        c = a[-1] * inv % p
        shift = len(a) - 1 - df
        for j, fj in enumerate(f):
            a[shift + j] = (a[shift + j] - c * fj) % p
        trim(a)
    return a


def mul_mod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    return rem(mul(a, b, p), f, p)


def pow_mod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result, base = rem([1], f, p), rem(list(a), f, p)
    while e:
        if e & 1:
            result = mul_mod(result, base, f, p)
        base = mul_mod(base, base, f, p)
        e >>= 1
    return result


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd."""
    a, b = trim([c % p for c in a]), trim([c % p for c in b])
    while b:
        a, b = b, rem(a, b, p)
    return scale(a, pow(a[-1], -1, p), p) if a else a


def is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or test for a monic f: irreducible iff gcd(X^(p^k) - X, f) = 1 for
    every k <= deg(f)/2, i.e. f has no irreducible factor of degree k."""
    d = len(f) - 1
    if d < 1 or f[-1] != 1:
        return False
    x = rem([0, 1], f, p)
    h = x
    for _ in range(d // 2):
        h = pow_mod(h, p, f, p)
        if len(gcd(sub(h, x, p), f, p)) != 1:
            return False
    return True


def random_irreducible(rng, p: int, d: int) -> list[int]:
    """A uniformly random monic irreducible polynomial of degree d over F_p."""
    while True:
        f = [rng.randrange(p) for _ in range(d)] + [1]
        if is_irreducible(f, p):
            return f
