"""Constructors for ready-made cyclic-extension instances.

The Frobenius family F_(p^n)/F_p supplies unlimited finite-field cases (the
Galois group is cyclic, generated by a -> a^p, and n | p-1 puts the needed
root of unity in F_p). One hard-coded characteristic-0 instance exercises
the nested tower: the degree-3 extension K[X]/(X^3 - 3X + 1) of
K = QQ[t]/(t^2 + t + 1), whose generating automorphism sends the generator
alpha to alpha^2 - 2. The constructors re-check nothing that is proven
elsewhere: the Frobenius family's modulus passes the Rabin test once (the
default modulus's test is the search's, whose answer its field reads), and
validate_setup proves every hypothesis on every use,
the cubic's f(alpha^2 - 2) = 0 included, reading them off the Rabin proof
when the image is X^p mod f.
"""

from __future__ import annotations

from .errors import ValidationError
from .kummer import CyclicExtensionInput
from .polynomials import Polynomial, rabin_frobenius, raw_discriminant
from .scalars import PrimeField, RationalField, find_nth_root_of_unity
from .tower import ExtensionField
from . import serialize


def default_modulus(field: PrimeField, n: int) -> ExtensionField:
    """The field F_p[X]/(f) for f the first monic irreducible of degree n,
    in lexicographic order of the coefficient tuple (c_0, ..., c_{n-1}).

    For odd p and n >= 2, a candidate first meets Stickelberger's parity
    rule (Stickelberger 1897; Swan 1962): a squarefree f of degree n with
    r irreducible factors over F_p has disc f a square iff n - r is even,
    so an irreducible f has disc f^((p-1)/2) = (-1)^(n-1). A candidate
    whose ``raw_discriminant`` is 0 or breaks that rule is reducible and
    skipped, with no X^p computed: about half of them. Over F_2 every
    element is a square, so there the rule would reject every irreducible
    of even degree, and no candidate is skipped. Each candidate left is
    tried by ``rabin_frobenius`` alone, with no field built and nothing
    raised for a reducible one. The winner's field is built once, and reads
    the answer that its test recorded on it as its proof, so the winning
    modulus is tested once. Tuples with c_0 = 0 are skipped for n >= 2:
    they all have the root 0, so the lex-first irreducible never lies among
    them. The tuples are stepped through like an odometer, the last
    coordinate turning fastest, so no range of p values is ever held in
    memory.
    """
    p = field.p
    digits = [0 if n == 1 else 1] + [0] * (n - 1)
    parity = 1 if n % 2 else p - 1  # disc^((p-1)/2) of an irreducible f
    sieve = p > 2 and n >= 2
    while True:
        raw_f = digits + [1]
        if not sieve or pow(raw_discriminant(field, raw_f), (p - 1) // 2, p) == parity:
            f = Polynomial._of(field, field.box(raw_f))
            if rabin_frobenius(f) is not None:
                return ExtensionField(field, f)
        k = n - 1
        while digits[k] == p - 1:
            if k == 0:
                raise AssertionError(f"no irreducible of degree {n} over F_{p}")  # cannot happen
            digits[k] = 0
            k -= 1
        digits[k] += 1


def frobenius_family(p: int | PrimeField, n: int, modulus: Polynomial | None = None) -> CyclicExtensionInput:
    """F_(p^n) over F_p with the Frobenius automorphism a -> a^p.

    p is the characteristic or an already-built PrimeField, whose primality
    is then not tested again. Requires n | p-1 so that F_p already contains
    a primitive n-th root of unity. The extension field defaults to
    ``default_modulus``'s, built once; a supplied modulus is Rabin-tested
    when its field is built. sigma's image X^p mod f is the extension
    field's ``frobenius_image``, which the Rabin test computed; no power is
    computed here.
    """
    base = p if isinstance(p, PrimeField) else PrimeField(p)
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    zeta = find_nth_root_of_unity(base, n)
    if modulus is None:
        ext = default_modulus(base, n)
    else:
        if modulus.field != base:
            raise ValidationError(f"modulus must be over {base}")
        if modulus.degree != n or not modulus.is_monic():
            raise ValidationError(f"modulus must be monic of degree {n}, got {modulus}")
        ext = ExtensionField(base, modulus)  # raises ReducibleModulus on a bad supplied modulus
    return CyclicExtensionInput(ext, n, zeta, ext.element(ext.frobenius_image))


def builtin_cubic_over_eisenstein() -> CyclicExtensionInput:
    """The cyclic cubic K[X]/(X^3 - 3X + 1) over K = QQ[t]/(t^2 + t + 1).

    K contains the primitive cube root of unity t; the automorphism sends
    alpha to alpha^2 - 2 and has order 3. validate_setup checks
    f(alpha^2 - 2) = 0 and the order on every use.
    """
    rationals = RationalField()
    k_field = ExtensionField(rationals, Polynomial(rationals, [1, 1, 1]))
    zeta = k_field.gen()
    ext = ExtensionField(k_field, Polynomial(k_field, [1, -3, 0, 1]))
    alpha = ext.gen()
    return CyclicExtensionInput(ext, 3, zeta, alpha * alpha - 2)


def parse_tower_spec(document: str) -> CyclicExtensionInput:
    """Build an input from a tower-spec JSON document (see serialize)."""
    return serialize.input_from_json(serialize.loads(document))[0]
