"""Pinned certificate bytes.

Each case builds an instance, certifies it, and hashes the canonical JSON
certificate. The first six hashes were recorded before the n=16 fast paths
(scalar multiply by scaling, closure over unordered pairs, incremental
Krylov, Frobenius Q-matrix Rabin test, linear-factor binomial product) went
in, and the F_p cases at p = 1009, 65537 and 3317044064679887385959989 before
the F_p int kernels did, so a performance change that alters any certificate
byte fails here. The last p is prime, 1 mod 4 and just below
``MR_EXACT_BOUND``, so products of two of its residues reach about 164 bits.
"""

import hashlib

import pytest

from kummerkit import serialize
from kummerkit.families import builtin_cubic_over_eisenstein, frobenius_family
from kummerkit.kummer import CyclicExtensionInput, certify
from kummerkit.polynomials import Polynomial
from kummerkit.scalars import PrimeField, RationalField
from kummerkit.tower import ExtensionField

QQ = RationalField()

# a monic irreducible of degree 16 over F_97, degree-ascending
MODULUS_97_16 = [65, 84, 79, 24, 42, 93, 84, 69, 37, 23, 14, 27, 52, 75, 95, 27, 1]


def shanks_cubic(a: int) -> CyclicExtensionInput:
    """X^3 - aX^2 - (a+3)X - 1 over QQ(zeta_3), sigma(alpha) = -1/(1+alpha)."""
    k_field = ExtensionField(QQ, Polynomial(QQ, [1, 1, 1]))
    ext = ExtensionField(k_field, Polynomial(k_field, [-1, -(a + 3), -a, 1]))
    alpha = ext.gen()
    return CyclicExtensionInput(ext, 3, k_field.gen(), -1 / (1 + alpha))


def simplest_quartic(a: int) -> CyclicExtensionInput:
    """X^4 - aX^3 - 6X^2 + aX + 1 over QQ(i), sigma(alpha) = (alpha-1)/(alpha+1)."""
    k_field = ExtensionField(QQ, Polynomial(QQ, [1, 0, 1]))
    ext = ExtensionField(k_field, Polynomial(k_field, [1, a, -6, -a, 1]))
    alpha = ext.gen()
    return CyclicExtensionInput(ext, 4, k_field.gen(), (alpha - 1) / (alpha + 1))


CASES = {
    "finite-13-4": lambda: frobenius_family(13, 4),
    "finite-17-8": lambda: frobenius_family(17, 8),
    "finite-97-16": lambda: frobenius_family(97, 16, Polynomial(PrimeField(97), MODULUS_97_16)),
    "finite-1009-16": lambda: frobenius_family(1009, 16),
    "finite-65537-16": lambda: frobenius_family(65537, 16),
    "finite-3317044064679887385959989-4": lambda: frobenius_family(3317044064679887385959989, 4),
    "builtin-cubic": builtin_cubic_over_eisenstein,
    "shanks-cubic-5": lambda: shanks_cubic(5),
    "simplest-quartic-2": lambda: simplest_quartic(2),
}

EXPECTED_SHA256 = {
    "builtin-cubic": "30a6932dbb8f6fb71b0d3d19c8828a6878f382b994326fc70e0500c84970a6c4",
    "finite-1009-16": "49c71c0b9ff2ec5766cd15039e5892462e80541f6ba12ea2f1c8cfcc1854923c",
    "finite-13-4": "c60746ce451879b455bb00231fc25e4cefc2dc0c1f9b26ac235586196bc1907a",
    "finite-17-8": "540034a4f3fe5e78bab8bde1849ed8a52bfdf67c300bce526cec4f65f23d5892",
    "finite-3317044064679887385959989-4": "394e66add886528d912f792a93aa95e29e9153b644d7f372ef6af890850412ef",
    "finite-65537-16": "d6a8742e8d6dcf1c453b26c46e4006760d5238ca6d37080e11bd895fe32b0347",
    "finite-97-16": "9b6a01ca1c4c10fad2eeb1c78402c3fc00cb9c4425d1aea419ef9dcce5d022ae",
    "shanks-cubic-5": "7173361ea98d4200b55bebe6e57d8d78d1778bcf3e2dcfd7408648c8edd6039d",
    "simplest-quartic-2": "eb6a178b4490c2a6aec6bf9e2bd827d543217ee3de789b105955091420c990c6",
}


def certificate_sha256(inp: CyclicExtensionInput) -> str:
    cert = certify(inp)
    assert cert.is_valid()
    text = serialize.canonical_dumps(serialize.certificate_to_json(cert))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_bytes_pinned(name):
    assert certificate_sha256(CASES[name]()) == EXPECTED_SHA256[name]


def test_certificate_over_a_degree_200_base_pinned():
    # K = QQ[t]/(t^200 + 3) is no cyclotomic field, which cyclotomic_index
    # decides from the divisors of 200, not by a scan of every m <= 80000;
    # the hash was recorded while it still scanned
    k_field = ExtensionField(QQ, Polynomial(QQ, [3] + [0] * 199 + [1]))
    ext = ExtensionField(k_field, Polynomial(k_field, [-2, 0, 1]))
    assert not k_field.proven_field
    inp = CyclicExtensionInput(ext, 2, k_field.from_int(-1), -ext.gen())
    assert certificate_sha256(inp) == "c1897e6990e531d159cd76eb1a1c813b2d5baceed0759ec6b1224752f4625d10"
