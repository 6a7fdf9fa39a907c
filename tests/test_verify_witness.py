"""Verify by witness, and certify over a proven field, against the full
derivation.

``verify_certificate_report`` reads the spectral flags off the claimed x
when K is proven a field, sigma(x) = zeta*x and x^n is a nonzero element of
K, and otherwise runs the full derivation. Over a proven field, certify and
verify read the binomial factorization off x^n = c instead of expanding the
product. Here the full derivation is forced by patching
``kummer._is_proven_field`` to answer False. Both verify paths must give
the same ``(ok, failures)``, or raise the same exception class, on:

* every certificate of a prime p < 200 with n | p - 1 and 2 <= n <= 12
  (163 of them), as made, with x scaled by 2, with x squared, with a random
  x and with c + 1;
* the single-leaf mutations of the tamper corpus;
* inputs whose K or E is not a field, and two where x is nilpotent, with
  the same five variants;
* a hypothesis property that mutates x and c of (13,4), (17,8) and the
  builtin cubic.

Both certify paths must give the same certificate bytes, or raise the same
exception class, on the sweep, the inputs that are not fields or have a
nilpotent x, the builtin cubic, and Shanks' cubic and the simplest quartic
at three values of a each.

The nilpotent inputs are pinned as invalid: x^n = c = 0 fails c_in_base.

For a witness x, certify and verify read x's min poly off it as X^n - x^n.
``element_min_poly`` is the oracle for that, on x and on the witness 2*x,
for the sweep, n = 1, the builtin cubic, Shanks' cubic and the simplest
quartic.
"""

import json
import random
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from kummerkit import kummer, serialize
from kummerkit.cli import main
from kummerkit.errors import KummerError
from kummerkit.families import builtin_cubic_over_eisenstein, frobenius_family
from kummerkit.kummer import (
    CHECK_NAMES,
    CyclicExtensionInput,
    EigenReport,
    KummerCertificate,
    certify,
    verify_certificate,
    verify_certificate_report,
)
from kummerkit.linalg import element_min_poly
from kummerkit.polynomials import Polynomial, cyclotomic_index, cyclotomic_polynomial
from kummerkit.scalars import PrimeField, RationalField
from kummerkit.tower import ExtensionField

from test_determinism import shanks_cubic, simplest_quartic
from test_tamper import INSTANCES as TAMPER_INSTANCES, corpus_mutations

QQ = RationalField()


def outcome(cert):
    try:
        return verify_certificate_report(cert)
    except KummerError as exc:
        return type(exc).__name__


def full_outcome(cert):
    with mock.patch.object(kummer, "_is_proven_field", lambda k: False):
        return outcome(cert)


def assert_paths_agree(cert):
    assert outcome(cert) == full_outcome(cert)


def certify_outcome(inp):
    try:
        return serialize.canonical_dumps(serialize.certificate_to_json(certify(inp)))
    except KummerError as exc:
        return type(exc).__name__


def assert_certify_paths_agree(inp):
    with mock.patch.object(kummer, "_is_proven_field", lambda k: False):
        full = certify_outcome(inp)
    assert certify_outcome(inp) == full


def no_min_poly(*args):
    raise AssertionError("the witness path computes no min poly of x")


def random_element(field, rng):
    if isinstance(field, ExtensionField):
        return field.element([random_element(field.base, rng) for _ in range(field.degree)])
    if isinstance(field, PrimeField):
        return field.from_int(rng.randrange(field.p))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def variants(cert, rng):
    """The certificate as made, then with x scaled by 2, x squared, a random
    x and c + 1."""
    yield cert
    yield replace(cert, x=cert.x * 2)
    yield replace(cert, x=cert.x * cert.x)
    yield replace(cert, x=random_element(cert.input.ext_field, rng))
    yield replace(cert, c=cert.c + 1)


SWEEP = [(p, n) for p in range(3, 200) if sympy.isprime(p) for n in range(2, 13) if (p - 1) % n == 0]


@pytest.mark.parametrize("p,n", SWEEP, ids=[f"{p}-{n}" for p, n in SWEEP])
def test_sweep_certificates_and_variants(p, n):
    inp = frobenius_family(p, n)
    assert_certify_paths_agree(inp)
    cert = certify(inp)
    for variant in variants(cert, random.Random(p * 100 + n)):
        assert_paths_agree(variant)


@pytest.mark.parametrize("name", sorted(TAMPER_INSTANCES))
def test_tamper_corpus_mutations(name):
    for key, doc in corpus_mutations(name):
        try:
            cert = serialize.certificate_from_json(serialize.loads(serialize.canonical_dumps(doc)))
        except KummerError:
            continue  # rejected while parsing, before either path runs
        assert outcome(cert) == full_outcome(cert), key


def _quadratic(k_field, square, zeta):
    """k_field[X]/(X^2 - square) with sigma(alpha) = -alpha."""
    ext = ExtensionField(k_field, Polynomial(k_field, [-square, 0, 1]))
    return CyclicExtensionInput(ext, 2, zeta, -ext.gen())


def _over_qq_mod(coeffs):
    k_field = ExtensionField(QQ, Polynomial(QQ, coeffs))
    return _quadratic(k_field, 3, k_field.from_int(-1))


def _nilpotent_quartic():
    k_field = ExtensionField(QQ, Polynomial(QQ, [1, 0, 1]))
    ext = ExtensionField(k_field, Polynomial(k_field, [0, 0, 0, 0, 1]))
    return CyclicExtensionInput(ext, 4, k_field.gen(), ext.gen() * k_field.gen())


F5 = PrimeField(5)
F25 = ExtensionField(F5, Polynomial(F5, [-2, 0, 1]))

NOT_FIELDS = {
    "simplest-quartic-0": lambda: simplest_quartic(0),
    "simplest-quartic-3": lambda: simplest_quartic(3),
    "F25[X]/(X^2-1)": lambda: _quadratic(F25, 1, F25.from_int(-1)),
    "QQ[X]/(X^2-4)": lambda: _quadratic(QQ, 4, Fraction(-1)),
    "K=QQ[t]/(t^2-1)": lambda: _over_qq_mod([-1, 0, 1]),
    "K=QQ[t]/(t^2-4)": lambda: _over_qq_mod([-4, 0, 1]),
    "K=QQ[t]/(t^4+4)": lambda: _over_qq_mod([4, 0, 0, 0, 1]),
}

# x is nilpotent, so x^n = c = 0: the witness premises fail, and so does
# "x^n != 0"
NILPOTENT = {
    "QQ[X]/(X^2)": lambda: _quadratic(QQ, 0, Fraction(-1)),
    "QQ(i)[X]/(X^4)": _nilpotent_quartic,
}


@pytest.mark.parametrize("name", sorted(NOT_FIELDS))
def test_inputs_that_are_not_fields(name):
    inp = NOT_FIELDS[name]()
    assert_certify_paths_agree(inp)
    cert = certify(inp)
    for variant in variants(cert, random.Random(name)):
        assert_paths_agree(variant)


@pytest.mark.parametrize("name", sorted(NILPOTENT))
def test_nilpotent_x_is_invalid(name, tmp_path, capsys):
    inp = NILPOTENT[name]()
    assert_certify_paths_agree(inp)
    cert = certify(inp)
    assert not cert.checks["c_in_base"] and not cert.is_valid()
    ok, failures = verify_certificate_report(cert)
    assert not ok and "x^n != 0" in failures
    assert verify_certificate(cert) is False
    for variant in variants(cert, random.Random(name)):
        assert_paths_agree(variant)
    spec = tmp_path / "spec.json"
    spec.write_text(serialize.canonical_dumps(serialize.input_to_json(inp)))
    assert main(["tower", str(spec), "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["checks"]["c_in_base"] is False


def test_a_zero_divisor_in_k_is_still_met():
    # K = QQ[t]/(t^2 - 1) with zeta = t, E = K[X]/(X^2 - 3), sigma(alpha) =
    # t*alpha: x = alpha meets every premise but a proven K, and the full
    # derivation meets the zero divisor t - 1
    k_ring = ExtensionField(QQ, Polynomial(QQ, [-1, 0, 1]))
    ext = ExtensionField(k_ring, Polynomial(k_ring, [-3, 0, 1]))
    inp = CyclicExtensionInput(ext, 2, k_ring.gen(), ext.gen() * k_ring.gen())
    x_min_poly = Polynomial.x_pow_minus_const(k_ring, 2, 3)
    cert = KummerCertificate(inp, EigenReport(()), ext.gen(), k_ring.from_int(3), x_min_poly, dict.fromkeys(CHECK_NAMES, True))
    assert outcome(cert) == full_outcome(cert) == "NotInvertible"


class TestProvenFields:
    def test_cyclotomic_index_recognises_each_cyclotomic_polynomial(self):
        for m in range(1, 80):
            assert cyclotomic_index(cyclotomic_polynomial(m, QQ)) == m

    @pytest.mark.parametrize(
        "coeffs",
        [[-1, 0, 1], [-4, 0, 1], [4, 0, 0, 0, 1], [2, 0, 1], [1, 1, 1, 1], [1, 2, 1], [-2, 1], [1]],
    )
    def test_cyclotomic_index_rejects_other_polynomials(self, coeffs):
        assert cyclotomic_index(Polynomial(QQ, coeffs)) is None

    def test_cyclotomic_index_needs_a_rational_polynomial(self):
        assert cyclotomic_index(cyclotomic_polynomial(4, PrimeField(13))) is None

    @staticmethod
    def proven_by_type(k) -> bool:
        """The rule kummer applied to K by type before each field recorded
        what building it proved: F_p, QQ, an extension of F_p, or
        QQ[t]/(Phi_m)."""
        if isinstance(k, (PrimeField, RationalField)):
            return True
        if isinstance(k, ExtensionField):
            return isinstance(k.base, PrimeField) or cyclotomic_index(k.modulus) is not None
        return False

    def test_proven_field_agrees_with_the_rule_by_type(self):
        f625 = ExtensionField(F25, Polynomial(F25, [-F25.gen(), 0, 1]))
        qq_tower = builtin_cubic_over_eisenstein().ext_field  # QQ, QQ(zeta_3), then the cubic
        fields = [PrimeField(13), QQ, F25, f625, qq_tower]
        fields += [ExtensionField(QQ, cyclotomic_polynomial(m, QQ)) for m in range(1, 31)]
        fields += [ExtensionField(QQ, Polynomial(QQ, coeffs)) for coeffs in ([-1, 0, 1], [2, 0, 1], [-4, 0, 1])]
        for k in fields:
            assert k.proven_field is self.proven_by_type(k), k
        assert [k.proven_field for k in fields[:5]] == [True, True, True, False, False]
        assert [k.proven_field for k in fields[-3:]] == [False, False, False]

    def test_proven_fields(self):
        qq_zeta_3 = builtin_cubic_over_eisenstein().base_field
        proven = [PrimeField(13), QQ, F25, qq_zeta_3, ExtensionField(QQ, Polynomial(QQ, [1, 0, 1]))]
        assert all(kummer._is_proven_field(k) for k in proven)
        tower = ExtensionField(F25, Polynomial(F25, [-F25.gen(), 0, 1]))  # F_625 over F_25, unproven
        rings = [NOT_FIELDS[name]().base_field for name in ("K=QQ[t]/(t^2-1)", "K=QQ[t]/(t^2-4)", "K=QQ[t]/(t^4+4)")]
        assert not any(kummer._is_proven_field(k) for k in [tower] + rings)

    VALID = {
        "finite-97-16": lambda: frobenius_family(97, 16),
        "builtin-cubic": builtin_cubic_over_eisenstein,
        "shanks-cubic--1": lambda: shanks_cubic(-1),
        "shanks-cubic-5": lambda: shanks_cubic(5),
        "shanks-cubic-10^40": lambda: shanks_cubic(10**40),
        "simplest-quartic-1": lambda: simplest_quartic(1),
        "simplest-quartic-2": lambda: simplest_quartic(2),
        "simplest-quartic-7": lambda: simplest_quartic(7),
    }

    @pytest.mark.parametrize("name", list(VALID))
    def test_valid_certificates_take_the_witness_path(self, name):
        inp = self.VALID[name]()
        assert_certify_paths_agree(inp)

        def no_kernel(*args):
            raise AssertionError("the witness path computes no eigen spectrum")

        with mock.patch.object(kummer, "element_min_poly", no_min_poly):
            parsed = serialize.certificate_from_json(serialize.certificate_to_json(certify(inp)))
            with mock.patch.object(kummer, "eigen_spectrum", no_kernel):
                assert verify_certificate_report(parsed) == (True, [])


MIN_POLY_CASES = {
    f"finite-{p}-{n}": (lambda p=p, n=n: frobenius_family(p, n)) for p, n in SWEEP + [(5, 1), (13, 1)]
} | TestProvenFields.VALID


@pytest.mark.parametrize("name", sorted(MIN_POLY_CASES))
def test_min_poly_read_off_a_witness_matches_krylov(name):
    # the theorem: for a witness x over a proven field, x's min poly is
    # X^n - x^n; element_min_poly is the oracle, for x and for the witness
    # 2*x, whose min poly is X^n - 2^n*c
    cert = certify(MIN_POLY_CASES[name]())
    assert cert.is_valid()
    assert cert.x_min_poly == element_min_poly(cert.x)
    n, k_field = cert.input.n, cert.input.base_field
    x, c = cert.x * 2, cert.c * 2**n
    x_min_poly = element_min_poly(x)
    assert x_min_poly == Polynomial.x_pow_minus_const(k_field, n, c)
    doubled = replace(cert, x=x, c=c, x_min_poly=x_min_poly)
    with mock.patch.object(kummer, "element_min_poly", no_min_poly):
        assert verify_certificate_report(doubled) == (True, [])


# -- hypothesis property ---------------------------------------------------------

PROPERTY_CERTS = {
    "finite-13-4": certify(frobenius_family(13, 4)),
    "finite-17-8": certify(frobenius_family(17, 8)),
    "builtin-cubic": certify(builtin_cubic_over_eisenstein()),
}


def _base_scalar(k_field):
    """A strategy for elements of K: F_p residues, or small rationals in each
    coordinate of QQ(zeta_3)."""
    if isinstance(k_field, PrimeField):
        return st.integers(0, k_field.p - 1).map(k_field.from_int)
    rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return st.lists(rationals, min_size=k_field.degree, max_size=k_field.degree).map(k_field.element)


@st.composite
def mutated(draw):
    cert = PROPERTY_CERTS[draw(st.sampled_from(sorted(PROPERTY_CERTS)))]
    ext, k_field, n = cert.input.ext_field, cert.input.base_field, cert.input.n
    scalar = _base_scalar(k_field)
    x_kind = draw(st.sampled_from(["same", "scaled", "power", "shifted", "coordinate", "zero"]))
    x = cert.x
    if x_kind == "scaled":
        x = x * draw(scalar)
    elif x_kind == "power":
        x = x ** draw(st.integers(0, 2 * n))
    elif x_kind == "shifted":
        x = x + draw(scalar)
    elif x_kind == "coordinate":
        coords = list(x.coords)
        coords[draw(st.integers(0, n - 1))] = draw(scalar)
        x = ext.element(coords)
    elif x_kind == "zero":
        x = ext.zero()
    c_kind = draw(st.sampled_from(["same", "x^n", "shifted", "scaled"]))
    c = cert.c
    if c_kind == "x^n":
        c = (x**n).coords[0]
    elif c_kind == "shifted":
        c = c + draw(scalar)
    elif c_kind == "scaled":
        c = c * draw(scalar)
    return replace(cert, x=x, c=c)


@settings(max_examples=150, deadline=None)
@given(mutated())
def test_mutated_x_and_c_agree_with_the_full_derivation(cert):
    assert_paths_agree(cert)
