"""Engine tests: hypothesis validation, each pipeline stage against
hand-derived values for the two Frobenius fixtures, the characteristic-0
cubic, tamper detection, canonical-scaling invariance, and validate_setup's
Frobenius path against the general derivation it skips.

Hand derivations behind the frozen values:
  F_25 = F_5[X]/(X^2-2):  alpha^5 = 4*alpha, zeta = 4, x = alpha, x^2 = 2.
  F_13^4 = F_13[X]/(X^4-2): alpha^13 = 8*alpha, zeta = 5, x = alpha^3
  (since sigma(alpha^3) = 8^3 alpha^3 = 5 alpha^3), c = (alpha^3)^4 = 2^3 = 8.
"""

import copy
import functools
import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kummerkit import cli, kummer, linalg, serialize
from kummerkit.errors import (
    AutomorphismOrderMismatch,
    CharacteristicDividesN,
    EmptyEigenspace,
    FieldMismatch,
    KummerError,
    NoPrimitiveRoot,
    NotAnAutomorphism,
    NotInvertible,
    ValidationError,
)
from kummerkit.families import builtin_cubic_over_eisenstein, default_modulus, frobenius_family
from kummerkit.kummer import (
    CHECK_NAMES,
    CyclicExtensionInput,
    EigenReport,
    KummerCertificate,
    ValidatedContext,
    check_diagonalizability,
    check_fixed_field,
    check_gamma_closure,
    check_spectrum_complete,
    compute_certificate,
    certify,
    eigen_spectrum,
    extract_radical_generator,
    lagrange_resolvent,
    validate_setup,
    verify_certificate,
    verify_certificate_report,
)
from kummerkit.linalg import Matrix, element_min_poly, nullspace, rref
from kummerkit.polynomials import Polynomial
from kummerkit.scalars import PrimeField, PrimeFieldElement, RationalField, is_prime, prime_factors
from kummerkit.tower import ExtensionElement, ExtensionField

from matrix_oracles import identity, power, scale, shift
from test_determinism import shanks_cubic, simplest_quartic
from test_verify_witness import NOT_FIELDS

F5 = PrimeField(5)
F13 = PrimeField(13)
F25 = ExtensionField(F5, Polynomial(F5, [-2, 0, 1]))


def f25_frobenius_cubic() -> CyclicExtensionInput:
    """E = F_25[X]/(X^3 + X + t), t^2 = 2, with sigma the Frobenius a -> a^25
    and zeta = 2 + 2t, a primitive cube root of unity in F_25. The cubic has
    no root in F_25, so it is irreducible."""
    t = F25.gen()
    roots = [a for a in (F25.element([u, v]) for u in range(5) for v in range(5)) if a * a * a + a + t == 0]
    assert not roots
    ext = ExtensionField(F25, Polynomial(F25, [t, 1, 0, 1]))
    return CyclicExtensionInput(ext, 3, F25.element([2, 2]), ext.gen() ** 25)


RESOLVENT_INPUTS = {
    **{f"shanks-cubic-{a}": functools.partial(shanks_cubic, a) for a in (1, 2, 10**20 + 3, 10**39 + 7)},
    **{f"simplest-quartic-{a}": functools.partial(simplest_quartic, a) for a in (1, 2, 10**20 + 3, 10**39 + 7)},
    "builtin-cubic": builtin_cubic_over_eisenstein,
    "f25-frobenius-cubic": f25_frobenius_cubic,
}


@pytest.fixture(scope="module")
def frob52():
    return frobenius_family(5, 2, Polynomial(F5, [-2, 0, 1]))


@pytest.fixture(scope="module")
def frob134():
    return frobenius_family(13, 4, Polynomial(F13, [-2, 0, 0, 0, 1]))


def ints(elem):
    return tuple(c.value for c in elem.coords)


class TestValidateSetup:
    def test_frobenius_families_pass(self, frob52, frob134):
        validate_setup(frob52)
        validate_setup(frob134)

    def test_no_primitive_root(self):
        with pytest.raises(NoPrimitiveRoot):
            frobenius_family(5, 3)

    def test_non_primitive_zeta_rejected(self, frob52):
        bad = CyclicExtensionInput(frob52.ext_field, 2, PrimeFieldElement(1, 5), frob52.sigma_image)
        with pytest.raises(NoPrimitiveRoot):
            validate_setup(bad)

    def test_zero_zeta_rejected(self, frob52):
        bad = CyclicExtensionInput(frob52.ext_field, 2, PrimeFieldElement(0, 5), frob52.sigma_image)
        with pytest.raises(NoPrimitiveRoot):
            validate_setup(bad)

    def test_characteristic_divides_n(self):
        f2 = PrimeField(2)
        ext = ExtensionField(f2, Polynomial(f2, [1, 1, 1]))
        bad = CyclicExtensionInput(ext, 2, PrimeFieldElement(1, 2), ext.gen())
        with pytest.raises(CharacteristicDividesN):
            validate_setup(bad)

    def test_identity_map_has_wrong_order(self, frob52):
        bad = CyclicExtensionInput(frob52.ext_field, 2, frob52.zeta, frob52.ext_field.gen())
        with pytest.raises(AutomorphismOrderMismatch):
            validate_setup(bad)

    def test_non_root_image_is_not_a_homomorphism(self, frob52):
        alpha = frob52.ext_field.gen()
        bad = CyclicExtensionInput(frob52.ext_field, 2, frob52.zeta, alpha + 1)
        with pytest.raises(NotAnAutomorphism):
            validate_setup(bad)

    def test_cubic_automorphism_iterates(self):
        # sigma(alpha) = alpha^2 - 2, sigma^2(alpha) = -alpha^2 - alpha + 2,
        # sigma^3(alpha) = alpha; composition done by tower arithmetic
        inp = builtin_cubic_over_eisenstein()
        ctx = validate_setup(inp)
        ext = inp.ext_field
        alpha = ext.gen()
        second = ctx.sigma(inp.sigma_image)
        assert second == -alpha**2 - alpha + 2
        assert ctx.sigma(second) == alpha


class TestSigmaMatrix:
    def test_f25(self, frob52):
        ctx = validate_setup(frob52)
        assert ctx.matrix == Matrix(F5, [[1, 0], [0, 4]])

    def test_f13_quartic(self, frob134):
        ctx = validate_setup(frob134)
        expected = Matrix(
            F13,
            [
                [1, 0, 0, 0],
                [0, 8, 0, 0],
                [0, 0, 12, 0],
                [0, 0, 0, 5],
            ],
        )
        assert ctx.matrix == expected

    def test_trivial_extension(self):
        inp = frobenius_family(5, 1)
        ctx = validate_setup(inp)
        assert ctx.matrix == identity(F5, 1)


class TestDiagonalizability:
    def test_f25(self, frob52):
        ctx = validate_setup(frob52)
        ok, min_poly = check_diagonalizability(ctx, ctx.matrix)
        assert ok
        assert min_poly == Polynomial(F5, [4, 0, 1])  # (X-1)(X-4) = X^2 + 4

    def test_trivial(self):
        ctx = validate_setup(frobenius_family(3, 1))
        ok, min_poly = check_diagonalizability(ctx, ctx.matrix)
        assert ok
        assert min_poly == Polynomial(PrimeField(3), [-1, 1])

    def test_f13_quartic(self, frob134):
        ctx = validate_setup(frob134)
        ok, min_poly = check_diagonalizability(ctx, ctx.matrix)
        assert ok
        assert min_poly == Polynomial(F13, [-1, 0, 0, 0, 1])  # X^4 - 1

    def test_degenerate_matrix_fails(self, frob52):
        ctx = validate_setup(frob52)
        nilpotent = Matrix(F5, [[0, 1], [0, 0]])
        ok, _ = check_diagonalizability(ctx, nilpotent)
        assert not ok


class TestEigenSpectrum:
    def test_f25(self, frob52):
        ctx = validate_setup(frob52)
        report = eigen_spectrum(ctx, ctx.matrix)
        assert report.m == 2
        assert {e.eigenvalue.value for e in report.entries} == {1, 4}
        assert all(e.dimension == 1 for e in report.entries)

    def test_f13_quartic(self, frob134):
        ctx = validate_setup(frob134)
        report = eigen_spectrum(ctx, ctx.matrix)
        assert report.m == 4
        assert {e.eigenvalue.value for e in report.entries} == {1, 5, 8, 12}
        assert [e.i for e in report.entries] == [0, 1, 2, 3]
        assert all(e.dimension == 1 for e in report.entries)

    def test_trivial(self):
        ctx = validate_setup(frobenius_family(7, 1))
        report = eigen_spectrum(ctx, ctx.matrix)
        assert report.m == 1
        assert report.entries[0].eigenvalue.value == 1

    def test_closure(self, frob52, frob134):
        for inp in (frob52, frob134):
            ctx = validate_setup(inp)
            report = eigen_spectrum(ctx, ctx.matrix)
            assert check_gamma_closure(ctx, report)

    def test_completeness(self, frob52, frob134):
        for inp in (frob52, frob134):
            ctx = validate_setup(inp)
            assert check_spectrum_complete(ctx, eigen_spectrum(ctx, ctx.matrix))

    def test_incomplete_spectrum_detected(self, frob134):
        ctx = validate_setup(frob134)
        report = eigen_spectrum(ctx, ctx.matrix)
        report.entries = report.entries[:-1]
        assert not check_spectrum_complete(ctx, report)


class TestFixedField:
    def test_valid_cases(self, frob52, frob134):
        for inp in (frob52, frob134):
            ctx = validate_setup(inp)
            assert check_fixed_field(ctx, eigen_spectrum(ctx, ctx.matrix))

    def test_identity_matrix_fails_for_n_at_least_2(self, frob52):
        # the fixed space of the identity is everything, so sigma was no generator
        ctx = validate_setup(frob52)
        assert not check_fixed_field(ctx, eigen_spectrum(ctx, identity(F5, 2)))


class TestExtraction:
    def test_f25_generator(self, frob52):
        ctx = validate_setup(frob52)
        x = extract_radical_generator(ctx, eigen_spectrum(ctx, ctx.matrix))
        assert ints(x) == (0, 1)  # x = alpha

    def test_f13_quartic_generator(self, frob134):
        ctx = validate_setup(frob134)
        x = extract_radical_generator(ctx, eigen_spectrum(ctx, ctx.matrix))
        assert ints(x) == (0, 0, 0, 1)  # x = alpha^3

    def test_trivial_generator(self):
        ctx = validate_setup(frobenius_family(5, 1))
        x = extract_radical_generator(ctx, eigen_spectrum(ctx, ctx.matrix))
        assert x == ctx.ext_field.one()

    def test_empty_eigenspace(self, frob52):
        ctx = validate_setup(frob52)
        with pytest.raises(EmptyEigenspace):
            extract_radical_generator(ctx, eigen_spectrum(ctx, identity(F5, 2)))


class TestLagrangeResolvent:
    def test_f25_from_alpha(self, frob52):
        # r = alpha + zeta^{-1} sigma(alpha) = alpha + 4 * 4alpha = 2alpha
        ctx = validate_setup(frob52)
        r = lagrange_resolvent(ctx, frob52.ext_field.gen())
        assert ints(r) == (0, 2)

    def test_from_one_collapses(self, frob52):
        ctx = validate_setup(frob52)
        assert not lagrange_resolvent(ctx, frob52.ext_field.one())

    def test_from_x_gives_n_times_x(self, frob134):
        ctx = validate_setup(frob134)
        x = extract_radical_generator(ctx, eigen_spectrum(ctx, ctx.matrix))
        assert lagrange_resolvent(ctx, x) == x * 4

    @pytest.mark.parametrize("p,n", [(5, 2), (7, 3), (13, 4), (13, 6)])
    def test_resolvent_is_an_eigenvector(self, p, n):
        ctx = validate_setup(frobenius_family(p, n))
        alpha = ctx.ext_field.gen()
        for seed in (alpha, alpha + 1, alpha * alpha):
            r = lagrange_resolvent(ctx, seed)
            assert ctx.sigma(r) == r * ctx.zeta_pow(1)


class TestCertificate:
    def test_f25_certificate(self, frob52):
        cert = certify(frob52)
        assert ints(cert.x) == (0, 1)
        assert cert.c == PrimeFieldElement(2, 5)
        assert cert.x_min_poly == Polynomial(F5, [3, 0, 1])  # X^2 - 2
        assert cert.is_valid()
        assert list(cert.checks) == list(CHECK_NAMES)

    def test_f13_certificate(self, frob134):
        cert = certify(frob134)
        assert ints(cert.x) == (0, 0, 0, 1)
        assert cert.c == PrimeFieldElement(8, 13)
        assert cert.x_min_poly == Polynomial(F13, [5, 0, 0, 0, 1])  # X^4 - 8
        assert cert.is_valid()

    def test_x_min_poly_is_the_binomial(self, frob52, frob134):
        for inp in (frob52, frob134, builtin_cubic_over_eisenstein()):
            cert = certify(inp)
            base = inp.base_field
            assert cert.x_min_poly == Polynomial.x_pow_minus_const(base, inp.n, cert.c)

    def test_trivial_certificate(self):
        cert = certify(frobenius_family(5, 1))
        assert cert.x == cert.input.ext_field.one()
        assert cert.c == PrimeFieldElement(1, 5)
        assert cert.is_valid()

    def test_cubic_certificate(self):
        cert = certify(builtin_cubic_over_eisenstein())
        assert cert.is_valid()
        ext = cert.input.ext_field
        x_cubed = cert.x**3
        assert x_cubed.as_base() == cert.c
        assert x_cubed == ext.embed(cert.c)

    def test_canonical_scaling(self, frob134):
        for inp in (frob134, builtin_cubic_over_eisenstein()):
            x = certify(inp).x
            lead = next(c for c in x.coords if c)
            assert lead == inp.base_field.one()

    def test_determinism(self, frob134):
        a = certify(frob134)
        b = certify(frob134)
        assert a.x == b.x and a.c == b.c and a.checks == b.checks
        assert a.eigen.entries == b.eigen.entries


class TestScalingInvariance:
    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_scaled_generator_keeps_every_property(self, frob134, k):
        ctx = validate_setup(frob134)
        cert = compute_certificate(ctx)
        scaled = cert.x * k
        c_scaled = (scaled**4).as_base()
        assert c_scaled == cert.c * PrimeFieldElement(k, 13) ** 4
        assert ctx.sigma(scaled) == ctx.zeta_pow(1) * scaled
        assert element_min_poly(scaled).degree == 4
        # rerun the flag suite on a certificate with x replaced by k*x
        tampered = copy.copy(cert)
        tampered.x = scaled
        tampered.c = c_scaled
        tampered.x_min_poly = Polynomial.x_pow_minus_const(F13, 4, c_scaled)
        ok, failures = verify_certificate_report(tampered)
        assert ok, failures


class TestVerification:
    def test_round_trip(self, frob52, frob134):
        for inp in (frob52, frob134, builtin_cubic_over_eisenstein()):
            assert verify_certificate(certify(inp))

    def test_perturbed_c(self, frob134):
        cert = certify(frob134)
        cert.c = cert.c + 1
        ok, failures = verify_certificate_report(cert)
        assert not ok
        assert "x^n = c" in failures

    def test_non_eigenvector_x(self, frob134):
        cert = certify(frob134)
        cert.x = cert.x + 1
        ok, failures = verify_certificate_report(cert)
        assert not ok
        assert "sigma(x) = zeta*x" in failures

    def test_flipped_flag(self, frob134):
        cert = certify(frob134)
        cert.checks = dict(cert.checks, spectrum_complete=False)
        ok, failures = verify_certificate_report(cert)
        assert not ok
        assert "all stored flags true" in failures

    def test_tampered_eigen_dimension(self, frob134):
        cert = certify(frob134)
        cert.eigen.entries[0].dimension = 2
        ok, failures = verify_certificate_report(cert)
        assert not ok
        assert "eigen report matches recomputation" in failures

    def test_tampered_min_poly(self, frob134):
        cert = certify(frob134)
        cert.x_min_poly = Polynomial(F13, [4, 0, 0, 0, 1])
        ok, failures = verify_certificate_report(cert)
        assert not ok

    def test_tampered_input_zeta(self, frob134):
        cert = certify(frob134)
        object.__setattr__(cert.input, "zeta", PrimeFieldElement(1, 13))
        ok, failures = verify_certificate_report(cert)
        assert not ok
        assert failures[0].startswith("hypotheses hold")

    def test_zero_x_rejected(self):
        cert = certify(frobenius_family(5, 1))
        cert.x = cert.input.ext_field.zero()
        ok, failures = verify_certificate_report(cert)
        assert not ok
        assert "x != 0" in failures

    def test_base_ring_that_is_not_a_field(self):
        # K = QQ[t]/(t^2 - 1) has the zero divisor t - 1, which validate_setup
        # cannot see; E = K[X]/(X^2 - 3), sigma(alpha) = t*alpha, x = alpha
        qq = RationalField()
        k_ring = ExtensionField(qq, Polynomial(qq, [-1, 0, 1]))
        ext = ExtensionField(k_ring, Polynomial(k_ring, [-3, 0, 1]))
        inp = CyclicExtensionInput(ext, 2, k_ring.from_int(-1), ext.gen() * k_ring.gen())
        cert = KummerCertificate(
            input=inp,
            eigen=EigenReport(()),
            x=ext.gen(),
            c=k_ring.from_int(3),
            x_min_poly=Polynomial.x_pow_minus_const(k_ring, 2, 3),
            checks=dict.fromkeys(CHECK_NAMES, True),
        )
        with pytest.raises(NotInvertible):
            verify_certificate_report(cert)
        assert verify_certificate(cert) is False


class TestStepwiseProperties:
    """The per-case property suite; the acceptance sweep runs it everywhere."""

    @pytest.mark.parametrize("p,n", [(5, 2), (7, 6), (13, 4)])
    def test_min_poly_divides_and_power_is_identity(self, p, n):
        ctx = validate_setup(frobenius_family(p, n))
        m = ctx.matrix
        _, min_poly = check_diagonalizability(ctx, m)
        xn1 = Polynomial.x_pow_minus_const(ctx.base_field, n, 1)
        quotient, remainder = divmod(xn1, min_poly)
        assert not remainder
        assert quotient * min_poly == xn1
        assert power(m, n) == identity(ctx.base_field, n)

    @pytest.mark.parametrize("p,n", [(5, 2), (7, 6), (13, 4)])
    def test_eigenvector_pair_closure_by_matrix(self, p, n):
        ctx = validate_setup(frobenius_family(p, n))
        m = ctx.matrix
        report = eigen_spectrum(ctx, m)
        from kummerkit.linalg import mat_apply

        for a in report.entries:
            for b in report.entries:
                ab = a.eigenvector * b.eigenvector
                lam_mu = a.eigenvalue * b.eigenvalue
                assert mat_apply(m, ab.coords) == tuple(c * lam_mu for c in ab.coords)

    @pytest.mark.parametrize("p,n", [(5, 2), (7, 6), (13, 4)])
    def test_sigma_fixes_x_to_the_n(self, p, n):
        ctx = validate_setup(frobenius_family(p, n))
        x = extract_radical_generator(ctx, eigen_spectrum(ctx, ctx.matrix))
        assert ctx.sigma(x**n) == x**n

    @pytest.mark.parametrize("p,n", [(5, 2), (13, 4)])
    def test_resolvent_parallel_to_x(self, p, n):
        ctx = validate_setup(frobenius_family(p, n))
        x = extract_radical_generator(ctx, eigen_spectrum(ctx, ctx.matrix))
        alpha = ctx.ext_field.gen()
        for seed in (alpha, alpha + 1, alpha**2):
            r = lagrange_resolvent(ctx, seed)
            if not r:
                continue
            stacked = Matrix(ctx.base_field, [list(r.coords), list(x.coords)])
            assert rref(stacked).rank == 1

    @pytest.mark.parametrize("name", sorted(RESOLVENT_INPUTS))
    def test_resolvent_parallel_to_x_over_an_extension_base(self, name):
        # over K = QQ(zeta_3), QQ(i) or F_25, each sigma of the resolvent is
        # the dot product on ground ints: a route to x independent of the
        # eigenspace that certify reads
        inp = RESOLVENT_INPUTS[name]()
        ctx = validate_setup(inp)
        x = certify(inp).x
        alpha = ctx.ext_field.gen()
        resolvents = [lagrange_resolvent(ctx, seed) for seed in (alpha, alpha + 1, alpha**2)]
        r = next((r for r in resolvents if r), None)
        assert r is not None, "every resolvent is zero"
        stacked = Matrix(ctx.base_field, [list(r.coords), list(x.coords)])
        assert rref(stacked).rank == 1


class TestEachKernelOnce:
    """eigen_spectrum is the only stage that computes a kernel: one nullspace
    per candidate eigenvalue zeta^i, and none in check_fixed_field or
    extract_radical_generator, which read its report. sigma^n = id follows
    from validate_setup, so no stage computes the operator min poly. Over a
    proven field neither certify nor verify expands the binomial product,
    and verify reads every spectral flag off a witness x, computing no
    kernel; for an x that is no witness it computes the n kernels. For a
    witness x, certify and verify read x's min poly off it as X^n - x^n and
    call element_min_poly never; off the witness path they call it once.
    Closure multiplies nothing in E."""

    COUNTED = (
        "nullspace",
        "operator_min_poly",
        "check_diagonalizability",
        "_binomial_factorization_holds",
        "element_min_poly",
    )

    @staticmethod
    def counting(calls, name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {name: 0 for name in self.COUNTED}
        for name in self.COUNTED:
            monkeypatch.setattr(kummer, name, self.counting(calls, name, getattr(kummer, name)))
        return calls

    @pytest.mark.parametrize(
        "make", [lambda: frobenius_family(97, 16), builtin_cubic_over_eisenstein], ids=["finite-97-16", "builtin-cubic"]
    )
    def test_certify_makes_n_kernel_calls_and_verify_none(self, make, calls):
        inp = make()
        cert = certify(inp)
        assert cert.is_valid()
        assert calls["nullspace"] == inp.n
        assert calls["operator_min_poly"] == calls["check_diagonalizability"] == 0
        assert calls["_binomial_factorization_holds"] == calls["element_min_poly"] == 0
        parsed = serialize.certificate_from_json(serialize.certificate_to_json(cert))
        calls.update(dict.fromkeys(calls, 0))
        assert verify_certificate_report(parsed) == (True, [])
        assert calls == dict.fromkeys(self.COUNTED, 0)

    def test_verify_of_a_squared_x_computes_the_kernels_but_no_binomial_product(self, calls):
        # sigma(x^2) = zeta^2*x^2 != zeta*x^2: x^2 is no witness, so verify
        # takes the full derivation, but F_p is proven a field
        inp = frobenius_family(97, 16)
        cert = certify(inp)
        parsed = serialize.certificate_from_json(serialize.certificate_to_json(replace(cert, x=cert.x**2)))
        calls.update(dict.fromkeys(calls, 0))
        ok, failures = verify_certificate_report(parsed)
        assert not ok and "sigma(x) = zeta*x" in failures
        assert calls["nullspace"] == inp.n
        assert calls["_binomial_factorization_holds"] == calls["operator_min_poly"] == 0
        assert calls["element_min_poly"] == 1

    def test_certify_over_an_unproven_k_computes_the_min_poly_once(self, calls):
        # K = QQ[t]/(t^2 - 1) is not proven a field, so x is no witness
        inp = NOT_FIELDS["K=QQ[t]/(t^2-1)"]()
        certify(inp)
        assert calls["element_min_poly"] == 1
        assert calls["nullspace"] == inp.n

    @pytest.mark.parametrize(
        "make", [lambda: frobenius_family(97, 16), builtin_cubic_over_eisenstein], ids=["finite-97-16", "builtin-cubic"]
    )
    def test_closure_multiplies_nothing_in_e(self, make, monkeypatch):
        ctx = validate_setup(make())
        report = eigen_spectrum(ctx, ctx.matrix)
        calls = {"__mul__": 0}
        monkeypatch.setattr(ExtensionElement, "__mul__", self.counting(calls, "__mul__", ExtensionElement.__mul__))
        assert check_gamma_closure(ctx, report)
        assert calls["__mul__"] == 0

    def test_stages_reject_a_report_without_eigenvectors(self, frob134):
        # a parsed certificate's report lists the spectrum but no eigenvectors
        parsed = serialize.certificate_from_json(serialize.certificate_to_json(certify(frob134)))
        ctx = validate_setup(parsed.input)
        with pytest.raises(ValueError):
            check_fixed_field(ctx, parsed.eigen)
        with pytest.raises(ValueError):
            extract_radical_generator(ctx, parsed.eigen)


def _reference_kernel(ctx, m, lam):
    """The seed formulation of the eigenspace of lam: nullspace of M - lam*I
    with the identity built and scaled in full."""
    return nullspace(shift(m, lam))


def _quadratic_over_rationals():
    qq = RationalField()
    ext = ExtensionField(qq, Polynomial(qq, [-2, 0, 1]))
    return CyclicExtensionInput(ext, 2, qq.from_int(-1), -ext.gen())


EIGEN_CONTEXTS = {
    "Fp": validate_setup(frobenius_family(13, 4)),
    "QQ": validate_setup(_quadratic_over_rationals()),
    "QQ(zeta_3)": validate_setup(builtin_cubic_over_eisenstein()),
}


@st.composite
def _scalars(draw, field):
    if isinstance(field, PrimeField):
        return field.from_int(draw(st.integers(0, field.p - 1)))
    if isinstance(field, RationalField):
        return Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return field.element([draw(_scalars(field.base)) for _ in range(field.degree)])


@st.composite
def _square_matrices(draw, ctx):
    """Random matrices of every shape of spectrum: dense, triangular with
    powers of zeta on the diagonal (so eigenspaces are nonempty), scalar
    multiples of the identity, and the automorphism's own matrix."""
    field, n = ctx.base_field, ctx.n
    kind = draw(st.sampled_from(["dense", "triangular", "scalar", "sigma"]))
    if kind == "sigma":
        return ctx.matrix
    if kind == "scalar":
        return scale(identity(field, n), ctx.zeta_pow(draw(st.integers(0, n - 1))))
    rows = [[draw(_scalars(field)) for _ in range(n)] for _ in range(n)]
    if kind == "triangular":
        for i in range(n):
            rows[i][:i] = [field.zero()] * i
            rows[i][i] = ctx.zeta_pow(draw(st.integers(0, n - 1)))
    return Matrix(field, rows)


@pytest.mark.parametrize("name", sorted(EIGEN_CONTEXTS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_eigen_stages_agree_with_the_full_shift(name, data):
    ctx = EIGEN_CONTEXTS[name]
    m = data.draw(_square_matrices(ctx))
    report = eigen_spectrum(ctx, m)
    expected = []
    for i in range(ctx.n):
        basis = _reference_kernel(ctx, m, ctx.zeta_pow(i))
        if basis:
            expected.append((i, ctx.zeta_pow(i), len(basis), ctx.ext_field.element(basis[0])))
    assert [(e.i, e.eigenvalue, e.dimension, e.eigenvector) for e in report.entries] == expected

    fixed = _reference_kernel(ctx, m, ctx.base_field.one())
    one_vector = ctx.ext_field.one().coords
    assert check_fixed_field(ctx, report) == (len(fixed) == 1 and fixed[0] == one_vector)

    line = _reference_kernel(ctx, m, ctx.zeta_pow(1))
    if not line:
        with pytest.raises(EmptyEigenspace):
            extract_radical_generator(ctx, report)
    else:
        first = next(c for c in line[0] if c)
        x = extract_radical_generator(ctx, report)
        assert x == ctx.ext_field.element([c / first for c in line[0]])


# -- sigma's matrix: the Frobenius path against the general one --------------


def oracle_validate_setup(inp: CyclicExtensionInput) -> ValidatedContext:
    """validate_setup as it ran before E over F_p kept the Rabin test's
    Frobenius matrix: f(s) by Horner, sigma's matrix from the powers s^j
    multiplied in E, and the orbit sigma^k(alpha) for k = 1, ..., n, on
    every input."""
    if not isinstance(inp.ext_field, ExtensionField):
        raise ValidationError("E must be an extension field")
    ext = inp.ext_field
    base = ext.base
    n = inp.n
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if ext.degree != n:
        raise ValidationError(f"modulus degree {ext.degree} does not match n = {n}")
    char = base.characteristic()
    if char and n % char == 0:
        raise CharacteristicDividesN(f"characteristic {char} divides n = {n}")
    try:
        zeta = base.coerce(inp.zeta)
        sigma_image = ext.coerce(inp.sigma_image)
    except FieldMismatch as exc:
        raise ValidationError(str(exc)) from exc
    if not zeta:
        raise NoPrimitiveRoot("zeta = 0 is not a root of unity")
    zeta_powers = [base.one()]
    for _ in range(n - 1):
        zeta_powers.append(zeta_powers[-1] * zeta)
    if zeta_powers[-1] * zeta != base.one():
        raise NoPrimitiveRoot(f"zeta^{n} != 1")
    for q in prime_factors(n):
        if zeta_powers[n // q] == base.one():
            raise NoPrimitiveRoot(f"zeta^{n // q} = 1, so the order of zeta is not {n}")

    if ext.modulus.evaluate(sigma_image) != ext.zero():
        raise NotAnAutomorphism("the image of the generator is not a root of the modulus")
    powers = [ext.one()]
    while len(powers) < n:
        powers.append(powers[-1] * sigma_image)
    ctx = ValidatedContext(ext, n, zeta, sigma_image, zeta_powers=tuple(zeta_powers))
    # the oracle's own matrix, in place of the one ctx.matrix would build
    object.__setattr__(ctx, "matrix", Matrix.from_columns(base, [s.coords for s in powers]))
    alpha = ext.gen()
    image = alpha
    proper_divisors = [k for k in range(1, n) if n % k == 0]
    for k in range(1, n + 1):
        image = ctx.sigma(image)
        if k in proper_divisors and image == alpha:
            raise AutomorphismOrderMismatch(f"the automorphism has order {k}, expected {n}")
    if image != alpha:
        raise AutomorphismOrderMismatch(f"sigma^{n}(alpha) != alpha")
    return ctx


# every prime p < 200 with every n | p - 1, n <= 12, over the default modulus
FROBENIUS_PAIRS = [(p, n) for p in range(2, 200) if is_prime(p) for n in range(1, 13) if (p - 1) % n == 0]


def _images(inp):
    """s = X^(p^k) for k = 1, ..., n + 1 (orders n / gcd(k, n), and k = n + 1
    is the Frobenius again), then alpha + 1, which is no root of f."""
    ext, p = inp.ext_field, inp.base_field.p
    s = ext.gen()
    for k in range(1, inp.n + 2):
        s = s**p
        yield k, s
    yield None, ext.gen() + 1


def _outcome(validate, inp, monkeypatch):
    """(matrix, certificate bytes, verify report) with validate as
    validate_setup, certify and verify alike; (class, message) when it
    raises."""
    monkeypatch.setattr(kummer, "validate_setup", validate)
    try:
        ctx = validate(inp)
        data = serialize.canonical_dumps(serialize.certificate_to_json(compute_certificate(ctx)))
        report = verify_certificate_report(serialize.certificate_from_json(serialize.loads(data)))
    except KummerError as exc:
        return type(exc), str(exc)
    return ctx.matrix, data, report


def test_frobenius_case_count():
    assert (len(FROBENIUS_PAIRS), sum(n + 2 for _, n in FROBENIUS_PAIRS)) == (209, 1307)


@pytest.mark.parametrize("p,n", FROBENIUS_PAIRS, ids=[f"F{p}-n{n}" for p, n in FROBENIUS_PAIRS])
def test_validate_setup_matches_the_general_derivation(p, n, monkeypatch):
    base = frobenius_family(p, n)
    for k, s in _images(base):
        inp = CyclicExtensionInput(base.ext_field, n, base.zeta, s)
        got = _outcome(validate_setup, inp, monkeypatch)
        assert got == _outcome(oracle_validate_setup, inp, monkeypatch), (k, s)
        frobenius_image = k in (1, n + 1)
        assert (got[0] is base.ext_field.frobenius) == frobenius_image, (k, s)
        if k is None:
            assert got == (NotAnAutomorphism, "the image of the generator is not a root of the modulus")


class TestFrobeniusMatrixOnce:
    """Over F_p the Rabin test's Frobenius matrix, kept by ExtensionField, is
    sigma's matrix when s = X^p mod f: certify builds that one substitution
    matrix and evaluates no polynomial, and verify, whose Kummer witness
    proves E a field, builds none. Any other s takes the general path,
    which builds sigma's matrix from s and reads f(s) off it."""

    COUNTED = ("substitution_matrix", "evaluate", "__mul__", "sigma")

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = dict.fromkeys(self.COUNTED, 0)
        counting = TestEachKernelOnce.counting
        # polynomials imports substitution_matrix from linalg when the Rabin test runs
        for owner in (kummer, linalg):
            monkeypatch.setattr(owner, "substitution_matrix", counting(calls, "substitution_matrix", owner.substitution_matrix))
        monkeypatch.setattr(Polynomial, "evaluate", counting(calls, "evaluate", Polynomial.evaluate))
        monkeypatch.setattr(ExtensionElement, "__mul__", counting(calls, "__mul__", ExtensionElement.__mul__))
        monkeypatch.setattr(ValidatedContext, "sigma", counting(calls, "sigma", ValidatedContext.sigma))
        return calls

    def test_cli_certify_and_verify_build_only_the_rabin_matrix(self, calls, tmp_path, capsys):
        modulus = ",".join(str(c.value) for c in default_modulus(PrimeField(97), 16).modulus.coeffs)
        out = tmp_path / "cert.json"
        calls.update(dict.fromkeys(calls, 0))
        assert cli.main(["finite", "--p", "97", "--n", "16", "--modulus", modulus, "--format", "json", "--out", str(out)]) == 0
        assert (calls["substitution_matrix"], calls["evaluate"]) == (1, 0)
        calls.update(dict.fromkeys(calls, 0))
        assert cli.main(["verify", str(out), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"outcome": "valid", "failures": []}
        assert (calls["substitution_matrix"], calls["evaluate"]) == (0, 0)  # the Kummer witness proves E

    def test_frobenius_input_computes_nothing(self, calls):
        for inp in (frobenius_family(97, 16), frobenius_family(5, 1)):
            calls.update(dict.fromkeys(calls, 0))
            ctx = validate_setup(inp)
            assert ctx.matrix is inp.ext_field.frobenius
            assert calls == dict.fromkeys(self.COUNTED, 0)
            assert ctx.matrix == oracle_validate_setup(inp).matrix

    @pytest.mark.parametrize(
        "make",
        [
            lambda: frobenius_family(97, 16),
            builtin_cubic_over_eisenstein,
        ],
        ids=["finite-97-16-cube", "builtin-cubic"],
    )
    def test_general_path_builds_one_matrix_and_evaluates_nothing(self, make, calls):
        inp = make()
        if inp.base_field == PrimeField(97):  # sigma^3: s = X^(97^3), of order 16 too
            inp = CyclicExtensionInput(inp.ext_field, inp.n, inp.zeta, inp.ext_field.gen() ** 97**3)
        calls.update(dict.fromkeys(calls, 0))
        ctx = validate_setup(inp)
        assert (calls["substitution_matrix"], calls["evaluate"], calls["sigma"]) == (1, 0, inp.n - 1)
        assert ctx.matrix == oracle_validate_setup(inp).matrix
