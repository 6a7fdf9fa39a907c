"""The certificate engine for cyclic extensions with enough roots of unity.

Given a degree-n extension E = K[X]/(f), a primitive n-th root of unity zeta
in K, and a generating automorphism presented as the image s of the class of
X, this module checks every hypothesis, diagonalizes the automorphism as a
K-linear operator, extracts a canonical radical generator x with
sigma(x) = zeta*x, and assembles a certificate witnessing that x^n lies in K
and that x alone generates E over K. Every step of that argument is a
separately checkable operation, and the certificate records the outcome of
each as a named flag. The flags hold in any cyclic Galois algebra, not only
in a field, so a K or E that is not a field (say a reducible modulus over
QQ) is not always caught: it may certify valid (ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from functools import cached_property
from math import gcd

from .errors import (
    AutomorphismOrderMismatch,
    CharacteristicDividesN,
    EmptyEigenspace,
    FieldMismatch,
    MalformedCertificate,
    NoPrimitiveRoot,
    NotAnAutomorphism,
    NotInvertible,
    ValidationError,
)
from .linalg import Matrix, element_min_poly, mat_apply, nullspace, operator_min_poly, substitution_matrix
from .polynomials import Polynomial, poly_divmod
from .scalars import prime_factors
from .tower import ExtensionElement, ExtensionField

CHECK_NAMES = (
    "hypotheses_ok",
    "sigma_is_automorphism",
    "sigma_order_n",
    "fixed_field_is_K",
    "min_poly_divides_Xn_minus_1",
    "spectrum_complete",
    "c_in_base",
    "x_min_poly_degree_n",
    "root_orbit_transitive",
    "binomial_factorization",
)

CERTIFICATE_VERSION = "1"


@dataclass(frozen=True)
class CyclicExtensionInput:
    """A cyclic extension instance: E over K = E.base, with zeta in K and the
    automorphism given by the image of the extension generator."""

    ext_field: ExtensionField
    n: int
    zeta: object
    sigma_image: ExtensionElement

    @property
    def base_field(self):
        return self.ext_field.base

    @property
    def modulus(self) -> Polynomial:
        return self.ext_field.modulus


@dataclass(frozen=True)
class ValidatedContext(CyclicExtensionInput):
    """An input that passed validate_setup, with zeta and the image coerced
    into K and E, plus the powers of zeta and the automorphism's matrix."""

    zeta_powers: tuple  # zeta^0, ..., zeta^(n-1) in K

    @property
    def sigma_is_frobenius(self) -> bool:
        """sigma is a -> a^p of E over F_p: s = X^p mod f (E.frobenius_image)."""
        return self.sigma_image.coords == self.ext_field.frobenius_image

    @cached_property
    def matrix(self) -> Matrix:
        """sigma's matrix, column j the coordinates of s^j over K, built on
        first read: E's Frobenius matrix when sigma is the Frobenius."""
        if self.sigma_is_frobenius:
            return self.ext_field.frobenius
        return substitution_matrix(self.base_field, self.modulus, self.sigma_image.coords)

    def sigma(self, e: ExtensionElement) -> ExtensionElement:
        """Apply the automorphism: the image of sum(c_j * alpha^j) is
        sum(c_j * s^j), the matrix times the coordinate vector, O(n^2)
        base-field operations and no multiply in E. Over an extension K of
        F_p or QQ the dot product runs on ground ints (``raw_mat_apply``):
        no multiply in K either."""
        e = self.ext_field.coerce(e)
        return ExtensionElement(self.ext_field, mat_apply(self.matrix, e.coords))

    def zeta_pow(self, i: int):
        """zeta^i in K, for any integer i (zeta has order n)."""
        return self.zeta_powers[i % self.n]


@dataclass
class EigenEntry:
    i: int
    eigenvalue: object
    dimension: int
    eigenvector: ExtensionElement | None = None


@dataclass
class EigenReport:
    entries: tuple

    @property
    def m(self) -> int:
        return len(self.entries)


@dataclass
class KummerCertificate:
    """The radical-generator witness plus one boolean flag per checked property.

    A certificate is valid iff every flag is true. x is canonically scaled:
    its lowest-index nonzero coordinate is 1.
    """

    input: CyclicExtensionInput
    eigen: EigenReport
    x: ExtensionElement
    c: object
    x_min_poly: Polynomial
    checks: dict = dataclass_field(default_factory=dict)

    def is_valid(self) -> bool:
        return all(self.checks.get(name, False) for name in CHECK_NAMES)


def validate_setup(inp: CyclicExtensionInput) -> ValidatedContext:
    """Check every hypothesis and return the validated input; raise a
    ValidationError subclass on failure.

    Checks, in order: structural consistency, characteristic does not divide
    n, zeta has exact order n, the asserted image s of the generator is a
    root of the modulus (so alpha -> s extends to a K-endomorphism of E,
    automatically a K-automorphism), and that automorphism has order
    exactly n.

    When E is over F_p and s is X^p mod f (ExtensionField.frobenius_image),
    the last two checks are read off the proof that f is irreducible,
    recorded when E was built (the Rabin test, or a certificate's Kummer
    witness): f(X^p) = f(X)^p = 0, and the Frobenius of F_(p^n) has order
    exactly n. Nothing is computed, and sigma's matrix (ctx.matrix) is E's
    Frobenius matrix Q, read only by a caller that needs it. Otherwise
    sigma's matrix M is built from s, f(s) is read off it as
    M*(f_0, ..., f_(n-1)) + s^(n-1)*s (column n-1 of M is s^(n-1)), and
    sigma^k(alpha) is walked for k = 1, ..., n from sigma(alpha) = s, by
    n - 1 applications of sigma. Both ways raise the same exceptions and
    give the same matrix, in every degree n >= 1.
    """
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

    ctx = ValidatedContext(ext, n, zeta, sigma_image, tuple(zeta_powers))
    if ctx.sigma_is_frobenius:
        return ctx

    matrix = ctx.matrix
    s_to_n = ExtensionElement(ext, matrix.column(n - 1)) * sigma_image
    if ExtensionElement(ext, mat_apply(matrix, ext.modulus.coeffs[:n])) + s_to_n:
        raise NotAnAutomorphism("the image of the generator is not a root of the modulus")

    alpha = ext.gen()
    image = sigma_image  # sigma(alpha); at n = 1, f(s) = 0 forces s = alpha
    for k in range(1, n):
        if n % k == 0 and image == alpha:
            raise AutomorphismOrderMismatch(f"the automorphism has order {k}, expected {n}")
        image = ctx.sigma(image)
    if image != alpha:
        raise AutomorphismOrderMismatch(f"sigma^{n}(alpha) != alpha")
    return ctx


def check_diagonalizability(ctx: ValidatedContext, m: Matrix) -> tuple[bool, Polynomial]:
    """True iff the operator's minimal polynomial divides X^n - 1 exactly.
    As it is the exact minimal polynomial mu, mu | X^n - 1 holds iff
    M^n = I, so no power of the matrix is taken.

    The pipeline does not call this: for ctx.matrix it always holds, as
    validate_setup proves sigma an algebra endomorphism with
    sigma^n(alpha) = alpha, so M^n = I."""
    min_poly = operator_min_poly(m)
    xn_minus_1 = Polynomial.x_pow_minus_const(ctx.base_field, ctx.n, ctx.base_field.one())
    _, rem = poly_divmod(xn_minus_1, min_poly)
    return not rem, min_poly


def eigen_spectrum(ctx: ValidatedContext, m: Matrix) -> EigenReport:
    """Eigenvalue report over the candidate eigenvalues zeta^0, ..., zeta^(n-1).

    For each power of zeta, the eigenspace is the kernel of M - zeta^i*I,
    which ``Matrix.shifted`` forms from M with the raw value of zeta^i;
    candidates with a nonzero kernel are listed together with their
    dimension and the first RREF kernel basis vector as the stored
    eigenvector. This is the only kernel computation of the pipeline:
    check_fixed_field and extract_radical_generator read the report.
    """
    raw_powers = m.field.unbox(ctx.zeta_powers)
    entries = []
    for i in range(ctx.n):
        basis = nullspace(m.shifted(raw_powers[i]))
        if basis:
            entries.append(EigenEntry(i, ctx.zeta_pow(i), len(basis), ctx.ext_field.element(basis[0])))
    assert sum(e.dimension for e in entries) <= ctx.n
    return EigenReport(tuple(entries))


def _entry(report: EigenReport, i: int) -> EigenEntry | None:
    """The report's entry for zeta^i, None when that eigenspace is zero.
    Raises ValueError for a report without eigenvectors, such as a parsed
    certificate's, which no stage reading eigenvectors can decide on."""
    entry = next((e for e in report.entries if e.i == i), None)
    if entry is not None and entry.eigenvector is None:
        raise ValueError(f"the eigen report stores no eigenvector for zeta^{i}; use eigen_spectrum's report")
    return entry


def check_gamma_closure(ctx: ValidatedContext, report: EigenReport) -> bool:
    """Products of eigenvectors are eigenvectors for an eigenvalue in the
    spectrum: the report's exponents i are closed under addition mod n.

    sigma is an algebra endomorphism (validate_setup), so for eigenvectors a
    and b of zeta^i and zeta^j, sigma(a*b) = zeta^(i+j) * a*b over any
    commutative K. What can fail is only that zeta^(i+j) is in the
    spectrum, and as zeta has exact order n its powers are distinct, so that
    is a test on exponents, with no multiply in E and no sigma. A nonempty
    set of exponents closed under addition mod n is a subgroup of Z/n (it
    holds 0, and -i as (n - 1) i), and the subgroups of Z/n are the
    multiples of a divisor g of n, here the gcd of n and the exponents: one
    set comparison, O(m). It reads no eigenvector, so a parsed report
    serves as well.
    """
    exponents = {e.i for e in report.entries}
    return not exponents or exponents == set(range(0, ctx.n, gcd(ctx.n, *exponents)))


def check_spectrum_complete(ctx: ValidatedContext, report: EigenReport) -> bool:
    """All n powers of zeta occur, each with a one-dimensional eigenspace."""
    return report.m == ctx.n and all(e.dimension == 1 for e in report.entries)


def check_fixed_field(ctx: ValidatedContext, report: EigenReport) -> bool:
    """The fixed space of the automorphism is exactly the line through 1: the
    eigenvalue 1 = zeta^0 has a one-dimensional eigenspace whose stored
    basis vector is 1."""
    fixed = _entry(report, 0)
    return fixed is not None and fixed.dimension == 1 and fixed.eigenvector == ctx.ext_field.one()


def extract_radical_generator(ctx: ValidatedContext, report: EigenReport) -> ExtensionElement:
    """The canonical zeta-eigenvector: the stored eigenvector of zeta, the
    RREF kernel basis vector of (M - zeta*I), rescaled so its lowest-index
    nonzero coordinate is 1."""
    entry = _entry(report, 1 % ctx.n)
    if entry is None:
        raise EmptyEigenspace("no eigenvector for zeta; the input is not a cyclic extension as claimed")
    v = entry.eigenvector
    return v * (ctx.base_field.one() / next(c for c in v.coords if c))


def lagrange_resolvent(ctx: ValidatedContext, a: ExtensionElement) -> ExtensionElement:
    """sum over i of zeta^(-i) * sigma^i(a): always a zeta-eigenvector of the
    automorphism (possibly zero), giving a second, independent route to x."""
    cur = ctx.ext_field.coerce(a)
    acc = ctx.ext_field.zero()
    for i in range(ctx.n):
        acc = acc + cur * ctx.zeta_pow(-i)
        cur = ctx.sigma(cur)
    return acc


def _binomial_factorization_holds(ctx: ValidatedContext, x: ExtensionElement, c) -> bool:
    """prod over i of (X - zeta^i * x) = X^n - c, as polynomials over E."""
    ext = ctx.ext_field
    # coefficients of the running product, degree-ascending; multiplying by
    # (X - r) maps them to new[k] = old[k-1] - r*old[k]
    coeffs = [ext.one()]
    for i in range(ctx.n):
        root = x * ctx.zeta_pow(i)
        coeffs = [-root * coeffs[0]] + [
            lower - root * upper for lower, upper in zip(coeffs, coeffs[1:])
        ] + [coeffs[-1]]
    expected = Polynomial.x_pow_minus_const(ext, ctx.n, ext.coerce(c))
    return Polynomial(ext, coeffs) == expected


def _is_proven_field(k) -> bool:
    """K's ``proven_field``, recorded when K was built (False: unproven, not
    disproven); a seam where the full derivation can be forced."""
    return k.proven_field


def _derive(ctx: ValidatedContext, claimed: KummerCertificate | None = None):
    """Run every stage once and list its checks in verify's order.

    Returns (eigen report, x, c, min poly of x, checks), where each check is
    a (failure label, flag, holds) triple and the flag names the certificate
    flag the check feeds. Without a claimed certificate, the eigen report is
    computed, x is extracted from it and c is the constant coordinate of x^n:
    x^n itself when it lies in K, and otherwise just a value that serializes
    beside a false c_in_base. With a claimed certificate, its x and c are
    tested, and its stored eigen report and x_min_poly are compared with
    their recomputations; those comparisons feed no flag (None). A zero x
    ends the list at "x != 0", since nothing after it is defined; c and the
    min poly are then None.

    Four kinds of fact are read off proofs instead of computed, each under
    exactly its own premise, for certify and verify alike; every holds value
    is the one the full derivation computes.

    No premise beyond validate_setup, over any commutative K: sigma is the
    algebra endomorphism alpha -> s with sigma^n(alpha) = alpha, so M^n = I
    and its minimal polynomial divides X^n - 1 (min_poly_divides_Xn_minus_1
    is fed by no check). sigma is multiplicative, so a product of
    eigenvectors for zeta^i and zeta^j is one for zeta^(i+j), and closure is
    a test on the report's exponents. sigma is linear, so it maps zeta^i*x
    to zeta^(i+1)*x for every i iff sigma(x) = zeta*x, the root orbit.
    sigma fixes K (column 0 of M is e_0), so it fixes x^n when x^n is in K.

    K proven a field (K.proven_field): as zeta has exact order n,
    prod_i (X - zeta^i*Y) = X^n - Y^n in K[X, Y], so for any x the binomial
    factorization holds iff x^n = c. Only over a K not proven a field is the
    product computed.

    K proven a field and a witness x: x != 0, sigma(x) = zeta*x, and x^n a
    nonzero element of K. Each x^i is then a nonzero zeta^i-eigenvector, as
    x^i * x^(n-i) = x^n != 0, so n distinct eigenvalues in dimension n give
    the eigen report (i, zeta^i, 1) for every i, a complete spectrum and the
    fixed space span{1}. Eigenvectors for distinct eigenvalues are
    independent over K (Lang, Algebra, VI 6), so 1, x, ..., x^(n-1) are,
    and x's min poly has degree n; it divides X^n - x^n, so it equals
    X^n - x^n, with the computed x^n as constant (never a claimed c, which
    "x^n = c" tests). Verify then computes no kernel (its fresh report
    carries no eigenvectors) and no elimination at all; certify extracts x
    from the report, so it computes it. When a premise fails, the full
    derivation runs, with element_min_poly for x's min poly, and a K or E
    that is not a field may raise NotInvertible with the zero divisor met.

    K = F_p, sigma the Frobenius (s = X^p mod f) and x^n a nonzero c' in
    F_p: g(X)^p = g(X^p) over F_p, so sigma(x) = x^p, which is
    x * (x^n)^((p-1)/n) = c'^((p-1)/n) * x; x is a unit, so
    sigma(x) = zeta*x iff c'^((p-1)/n) = zeta, one power in F_p and no
    matrix. It holds in any F_p-algebra; it waits on the proven-field seam
    only so that forcing the full derivation applies sigma's matrix too.
    x^n is computed once: when E was proven a field by this x's Kummer
    witness (E.kummer_witness), the x^n found then is used. So a witness
    verify of an F_p certificate with s = X^p mod f computes X^p and x^n
    while parsing, and after that no matrix and no power.
    """
    n = ctx.n
    if claimed is None:
        report = eigen_spectrum(ctx, ctx.matrix)
        x = extract_radical_generator(ctx, report)
    else:
        x = claimed.x
    proven_field = _is_proven_field(ctx.base_field)
    witness = False
    if x:
        known = ctx.ext_field.kummer_witness
        x_pow_n = ctx.ext_field.embed(known[1]) if known is not None and known[0] == x.coords else x**n
        c_computed = x_pow_n.as_base()
        if proven_field and c_computed and ctx.sigma_is_frobenius:
            sigma_x_ok = c_computed ** ((ctx.base_field.p - 1) // n) == ctx.zeta_pow(1)
        else:
            sigma_x_ok = ctx.sigma(x) == x * ctx.zeta_pow(1)
        x_pow_n_in_k = c_computed is not None
        witness = proven_field and sigma_x_ok and x_pow_n_in_k and bool(x_pow_n)
    if claimed is not None and witness:
        report = EigenReport(tuple(EigenEntry(i, ctx.zeta_pow(i), 1) for i in range(n)))
    elif claimed is not None:
        report = eigen_spectrum(ctx, ctx.matrix)
    checks = [
        ("eigenvalue closure", "spectrum_complete", check_gamma_closure(ctx, report)),
        ("spectrum complete", "spectrum_complete", check_spectrum_complete(ctx, report)),
        ("fixed space = span{1}", "fixed_field_is_K", witness or check_fixed_field(ctx, report)),
    ]
    if claimed is not None:
        stored = [(e.i, e.eigenvalue, e.dimension) for e in claimed.eigen.entries]
        fresh = [(e.i, e.eigenvalue, e.dimension) for e in report.entries]
        checks.append(("eigen report matches recomputation", None, stored == fresh))
    if not x:
        checks.append(("x != 0", None, False))
        return report, x, None, None, checks

    c = x_pow_n.coords[0] if claimed is None else claimed.c
    if witness:
        x_min_poly = Polynomial.x_pow_minus_const(ctx.base_field, n, x_pow_n.coords[0])
    else:
        x_min_poly = element_min_poly(x)
    x_pow_n_is_c = x_pow_n == ctx.ext_field.embed(c)
    checks += [
        ("sigma(x) = zeta*x", "root_orbit_transitive", sigma_x_ok),
        ("x^n in K", "c_in_base", x_pow_n_in_k),
        ("x^n != 0", "c_in_base", bool(x_pow_n)),
        ("sigma(x^n) = x^n", "c_in_base", x_pow_n_in_k or ctx.sigma(x_pow_n) == x_pow_n),
        ("x^n = c", "c_in_base", x_pow_n_is_c),
    ]
    if claimed is not None:
        checks.append(("stored x_min_poly matches recomputation", None, x_min_poly == claimed.x_min_poly))
    checks += [
        ("deg x_min_poly = n", "x_min_poly_degree_n", x_min_poly.degree == n),
        ("root orbit transitive", "root_orbit_transitive", sigma_x_ok),
        (
            "binomial factorization",
            "binomial_factorization",
            x_pow_n_is_c if proven_field else _binomial_factorization_holds(ctx, x, c),
        ),
    ]
    return report, x, c, x_min_poly, checks


def compute_certificate(ctx: ValidatedContext) -> KummerCertificate:
    """Run the whole pipeline and assemble the certificate.

    Each flag is the AND of the checks _derive lists for it (see there for
    the facts read off proofs); hypotheses_ok, sigma_is_automorphism,
    sigma_order_n and min_poly_divides_Xn_minus_1 have none, as
    validate_setup already proved them. Flags are never omitted: a failing
    step yields a false flag (and an invalid certificate), not an exception,
    except where no generator can be extracted at all (EmptyEigenspace) or
    arithmetic itself witnesses a reducible modulus (NotInvertible).
    """
    report, x, c, x_min_poly, checks = _derive(ctx)
    flags = dict.fromkeys(CHECK_NAMES, True)
    for _, flag, holds in checks:
        if flag is not None:
            flags[flag] = flags[flag] and holds
    inp = CyclicExtensionInput(ctx.ext_field, ctx.n, ctx.zeta, ctx.sigma_image)
    return KummerCertificate(inp, report, x, c, x_min_poly, flags)


def certify(inp: CyclicExtensionInput) -> KummerCertificate:
    """validate_setup followed by compute_certificate."""
    return compute_certificate(validate_setup(inp))


def verify_certificate_report(cert: KummerCertificate) -> tuple[bool, list[str]]:
    """Re-derive every property from the echoed input, trusting only x.

    Returns (ok, failures) where failures names every property that did not
    hold. Stored intermediates (eigen report, c, x_min_poly, flags) are
    checked against fresh recomputations rather than believed. The checks
    and the facts read off proofs are _derive's, shared with certify; a
    claimed x that is a witness over a proven field costs one sigma(x) and
    one x^n after validate_setup, O(n^2 log n) operations in K with no
    elimination, as its min poly is X^n - x^n. Over F_p with s = X^p mod f
    it costs less: parsing the certificate proved E a field with one X^p
    and one x^n (ExtensionField's Kummer witness), sigma(x) = zeta*x is
    read off x^n, and no matrix is built or applied. A K or E that is not a
    field may raise NotInvertible.
    """
    try:
        ctx = validate_setup(cert.input)
    except ValidationError as exc:
        return False, [f"hypotheses hold ({exc})"]

    try:
        claimed = replace(cert, x=ctx.ext_field.coerce(cert.x), c=ctx.base_field.coerce(cert.c))
        if not isinstance(cert.x_min_poly, Polynomial) or cert.x_min_poly.field != ctx.base_field:
            raise MalformedCertificate("x_min_poly is not a polynomial over K")
        if set(cert.checks) != set(CHECK_NAMES):
            raise MalformedCertificate("check flags are not exactly the documented set")
    except (FieldMismatch, AttributeError, TypeError) as exc:
        raise MalformedCertificate(str(exc)) from exc

    _, x, _, _, checks = _derive(ctx, claimed)
    failures = [label for label, _, holds in checks if not holds]
    if x and not all(cert.checks[name] for name in CHECK_NAMES):
        failures.append("all stored flags true")
    return not failures, failures


def verify_certificate(cert: KummerCertificate) -> bool:
    """True iff every certificate property re-derives from scratch.

    A certificate whose K or E is not a field (NotInvertible from the
    report) fails the field hypothesis, so it is False like any other
    broken hypothesis.
    """
    try:
        ok, _ = verify_certificate_report(cert)
    except NotInvertible:
        return False
    return ok
