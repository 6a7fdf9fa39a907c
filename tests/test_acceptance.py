"""Acceptance suite: one test per criterion, each printing a PASS line.

All tolerances are exact (this is exact arithmetic); the stated runtime
budgets are asserted with the limits as given.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
lines.
"""

import json
import time
from dataclasses import dataclass

import pytest

from kummerkit.cli import main
from kummerkit.errors import (
    AutomorphismOrderMismatch,
    NoPrimitiveRoot,
    NotAnAutomorphism,
)
from kummerkit.families import builtin_cubic_over_eisenstein, frobenius_family
from kummerkit.kummer import (
    CyclicExtensionInput,
    check_diagonalizability,
    compute_certificate,
    eigen_spectrum,
    extract_radical_generator,
    lagrange_resolvent,
    validate_setup,
    verify_certificate,
    verify_certificate_report,
)
from kummerkit.linalg import Matrix, element_min_poly, nullspace, rref
from kummerkit.polynomials import Polynomial, poly_divmod
from kummerkit.scalars import is_prime

from matrix_oracles import identity, power, shift

MAX_P = 50
MAX_N = 8
SWEEP_PAIRS = [
    (p, n)
    for p in range(2, MAX_P + 1)
    if is_prime(p)
    for n in range(1, MAX_N + 1)
    if (p - 1) % n == 0
]

BRUTE_FORCE_PAIRS = [(3, 2), (5, 2), (5, 4), (7, 2), (7, 3), (13, 4)]

RESOLVENT_SEED_NAMES = ("alpha", "alpha+1", "alpha^2", "alpha^2+alpha", "alpha+2")


@dataclass
class SweepCase:
    p: int
    n: int
    ctx: object
    matrix: Matrix
    report: object
    cert: object
    verified: bool


@pytest.fixture(scope="module")
def sweep():
    t0 = time.perf_counter()
    cases = []
    for p, n in SWEEP_PAIRS:
        ctx = validate_setup(frobenius_family(p, n))
        m = ctx.matrix
        report = eigen_spectrum(ctx, m)
        cert = compute_certificate(ctx)
        cases.append(SweepCase(p, n, ctx, m, report, cert, verify_certificate(cert)))
    elapsed = time.perf_counter() - t0
    return cases, elapsed


def test_criterion_1_exhaustive_frobenius_sweep(sweep):
    cases, elapsed = sweep
    assert len(cases) == len(SWEEP_PAIRS) >= 50
    for case in cases:
        bad = [name for name, ok in case.cert.checks.items() if not ok]
        assert not bad, f"(p={case.p}, n={case.n}) false flags: {bad}"
        assert case.verified, f"(p={case.p}, n={case.n}) failed verification"
    assert elapsed < 10.0, f"sweep took {elapsed:.2f}s, budget is 10s"
    print(f"ACCEPTANCE 1 exhaustive Frobenius sweep ({len(cases)} cases, {elapsed:.2f}s): PASS")


def test_criterion_2_brute_force_oracle_equivalence():
    t0 = time.perf_counter()
    for p, n in BRUTE_FORCE_PAIRS:
        ctx = validate_setup(frobenius_family(p, n))
        ext = ctx.ext_field
        x = extract_radical_generator(ctx, eigen_spectrum(ctx, ctx.matrix))
        zeta = ctx.zeta_pow(1)

        def all_elements():
            coords = [0] * n
            total = p**n
            for index in range(total):
                value, i = index, 0
                while value:
                    coords[i] = value % p
                    value //= p
                    i += 1
                yield ext.element(coords)
                coords = [0] * n

        radical_generators = set()
        eigenvectors = []
        for y in all_elements():
            if not y:
                continue
            y_pow_n = y**n
            if y_pow_n.as_base() is None:
                continue
            if element_min_poly(y).degree == n:  # y generates E over F_p
                radical_generators.add(tuple(c.value for c in y.coords))
            if y**p == zeta * y:  # Frobenius route, independent of the matrix
                eigenvectors.append(y)

        assert tuple(c.value for c in x.coords) in radical_generators, (p, n)
        assert eigenvectors, (p, n)
        for y in eigenvectors:
            k = next(c for c in y.coords if c)
            assert y == x * k, f"(p={p}, n={n}): eigenvector {y} is not an F_p multiple of x"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"brute force took {elapsed:.2f}s, budget is 30s"
    print(f"ACCEPTANCE 2 brute-force oracle equivalence ({len(BRUTE_FORCE_PAIRS)} fields, {elapsed:.2f}s): PASS")


def test_criterion_3_characteristic_zero_instance():
    t0 = time.perf_counter()
    inp = builtin_cubic_over_eisenstein()
    ctx = validate_setup(inp)
    cert = compute_certificate(ctx)
    assert all(cert.checks.values())
    assert verify_certificate(cert)

    ext, alpha = inp.ext_field, inp.ext_field.gen()
    assert ctx.sigma(ctx.sigma(ctx.sigma(alpha))) == alpha  # sigma^3 = id
    x = cert.x
    assert ctx.sigma(x) == ctx.zeta_pow(1) * x
    x_cubed = x**3
    assert not any(x_cubed.coords[1:])  # zero in degrees 1..2
    assert x_cubed.coords[0] == cert.c

    product = Polynomial.one(ext)
    for i in range(3):
        product = product * Polynomial(ext, [-(ctx.zeta_pow(i) * x), ext.one()])
    assert product == Polynomial.x_pow_minus_const(ext, 3, ext.embed(cert.c))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"cubic took {elapsed:.2f}s, budget is 1s"
    print(f"ACCEPTANCE 3 characteristic-0 cubic ({elapsed:.3f}s): PASS")


def test_criterion_4_stepwise_property_suite(sweep):
    cases, _ = sweep
    for case in cases:
        ctx, m = case.ctx, case.matrix
        base = ctx.base_field
        n = ctx.n

        ok, min_poly = check_diagonalizability(ctx, m)
        assert ok
        _, remainder = poly_divmod(Polynomial.x_pow_minus_const(base, n, 1), min_poly)
        assert not remainder  # min poly | X^n - 1, exactly
        assert power(m, n) == identity(base, n)  # sigma^n = id

        report = case.report
        for a in report.entries:
            for b in report.entries:
                ab = a.eigenvector * b.eigenvector
                lam_mu = a.eigenvalue * b.eigenvalue
                assert ctx.sigma(ab) == ab * lam_mu  # sigma(ab) = lambda*mu*ab
        assert report.m == n
        assert all(e.dimension == 1 for e in report.entries)

        fixed = nullspace(shift(m, 1))
        one_vector = tuple(base.one() if j == 0 else base.zero() for j in range(n))
        assert fixed == [one_vector]  # fixed space = span{1}

        x = case.cert.x
        assert ctx.sigma(x**n) == x**n  # sigma fixes x^n
    print(f"ACCEPTANCE 4 stepwise property suite on {len(cases)} sweep cases: PASS")


def test_criterion_5_negative_paths():
    with pytest.raises(NoPrimitiveRoot):
        frobenius_family(5, 3)

    good = frobenius_family(5, 2)
    with pytest.raises(AutomorphismOrderMismatch):
        validate_setup(CyclicExtensionInput(good.ext_field, 2, good.zeta, good.ext_field.gen()))

    with pytest.raises(NotAnAutomorphism):
        validate_setup(CyclicExtensionInput(good.ext_field, 2, good.zeta, good.ext_field.gen() + 1))

    cert = compute_certificate(validate_setup(frobenius_family(13, 4)))
    cert.c = cert.c + 1
    ok, failures = verify_certificate_report(cert)
    assert not ok and failures
    print("ACCEPTANCE 5 negative-path coverage: PASS")


def test_criterion_6_determinism(capsys):
    argv = ["finite", "--p", "13", "--n", "4", "--format", "json"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()
    json.loads(first)  # well-formed

    assert main(["selftest", "--max-p", "13", "--max-n", "6"]) == 0
    serial = capsys.readouterr().out
    assert main(["selftest", "--max-p", "13", "--max-n", "6", "--jobs", "3"]) == 0
    pooled = capsys.readouterr().out
    assert serial == pooled
    print("ACCEPTANCE 6 determinism (byte-identical reruns, pool-size independence): PASS")


def test_criterion_7_resolvent_cross_check(sweep):
    cases, _ = sweep
    checked = 0
    for case in cases:
        ctx = case.ctx
        alpha = ctx.ext_field.gen()
        x = case.cert.x
        seeds = (alpha, alpha + 1, alpha**2, alpha**2 + alpha, alpha + 2)
        for seed in seeds:
            r = lagrange_resolvent(ctx, seed)
            if not r:
                continue
            stacked = Matrix(ctx.base_field, [list(r.coords), list(x.coords)])
            assert rref(stacked).rank == 1, f"(p={case.p}, n={case.n}) resolvent not parallel to x"
            checked += 1
    assert checked > len(cases)  # plenty of nonzero resolvents exist
    print(f"ACCEPTANCE 7 resolvent cross-check ({checked} nonzero resolvents): PASS")
