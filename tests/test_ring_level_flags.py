"""The flags read off validate_setup against the computations they replace.

Once validate_setup has passed, three checks hold or fail by facts true over
any commutative K, and the pipeline takes their values from those facts:

* closure is a test on the report's exponents, where it multiplied every
  pair of eigenvectors in E and applied sigma to the product;
* the root orbit is sigma(x) = zeta*x, where it applied sigma to every
  zeta^i * x;
* sigma^n = id, where check_diagonalizability computed the operator's
  minimal polynomial and M^n.

The replaced computations are kept here as oracles and run on every
instance of the witness sweep with its x variants, on the inputs whose K or E
is not a field and on the nilpotent ones.
"""

import random
from types import SimpleNamespace

import pytest

from kummerkit.families import frobenius_family
from kummerkit.kummer import (
    EigenEntry,
    EigenReport,
    _is_proven_field,
    certify,
    check_diagonalizability,
    check_gamma_closure,
    eigen_spectrum,
    validate_setup,
)

from test_verify_witness import NILPOTENT, NOT_FIELDS, SWEEP, variants


def pairwise_closure(ctx, report):
    """The closure check as it was: for each unordered pair of eigenvectors,
    sigma(a*b) = lambda*mu * a*b and lambda*mu is in the spectrum."""
    entries = report.entries
    eigenvalues = [e.eigenvalue for e in entries]
    for k, a in enumerate(entries):
        for b in entries[k:]:
            product = a.eigenvector * b.eigenvector
            lam_mu = a.eigenvalue * b.eigenvalue
            if ctx.sigma(product) != product * lam_mu:
                return False
            if lam_mu not in eigenvalues:
                return False
    return True


def root_orbit_transitive(ctx, x):
    """The orbit check as it was: sigma maps zeta^i * x to zeta^(i+1) * x
    for every i."""
    return all(ctx.sigma(x * ctx.zeta_pow(i)) == x * ctx.zeta_pow(i + 1) for i in range(ctx.n))


@pytest.mark.parametrize("n", range(1, 9))
def test_closure_is_the_pairwise_test_on_every_set_of_exponents(n):
    # the check compares the exponents with the subgroup that their gcd with
    # n generates; the definition tests all m^2 sums
    ctx = SimpleNamespace(n=n)
    for bits in range(1 << n):
        exponents = [i for i in range(n) if bits >> i & 1]
        report = EigenReport(tuple(EigenEntry(i, None, 1) for i in exponents))
        pairwise = all((i + j) % n in exponents for i in exponents for j in exponents)
        assert check_gamma_closure(ctx, report) == pairwise, exponents


def sub_reports(report):
    """The report, each report with one entry dropped, and each proper prefix:
    reports that are closed and reports that are not."""
    entries = report.entries
    yield report
    for k in range(len(entries)):
        yield EigenReport(entries[:k] + entries[k + 1 :])
        yield EigenReport(entries[:k])


def assert_ring_level_flags(inp, rng):
    ctx = validate_setup(inp)
    report = eigen_spectrum(ctx, ctx.matrix)
    for sub in sub_reports(report):
        assert check_gamma_closure(ctx, sub) == pairwise_closure(ctx, sub)
    cert = certify(inp)
    xs = [variant.x for variant in variants(cert, rng)] + [e.eigenvector for e in report.entries]
    for x in xs:
        assert root_orbit_transitive(ctx, x) == (ctx.sigma(x) == x * ctx.zeta_pow(1))
    if _is_proven_field(ctx.base_field):
        assert check_diagonalizability(ctx, ctx.matrix)[0]


@pytest.mark.parametrize("p,n", SWEEP, ids=[f"{p}-{n}" for p, n in SWEEP])
def test_sweep(p, n):
    assert_ring_level_flags(frobenius_family(p, n), random.Random(p * 100 + n))


RINGS = {**NOT_FIELDS, **NILPOTENT}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_inputs_that_are_not_fields(name):
    assert_ring_level_flags(RINGS[name](), random.Random(name))

