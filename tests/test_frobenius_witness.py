"""An F_p certificate's Kummer witness proves E a field while it is parsed.

When a certificate's base is a prime field, ``ExtensionField`` first offers
its witness (n, zeta, s, x) to ``polynomials.kummer_frobenius``: deg f = n,
zeta of exact order n, s = X^p mod f, and x^n a nonzero constant c with
c^((p-1)/n) = zeta prove f irreducible, so no Rabin test runs and Q is
built only if read. Otherwise the Rabin test runs as before. Here:

* a witness verify makes no Rabin test, no substitution matrix and no dot
  product, and two residue powers (X^p and x^n), which share the one fold
  table built for the modulus; an off-witness one (a random x, or
  s = X^(p^3) mod f) runs the Rabin test once;
* with the probe patched to fail, CLI ``verify`` prints the same bytes and
  exits with the same code on every tamper-corpus mutation and on every
  certificate of a prime p < 200 with n | p - 1, n <= 12, and its variants;
* reducible moduli with would-be witnesses are rejected as before, and a
  hypothesis property checks that the probe accepts only irreducible f
  (sympy's factorization is the oracle).
"""

import json
import random
import sys
from dataclasses import replace
from unittest import mock

import pytest
import sympy
from hypothesis import event, given, settings, strategies as st

from kummerkit import serialize, tower
from kummerkit.cli import main
from kummerkit.families import frobenius_family
from kummerkit.kummer import CHECK_NAMES, CyclicExtensionInput, certify, verify_certificate_report
from kummerkit.polynomials import Polynomial, kummer_frobenius, poly_pow_mod
from kummerkit.scalars import PrimeField
from kummerkit.tower import ExtensionField

from test_polynomials import sympy_irreducible
from test_tamper import INSTANCES as TAMPER_INSTANCES, corpus_mutations
from test_verify_witness import random_element, variants

COUNTED = ("rabin_frobenius", "substitution_matrix", "raw_mat_apply", "poly_pow_mod", "_build_fold_table")


@pytest.fixture
def calls(monkeypatch):
    """Calls of each COUNTED function, through every kummerkit namespace
    that holds it (the Rabin test imports linalg's names when it runs)."""
    calls = dict.fromkeys(COUNTED, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "kummerkit"]:
        for name in COUNTED:
            if name in vars(module):
                monkeypatch.setattr(module, name, counting(name, vars(module)[name]))
    return calls


def cli_verify(doc, tmp_path, capsys, fmt="json"):
    """(exit code, stdout) of CLI verify on a certificate document."""
    path = tmp_path / "cert.json"
    path.write_text(doc if isinstance(doc, str) else serialize.canonical_dumps(doc))
    code = main(["verify", str(path), "--format", fmt])
    return code, capsys.readouterr().out


def cli_verify_both_ways(doc, tmp_path, capsys, fmt="json"):
    """CLI verify's (exit code, stdout) as is, and with the probe failing."""
    got = cli_verify(doc, tmp_path, capsys, fmt)
    with mock.patch.object(tower, "kummer_frobenius", lambda *args: None):
        return got, cli_verify(doc, tmp_path, capsys, fmt)


def cert_text(cert) -> str:
    return serialize.canonical_dumps(serialize.certificate_to_json(cert))


# -- counts ---------------------------------------------------------------------


@pytest.mark.parametrize("p,n", [(97, 16), (17, 8), (13, 4), (5, 1)])
def test_witness_verify_runs_no_rabin_test_and_no_matrix(p, n, calls, tmp_path, capsys):
    cert = certify(frobenius_family(p, n))
    for doc, ok in ((cert_text(cert), True), (cert_text(replace(cert, c=cert.c + 1)), False)):
        calls.update(dict.fromkeys(calls, 0))
        code, out = cli_verify(doc, tmp_path, capsys)
        assert (code, json.loads(out)["outcome"]) == ((0, "valid") if ok else (2, "invalid"))
        assert calls == {
            "rabin_frobenius": 0,
            "substitution_matrix": 0,
            "raw_mat_apply": 0,
            "poly_pow_mod": 2,
            "_build_fold_table": 1,
        }


def test_off_witness_verify_runs_the_rabin_test_once(calls, tmp_path, capsys):
    inp = frobenius_family(97, 16)
    ext = inp.ext_field
    cert = certify(inp)
    random_x = replace(cert, x=random_element(ext, random.Random(97)))
    cube = certify(CyclicExtensionInput(ext, 16, inp.zeta, ext.gen() ** 97**3))  # sigma^3, of order 16
    assert cube.is_valid() and cube.input.sigma_image.coords != ext.frobenius_image
    for other, outcome in ((random_x, "invalid"), (cube, "valid")):
        calls["rabin_frobenius"] = 0
        code, out = cli_verify(cert_text(other), tmp_path, capsys)
        assert json.loads(out)["outcome"] == outcome
        assert calls["rabin_frobenius"] == 1


def test_a_witness_field_equals_the_rabin_field():
    for p, n in [(97, 16), (13, 4), (5, 1)]:
        inp = frobenius_family(p, n)
        rabin = inp.ext_field
        cert = certify(inp)
        witness = (n, cert.input.zeta.value, [c.value for c in inp.sigma_image.coords], [c.value for c in cert.x.coords])
        ext = ExtensionField(rabin.base, rabin.modulus, witness)
        assert ext.kummer_witness == (cert.x.coords, cert.c) and rabin.kummer_witness is None
        assert ext.proven_field and ext.frobenius_image == rabin.frobenius_image
        assert ext._frobenius is None  # Q is built on first read
        assert ext.frobenius == rabin.frobenius and ext.frobenius is ext.frobenius


def test_the_recorded_x_pow_n_serves_only_its_own_x():
    cert = serialize.certificate_from_json(json.loads(cert_text(certify(frobenius_family(97, 16)))))
    assert cert.input.ext_field.kummer_witness is not None
    assert verify_certificate_report(cert) == (True, [])
    ok, failures = verify_certificate_report(replace(cert, x=cert.x * 2))  # (2x)^16 != c
    assert not ok and "x^n = c" in failures


# -- the Rabin path, forced, prints the same bytes -----------------------------


@pytest.mark.parametrize("name", sorted(TAMPER_INSTANCES))
def test_tamper_corpus_same_bytes_without_the_probe(name, tmp_path, capsys):
    for key, doc in corpus_mutations(name):
        got, rabin = cli_verify_both_ways(doc, tmp_path, capsys)
        assert got == rabin, key


SWEEP = [(p, n) for p in range(3, 200) if sympy.isprime(p) for n in range(1, 13) if (p - 1) % n == 0]


@pytest.mark.parametrize("p,n", SWEEP, ids=[f"{p}-{n}" for p, n in SWEEP])
def test_sweep_same_bytes_without_the_probe(p, n, tmp_path, capsys):
    for variant in variants(certify(frobenius_family(p, n)), random.Random(p * 100 + n)):
        got, rabin = cli_verify_both_ways(cert_text(variant), tmp_path, capsys)
        assert got == rabin


# -- soundness -------------------------------------------------------------------


def document(p, modulus, n, zeta, image, x):
    """A certificate document over F_p with every flag claimed true."""
    field = PrimeField(p)
    c = poly_pow_mod(Polynomial(field, x), n, Polynomial(field, modulus)).padded(1)[0].value
    return {
        "input": {
            "base": {"kind": "prime", "p": str(p)},
            "n": n,
            "zeta": str(zeta % p),
            "modulus": [str(v % p) for v in modulus],
            "sigma_image": [str(v % p) for v in image],
        },
        "eigen": [{"i": i, "eigenvalue": str(pow(zeta, i, p)), "dimension": 1} for i in range(n)],
        "x": [str(v % p) for v in x],
        "c": str(c),
        "x_min_poly": [str(-c % p)] + ["0"] * (n - 1) + ["1"],
        "checks": dict.fromkeys(CHECK_NAMES, True),
        "version": "1",
    }


def _root(p, modulus, n, c):
    """The first x of degree < deg f with x^n = c that is no constant, with
    the coordinates of x read as the digits of an int in base p."""
    field, d = PrimeField(p), len(modulus) - 1
    f = Polynomial(field, modulus)
    for k in range(p, p**d):
        x = [k // p**i % p for i in range(d)]
        if poly_pow_mod(Polynomial(field, x), n, f) == Polynomial(field, [c]):
            return x


# (X - 2)(X - 5) over F_13, where X^13 = X: the residue ring is F_13 x F_13
SPLIT = [10, -7, 1]
# F_3[X]/((X^2 + 1)(X^2 + X + 2)) = F_9 x F_9
F9_F9 = [2, 1, 0, 1, 1]
REDUCIBLE = {
    # x = (1, -1) in F_13 x F_13, x^2 = 1 = c, a square: c^6 = 1 != zeta
    "split-square": document(13, SPLIT, 2, -1, [0, 1], _root(13, SPLIT, 2, 1)),
    # the same x with zeta = 1, whose order is 1, not 2: c^6 = 1 = zeta
    "split-zeta-order-1": document(13, SPLIT, 2, 1, [0, 1], _root(13, SPLIT, 2, 1)),
    # x^2 = -1 = zeta in F_9 x F_9 and s = X^3 mod f: every premise holds
    # but deg f = n, as n = 2 < 4
    "deg-f-not-n": document(3, F9_F9, 2, -1, [0, 0, 0, 1], _root(3, F9_F9, 2, -1)),
    # X^3 - 2 over F_5, where 3 does not divide 4, so every element is a cube
    # (2 = 3^3): x = X, c = 2 and zeta = 2 = c^(4 // 3), of order 4, not 3
    "n-not-dividing-p-1": document(5, [3, 0, 0, 1], 3, 2, [0, 0, 2], [0, 1]),
}


@pytest.mark.parametrize("name", sorted(REDUCIBLE))
def test_reducible_modulus_rejected_as_before(name, tmp_path, capsys):
    doc = REDUCIBLE[name]
    modulus = [int(v) for v in doc["input"]["modulus"]]
    assert not sympy_irreducible(modulus, int(doc["input"]["base"]["p"]))
    for fmt in ("json", "text"):
        got, rabin = cli_verify_both_ways(doc, tmp_path, capsys, fmt)
        assert got == rabin
    code, out = got
    assert code == 3 and "ReducibleModulus" not in out  # wrapped as a malformed certificate
    assert out.startswith("error: MalformedCertificate: certificate does not match the schema: ")
    assert out.rstrip().endswith("is reducible over GF(%s)" % doc["input"]["base"]["p"])


@st.composite
def probes(draw):
    """(p, f, n, zeta, s, x): f monic of degree n over F_p, p < 500, n | p - 1,
    n <= 8, reducible or not. Half the f are binomials X^n - c, whose
    Kummer generator is X. Each of x, zeta and s is honest or random: x is
    X or random, zeta is c'^((p-1)/n) when x^n is a constant c', and s is
    X^p mod f (by sympy). Half the cases are honest in all three."""
    p = draw(st.sampled_from([q for q in range(3, 500) if sympy.isprime(q)]))
    n = draw(st.sampled_from([m for m in range(1, 9) if (p - 1) % m == 0]))
    coeff = st.integers(0, p - 1)
    binomial, all_honest = draw(st.booleans()), draw(st.booleans())

    def honest():
        return all_honest or draw(st.booleans())

    f = [draw(coeff)] + [0] * (n - 1) + [1] if binomial else draw(st.lists(coeff, min_size=n, max_size=n)) + [1]
    field = PrimeField(p)
    modulus = Polynomial(field, f)
    x = [0, 1] if binomial and n > 1 and honest() else draw(st.lists(coeff, min_size=n, max_size=n))
    x_to_n = poly_pow_mod(Polynomial(field, x), n, modulus)
    zeta = pow(x_to_n.coeffs[0].value, (p - 1) // n, p) if x_to_n.degree == 0 and honest() else draw(coeff)
    if honest():
        X = sympy.Symbol("X")
        rem = sympy.Poly(X**p, X, modulus=p).rem(sympy.Poly(list(reversed(f)), X, modulus=p))
        s = [int(v) for v in reversed(rem.all_coeffs())]
    else:
        s = draw(st.lists(coeff, min_size=n, max_size=n))
    return p, f, n, zeta, s, x


@settings(max_examples=300, deadline=None)
@given(probes())
def test_probe_accepts_only_irreducible_moduli(case):
    p, f, n, zeta, s, x = case
    field = PrimeField(p)
    modulus = Polynomial(field, f)
    proof = kummer_frobenius(modulus, n, zeta, s, x)
    event("accepted" if proof else "rejected")
    if proof is not None:
        assert sympy_irreducible(f, p)
        x_to_p, (coords, c) = proof
        assert x_to_p == Polynomial(field, s).padded(n) == poly_pow_mod(Polynomial.x(field), p, modulus).padded(n)
        assert coords == Polynomial(field, x).padded(n) and c
