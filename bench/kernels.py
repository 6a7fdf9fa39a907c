"""Timings of the field kernels, over F_p and over QQ towers, standard library only.

Usage, from the repository root:

    python3 bench/kernels.py --out BENCH_28.json [--quick] [--tree LABEL=DIR ...]

Each ``--tree`` is a checkout whose ``src/kummerkit`` is imported under a
name of its own, so several trees load side by side in one process; with
none, the checkout holding this script is timed, labelled "this tree". The
first tree is loaded a second time, labelled "control", and timed like the
others: its ratio to the first tree is what the host's noise alone gives.
Kernels, for each (p, d) of the grid, with f = (X + 1)^d - c irreducible of
degree d over F_p (c^((p-1)/d) has exact order d, so X^d - c is
irreducible), whose coefficients are all nonzero:

* ``E multiply``: ``ExtensionElement.__mul__`` of two dense elements of
  F_p[X]/(f), that is one ``raw_mul_mod`` plus one unbox and one box, on a
  field whose modulus has already been multiplied by;
* ``poly_pow_mod X^p``: X^p mod f on a fresh copy of f (its construction
  timed too), as the Rabin test computes it for every candidate modulus;
* ``poly_pow_mod x^n``: y^d mod f for a dense y, on a modulus already used;
* ``kummer_frobenius``: the witness check that a verify runs while it
  parses an F_p certificate (X^p and x^n, x = X + 1), on a fresh copy of f
  (its construction timed too);
* ``substitution_matrix``: the matrix whose column j is (X^p)^j mod f, as
  the Rabin test builds Q after X^p, on a modulus already multiplied by;
* ``certificate_from_json``: the parse of a certificate document over F_p
  with modulus f, x = X + 1, c and x_min_poly X^d - c, as verify reads it:
  every leaf once, and E proven a field by the Kummer witness (X^p and
  x^n) on a fresh copy of f;
* ``E inverse``: ``ExtensionElement.inverse`` of a dense element of
  F_p[X]/(f), the extended Euclid of its representative and f;
* ``default_modulus``: the lex-first irreducible of degree n over F_p.

Six more kernels run over QQ towers, E = K[X]/(f): Shanks' simplest
cubic over K = QQ(zeta_3) and the simplest quartic over K = QQ(i), at an a
of 1, 20 and 40 digits (20 only with ``--quick``), where x is the radical
generator that certify finds, dense but for its first coordinate 1:

* ``tower multiply``: ``ExtensionElement.__mul__`` of x and x + alpha;
* ``tower x^n``: x^n, n = 3 or 4, as verify computes c;
* ``tower sigma``: ``mat_apply`` of sigma's matrix to x's coordinates,
  one application of sigma as ``ValidatedContext.sigma`` makes it;
* ``tower sigma (first)``: the same on a fresh copy of sigma's matrix
  (``Matrix._of_raw`` of its raw rows), so that each call also builds the
  matrix's int form, as the first application of sigma in a request does;
* ``tower inverse``: the inverse in K of an element whose two coordinates
  are rationals with numerator and denominator of as many digits as a, as
  ``extract_radical_generator`` takes one to scale x (``rref`` takes none
  over a K proven a field);
* ``tower eigenspace``: ``nullspace`` of M - zeta I over K, M sigma's
  matrix, as ``eigen_spectrum`` takes the kernel for the eigenvalue of x.

Each kernel runs in rounds of enough calls to last ``ROUND_S``, the trees
taking turns round by round, in an order that alternates, so that a host
whose speed drifts slows every tree alike. The best and the median round
give the time per call, and ``median_ratio`` divides each tree's median by
the first tree's. ``speedups`` divides the first tree's median by each
other tree's, the control's included. ``--quick`` runs the smallest grid.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

WIDE_P = 2417851639229258349405569  # prime, 1 mod 128, 81 bits: slots wider than one word
GRID = [(1201, d) for d in (2, 4, 8, 16)] + [(p, d) for p in (7681, WIDE_P) for d in (2, 4, 8, 16, 32, 64, 128)]
QUICK_GRID = [(7681, 2), (7681, 4), (WIDE_P, 4)]
MODULUS_CASES = [(12289, 64)]
QUICK_MODULUS_CASES = [(97, 8)]
TOWER_A = {1: 7, 20: 10**19 + 9, 40: 10**39 + 3}  # digits: a
TOWER_CASES = [(family, digits) for family in ("cubic", "quartic") for digits in TOWER_A]
QUICK_TOWER_CASES = [("cubic", 20), ("quartic", 20)]
FP_KERNELS = (
    "E multiply",
    "poly_pow_mod X^p",
    "poly_pow_mod x^n",
    "kummer_frobenius",
    "substitution_matrix",
    "certificate_from_json",
    "E inverse",
)
TOWER_KERNELS = ("tower multiply", "tower x^n", "tower sigma", "tower sigma (first)", "tower inverse", "tower eigenspace")
ROUNDS = 21
ROUND_S = 0.02


def load(root: Path, name: str):
    """The kummerkit of the checkout root, imported as the package name."""
    package = root / "src" / "kummerkit"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def round_length(calls) -> int:
    """Calls per round: k doubles until k calls last ROUND_S."""
    k = 1
    while True:
        start = time.perf_counter()
        calls(k)
        if time.perf_counter() - start >= ROUND_S or k >= 1 << 16:
            return k
        k *= 2


def time_per_call(calls_by_tree: list) -> list:
    """Best and median microseconds per call of each tree's ``calls(k)``,
    which makes k calls, over ROUNDS rounds taken in turn."""
    lengths = [round_length(calls) for calls in calls_by_tree]
    rounds = [[] for _ in calls_by_tree]
    for r in range(ROUNDS):
        order = range(len(calls_by_tree)) if r % 2 == 0 else reversed(range(len(calls_by_tree)))
        for i in order:
            start = time.perf_counter()
            calls_by_tree[i](lengths[i])
            rounds[i].append((time.perf_counter() - start) / lengths[i])
    return [
        {"best_us": min(t) * 1e6, "median_us": statistics.median(t) * 1e6, "calls_per_round": k}
        for t, k in zip(rounds, lengths)
    ]


def instance(p: int, d: int) -> tuple[list, int, int]:
    """(coefficients of f = (X + 1)^d - c, c, zeta = c^((p-1)/d)) for the
    least c >= 2 whose zeta has exact order d."""
    primes = [q for q in range(2, d + 1) if d % q == 0 and all(q % r for r in range(2, q))]
    for c in range(2, p):
        zeta = pow(c, (p - 1) // d, p)
        if all(pow(zeta, d // q, p) != 1 for q in primes):
            break
    binomial, coeffs = 1, []
    for k in range(d + 1):  # the coefficient of X^k in (X + 1)^d
        coeffs.append(binomial % p)
        binomial = binomial * (d - k) // (k + 1)
    coeffs[0] = (coeffs[0] - c) % p
    return coeffs, c, zeta


def certificate(kk, p: int, d: int, coeffs: list, c: int, zeta: int, image: list) -> dict:
    """The certificate document of x = X + 1 over F_p[X]/(f), all from ints."""
    return {
        "input": {
            "base": {"kind": "prime", "p": str(p)},
            "n": d,
            "zeta": str(zeta),
            "modulus": [str(v) for v in coeffs],
            "sigma_image": [str(v) for v in image],
        },
        "eigen": [{"i": i, "eigenvalue": str(pow(zeta, i, p)), "dimension": 1} for i in range(d)],
        "x": ["1", "1"],
        "c": str(c),
        "x_min_poly": [str(-c % p)] + ["0"] * (d - 1) + ["1"],
        "checks": dict.fromkeys(kk.kummer.CHECK_NAMES, True),
        "version": kk.kummer.CERTIFICATE_VERSION,
    }


def kernels(kk, p: int, d: int) -> list:
    """The FP_KERNELS of one tree at (p, d), as functions of k."""
    Polynomial, poly_pow_mod = kk.polynomials.Polynomial, kk.polynomials.poly_pow_mod
    field = kk.scalars.PrimeField(p)
    coeffs, c, zeta = instance(p, d)
    rng = random.Random(f"{p}-{d}")
    f = Polynomial(field, coeffs)
    image = poly_pow_mod(Polynomial.x(field), p, f).padded(d)
    witness = (d, zeta, [c.value for c in image], [1, 1])
    ext = kk.tower.ExtensionField(field, f, witness)
    assert ext.kummer_witness is not None, (p, d)
    document = certificate(kk, p, d, coeffs, c, zeta, witness[2])
    assert kk.serialize.certificate_from_json(document).input.ext_field.kummer_witness is not None, (p, d)
    a, b = (ext.element([rng.randrange(p) for _ in range(d)]) for _ in range(2))
    y = Polynomial(field, [rng.randrange(p) for _ in range(d)])
    a * b  # the field's modulus has been multiplied by

    def e_multiply(k):
        for _ in range(k):
            a * b

    def x_to_p(k):
        for g in [Polynomial(field, coeffs) for _ in range(k)]:
            poly_pow_mod(Polynomial.x(field), p, g)

    def x_to_n(k):
        for _ in range(k):
            poly_pow_mod(y, d, f)

    def witness_check(k):
        for g in [Polynomial(field, coeffs) for _ in range(k)]:
            assert kk.polynomials.kummer_frobenius(g, *witness) is not None

    def q_matrix(k):
        for _ in range(k):
            kk.linalg.substitution_matrix(field, f, image)

    def parse_certificate(k):
        for _ in range(k):
            kk.serialize.certificate_from_json(document)

    def e_inverse(k):
        for _ in range(k):
            a.inverse()

    return [e_multiply, x_to_p, x_to_n, witness_check, q_matrix, parse_certificate, e_inverse]


def default_modulus_calls(kk, p: int, n: int):
    field = kk.scalars.PrimeField(p)
    return lambda k: [kk.families.default_modulus(field, n) for _ in range(k)]


def tower_kernels(kk, family: str, digits: int) -> list:
    """The TOWER_KERNELS of one tree, as functions of k, for Shanks' cubic
    over QQ(zeta_3) or the simplest quartic over QQ(i) at TOWER_A[digits]."""
    QQ, Polynomial, a = kk.scalars.RationalField(), kk.polynomials.Polynomial, TOWER_A[digits]
    if family == "cubic":  # sigma(alpha) = -1/(1 + alpha)
        k_field = kk.tower.ExtensionField(QQ, Polynomial(QQ, [1, 1, 1]))
        ext = kk.tower.ExtensionField(k_field, Polynomial(k_field, [-1, -(a + 3), -a, 1]))
        image = -1 / (1 + ext.gen())
    else:  # sigma(alpha) = (alpha - 1)/(alpha + 1)
        k_field = kk.tower.ExtensionField(QQ, Polynomial(QQ, [1, 0, 1]))
        ext = kk.tower.ExtensionField(k_field, Polynomial(k_field, [1, a, -6, -a, 1]))
        image = (ext.gen() - 1) / (ext.gen() + 1)
    n = ext.degree
    inp = kk.kummer.CyclicExtensionInput(ext, n, k_field.gen(), image)
    x = kk.kummer.certify(inp).x
    matrix = kk.kummer.validate_setup(inp).matrix
    y = x + ext.gen()
    assert all(x.coords[1:]) and all(y.coords), (family, a)
    rng = random.Random(f"{family}-{digits}")
    sizes = [rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(4)]
    pivot = k_field.element([Fraction(-sizes[0], sizes[1]), Fraction(sizes[2], sizes[3])])
    shifted = [list(row) for row in matrix.raw_rows]
    for j, row in enumerate(shifted):
        row[j] -= inp.zeta
    eigen = kk.linalg.Matrix._of_raw(k_field, shifted)
    assert len(kk.linalg.nullspace(eigen)) == 1, (family, a)

    def multiply(k):
        for _ in range(k):
            x * y

    def x_to_n(k):
        for _ in range(k):
            x**n

    def sigma(k):
        for _ in range(k):
            kk.linalg.mat_apply(matrix, x.coords)

    def first_sigma(k):
        for fresh in [kk.linalg.Matrix._of_raw(k_field, matrix.raw_rows) for _ in range(k)]:
            kk.linalg.mat_apply(fresh, x.coords)

    def k_inverse(k):
        for _ in range(k):
            pivot.inverse()

    def eigenspace(k):
        for _ in range(k):
            kk.linalg.nullspace(eigen)

    return [multiply, x_to_n, sigma, first_sigma, k_inverse, eigenspace]


def results(trees: list, quick: bool) -> list:
    """One row per kernel and case, with each tree's timing under its label."""
    labels = [label for label, _ in trees]
    cases = []
    for p, d in QUICK_GRID if quick else GRID:
        per_tree = [kernels(kk, p, d) for _, kk in trees]
        cases += [(name, {"p": p, "d": d}, [calls[j] for calls in per_tree]) for j, name in enumerate(FP_KERNELS)]
    for p, n in QUICK_MODULUS_CASES if quick else MODULUS_CASES:
        cases.append(("default_modulus", {"p": p, "d": n}, [default_modulus_calls(kk, p, n) for _, kk in trees]))
    for family, digits in QUICK_TOWER_CASES if quick else TOWER_CASES:
        per_tree = [tower_kernels(kk, family, digits) for _, kk in trees]
        case = {"family": family, "a_digits": digits}
        cases += [(name, case, [calls[j] for calls in per_tree]) for j, name in enumerate(TOWER_KERNELS)]
    out = []
    for name, case, calls_by_tree in cases:
        timings = time_per_call(calls_by_tree)
        for t in timings:
            t["median_ratio"] = round(t["median_us"] / timings[0]["median_us"], 3)
        out.append({"kernel": name, **case, **dict(zip(labels, timings))})
        medians = ", ".join(f"{label} {t['median_us']:.1f} ({t['median_ratio']:.2f})" for label, t in zip(labels, timings))
        where = " ".join(f"{key}={value}" for key, value in case.items())
        print(f"{name:18} {where}: median us (ratio) {medians}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="the smallest grid")
    parser.add_argument("--out", required=True, help="where to write the JSON")
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=DIR", help="a checkout to time")
    args = parser.parse_args(argv)
    specs = [tree.split("=", 1) for tree in args.tree] or [["this tree", Path(__file__).resolve().parents[1]]]
    if "control" in (label for label, _ in specs):
        parser.error("the label 'control' names the first tree's second copy")
    specs.append(["control", specs[0][1]])
    trees = [(label, load(Path(root), f"kummerkit_tree{i}")) for i, (label, root) in enumerate(specs)]
    rows = results(trees, args.quick)
    first = trees[0][0]
    doc = {
        "about": "Time per call of the field kernels (bench/kernels.py) in microseconds: the best and the median "
        f"of {ROUNDS} rounds per tree, the trees taking turns. 'control' is the first tree loaded a second "
        "time. 'median_ratio' divides each tree's median by the first tree's, and 'speedups' divides the "
        "first tree's median by each other tree's, so the control's figures show the noise.",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "grid": "quick" if args.quick else "full",
        "trees": [label for label, _ in trees],
        "results": rows,
        "speedups": {
            label: [
                {**{key: r[key] for key in r if key not in dict(trees)}, "speedup": round(r[first]["median_us"] / r[label]["median_us"], 2)}
                for r in rows
            ]
            for label, _ in trees[1:]
        },
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
