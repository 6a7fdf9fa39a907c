"""The four workloads: seeded instance lists, the request files made from
them, and the per-request correctness gate.

An instance list is plain data drawn from ``random.Random(f"{workload}:{seed}")``
alone, so a seed replays a run exactly. Requests are argument lists for
``kummerkit.cli.main`` plus the files they read and write; the program sees
nothing else.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import fp

WORKLOADS = ("certify-n16", "verify-n16", "sweep-small", "qq-tower")

N16_PRIMES = [p for p in range(17, 2000) if fp.is_prime(p) and p % 16 == 1]
CERTIFY_PER_PASS = 4
TAMPER_KINDS = ("c_plus_1", "eigen_dimension", "flag_false")
SWEEP_NS = range(2, 9)
SWEEP_BUCKETS = [(4000 * k // 12, 4000 * (k + 1) // 12) for k in range(12)]
QQ_DIGIT_STRATA = [(d, d + 3) for d in range(1, 41, 4)]
JSON_FLAGS = ["--format", "json"]


@dataclass
class Request:
    """One closed-loop request: one or two CLI calls, timed together."""

    instance: dict
    steps: list  # argv lists for cli.main
    expect: list  # expected exit code of each step
    outputs: list  # files the steps write, one per step
    reads: list = field(default_factory=list)  # program-made files the steps read


def _n16_instance(rng: random.Random) -> dict:
    p = rng.choice(N16_PRIMES)
    return {"p": p, "n": 16, "modulus": fp.random_irreducible(rng, p, 16)}


def instances(workload: str, seed: int) -> list[dict]:
    """The seeded instance list of one pass, in request order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify-n16":
        return [_n16_instance(rng) for _ in range(CERTIFY_PER_PASS)]
    if workload == "verify-n16":
        # two certificates, each made once in set-up, verified as A, B, A and
        # one tampered copy: 1 request in 4 must be rejected
        a, b = _n16_instance(rng), _n16_instance(rng)
        tampered = dict(rng.choice([a, b]))
        kind = rng.choice(TAMPER_KINDS)
        tampered["tamper"] = {"kind": kind, "index": rng.randrange(16 if kind == "eigen_dimension" else 10)}
        return [a, b, a, tampered]
    if workload == "sweep-small":
        # one instance per (N, P range); the order cycles through N and shifts
        # the P range, so any stretch of a pass mixes cheap and costly cases
        out = []
        for k in range(len(SWEEP_NS) * len(SWEEP_BUCKETS)):
            n = SWEEP_NS[k % len(SWEEP_NS)]
            lo, hi = SWEEP_BUCKETS[(k // len(SWEEP_NS) + 5 * (k % len(SWEEP_NS))) % len(SWEEP_BUCKETS)]
            primes = [p for p in range(max(lo, 2), hi) if (p - 1) % n == 0 and fp.is_prime(p)]
            out.append({"p": rng.choice(primes), "n": n})
        return out
    if workload == "qq-tower":
        out = []
        for lo, hi in QQ_DIGIT_STRATA:
            for family in ("cubic", "quartic"):
                digits = rng.randint(lo, hi)
                while True:
                    a = rng.randrange(10 ** (digits - 1), 10**digits)
                    if not (family == "quartic" and a == 3):
                        break
                out.append({"family": family, "a": str(a)})
        return out
    raise ValueError(f"unknown workload {workload!r}")


def tamper(doc: dict, spec: dict) -> dict:
    """A copy of a certificate document made invalid by construction."""
    doc = json.loads(json.dumps(doc))
    kind, index = spec["kind"], spec["index"]
    if kind == "c_plus_1":
        p = int(doc["input"]["base"]["p"])
        doc["c"] = str((int(doc["c"]) + 1) % p)
    elif kind == "eigen_dimension":
        doc["eigen"][index]["dimension"] += 1
    elif kind == "flag_false":
        doc["checks"][list(doc["checks"])[index]] = False
    else:
        raise ValueError(f"unknown tamper kind {kind!r}")
    return doc


def _finite_argv(inst: dict, out: Path) -> list[str]:
    argv = ["finite", "--p", str(inst["p"]), "--n", str(inst["n"])]
    if "modulus" in inst:
        argv += ["--modulus", ",".join(map(str, inst["modulus"]))]
    return argv + JSON_FLAGS + ["--out", str(out)]


def _qq_input(kk, family: str, a: int):
    """Shanks' simplest cubic over QQ(zeta_3), sigma(alpha) = -1/(1+alpha), or
    the simplest quartic over QQ(i), sigma(alpha) = (alpha-1)/(alpha+1)."""
    rationals = kk.RationalField()
    if family == "cubic":
        k_field = kk.ExtensionField(rationals, kk.Polynomial(rationals, [1, 1, 1]))
        ext = kk.ExtensionField(k_field, kk.Polynomial(k_field, [-1, -(a + 3), -a, 1]))
        alpha = ext.gen()
        return kk.CyclicExtensionInput(ext, 3, k_field.gen(), -1 / (1 + alpha))
    k_field = kk.ExtensionField(rationals, kk.Polynomial(rationals, [1, 0, 1]))
    ext = kk.ExtensionField(k_field, kk.Polynomial(k_field, [1, a, -6, -a, 1]))
    alpha = ext.gen()
    return kk.CyclicExtensionInput(ext, 4, k_field.gen(), (alpha - 1) / (alpha + 1))


def materialize(workload: str, insts: list[dict], workdir: Path, kk) -> list[Request]:
    """Write the files the requests read and return the requests.

    ``kk`` is the imported kummerkit package. For verify-n16 the program under
    test makes the certificates here, before anything is timed.
    """
    requests = []
    made = {}  # verify-n16: (p, modulus) -> certificate file
    for k, inst in enumerate(insts):
        out = workdir / f"{k}.out.json"
        if workload in ("certify-n16", "sweep-small"):
            requests.append(Request(inst, [_finite_argv(inst, out)], [0], [out]))
        elif workload == "verify-n16":
            key = (inst["p"], tuple(inst["modulus"]))
            if key not in made:
                made[key] = workdir / f"genuine-{len(made)}.json"
                code = kk.cli.main(_finite_argv(inst, made[key]))
                if code != 0:
                    raise RuntimeError(f"making the certificate for {inst} exited {code}")
            cert = made[key]
            if "tamper" in inst:
                cert = workdir / f"{k}.tampered.json"
                doc = tamper(json.loads(made[key].read_text()), inst["tamper"])
                cert.write_text(json.dumps(doc, indent=2, ensure_ascii=True) + "\n")
            expect = 2 if "tamper" in inst else 0
            steps = [["verify", str(cert)] + JSON_FLAGS + ["--out", str(out)]]
            requests.append(Request(inst, steps, [expect], [out], [cert]))
        elif workload == "qq-tower":
            spec = workdir / f"{k}.spec.json"
            inp = _qq_input(kk, inst["family"], int(inst["a"]))
            spec.write_text(kk.serialize.canonical_dumps(kk.serialize.input_to_json(inp)))
            cert = workdir / f"{k}.cert.json"
            steps = [
                ["tower", str(spec)] + JSON_FLAGS + ["--out", str(cert)],
                ["verify", str(cert)] + JSON_FLAGS + ["--out", str(out)],
            ]
            requests.append(Request(inst, steps, [0, 0], [cert, out]))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return requests


# -- correctness gate ----------------------------------------------------------

def check_fp_certificate(doc: dict, p: int, n: int, modulus: list[int] | None) -> list[str]:
    """Re-check an F_p Frobenius certificate with fp's own arithmetic.

    Returns the problems found (empty when the certificate holds): the echoed
    instance is the requested one, zeta has order n, sigma_image is X^p mod f,
    x != 0, x^n = c and sigma(x) = x^p = zeta*x, all modulo (p, f).
    """
    problems = []
    inp = doc["input"]
    if inp["base"] != {"kind": "prime", "p": str(p)} or inp["n"] != n:
        problems.append("echoed base field or n differs from the request")
    f = [int(c) for c in inp["modulus"]]
    if modulus is not None and f != modulus:
        problems.append("echoed modulus differs from the request")
    if modulus is None and not (len(f) == n + 1 and fp.is_irreducible(f, p)):
        problems.append("default modulus is not a monic irreducible of degree n")
    zeta = int(inp["zeta"])
    if not fp.has_order(zeta, n, p):
        problems.append("zeta does not have order n")
    frobenius = fp.pow_mod([0, 1], p, f, p)
    if fp.trim([int(c) for c in inp["sigma_image"]]) != frobenius:
        problems.append("sigma_image is not X^p mod f")
    x = fp.trim([int(c) for c in doc["x"]])
    if not x:
        problems.append("x = 0")
    if fp.pow_mod(x, n, f, p) != fp.trim([int(doc["c"]) % p]):
        problems.append("x^n != c")
    if fp.pow_mod(x, p, f, p) != fp.scale(x, zeta, p):
        problems.append("sigma(x) != zeta*x")
    if not _all_flags_true(doc):
        problems.append("a certificate flag is not true")
    return problems


def _all_flags_true(cert: dict) -> bool:
    return len(cert["checks"]) == 10 and all(v is True for v in cert["checks"].values())


def check(workload: str, req: Request, codes: list, outputs: list) -> list[str]:
    """Problems with one request's result; empty when it passes the gate.

    ``codes`` holds the exit code of each step run, ``outputs`` the bytes of
    each file in ``req.outputs`` (None when missing).
    """
    if codes != req.expect:
        return [f"exit codes {codes}, expected {req.expect}"]
    if any(b is None for b in outputs):
        return ["an output file is missing"]
    try:
        docs = [json.loads(b) for b in outputs]
        inst = req.instance
        if workload in ("certify-n16", "sweep-small"):
            return check_fp_certificate(docs[0], inst["p"], inst["n"], inst.get("modulus"))
        if workload == "verify-n16":
            report = docs[0]
            if "tamper" in inst:
                ok = report["outcome"] == "invalid" and report["failures"]
                return [] if ok else ["a tampered certificate was not rejected"]
            problems = [] if report == {"outcome": "valid", "failures": []} else ["verify did not report valid"]
            cert = json.loads(req.reads[0].read_bytes())
            return problems + check_fp_certificate(cert, inst["p"], inst["n"], inst["modulus"])
        if workload == "qq-tower":
            cert, report = docs
            problems = [] if report == {"outcome": "valid", "failures": []} else ["verify did not report valid"]
            if not _all_flags_true(cert):
                problems.append("a certificate flag is not true")
            if cert["input"]["n"] != (3 if inst["family"] == "cubic" else 4):
                problems.append("echoed n differs from the family")
            return problems
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"output does not parse as expected: {exc!r}"]
    raise ValueError(f"unknown workload {workload!r}")
