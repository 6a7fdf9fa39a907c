"""Command-line surface: build instances, run the pipeline, verify
certificates, run sweeps.

Exit codes: 0 valid, 1 hypothesis/validation rejection, 2 property failure
(invalid certificate or internal invariant breach), 3 parse/IO/flag errors.
JSON output is canonical and contains no timing, so identical inputs yield
byte-identical bytes; timings appear in the text format only.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path

from . import serialize
from .errors import InputFormatError, KummerError, ParseError, ScalarTooLarge, ValidationError
from .families import builtin_cubic_over_eisenstein, frobenius_family, parse_tower_spec
from .kummer import KummerCertificate, compute_certificate, validate_setup, verify_certificate, verify_certificate_report
from .polynomials import Polynomial
from .scalars import PrimeField, is_prime


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kummerkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    finite = sub.add_parser("finite", help="certify F_(p^n)/F_p with the Frobenius automorphism")
    finite.add_argument("--p", type=int, required=True, help="prime characteristic")
    finite.add_argument("--n", type=int, required=True, help="extension degree (must divide p-1)")
    finite.add_argument("--modulus", help="comma-separated coefficients, degree-ascending (default: lex-first irreducible)")
    _common_flags(finite)

    tower = sub.add_parser("tower", help="certify an instance described by a tower-spec JSON file")
    tower.add_argument("spec", help="path to the tower-spec document, or 'builtin-cubic'")
    _common_flags(tower)

    verify = sub.add_parser("verify", help="re-derive every property of a certificate file")
    verify.add_argument("certificate", help="path to a certificate JSON file")
    _common_flags(verify)

    selftest = sub.add_parser("selftest", help="sweep all (p, n) with p prime <= max-p and n | p-1, n <= max-n")
    selftest.add_argument("--max-p", type=int, required=True)
    selftest.add_argument("--max-n", type=int, default=8)
    selftest.add_argument("--jobs", type=int, default=1, help="worker processes, at most the CPU count (results are merged in (p, n) order)")
    _common_flags(selftest)
    return parser


def _common_flags(cmd: argparse.ArgumentParser):
    cmd.add_argument("--format", choices=("text", "json"), default="text")
    cmd.add_argument("--out", help="write the report here instead of stdout")


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit_error(exc: KummerError, fmt: str, out: str | None):
    code = type(exc).__name__
    if fmt == "json":
        _write(serialize.canonical_dumps({"outcome": "error", "error": {"code": code, "message": str(exc)}}), out)
    else:
        _write(f"error: {code}: {exc}\n", out)


def _format_certificate_text(cert: KummerCertificate, timings: dict[str, int]) -> str:
    lines = [
        f"K: {cert.input.base_field}",
        f"E: {cert.input.ext_field}",
        f"n: {cert.input.n}",
        f"zeta: {cert.input.zeta}",
        f"sigma_image: {cert.input.sigma_image}",
        "eigen:",
    ]
    for e in cert.eigen.entries:
        lines.append(f"  i={e.i} eigenvalue={e.eigenvalue} dimension={e.dimension}")
    lines += [
        f"x: {cert.x}",
        f"c: {cert.c}",
        f"x_min_poly: {cert.x_min_poly}",
        "checks:",
    ]
    for name, value in cert.checks.items():
        lines.append(f"  {name}: {'true' if value else 'false'}")
    lines.append(f"outcome: {'valid' if cert.is_valid() else 'invalid'}")
    lines.append("timings_ms: " + " ".join(f"{k}={v}" for k, v in timings.items()))
    return "\n".join(lines) + "\n"


def _render_certificate(cert: KummerCertificate, fmt: str, timings: dict[str, int]) -> str:
    try:
        if fmt == "json":
            return serialize.canonical_dumps(serialize.certificate_to_json(cert))
        return _format_certificate_text(cert, timings)
    except ValueError as exc:  # str() of an int past the interpreter's digit limit
        raise ScalarTooLarge("the certificate has a scalar past the interpreter's digit limit for integer string conversion") from exc


def _run_pipeline(build_input, fmt: str, out: str | None) -> int:
    try:
        t0 = time.perf_counter_ns()
        inp = build_input()
        t1 = time.perf_counter_ns()
        ctx = validate_setup(inp)
        t2 = time.perf_counter_ns()
        cert = compute_certificate(ctx)
        t3 = time.perf_counter_ns()
        timings = {"build": t1 - t0, "validate": t2 - t1, "certificate": t3 - t2}
        text = _render_certificate(cert, fmt, {stage: ns // 1_000_000 for stage, ns in timings.items()})
    except InputFormatError as exc:
        _emit_error(exc, fmt, out)
        return 3
    except ValidationError as exc:
        _emit_error(exc, fmt, out)
        return 1
    except KummerError as exc:
        _emit_error(exc, fmt, out)
        return 2
    _write(text, out)
    return 0 if cert.is_valid() else 2


def cmd_finite(args) -> int:
    def build():
        base = PrimeField(args.p)
        modulus = None
        if args.modulus is not None:
            try:
                coeffs = [int(part.strip()) for part in args.modulus.split(",")]
            except ValueError as exc:
                raise ParseError(f"--modulus must be comma-separated integers, got {args.modulus!r}") from exc
            modulus = Polynomial(base, coeffs)
        return frobenius_family(base, args.n, modulus)

    return _run_pipeline(build, args.format, args.out)


def _read_document(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def cmd_tower(args) -> int:
    def build():
        if args.spec == "builtin-cubic":
            return builtin_cubic_over_eisenstein()
        return parse_tower_spec(_read_document(args.spec))

    return _run_pipeline(build, args.format, args.out)


def cmd_verify(args) -> int:
    try:
        cert = serialize.certificate_from_json(serialize.loads(_read_document(args.certificate)))
        ok, failures = verify_certificate_report(cert)
    except InputFormatError as exc:
        _emit_error(exc, args.format, args.out)
        return 3
    except KummerError as exc:  # say NotInvertible: the certificate's K or E is not a field
        _emit_error(exc, args.format, args.out)
        return 2
    if args.format == "json":
        payload = {"outcome": "valid" if ok else "invalid", "failures": failures}
        _write(serialize.canonical_dumps(payload), args.out)
    elif ok:
        _write("certificate valid: every property re-derived\n", args.out)
    else:
        _write("certificate invalid: failed properties:\n" + "".join(f"  {f}\n" for f in failures), args.out)
    return 0 if ok else 2


def _selftest_case(pair: tuple[int, int]) -> tuple[int, int, bool, str]:
    p, n = pair
    try:
        cert = compute_certificate(validate_setup(frobenius_family(p, n)))
        if not cert.is_valid():
            bad = [name for name, v in cert.checks.items() if not v]
            return p, n, False, "false flags: " + ",".join(bad)
        if not verify_certificate(cert):
            return p, n, False, "verification failed"
        return p, n, True, ""
    except KummerError as exc:
        return p, n, False, f"{type(exc).__name__}: {exc}"


def cmd_selftest(args) -> int:
    for flag, value, least in (("max-p", args.max_p, 3), ("max-n", args.max_n, 1), ("jobs", args.jobs, 1)):
        if value < least:
            sys.stderr.write(f"selftest needs --{flag} >= {least}\n")
            return 1
    pairs = [
        (p, n)
        for p in range(2, args.max_p + 1)
        if is_prime(p)
        for n in range(1, args.max_n + 1)
        if (p - 1) % n == 0
    ]
    jobs = min(args.jobs, os.cpu_count() or 1)
    if jobs > 1:
        # imported only here: with the multiprocessing the pool loads, about
        # 2 MB of resident memory that no other command needs
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_selftest_case, pairs))
    else:
        results = [_selftest_case(pair) for pair in pairs]
    passed = sum(1 for _, _, ok, _ in results if ok)
    if args.format == "json":
        payload = {
            "cases": [{"p": p, "n": n, "ok": ok, "detail": detail} for p, n, ok, detail in results],
            "passed": passed,
            "total": len(results),
        }
        _write(serialize.canonical_dumps(payload), args.out)
    else:
        lines = [f"p={p} n={n} {'ok' if ok else 'FAIL ' + detail}" for p, n, ok, detail in results]
        lines.append(f"passed {passed}/{len(results)} cases")
        _write("\n".join(lines) + "\n", args.out)
    return 0 if passed == len(results) else 2


def _merge_value_flags(argv: list[str]) -> list[str]:
    # let --modulus take values that begin with "-" (negative coefficients)
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--modulus":
            val = next(it, None)
            out.append(tok if val is None else f"--modulus={val}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_value_flags(list(argv))
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 3
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    handlers = {
        "finite": cmd_finite,
        "tower": cmd_tower,
        "verify": cmd_verify,
        "selftest": cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except OSError as exc:  # an IO error, say an --out that cannot be written
        sys.stderr.write(f"error: {exc}\n")
        return 3


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
