"""CLI contract tests: exit codes, canonical output, tamper triage.

Handlers are invoked through main(argv) so exit codes and output can be
asserted directly; one test drives the installed console path end to end.
"""

import concurrent.futures
import importlib
import itertools
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from kummerkit import cli, scalars, serialize
from kummerkit.cli import main
from kummerkit.errors import ParseError
from kummerkit.scalars import MR_EXACT_BOUND
from kummerkit.families import builtin_cubic_over_eisenstein

from test_determinism import simplest_quartic
from test_tamper import replaced


def child_env():
    """This environment with the directory this kummerkit was imported from
    first on PYTHONPATH, so a child interpreter runs the same code, whether
    or not the package is installed."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFinite:
    def test_json_run(self, capsys):
        code, out, _ = run(capsys, "finite", "--p", "13", "--n", "4", "--modulus", "-2,0,0,0,1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["x"] == ["0", "0", "0", "1"]
        assert doc["c"] == "8"
        assert all(doc["checks"].values())

    def test_text_run_reports_flags(self, capsys):
        code, out, _ = run(capsys, "finite", "--p", "5", "--n", "2")
        assert code == 0
        assert "outcome: valid" in out
        assert "hypotheses_ok: true" in out

    def test_no_primitive_root(self, capsys):
        code, out, _ = run(capsys, "finite", "--p", "5", "--n", "3")
        assert code == 1
        assert "NoPrimitiveRoot" in out

    def test_n_below_one(self, capsys):
        code, out, _ = run(capsys, "finite", "--p", "7", "--n", "0")
        assert code == 1
        assert out == "error: ValidationError: n must be >= 1, got 0\n"

    def test_not_prime(self, capsys):
        code, out, _ = run(capsys, "finite", "--p", "4", "--n", "1")
        assert code == 1
        assert "NotPrime" in out

    @pytest.mark.parametrize("modulus", [[], ["--modulus", "-2,0,0,0,1"]])
    def test_primality_is_tested_once(self, capsys, monkeypatch, modulus):
        calls = []
        is_prime = scalars.is_prime
        monkeypatch.setattr(scalars, "is_prime", lambda n: calls.append(n) or is_prime(n))
        code, _, _ = run(capsys, "finite", "--p", "13", "--n", "4", *modulus, "--format", "json")
        assert code == 0
        assert calls == [13]

    def test_reducible_modulus(self, capsys):
        code, out, _ = run(capsys, "finite", "--p", "5", "--n", "2", "--modulus", "-1,0,1")
        assert code == 1
        assert "ReducibleModulus" in out

    def test_malformed_modulus_flag(self, capsys):
        code, out, _ = run(capsys, "finite", "--p", "5", "--n", "2", "--modulus", "1,x,1")
        assert code == 3

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "finite", "--p", "5", "--n", "2", "--frobnicate")
        assert code == 3
        assert "usage error" in err

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "finite", "--p", "13", "--n", "4", "--format", "json")
        _, second, _ = run(capsys, "finite", "--p", "13", "--n", "4", "--format", "json")
        assert first.encode() == second.encode()

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        code, out, _ = run(capsys, "finite", "--p", "5", "--n", "2", "--format", "json", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["c"]

    def test_text_and_json_report_identical_flags(self, capsys):
        _, text_out, _ = run(capsys, "finite", "--p", "13", "--n", "4")
        _, json_out, _ = run(capsys, "finite", "--p", "13", "--n", "4", "--format", "json")
        json_flags = json.loads(json_out)["checks"]
        text_flags = {}
        for line in text_out.splitlines():
            line = line.strip()
            for name in json_flags:
                if line.startswith(f"{name}: "):
                    text_flags[name] = line.split(": ")[1] == "true"
        assert text_flags == json_flags


class TestTower:
    def test_builtin_cubic(self, capsys):
        code, out, _ = run(capsys, "tower", "builtin-cubic")
        assert code == 0
        assert "outcome: valid" in out

    def test_spec_file(self, capsys, tmp_path):
        inp = builtin_cubic_over_eisenstein()
        spec = tmp_path / "cubic.json"
        spec.write_text(serialize.canonical_dumps(serialize.input_to_json(inp)))
        code, out, _ = run(capsys, "tower", str(spec), "--format", "json")
        assert code == 0
        assert all(json.loads(out)["checks"].values())

    @pytest.mark.parametrize(
        "p,code_name",
        [(318665857834031151167461, "NotPrime"), (MR_EXACT_BOUND + 2, "PrimeTooLarge")],
        ids=["psi12-pseudoprime", "beyond-psi13"],
    )
    def test_unproven_or_composite_characteristic_rejected(self, capsys, tmp_path, p, code_name):
        # n = 2, zeta = -1, modulus X^2 - 2, sigma(alpha) = -alpha: valid if p were prime
        doc = {
            "base": {"kind": "prime", "p": str(p)},
            "n": 2,
            "zeta": str(p - 1),
            "modulus": [str(p - 2), "0", "1"],
            "sigma_image": ["0", str(p - 1)],
        }
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "tower", str(spec), "--format", "json")
        assert code == 1
        assert json.loads(out)["error"]["code"] == code_name

    def test_identity_automorphism_rejected(self, capsys, tmp_path):
        doc = {
            "base": {"kind": "prime", "p": "13"},
            "n": 3,
            "zeta": "3",
            "modulus": ["11", "0", "0", "1"],  # X^3 + 11 = X^3 - 2
            "sigma_image": ["0", "1", "0"],  # alpha itself: order 1, not 3
        }
        spec = tmp_path / "identity.json"
        spec.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "tower", str(spec))
        assert code == 1
        assert "AutomorphismOrderMismatch" in out

    def test_a_root_of_the_modulus_that_is_no_automorphism_rejected(self, capsys, tmp_path):
        doc = {
            "base": {"kind": "rationals"},
            "n": 2,
            "zeta": "-1",
            "modulus": ["0", "0", "1"],  # X^2, of which 0 is a root
            "sigma_image": ["0", "0"],  # alpha -> 0: sigma^2(alpha) = 0
        }
        spec = tmp_path / "square-zero.json"
        spec.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "tower", str(spec))
        assert code == 1
        assert out == "error: AutomorphismOrderMismatch: sigma^2(alpha) != alpha\n"

    def test_missing_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, "tower", str(tmp_path / "absent.json"))
        assert code == 3

    def test_undecodable_file(self, capsys, tmp_path):
        spec = tmp_path / "binary.json"
        spec.write_bytes(b"\x9e\xff{}")
        code, out, _ = run(capsys, "tower", str(spec))
        assert code == 3
        assert out.startswith("error: ParseError: cannot read")


class TestHostileDocuments:
    @pytest.mark.parametrize("command", ["tower", "verify"])
    def test_deeply_nested_json_is_a_parse_error(self, capsys, tmp_path, command):
        doc = tmp_path / "deep.json"
        doc.write_text("[" * 100000 + "]" * 100000)
        code, out, _ = run(capsys, command, str(doc))
        assert (code, out) == (3, "error: ParseError: invalid JSON: nested too deeply\n")
        code, out, _ = run(capsys, command, str(doc), "--format", "json")
        assert code == 3
        assert json.loads(out)["error"] == {"code": "ParseError", "message": "invalid JSON: nested too deeply"}

    @pytest.mark.parametrize("command", ["tower", "verify"])
    def test_every_tower_nesting_depth_exits_3(self, capsys, tmp_path, command):
        # a field spec of d nested extension levels over F_13, the lowest four
        # valid (each X over the one below), is too tall at every d >= 4 and a
        # parse error once json.loads refuses it. Where that happens, and where
        # a recursive walk of the levels would meet the recursion limit, depends
        # on the stack: the sweep runs until loads refuses here, in the test.
        four, one = {"kind": "prime", "p": "13"}, "1"
        for _ in range(4):
            four = {"kind": "extension", "base": four, "modulus": [[] if isinstance(one, list) else "0", one]}
            one = [one]
        if command == "tower":
            doc = serialize.input_to_json(builtin_cubic_over_eisenstein())
            too_tall = ("SchemaViolation", "tower would have height 4, cap is 3")
        else:
            code, out, _ = run(capsys, "finite", "--p", "13", "--n", "4", "--format", "json")
            assert code == 0
            doc = json.loads(out)
            too_tall = ("MalformedCertificate", "certificate does not match the schema: tower would have height 4, cap is 3")
        too_deep = ("ParseError", "invalid JSON: nested too deeply")
        path = tmp_path / "deep.json"
        for depth in itertools.count(4):
            spec = '{"kind": "extension", "modulus": [], "base": ' * (depth - 4) + json.dumps(four) + "}" * (depth - 4)
            if command == "tower":
                text = json.dumps({**doc, "base": "SPEC"})
            else:
                text = json.dumps({**doc, "input": {**doc["input"], "base": "SPEC"}})
            text = text.replace('"SPEC"', spec)
            try:
                serialize.loads(text)
                allowed = (too_tall, too_deep)
            except ParseError:
                allowed = (too_deep,)
            path.write_text(text)
            code, out, err = run(capsys, command, str(path))
            assert (code, err) == (3, ""), depth
            assert out in ["error: %s: %s\n" % e for e in allowed], depth
            code, out, err = run(capsys, command, str(path), "--format", "json")
            assert (code, err) == (3, ""), depth
            error = json.loads(out)["error"]
            assert (error["code"], error["message"]) in allowed, depth
            if allowed == (too_deep,):
                break

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="this interpreter writes ints of any size")
    def test_scalar_past_the_digit_limit_is_rejected(self, capsys, tmp_path):
        # a 1100-digit a parses, but the certificate's scalars pass the
        # interpreter's 4300-digit limit for int-to-str conversion
        spec = tmp_path / "quartic.json"
        spec.write_text(serialize.canonical_dumps(serialize.input_to_json(simplest_quartic(10**1099 + 7))))
        message = "the certificate has a scalar past the interpreter's digit limit for integer string conversion"
        code, out, err = run(capsys, "tower", str(spec))
        assert (code, out, err) == (1, f"error: ScalarTooLarge: {message}\n", "")
        code, out, err = run(capsys, "tower", str(spec), "--format", "json")
        assert (code, err) == (1, "")
        assert json.loads(out)["error"] == {"code": "ScalarTooLarge", "message": message}


    # a leaf respelt as another kind (a scalar as a JSON number, a count as a
    # string or a bool), with the message of the reader that refuses it
    README_SPEC = {
        "base": {"kind": "prime", "p": "13"},
        "n": 4,
        "zeta": "5",
        "modulus": ["11", "0", "0", "0", "1"],
        "sigma_image": ["0", "8", "0", "0"],
    }
    SPEC_LEAVES = [
        (("base", "p"), 13, "field characteristic must be a decimal string, got 13"),
        (("n",), "4", "n must be a JSON integer, got '4'"),
        (("n",), True, "n must be a JSON integer, got True"),
        (("zeta",), 5, "prime-field element must be a decimal string, got 5"),
        (("modulus", 0), 11, "prime-field element must be a decimal string, got 11"),
        (("sigma_image", 1), 8, "prime-field element must be a decimal string, got 8"),
    ]
    CERTIFICATE_LEAVES = [(("input",) + path, value, message) for path, value, message in SPEC_LEAVES] + [
        (("eigen", 1, "i"), "1", "eigenvalue exponent must be a JSON integer, got '1'"),
        (("eigen", 1, "dimension"), True, "eigenspace dimension must be a JSON integer, got True"),
        (("eigen", 1, "eigenvalue"), 5, "prime-field element must be a decimal string, got 5"),
        (("x", 3), 1, "prime-field element must be a decimal string, got 1"),
        (("c",), 8, "prime-field element must be a decimal string, got 8"),
        (("x_min_poly", 4), 1, "prime-field element must be a decimal string, got 1"),
    ]

    def _assert_rejected(self, capsys, path, command, code_name, message):
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (3, f"error: {code_name}: {message}\n", "")
        code, out, err = run(capsys, command, str(path), "--format", "json")
        assert (code, err) == (3, "")
        assert json.loads(out)["error"] == {"code": code_name, "message": message}

    @pytest.mark.parametrize("leaf,value,message", SPEC_LEAVES)
    def test_a_spec_leaf_of_the_wrong_kind_exits_3(self, capsys, tmp_path, leaf, value, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(replaced(self.README_SPEC, leaf, value)))
        self._assert_rejected(capsys, path, "tower", "SchemaViolation", message)

    def test_the_readme_spec_written_in_json_numbers_exits_3(self, capsys, tmp_path):
        doc = {"base": {"kind": "prime", "p": 13}, "n": 4, "zeta": 5, "modulus": [11, 0, 0, 0, 1], "sigma_image": [0, 8, 0, 0]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        self._assert_rejected(capsys, path, "tower", "SchemaViolation", self.SPEC_LEAVES[0][2])

    def test_a_rational_written_as_a_json_number_exits_3(self, capsys, tmp_path):
        doc = serialize.input_to_json(builtin_cubic_over_eisenstein())
        doc["zeta"][1] = 1
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        self._assert_rejected(capsys, path, "tower", "SchemaViolation", "rational must be a string like 'num/den', got 1")

    @pytest.mark.parametrize("leaf,value,message", CERTIFICATE_LEAVES)
    def test_a_certificate_leaf_of_the_wrong_kind_exits_3(self, capsys, tmp_path, leaf, value, message):
        code, out, _ = run(capsys, "finite", "--p", "13", "--n", "4", "--format", "json")
        assert code == 0
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(replaced(json.loads(out), leaf, value)))
        message = f"certificate does not match the schema: {message}"
        self._assert_rejected(capsys, path, "verify", "MalformedCertificate", message)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="this interpreter reads ints of any size")
    @pytest.mark.parametrize("command", ["tower", "verify"])
    def test_integer_literal_past_the_digit_limit_is_a_parse_error(self, capsys, tmp_path, command):
        # json.loads raises a bare ValueError for it, not a JSONDecodeError
        if command == "tower":
            doc = serialize.input_to_json(builtin_cubic_over_eisenstein())
            doc["n"] = "LONG"
        else:
            code, out, _ = run(capsys, "finite", "--p", "13", "--n", "4", "--format", "json")
            assert code == 0
            doc = {**json.loads(out), "extra": "LONG"}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc).replace('"LONG"', "1" + "0" * 5000))
        message = f"invalid JSON: an integer literal past {sys.get_int_max_str_digits()} digits"
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (3, f"error: ParseError: {message}\n", "")
        code, out, err = run(capsys, command, str(path), "--format", "json")
        assert (code, err) == (3, "")
        assert json.loads(out)["error"] == {"code": "ParseError", "message": message}


class TestVerify:
    @pytest.fixture()
    def cert_file(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        code, _, _ = run(capsys, "finite", "--p", "13", "--n", "4", "--format", "json", "--out", str(path))
        assert code == 0
        return path

    def test_fresh_certificate(self, capsys, cert_file):
        code, out, _ = run(capsys, "verify", str(cert_file))
        assert code == 0
        assert "valid" in out

    def test_tampered_c(self, capsys, cert_file):
        doc = json.loads(cert_file.read_text())
        doc["c"] = str((int(doc["c"]) + 1) % 13)
        cert_file.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(cert_file))
        assert code == 2
        assert "x^n = c" in out

    def test_certificate_over_pseudoprime_rejected(self, capsys, cert_file):
        doc = json.loads(cert_file.read_text())
        doc["input"]["base"]["p"] = "318665857834031151167461"
        cert_file.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(cert_file), "--format", "json")
        assert code == 3
        error = json.loads(out)["error"]
        assert error["code"] == "MalformedCertificate" and "is not prime" in error["message"]

    def test_json_format(self, capsys, cert_file):
        code, out, _ = run(capsys, "verify", str(cert_file), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"] == "valid" and doc["failures"] == []

    def test_empty_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        code, _, _ = run(capsys, "verify", str(empty))
        assert code == 3

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", str(tmp_path / "none.json"))
        assert code == 3

    def test_unreadable_file_reported_as_json(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", str(tmp_path / "none.json"), "--format", "json")
        assert code == 3
        doc = json.loads(out)
        assert doc["outcome"] == "error" and doc["error"]["code"] == "ParseError"
        assert doc["error"]["message"].startswith("cannot read")

    def test_undecodable_file(self, capsys, tmp_path):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\x9e\xff{}")
        code, out, _ = run(capsys, "verify", str(binary))
        assert code == 3
        assert out.startswith("error: ParseError: cannot read")

    def test_malformed_certificate_in_both_formats(self, capsys, cert_file):
        doc = json.loads(cert_file.read_text())
        doc["version"] = "0"
        cert_file.write_text(json.dumps(doc))
        code, text_out, _ = run(capsys, "verify", str(cert_file))
        assert code == 3
        assert text_out == "error: MalformedCertificate: unsupported certificate version '0'\n"
        code, json_out, _ = run(capsys, "verify", str(cert_file), "--format", "json")
        assert code == 3
        assert json.loads(json_out)["error"] == {
            "code": "MalformedCertificate",
            "message": "unsupported certificate version '0'",
        }

    def test_text_lists_every_failing_property(self, capsys, cert_file):
        doc = json.loads(cert_file.read_text())
        doc["c"] = str((int(doc["c"]) + 1) % 13)
        doc["checks"]["c_in_base"] = False
        cert_file.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(cert_file))
        assert code == 2
        assert out == (
            "certificate invalid: failed properties:\n"
            "  x^n = c\n"
            "  binomial factorization\n"
            "  all stored flags true\n"
        )
        _, json_out, _ = run(capsys, "verify", str(cert_file), "--format", "json")
        assert json.loads(json_out)["failures"] == ["x^n = c", "binomial factorization", "all stored flags true"]

    def test_certificate_over_a_ring_that_is_not_a_field(self, capsys, cert_file):
        # K = QQ[t]/(t^2 - 1) is not a field, which validate_setup cannot see;
        # eigenspace elimination meets the zero divisor t - 1 and raises
        # NotInvertible, which verify reports instead of a traceback
        doc = json.loads(cert_file.read_text())
        doc["input"] = {
            "base": {"kind": "extension", "base": {"kind": "rationals"}, "modulus": ["-1", "0", "1"]},
            "n": 2,
            "zeta": ["-1", "0"],
            "modulus": [["-3", "0"], ["0", "0"], ["1", "0"]],
            "sigma_image": [["0", "0"], ["0", "1"]],  # alpha -> t*alpha
        }
        doc["x"] = [["0", "0"], ["1", "0"]]
        doc["c"] = ["3", "0"]
        doc["x_min_poly"] = [["-3", "0"], ["0", "0"], ["1", "0"]]
        doc["eigen"] = []
        cert_file.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(cert_file), "--format", "json")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "NotInvertible"
        assert err == ""


class TestSelftest:
    def test_small_sweep_lists_expected_pairs(self, capsys):
        code, out, _ = run(capsys, "selftest", "--max-p", "13", "--max-n", "6")
        assert code == 0
        for pair in ["p=3 n=2", "p=5 n=4", "p=7 n=6", "p=11 n=5", "p=13 n=4", "p=13 n=6"]:
            assert f"{pair} ok" in out
        assert "p=13 n=12" not in out
        assert out.strip().endswith("passed 18/18 cases")

    def test_trivial_sweep(self, capsys):
        code, out, _ = run(capsys, "selftest", "--max-p", "3", "--max-n", "1")
        assert code == 0
        assert "p=2 n=1 ok" in out and "p=3 n=1 ok" in out

    def test_usage_error_below_minimum(self, capsys):
        code, _, err = run(capsys, "selftest", "--max-p", "2")
        assert code == 1
        assert "max-p" in err

    @pytest.mark.parametrize("max_n", ["0", "-3"])
    def test_empty_sweep_rejected(self, capsys, max_n):
        code, out, err = run(capsys, "selftest", "--max-p", "13", "--max-n", max_n)
        assert code == 1 and out == ""
        assert "max-n" in err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        code, out, err = run(capsys, "selftest", "--max-p", "13", "--jobs", jobs)
        assert code == 1 and out == ""
        assert "jobs" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "selftest", "--max-p", "7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] == doc["total"] == len(doc["cases"])

    def test_jobs_capped_at_cpu_count(self, capsys, monkeypatch):
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        code, out, _ = run(capsys, "selftest", "--max-p", "7", "--max-n", "2", "--jobs", "1000")
        assert code == 0 and pools == [2]
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        code, pooled_none, _ = run(capsys, "selftest", "--max-p", "7", "--max-n", "2", "--jobs", "1000")
        assert code == 0 and pools == [2]  # unknown CPU count: run serially
        assert pooled_none == out

    def test_worker_pool_summary_identical(self, capsys):
        _, serial, _ = run(capsys, "selftest", "--max-p", "13", "--max-n", "6")
        _, pooled, _ = run(capsys, "selftest", "--max-p", "13", "--max-n", "6", "--jobs", "4")
        assert serial == pooled


class TestUnwritableOut:
    """An --out path that cannot be written is an IO error: exit 3, one
    line on stderr, no traceback and nothing on stdout."""

    @pytest.fixture(params=["missing-directory", "directory"])
    def out(self, request, tmp_path):
        return str(tmp_path / "missing" / "x.json" if request.param == "missing-directory" else tmp_path)

    def check(self, capsys, out, *argv):
        code, stdout, err = run(capsys, *argv, "--out", out)
        assert (code, stdout) == (3, "")
        assert err.startswith("error: ") and out in err and err.count("\n") == 1

    def test_finite(self, capsys, out):
        self.check(capsys, out, "finite", "--p", "13", "--n", "4")

    def test_finite_rejection(self, capsys, out):
        self.check(capsys, out, "finite", "--p", "5", "--n", "3", "--format", "json")

    def test_tower(self, capsys, out):
        self.check(capsys, out, "tower", "builtin-cubic")

    def test_verify(self, capsys, out, tmp_path):
        cert = tmp_path / "cert.json"
        assert run(capsys, "finite", "--p", "13", "--n", "4", "--format", "json", "--out", str(cert))[0] == 0
        self.check(capsys, out, "verify", str(cert))

    def test_selftest(self, capsys, out):
        self.check(capsys, out, "selftest", "--max-p", "5")


class TestLargePrime:
    def test_small_n_over_a_ten_digit_prime(self):
        # neither the root-of-unity search nor the default-modulus search may
        # cost O(p) time or memory; a regression hits the address-space cap
        # or the timeout here instead of exhausting the host
        def cap_memory():
            limit = 1 << 30
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "kummerkit.cli", "finite", "--p", "1000000007", "--n", "2", "--format", "json"],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=cap_memory,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["input"]["zeta"] == "1000000006"
        assert doc["input"]["modulus"] == ["1", "0", "1"]  # X^2 + 1


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kummerkit.cli", "finite", "--p", "5", "--n", "2", "--format", "json"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["c"] == "2"

    def test_console_script_exits_with_mains_code(self, monkeypatch):
        # the [project.scripts] target of pyproject.toml, read without
        # tomllib, which Python 3.10 lacks
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        scripts = {}
        for line in section.splitlines():
            name, eq, value = line.partition("=")
            if eq:
                scripts[name.strip()] = value.strip().strip('"')
        module, _, attr = scripts["kummerkit"].partition(":")
        entry = getattr(importlib.import_module(module), attr)
        for argv, code in ((["finite", "--p", "13", "--n", "4", "--format", "json"], 0), (["finite", "--p", "13"], 3)):
            monkeypatch.setattr(sys, "argv", ["kummerkit", *argv])
            with pytest.raises(SystemExit) as exited:
                entry()
            assert exited.value.code == main(argv) == code
