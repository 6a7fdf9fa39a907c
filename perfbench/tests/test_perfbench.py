"""Tests of the benchmark itself: input generation, the correctness gate, the
certificate digest and the span wrappers.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import fp  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import kummerkit  # noqa: E402
import kummerkit.cli  # noqa: E402
from kummerkit import PrimeField, Polynomial, is_irreducible_mod_p  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_instances_are_deterministic_per_seed(workload):
    first = workloads.instances(workload, 7)
    assert first == workloads.instances(workload, 7)
    assert first != workloads.instances(workload, 8)
    json.dumps(first)  # plain data, echoed as JSON


def test_instances_follow_the_workload_definitions():
    for seed in range(3):
        for inst in workloads.instances("certify-n16", seed):
            assert inst["p"] < 2000 and inst["p"] % 16 == 1 and fp.is_prime(inst["p"])
            assert fp.is_irreducible(inst["modulus"], inst["p"]) and len(inst["modulus"]) == 17
        verify = workloads.instances("verify-n16", seed)
        assert [("tamper" in inst) for inst in verify] == [False, False, False, True]
        assert verify[0] == verify[2] and {k: v for k, v in verify[3].items() if k != "tamper"} in verify[:2]
        for inst in workloads.instances("sweep-small", seed):
            assert fp.is_prime(inst["p"]) and inst["p"] < 4000
            assert 2 <= inst["n"] <= 8 and (inst["p"] - 1) % inst["n"] == 0
        for inst in workloads.instances("qq-tower", seed):
            a = int(inst["a"])
            assert 1 <= a <= 10**40
            assert not (inst["family"] == "quartic" and a == 3)


def test_fp_irreducibility_agrees_with_kummerkit():
    field = PrimeField(5)
    for tail in itertools.product(range(5), repeat=3):
        f = list(tail) + [1]
        assert fp.is_irreducible(f, 5) == is_irreducible_mod_p(Polynomial(field, f))


def _verify(cert_path, out_path):
    code = kummerkit.cli.main(["verify", str(cert_path), "--format", "json", "--out", str(out_path)])
    return code, json.loads(out_path.read_text())


def test_every_tampered_certificate_is_rejected(tmp_path):
    inst = workloads.instances("verify-n16", run.DEFAULT_SEED)[0]
    genuine = tmp_path / "genuine.json"
    assert kummerkit.cli.main(workloads._finite_argv(inst, genuine)) == 0
    doc = json.loads(genuine.read_text())
    assert workloads.check_fp_certificate(doc, inst["p"], 16, inst["modulus"]) == []
    assert _verify(genuine, tmp_path / "report.json") == (0, {"outcome": "valid", "failures": []})

    cases = [("c_plus_1", 0), ("eigen_dimension", 0), ("eigen_dimension", 15), ("flag_false", 0), ("flag_false", 9)]
    for kind, index in cases:
        bad = workloads.tamper(doc, {"kind": kind, "index": index})
        path = tmp_path / f"{kind}-{index}.json"
        path.write_text(json.dumps(bad, indent=2) + "\n")
        code, report = _verify(path, tmp_path / "report.json")
        assert code == 2 and report["outcome"] == "invalid" and report["failures"], (kind, index)
    c_plus_1 = workloads.tamper(doc, {"kind": "c_plus_1", "index": 0})
    assert "x^n != c" in workloads.check_fp_certificate(c_plus_1, inst["p"], 16, inst["modulus"])


def test_one_changed_byte_trips_the_digest_check(tmp_path):
    insts = workloads.instances("qq-tower", run.DEFAULT_SEED)
    requests = workloads.materialize("qq-tower", insts, tmp_path, kummerkit)
    results = [run.run_request(kummerkit, req) for req in requests]
    assert run.gate("qq-tower", results) == []
    recorded = run.recorded_digest("qq-tower", run.DEFAULT_SEED)
    assert run.digest(results) == recorded
    data = bytearray(results[5].outputs[0])
    data[len(data) // 2] ^= 1
    results[5].outputs[0] = bytes(data)
    assert run.digest(results) != recorded


def _namespaces_holding(obj):
    return [
        (mod, key)
        for name, mod in sys.modules.items()
        if name == "kummerkit" or name.startswith("kummerkit.")
        for key, value in vars(mod).items()
        if value is obj
    ]


def test_wrappers_cover_every_namespace_and_are_restored(tmp_path):
    kummer, tower = sys.modules["kummerkit.kummer"], sys.modules["kummerkit.tower"]
    originals = {
        "compute_certificate": kummer.compute_certificate,
        "nullspace": sys.modules["kummerkit.linalg"].nullspace,
        "mul": vars(tower.ExtensionElement)["__mul__"],
    }
    holders = _namespaces_holding(originals["compute_certificate"])
    assert {mod.__name__ for mod, _ in holders} >= {"kummerkit", "kummerkit.cli", "kummerkit.kummer"}

    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            for mod, key in holders:
                assert getattr(mod, key) is not originals["compute_certificate"]
            assert kummer.nullspace is not originals["nullspace"]
            assert vars(tower.ExtensionElement)["__rmul__"] is vars(tower.ExtensionElement)["__mul__"]
            assert vars(tower.ExtensionElement)["__mul__"] is not originals["mul"]
            with tracer.request():
                assert kummerkit.cli.main(["finite", "--p", "13", "--n", "4", "--format", "json", "--out", str(tmp_path / "c.json")]) == 0
            raise RuntimeError("restore on error")

    for mod, key in holders:
        assert getattr(mod, key) is originals["compute_certificate"]
    assert kummer.nullspace is originals["nullspace"]
    assert vars(tower.ExtensionElement)["__mul__"] is originals["mul"]
    assert vars(tower.ExtensionElement)["__rmul__"] is originals["mul"]

    names = {s[0] for s in tracer.spans}
    assert {"request", "cli.main", "kummer.compute_certificate", "linalg.nullspace", "tower.ExtensionElement.__mul__"} <= names
    assert tracer.self_time_gap_ns() == 0
    metrics = tracer.metrics(0.0)
    assert metrics["linalg.rref.cells"] > 0 and metrics["kummer.compute_certificate.self_s"] > 0


def test_benchmark_json_lists_the_traced_metrics_and_workloads():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["per_layer"] == spans.per_layer_schema()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qq-tower", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
