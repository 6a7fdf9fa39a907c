"""Tamper detection in verify.

Two guards over the same three certificates, (13,4), (17,8) and the builtin
cubic:

* a pinned corpus: every single-leaf mutation of each certificate document
  (a scalar or a JSON integer plus one, a flag negated, the version changed)
  together with the exact ``verify_certificate_report`` outcome, either
  ``(ok, failures)`` or the class of the exception raised. The outcomes live
  in ``tamper_corpus.json``; ``python tests/test_tamper.py`` prints the
  corpus the current code produces, in that file's format.
* a hypothesis property through the CLI: after any mutation of a leaf, an
  eigen entry, a flag or the version, ``kummerkit verify`` exits 2 or 3 and
  prints no traceback, unless the mutated document still means the same
  certificate.

A second property replaces one leaf of a certificate or of its tower spec
with an integer literal past the interpreter's 4300-digit limit: ``verify``
and ``tower`` exit 3 with a ``ParseError``. A third spells one integer of a
scalar string as ``int()`` reads it but ``str()`` never writes it (with
whitespace, a '+', a '_', a leading zero or a non-ASCII digit): both exit 3.
"""

import contextlib
import copy
import functools
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kummerkit import serialize
from kummerkit.cli import main
from kummerkit.errors import KummerError
from kummerkit.families import builtin_cubic_over_eisenstein, frobenius_family
from kummerkit.kummer import certify, verify_certificate_report

CORPUS_PATH = Path(__file__).with_name("tamper_corpus.json")

INSTANCES = {
    "finite-13-4": lambda: frobenius_family(13, 4),
    "finite-17-8": lambda: frobenius_family(17, 8),
    "builtin-cubic": builtin_cubic_over_eisenstein,
}


@functools.lru_cache(maxsize=None)
def certificate_text(name: str) -> str:
    return serialize.canonical_dumps(serialize.certificate_to_json(certify(INSTANCES[name]())))


def document(name: str):
    return json.loads(certificate_text(name))


def leaves(obj, path=()):
    """(path, value) for every leaf of a JSON document, in document order."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from leaves(value, path + (i,))
    else:
        yield path, obj


def _scalar(text: str):
    """The value of a scalar string ("12", "-3", "1/2"), or None."""
    try:
        return Fraction(text)
    except ValueError:
        return None


def bumped(path, value):
    """The single-leaf mutation of the corpus for this leaf, or None."""
    if path == ("version",):
        return "2"
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str) and _scalar(value) is not None:
        return str(_scalar(value) + 1)
    return None  # a structural string such as a field kind


def replaced(doc, path, value):
    out = copy.deepcopy(doc)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


def path_key(path) -> str:
    return "/".join(str(k) for k in path)


def corpus_mutations(name: str):
    """(key, mutated document) for every single-leaf mutation of a certificate."""
    doc = document(name)
    for path, value in leaves(doc):
        new = bumped(path, value)
        if new is not None:
            yield path_key(path), replaced(doc, path, new)


def outcome(doc) -> dict:
    try:
        cert = serialize.certificate_from_json(serialize.loads(json.dumps(doc)))
        ok, failures = verify_certificate_report(cert)
    except KummerError as exc:
        return {"raises": type(exc).__name__}
    return {"ok": ok, "failures": failures}


def current_corpus() -> dict:
    return {name: {key: outcome(doc) for key, doc in corpus_mutations(name)} for name in INSTANCES}


CORPUS = json.loads(CORPUS_PATH.read_text())


class TestPinnedCorpus:
    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_corpus_covers_every_leaf(self, name):
        assert [key for key, _ in corpus_mutations(name)] == list(CORPUS[name])

    @pytest.mark.parametrize("name", sorted(INSTANCES))
    def test_unmutated_certificate_verifies(self, name):
        assert outcome(document(name)) == {"ok": True, "failures": []}

    @pytest.mark.parametrize(
        "name,key",
        [(name, key) for name in sorted(CORPUS) for key in CORPUS[name]],
    )
    def test_mutation_outcome_pinned(self, name, key):
        mutated = dict(corpus_mutations(name))[key]
        assert outcome(mutated) == CORPUS[name][key]

    @pytest.mark.parametrize("name", ["finite-13-4", "builtin-cubic"])
    def test_zero_x_stops_before_stored_flags(self, name):
        # recorded with the single-leaf corpus: a zero x ends the report, so a
        # false stored flag is not listed after "x != 0"
        doc = document(name)
        doc["x"] = serialize.element_to_json(INSTANCES[name]().ext_field, 0)
        doc["checks"]["c_in_base"] = False
        assert outcome(doc) == {"ok": False, "failures": ["x != 0"]}
        doc["eigen"] = doc["eigen"][1:]
        assert outcome(doc) == {"ok": False, "failures": ["eigen report matches recomputation", "x != 0"]}

    def test_every_mutation_is_rejected(self):
        for name, cases in CORPUS.items():
            for key, expected in cases.items():
                assert expected.get("ok") is not True, (name, key)


# -- hypothesis property through the CLI ---------------------------------------

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.text(max_size=6),
    st.just([]),
    st.just({}),
    st.just(["1", "0"]),
)


@st.composite
def tampered(draw):
    """(name, mutated document): a leaf, an eigen entry, a flag or the version."""
    name = draw(st.sampled_from(sorted(INSTANCES)))
    doc = document(name)
    kind = draw(st.sampled_from(["leaf", "leaf", "leaf", "eigen", "flag", "version"]))
    if kind == "eigen":
        eigen = doc["eigen"]
        k = draw(st.integers(0, len(eigen) - 1))
        action = draw(st.sampled_from(["drop", "duplicate", "swap", "junk"]))
        if action == "drop":
            del eigen[k]
        elif action == "duplicate":
            eigen.insert(k, copy.deepcopy(eigen[k]))
        elif action == "swap":
            j = draw(st.integers(0, len(eigen) - 1).filter(lambda j: j != k))
            eigen[k], eigen[j] = eigen[j], eigen[k]
        else:
            eigen[k] = draw(JUNK)
        return name, doc
    if kind == "flag":
        flag = draw(st.sampled_from(sorted(doc["checks"])))
        action = draw(st.sampled_from(["negate", "drop", "junk"]))
        if action == "negate":
            doc["checks"][flag] = not doc["checks"][flag]
        elif action == "drop":
            del doc["checks"][flag]
        else:
            doc["checks"][flag] = draw(JUNK.filter(lambda v: v is not True))
        return name, doc
    if kind == "version":
        return name, replaced(doc, ("version",), draw(JUNK.filter(lambda v: v != "1")))
    path, value = draw(st.sampled_from(list(leaves(doc))))
    scalar = _scalar(value) if isinstance(value, str) else None
    if isinstance(value, int) and not isinstance(value, bool):
        new = draw(st.one_of(st.integers(-50, 50).filter(lambda d: d).map(lambda d: value + d), JUNK))
    elif scalar is not None:
        delta = draw(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=9)).filter(lambda d: d))
        new = draw(st.one_of(st.just(str(scalar + delta)), JUNK))
    else:
        new = draw(JUNK.filter(lambda v: v != value))
    return name, replaced(doc, path, new)


def canonical(text: str) -> str:
    return serialize.canonical_dumps(serialize.certificate_to_json(serialize.certificate_from_json(json.loads(text))))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=tampered(), fmt=st.sampled_from(["text", "json"]))
def test_cli_rejects_tampering_without_traceback(tmp_path, case, fmt):
    name, doc = case
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path), "--format", fmt])
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 0:
        # accepted only when the document still means the same certificate
        # (a prime-field scalar shifted by p, ...)
        assert canonical(path.read_text()) == certificate_text(name)
    else:
        assert code in (2, 3)
    if fmt == "json":
        assert json.loads(out.getvalue())["outcome"] in ("valid", "invalid", "error")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="this interpreter reads ints of any size")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), fmt=st.sampled_from(["text", "json"]))
def test_cli_rejects_an_integer_literal_past_the_digit_limit(tmp_path, data, fmt):
    # any leaf of a certificate (verify) or of a tower spec (tower) becomes a
    # literal of 4301 to 6000 digits, which json.loads refuses to convert
    name = data.draw(st.sampled_from(sorted(INSTANCES)))
    spec = serialize.input_to_json(INSTANCES[name]())
    command, doc = data.draw(st.sampled_from([("verify", document(name)), ("tower", spec)]))
    leaf, _ = data.draw(st.sampled_from(list(leaves(doc))))
    digits = data.draw(st.integers(4301, 6000))
    literal = data.draw(st.sampled_from(["", "-"])) + str(data.draw(st.integers(1, 9))) + "0" * (digits - 1)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(replaced(doc, leaf, "LONG")).replace('"LONG"', literal))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), "--format", fmt])
    assert (code, err.getvalue()) == (3, "")
    message = f"invalid JSON: an integer literal past {sys.get_int_max_str_digits()} digits"
    if fmt == "json":
        assert json.loads(out.getvalue())["error"] == {"code": "ParseError", "message": message}
    else:
        assert out.getvalue() == f"error: ParseError: {message}\n"


# the zeros of digit runs that int() reads and str() never writes:
# Arabic-Indic, Devanagari and fullwidth
FOREIGN_ZEROS = (0x0660, 0x0966, 0xFF10)


@st.composite
def respelt(draw, text):
    """The scalar string text ("12", "-3", "1/2") with one of its integers
    spelt another way that int() still reads as the same value."""
    parts = text.split("/")
    k = draw(st.integers(0, len(parts) - 1))
    part = parts[k]
    sign, digits = ("-", part[1:]) if part.startswith("-") else ("", part)
    how = draw(st.sampled_from(["space", "underscore", "zero", "foreign"] + ([] if sign else ["plus"])))
    if how == "space":
        before, after = draw(st.sampled_from([(" ", ""), ("", " "), ("\t", "\n"), (" ", " ")]))
        new = before + part + after
    elif how == "plus":
        new = "+" + part
    elif how == "underscore":
        new = sign + (digits[0] + "_" + digits[1:] if len(digits) > 1 else "0_" + digits)
    elif how == "zero":
        new = sign + "0" + digits
    else:
        i = draw(st.integers(0, len(digits) - 1))
        zero = draw(st.sampled_from(FOREIGN_ZEROS))
        new = sign + digits[:i] + chr(zero + int(digits[i])) + digits[i + 1 :]
    assert new != part and int(new) == int(part)
    parts[k] = new
    return "/".join(parts)


@st.composite
def respelt_rational(draw, text):
    """The rational string text ("12", "-3", "1/2") written as another
    fraction of the same value: num/den times k ("2/4", "0/5"), over a
    denominator of 1 ("3/1"), or with the sign on the denominator ("1/-2")."""
    value = Fraction(text)
    k = draw(st.integers(1 if value.denominator == 1 else 2, 9))
    sign = draw(st.sampled_from([1, -1]))
    num, den = sign * k * value.numerator, sign * k * value.denominator
    new = f"{num}/{den}"
    assert new != text and Fraction(num, den) == value
    return new


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), fmt=st.sampled_from(["text", "json"]))
def test_cli_rejects_a_non_canonical_scalar_string(tmp_path, data, fmt):
    # any scalar leaf of a certificate (verify) or of a tower spec (tower);
    # every scalar of the builtin cubic is a rational, which may also be
    # respelt as another fraction of the same value
    name = data.draw(st.sampled_from(sorted(INSTANCES)))
    spec = serialize.input_to_json(INSTANCES[name]())
    command, doc = data.draw(st.sampled_from([("verify", document(name)), ("tower", spec)]))
    scalars = [(p, v) for p, v in leaves(doc) if p != ("version",) and isinstance(v, str) and _scalar(v) is not None]
    leaf, value = data.draw(st.sampled_from(scalars))
    spellings = [respelt, respelt_rational] if name == "builtin-cubic" else [respelt]
    path = tmp_path / "respelt.json"
    path.write_text(json.dumps(replaced(doc, leaf, data.draw(data.draw(st.sampled_from(spellings))(value)))))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), "--format", fmt])
    assert (code, err.getvalue()) == (3, "")
    if fmt == "json":
        assert json.loads(out.getvalue())["error"]["code"] in ("SchemaViolation", "MalformedCertificate")
    else:
        assert out.getvalue().startswith(("error: SchemaViolation: ", "error: MalformedCertificate: "))


if __name__ == "__main__":
    print(json.dumps(current_corpus(), indent=1))
