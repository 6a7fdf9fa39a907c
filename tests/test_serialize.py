"""Wire-format tests: canonical scalar strings, nested coordinate arrays,
fixed key order, byte-level determinism, and schema rejection paths."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kummerkit import serialize
from kummerkit.cli import main
from kummerkit.errors import MalformedCertificate, NotPrime, ParseError, ReducibleModulus, SchemaViolation
from kummerkit.families import builtin_cubic_over_eisenstein, default_modulus, frobenius_family
from kummerkit.kummer import CHECK_NAMES, CyclicExtensionInput, certify
from kummerkit.polynomials import Polynomial
from kummerkit.scalars import PrimeField, PrimeFieldElement, RationalField, is_prime
from kummerkit.tower import ExtensionField
from test_determinism import shanks_cubic, simplest_quartic
from test_tamper import leaves

F13 = PrimeField(13)
QQ = RationalField()


class TestScalars:
    def test_prime_elements_are_decimal_strings(self):
        assert serialize.element_to_json(F13, PrimeFieldElement(11, 13)) == "11"
        assert serialize.element_from_json(F13, "-2") == PrimeFieldElement(11, 13)

    @pytest.mark.parametrize(
        "text", [" +4 ", "+4", "4\n", "04", "0_1", "1_0", "\u0663", "-0", "-04", "2/4", "3/1", "1/-2", "0/5", "1/"]
    )
    def test_non_canonical_decimal_strings_are_rejected(self, text):
        # int() reads each of them, or each side of the '/'; str() writes none
        for field, scalar in ((F13, text), (QQ, text), (QQ, f"1/{text}")):
            with pytest.raises(SchemaViolation):
                serialize.element_from_json(field, scalar)

    def test_rationals_canonical(self):
        assert serialize.element_to_json(QQ, Fraction(-6, 8)) == "-3/4"
        assert serialize.element_to_json(QQ, Fraction(5)) == "5"
        assert serialize.element_from_json(QQ, "3/4") == Fraction(3, 4)

    def test_rational_rejects_garbage(self):
        with pytest.raises(SchemaViolation):
            serialize.element_from_json(QQ, "3/0")
        with pytest.raises(SchemaViolation):
            serialize.element_from_json(QQ, "a/b")
        with pytest.raises(SchemaViolation):
            serialize.element_from_json(QQ, 1.5)


class TestElements:
    def test_extension_elements_are_arrays(self):
        ext = ExtensionField(F13, Polynomial(F13, [-2, 0, 0, 0, 1]))
        e = ext.element([1, 0, 7])
        assert serialize.element_to_json(ext, e) == ["1", "0", "7", "0"]
        assert serialize.element_from_json(ext, ["1", "0", "7"]) == e

    def test_nested_arrays_for_nested_towers(self):
        inp = builtin_cubic_over_eisenstein()
        zeta_json = serialize.element_to_json(inp.base_field, inp.zeta)
        assert zeta_json == ["0", "1"]
        sigma_json = serialize.element_to_json(inp.ext_field, inp.sigma_image)
        assert sigma_json == [["-2", "0"], ["0", "0"], ["1", "0"]]

    def test_too_many_coordinates(self):
        ext = ExtensionField(F13, Polynomial(F13, [-2, 0, 0, 0, 1]))
        with pytest.raises(SchemaViolation):
            serialize.element_from_json(ext, ["1"] * 5)


class TestFieldSpecs:
    def test_prime_round_trip(self):
        obj = serialize.field_to_json(F13)
        assert obj == {"kind": "prime", "p": "13"}
        assert serialize.field_from_json(obj) == F13

    def test_extension_round_trip(self):
        ext = ExtensionField(F13, Polynomial(F13, [-2, 0, 0, 0, 1]))
        obj = serialize.field_to_json(ext)
        assert obj["kind"] == "extension"
        assert obj["modulus"] == ["11", "0", "0", "0", "1"]
        assert serialize.field_from_json(obj) == ext

    def test_nonprime_p_rejected_as_validation(self):
        with pytest.raises(NotPrime):
            serialize.field_from_json({"kind": "prime", "p": "4"})

    def test_reducible_modulus_rejected_as_validation(self):
        obj = {"kind": "extension", "base": {"kind": "prime", "p": "5"}, "modulus": ["4", "0", "1"]}
        with pytest.raises(ReducibleModulus):
            serialize.field_from_json(obj)

    def test_unknown_kind(self):
        with pytest.raises(SchemaViolation):
            serialize.field_from_json({"kind": "padics"})


class TestCertificates:
    def test_key_order_is_documented_order(self):
        cert = certify(frobenius_family(13, 4))
        obj = serialize.certificate_to_json(cert)
        assert list(obj) == ["input", "eigen", "x", "c", "x_min_poly", "checks", "version"]
        assert list(obj["input"]) == ["base", "n", "zeta", "modulus", "sigma_image"]
        assert list(obj["checks"]) == list(CHECK_NAMES)

    def test_round_trip(self):
        cert = certify(frobenius_family(13, 4, Polynomial(F13, [-2, 0, 0, 0, 1])))
        text = serialize.canonical_dumps(serialize.certificate_to_json(cert))
        parsed = serialize.certificate_from_json(serialize.loads(text))
        assert serialize.canonical_dumps(serialize.certificate_to_json(parsed)) == text
        assert parsed.x == cert.x
        assert parsed.c == cert.c
        assert parsed.checks == cert.checks

    def test_round_trip_nested(self):
        cert = certify(builtin_cubic_over_eisenstein())
        text = serialize.canonical_dumps(serialize.certificate_to_json(cert))
        parsed = serialize.certificate_from_json(serialize.loads(text))
        assert serialize.canonical_dumps(serialize.certificate_to_json(parsed)) == text

    def test_byte_determinism(self):
        one = serialize.canonical_dumps(serialize.certificate_to_json(certify(frobenius_family(13, 4))))
        two = serialize.canonical_dumps(serialize.certificate_to_json(certify(frobenius_family(13, 4))))
        assert one.encode() == two.encode()

    # 85 scalar leaves; the cubic's 41 spell 48 integers, 7 being "num/den"
    @pytest.mark.parametrize("name,integers", [("finite-97-16", 85), ("builtin-cubic", 48)])
    def test_verify_reads_each_scalar_leaf_once(self, name, integers, monkeypatch, tmp_path, capsys):
        # each integer a scalar leaf spells goes through _decimal once, E's
        # Kummer witness included
        inp = frobenius_family(97, 16) if name == "finite-97-16" else builtin_cubic_over_eisenstein()
        text = serialize.canonical_dumps(serialize.certificate_to_json(certify(inp)))
        spelt = [
            part
            for path, leaf in leaves(json.loads(text))
            if isinstance(leaf, str) and path[-1] not in ("kind", "version")
            for part in leaf.split("/")
        ]
        read, decimal = [], serialize._decimal
        monkeypatch.setattr(serialize, "_decimal", lambda text: read.append(text) or decimal(text))
        path = tmp_path / "cert.json"
        path.write_text(text)
        assert main(["verify", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["outcome"] == "valid"
        assert sorted(read) == sorted(spelt)
        assert len(read) == integers

    @pytest.mark.parametrize("modulus", [[], ["1"]])
    def test_a_modulus_of_degree_below_1_is_named(self, modulus):
        # sigma_image's and x's coordinates are read before E is built
        obj = serialize.certificate_to_json(certify(frobenius_family(13, 4)))
        obj["input"]["modulus"] = modulus
        with pytest.raises(SchemaViolation, match="extension modulus must have degree >= 1"):
            serialize.input_from_json(obj["input"])
        with pytest.raises(MalformedCertificate, match="extension modulus must have degree >= 1"):
            serialize.certificate_from_json(obj)

    def test_missing_field(self):
        obj = serialize.certificate_to_json(certify(frobenius_family(5, 2)))
        del obj["checks"]
        with pytest.raises(MalformedCertificate):
            serialize.certificate_from_json(obj)

    def test_unknown_version(self):
        obj = serialize.certificate_to_json(certify(frobenius_family(5, 2)))
        obj["version"] = "99"
        with pytest.raises(MalformedCertificate):
            serialize.certificate_from_json(obj)

    def test_extra_flag(self):
        obj = serialize.certificate_to_json(certify(frobenius_family(5, 2)))
        obj["checks"]["extra"] = True
        with pytest.raises(MalformedCertificate):
            serialize.certificate_from_json(obj)

    def test_non_boolean_flag(self):
        obj = serialize.certificate_to_json(certify(frobenius_family(5, 2)))
        obj["checks"]["c_in_base"] = "yes"
        with pytest.raises(MalformedCertificate):
            serialize.certificate_from_json(obj)


class TestJsonText:
    def test_parse_error_has_location(self):
        with pytest.raises(ParseError) as err:
            serialize.loads("{not json")
        assert "line 1" in str(err.value)

    def test_no_floats_anywhere(self):
        cert = certify(frobenius_family(13, 4))
        obj = serialize.certificate_to_json(cert)

        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(obj)
        assert json.loads(serialize.canonical_dumps(obj)) == obj


# -- input documents round-trip ------------------------------------------------

FROBENIUS_PAIRS = [(p, n) for p in range(3, 200) if is_prime(p) for n in range(1, 9) if (p - 1) % n == 0]


@st.composite
def three_level_towers(draw):
    """F_p < K = F_p[t]/(g) < E = K[X]/(f), with zeta and the image of X
    drawn at random: the document carries them whether or not they make a
    cyclic extension."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 97]))
    base = PrimeField(p)
    k_field = default_modulus(base, draw(st.integers(1, 3)))
    n = draw(st.integers(1, 4))
    k_elems = st.lists(st.integers(0, p - 1), min_size=k_field.degree, max_size=k_field.degree).map(k_field.element)
    ext = ExtensionField(k_field, Polynomial(k_field, draw(st.lists(k_elems, min_size=n, max_size=n)) + [k_field.one()]))
    sigma_image = ext.element(draw(st.lists(k_elems, min_size=n, max_size=n)))
    return CyclicExtensionInput(ext, n, draw(k_elems), sigma_image)


def tower_inputs():
    big = st.integers(-(10**40), 10**40)
    return st.one_of(
        st.sampled_from(FROBENIUS_PAIRS).map(lambda pn: frobenius_family(*pn)),
        big.map(shanks_cubic),
        big.map(simplest_quartic),
        st.just(builtin_cubic_over_eisenstein()),
        three_level_towers(),
    )


@settings(max_examples=60, deadline=None)
@given(tower_inputs())
def test_input_document_round_trip(inp):
    text = serialize.canonical_dumps(serialize.input_to_json(inp))
    back, _ = serialize.input_from_json(serialize.loads(text))
    assert back == inp
    assert serialize.canonical_dumps(serialize.input_to_json(back)) == text
