"""Instance constructor tests.

The default-modulus contract (lexicographically first monic irreducible) is
checked against an independent lex scan that decides irreducibility by
trial division over int tuples.
"""

import itertools
import json

import pytest

from kummerkit import cli, errors, families, polynomials, tower
from kummerkit.errors import NoPrimitiveRoot, NotPrime, ParseError, ReducibleModulus, SchemaViolation, ValidationError
from kummerkit.families import (
    builtin_cubic_over_eisenstein,
    default_modulus,
    frobenius_family,
    parse_tower_spec,
)
from kummerkit.kummer import validate_setup
from kummerkit.polynomials import Polynomial, rabin_frobenius
from kummerkit.scalars import PrimeField, PrimeFieldElement
from kummerkit import serialize

F5 = PrimeField(5)
F13 = PrimeField(13)


def oracle_divides(f, g, p):
    f = list(f)
    inv = pow(g[-1], -1, p)
    for k in range(len(f) - len(g), -1, -1):
        c = f[k + len(g) - 1] * inv % p
        for j, y in enumerate(g):
            f[k + j] = (f[k + j] - c * y) % p
    return not any(f[: len(g) - 1])


def oracle_irreducible(f, p):
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if oracle_divides(f, tail + (1,), p):
                return False
    return True


def oracle_lex_first_irreducible(p, n):
    for prefix in itertools.product(range(p), repeat=n):
        f = prefix + (1,)
        if oracle_irreducible(f, p):
            return f
    raise AssertionError


class TestDefaultModulus:
    @pytest.mark.parametrize("p,n", [(5, 1), (5, 2), (7, 2), (7, 3), (13, 2), (13, 3), (3, 4)])
    def test_lex_first_contract(self, p, n):
        expected = oracle_lex_first_irreducible(p, n)
        got = default_modulus(PrimeField(p), n)
        assert tuple(c.value for c in got.modulus.coeffs) == expected

    def test_stable_across_runs(self):
        a = default_modulus(F13, 4)
        b = default_modulus(F13, 4)
        assert a == b

    def test_degree_one_is_x(self):
        assert default_modulus(F5, 1).modulus == Polynomial.x(F5)


class TestOneRabinTestPerCandidate:
    """On the default-modulus path the Rabin test runs once per candidate,
    the winning modulus included: default_modulus tests each candidate
    itself and builds the winner's field on the answer its test recorded,
    and frobenius_family and the CLI use that field."""

    PAIRS = [(97, 16), (13, 4), (5, 1), (263, 2), (1993, 3), (1171, 5), (449, 7), (2081, 8)]

    @pytest.fixture
    def tested(self, monkeypatch):
        tested = []

        def counting(f):
            tested.append(tuple(c.value for c in f.coeffs))
            return rabin_frobenius(f)

        for owner in (polynomials, tower, families):
            monkeypatch.setattr(owner, "rabin_frobenius", counting)
        return tested

    @staticmethod
    def candidates_up_to(p, winner):
        """The odometer's candidates in order, up to the winner: c_0 = 0 is
        skipped for n >= 2."""
        n = len(winner) - 1
        out = []
        for prefix in itertools.product(range(p) if n == 1 else range(1, p), *[range(p)] * (n - 1)):
            out.append(prefix + (1,))
            if out[-1] == winner:
                return out

    @pytest.mark.parametrize("p,n", PAIRS)
    def test_frobenius_family(self, tested, p, n):
        modulus = tuple(c.value for c in frobenius_family(p, n).modulus.coeffs)
        assert tested == self.candidates_up_to(p, modulus)

    @pytest.mark.parametrize("p,n", PAIRS)
    def test_one_fold_table_per_candidate(self, tested, monkeypatch, p, n):
        # each candidate's X^p builds its own modulus's table, and only that one
        tables = []
        build = polynomials._build_fold_table

        def counting(field, f):
            tables.append(tuple(c.value for c in f.coeffs))
            return build(field, f)

        monkeypatch.setattr(polynomials, "_build_fold_table", counting)
        default_modulus(PrimeField(p), n)
        assert tables == tested

    @pytest.mark.parametrize("p,n", PAIRS)
    def test_cli_finite(self, tested, tmp_path, p, n):
        out = tmp_path / "cert.json"
        assert cli.main(["finite", "--p", str(p), "--n", str(n), "--format", "json", "--out", str(out)]) == 0
        modulus = tuple(map(int, json.loads(out.read_text())["input"]["modulus"]))
        assert tested == self.candidates_up_to(p, modulus)


@pytest.mark.parametrize("p,n", [(263, 2), (2081, 8), (97, 16)])
def test_a_default_modulus_request_builds_one_field_and_raises_nothing(monkeypatch, tmp_path, p, n):
    # rejected candidates cost neither a field nor a ReducibleModulus
    built, raised = [], []
    init, reducible = tower.ExtensionField.__init__, errors.ReducibleModulus.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[1])
        init(self, *args, **kwargs)

    def counting_reducible(self, *args):
        raised.append(args)
        reducible(self, *args)

    monkeypatch.setattr(tower.ExtensionField, "__init__", counting_init)
    monkeypatch.setattr(errors.ReducibleModulus, "__init__", counting_reducible)
    out = tmp_path / "cert.json"
    assert cli.main(["finite", "--p", str(p), "--n", str(n), "--format", "json", "--out", str(out)]) == 0
    modulus = [int(c) for c in json.loads(out.read_text())["input"]["modulus"]]
    assert [[c.value for c in f.coeffs] for f in built] == [modulus]
    assert raised == []


class TestFrobeniusFamily:
    def test_f25_with_explicit_modulus(self):
        inp = frobenius_family(5, 2, Polynomial(F5, [-2, 0, 1]))
        assert inp.zeta == PrimeFieldElement(4, 5)
        assert tuple(c.value for c in inp.sigma_image.coords) == (0, 4)

    def test_f13_quartic(self):
        inp = frobenius_family(13, 4, Polynomial(F13, [-2, 0, 0, 0, 1]))
        assert inp.zeta == PrimeFieldElement(5, 13)
        assert tuple(c.value for c in inp.sigma_image.coords) == (0, 8, 0, 0)

    def test_no_primitive_root(self):
        with pytest.raises(NoPrimitiveRoot):
            frobenius_family(5, 3)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            frobenius_family(4, 1)

    def test_built_field_gives_the_same_instance(self):
        assert frobenius_family(F13, 4) == frobenius_family(13, 4)
        assert frobenius_family(F13, 4).base_field is F13

    def test_reducible_supplied_modulus(self):
        with pytest.raises(ReducibleModulus):
            frobenius_family(5, 2, Polynomial(F5, [-1, 0, 1]))

    def test_wrong_degree_supplied_modulus(self):
        with pytest.raises(ValidationError):
            frobenius_family(5, 2, Polynomial(F5, [-2, 0, 0, 1]))

    @pytest.mark.parametrize(
        "p,n",
        [(3, 1), (3, 2), (5, 2), (5, 4), (7, 3), (7, 6), (11, 5), (13, 4), (13, 6), (17, 8)],
    )
    def test_every_output_validates(self, p, n):
        validate_setup(frobenius_family(p, n))


class TestBuiltinCubic:
    def test_defining_identities(self):
        inp = builtin_cubic_over_eisenstein()
        ext = inp.ext_field
        alpha = ext.gen()
        s = inp.sigma_image
        assert s == alpha**2 - 2
        assert ext.modulus.evaluate(s) == ext.zero()
        ctx = validate_setup(inp)
        assert ctx.sigma(ctx.sigma(ctx.sigma(alpha))) == alpha

    def test_zeta_is_the_eisenstein_generator(self):
        inp = builtin_cubic_over_eisenstein()
        k_field = inp.base_field
        assert inp.zeta == k_field.gen()
        assert inp.zeta**3 == k_field.one()
        assert inp.zeta != k_field.one()


class TestParseTowerSpec:
    def test_round_trip_against_programmatic_constructor(self):
        inp = frobenius_family(13, 4, Polynomial(F13, [-2, 0, 0, 0, 1]))
        document = serialize.canonical_dumps(serialize.input_to_json(inp))
        parsed = parse_tower_spec(document)
        assert parsed == inp

    def test_round_trip_nested_tower(self):
        inp = builtin_cubic_over_eisenstein()
        document = serialize.canonical_dumps(serialize.input_to_json(inp))
        parsed = parse_tower_spec(document)
        assert parsed == inp
        assert serialize.input_to_json(parsed) == serialize.input_to_json(inp)

    def test_non_monic_modulus(self):
        doc = {
            "base": {"kind": "prime", "p": "5"},
            "n": 2,
            "zeta": "4",
            "modulus": ["3", "0", "2"],
            "sigma_image": ["0", "4"],
        }
        with pytest.raises(SchemaViolation):
            parse_tower_spec(json.dumps(doc))

    def test_truncated_document(self):
        with pytest.raises(ParseError):
            parse_tower_spec('{"base": {"kind": "prime"')

    def test_missing_key(self):
        with pytest.raises(SchemaViolation):
            parse_tower_spec('{"base": {"kind": "rationals"}}')


class TestFamilyKinds:
    """Each instance family rebuilds to an equal input."""

    def test_frobenius_kind(self):
        assert frobenius_family(5, 2) == frobenius_family(5, 2)

    def test_builtin_cubic_kind(self):
        assert builtin_cubic_over_eisenstein() == builtin_cubic_over_eisenstein()

    def test_custom_kind(self, tmp_path):
        inp = frobenius_family(7, 3)
        path = tmp_path / "spec.json"
        path.write_text(serialize.canonical_dumps(serialize.input_to_json(inp)))
        assert parse_tower_spec(path.read_text()) == inp
