"""Tower field tests: quotient-ring arithmetic over prime fields and QQ,
including the nested QQ -> K -> E case the cubic instance uses.

Expected coordinates for the frozen examples were derived by hand from the
reduction rules (alpha^2 = 2 in F_5[X]/(X^2-2), alpha^4 = 2 in
F_13[X]/(X^4-2)) and cross-checked against the extended-gcd identity.
"""

import json
import operator
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kummerkit.errors import (
    DivisionByZero,
    FieldMismatch,
    NotInvertible,
    NotMonic,
    ReducibleModulus,
    TowerTooTall,
)
from kummerkit import tower
from kummerkit.polynomials import Polynomial, rabin_frobenius
from kummerkit.scalars import PrimeField, PrimeFieldElement, RationalField
from kummerkit.tower import ExtensionElement, ExtensionField

F5 = PrimeField(5)
F13 = PrimeField(13)
QQ = RationalField()

F25 = ExtensionField(F5, Polynomial(F5, [-2, 0, 1]))
F13_4 = ExtensionField(F13, Polynomial(F13, [-2, 0, 0, 0, 1]))
K_EISENSTEIN = ExtensionField(QQ, Polynomial(QQ, [1, 1, 1]))
E_CUBIC = ExtensionField(K_EISENSTEIN, Polynomial(K_EISENSTEIN, [1, -3, 0, 1]))


def coords_ints(e):
    return tuple(c.value for c in e.coords)


class TestConstruction:
    def test_reducible_modulus_rejected_over_prime_field(self):
        with pytest.raises(ReducibleModulus):
            ExtensionField(F5, Polynomial(F5, [-1, 0, 1]))

    def test_a_recorded_answer_is_read_not_retested(self, monkeypatch):
        reducible, irreducible = Polynomial(F13, [-1, 0, 1]), Polynomial(F13, [-2, 0, 0, 0, 1])
        assert rabin_frobenius(reducible) is None and rabin_frobenius(irreducible) is not None

        def refuse(f):
            raise AssertionError("a second Rabin test")

        monkeypatch.setattr(tower, "rabin_frobenius", refuse)
        with pytest.raises(ReducibleModulus, match=re.escape("X^2 + 12 is reducible over GF(13)")):
            ExtensionField(F13, reducible)
        ext = ExtensionField(F13, irreducible)
        assert (ext.frobenius, ext.frobenius_image) == irreducible.rabin
        assert ext.frobenius_image == F13_4.frobenius_image and ext.frobenius == F13_4.frobenius

    def test_modulus_must_be_monic(self):
        with pytest.raises(NotMonic):
            ExtensionField(F5, Polynomial(F5, [1, 2]))

    def test_modulus_over_wrong_field(self):
        with pytest.raises(FieldMismatch):
            ExtensionField(F5, Polynomial(F13, [1, 1]))

    def test_height_cap(self):
        with pytest.raises(TowerTooTall):
            ExtensionField(E_CUBIC, Polynomial(E_CUBIC, [E_CUBIC.gen(), E_CUBIC.one()]))

    def test_degree_one_extension(self):
        e = ExtensionField(F5, Polynomial.x(F5))
        assert e.gen() == e.zero()
        assert e.one().coords == (F5.one(),)


class TestMul:
    def test_square_of_generator(self):
        alpha = F25.gen()
        assert coords_ints(alpha * alpha) == (2, 0)

    def test_one_is_identity(self):
        a = F25.element([3, 4])
        assert F25.one() * a == a

    def test_quartic_wraparound(self):
        alpha = F13_4.gen()
        assert coords_ints(alpha**3 * alpha) == (2, 0, 0, 0)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            F25.gen() * F13_4.gen()


class TestScalarPath:
    """A base-field operand multiplies coordinate-wise; nothing else changes."""

    def test_foreign_extension_raises_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            F25.gen() * F13_4.gen()
        with pytest.raises(FieldMismatch):
            F13_4.gen() * F25.gen()

    def test_element_two_levels_down_in_another_tower_raises_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            E_CUBIC.gen() * F25.gen()

    def test_foreign_prime_field_scalar_raises_type_error(self):
        with pytest.raises(TypeError):
            F25.gen() * PrimeFieldElement(3, 13)
        with pytest.raises(TypeError):
            PrimeFieldElement(3, 13) * F25.gen()

    def test_subtracting_a_foreign_prime_field_scalar_raises_type_error(self):
        # both __rsub__ methods once answered by negating the other order,
        # which bounced between them until RecursionError
        with pytest.raises(TypeError):
            F25.gen() - PrimeFieldElement(3, 13)
        with pytest.raises(TypeError):
            PrimeFieldElement(3, 13) - F25.gen()

    def test_non_field_operand_raises_type_error(self):
        with pytest.raises(TypeError):
            F25.gen() * "2"

    def test_base_scalar_examples(self):
        a = F25.element([3, 4])
        assert coords_ints(a * PrimeFieldElement(2, 5)) == (1, 3)
        assert coords_ints(3 * a) == (4, 2)
        assert (K_EISENSTEIN.gen() * Fraction(1, 2)).coords == (Fraction(0), Fraction(1, 2))


@st.composite
def field_elements(draw, field):
    if isinstance(field, PrimeField):
        return PrimeFieldElement(draw(st.integers(0, field.p - 1)), field.p)
    if isinstance(field, RationalField):
        return Fraction(draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 10**4)))
    return field.element([draw(field_elements(field.base)) for _ in range(field.degree)])


@pytest.mark.parametrize("field", [F13_4, K_EISENSTEIN, E_CUBIC], ids=["Fp", "QQ", "tower3"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_scalar_path_equals_full_product_with_embedding(field, data):
    e = data.draw(field_elements(field))
    c = data.draw(field_elements(field.base))
    full = e * field.embed(c)  # both operands in E: the schoolbook product
    assert (e * c).coords == full.coords
    assert (c * e).coords == full.coords
    k = data.draw(st.integers(-10**6, 10**6))
    assert (e * k).coords == (e * field.from_int(k)).coords == (k * e).coords


class TestInverse:
    def test_one(self):
        assert F25.one().inverse() == F25.one()

    def test_generator_inverse(self):
        alpha = F25.gen()
        inv = alpha.inverse()
        assert coords_ints(inv) == (0, 3)  # alpha * 3alpha = 3*2 = 6 = 1
        assert alpha * inv == F25.one()

    def test_zero(self):
        with pytest.raises(DivisionByZero):
            F25.zero().inverse()

    def test_reducible_modulus_witnessed_over_rationals(self):
        # X^2 - 1 is reducible over QQ but the constructor cannot know;
        # inverting X - 1 produces the witness
        ring = ExtensionField(QQ, Polynomial(QQ, [-1, 0, 1]))
        with pytest.raises(NotInvertible):
            ring.element([-1, 1]).inverse()

    @pytest.mark.parametrize("field", [F25, F13_4, K_EISENSTEIN, E_CUBIC])
    def test_inverse_round_trip(self, field):
        rng = random.Random(7)
        for _ in range(25):
            a = _random_element(field, rng)
            if not a:
                continue
            assert a * a.inverse() == field.one()
            assert a / a == field.one()


class TestEmbedding:
    def test_constant_embedding(self):
        assert coords_ints(F25.embed(PrimeFieldElement(2, 5))) == (2, 0)

    def test_zero_embedding(self):
        assert F25.embed(PrimeFieldElement(0, 5)) == F25.zero()

    def test_embedding_into_quartic(self):
        assert coords_ints(F13_4.embed(PrimeFieldElement(5, 13))) == (5, 0, 0, 0)

    def test_embed_wrong_base(self):
        with pytest.raises(FieldMismatch):
            F25.embed(PrimeFieldElement(1, 13))

    def test_is_in_base(self):
        assert F25.element([2, 0]).as_base() == PrimeFieldElement(2, 5)
        assert F25.gen().as_base() is None

    def test_square_falls_into_base(self):
        x = F25.gen()
        assert (x * x).as_base() == PrimeFieldElement(2, 5)

    @pytest.mark.parametrize("field", [F25, F13_4, E_CUBIC])
    def test_round_trip(self, field):
        rng = random.Random(3)
        for _ in range(10):
            c = _random_element(field.base, rng)
            assert field.embed(c).as_base() == c


class TestPow:
    def test_quartic_power_reaches_base(self):
        alpha = F13_4.gen()
        assert alpha**4 == F13_4.embed(PrimeFieldElement(2, 13))

    def test_zeroth_power(self):
        assert F25.element([3, 2]) ** 0 == F25.one()
        assert F25.zero() ** 0 == F25.one()

    def test_first_power(self):
        a = F25.element([3, 2])
        assert a**1 == a

    @pytest.mark.parametrize("field,group_order", [(F25, 24), (F13_4, 13**4 - 1)])
    def test_order_divides_group_order(self, field, group_order):
        rng = random.Random(11)
        for _ in range(5):
            a = _random_element(field, rng)
            if not a:
                continue
            k, acc = 1, a
            while acc != field.one():
                acc = acc * a
                k += 1
            assert group_order % k == 0


def _random_element(field, rng):
    if isinstance(field, PrimeField):
        return PrimeFieldElement(rng.randrange(field.p), field.p)
    if isinstance(field, RationalField):
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))
    return field.element([_random_element(field.base, rng) for _ in range(field.degree)])


@pytest.mark.parametrize("field", [F25, F13_4, K_EISENSTEIN, E_CUBIC])
def test_field_axioms_on_random_triples(field):
    rng = random.Random(field.degree)
    one = field.one()
    for _ in range(20):
        a, b, c = (_random_element(field, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a
        assert a * one == a
        assert a + field.zero() == a


@given(coords=st.lists(st.integers(0, 12), min_size=0, max_size=4))
@settings(max_examples=60)
def test_coordinates_always_full_length(coords):
    e = F13_4.element(coords)
    assert len(e.coords) == 4


def test_nested_coordinates_stay_recursive():
    e = E_CUBIC.gen()
    assert len(e.coords) == 3
    for c in e.coords:
        assert c.field == K_EISENSTEIN
        assert len(c.coords) == 2


def test_cross_level_arithmetic():
    t = K_EISENSTEIN.gen()
    alpha = E_CUBIC.gen()
    assert t * alpha == alpha * t
    assert (t + alpha) - alpha == E_CUBIC.embed(t)
    # alpha^3 - 3*alpha + 1 = 0 by the defining relation
    assert (alpha**3 - 3 * alpha + 1).as_base() == K_EISENSTEIN.zero()


# -- pinned operator table -------------------------------------------------
#
# Every arithmetic operator and its reflected form, against every kind of
# operand an extension element meets: an element of the same field (also of
# an equal but distinct field object), elements one and two levels down, an
# int, a Fraction, a scalar of a foreign prime field, an element of an
# unrelated extension and a str. Each outcome is the result's field and
# nested coordinates, the bool of ==, or the exception class. The outcomes
# live in tower_operator_table.json; ``python tests/test_tower.py`` prints
# the table the current code produces, in that file's format.

OPERATOR_TABLE_PATH = Path(__file__).with_name("tower_operator_table.json")

F25_3 = ExtensionField(F25, Polynomial(F25, [-F25.gen(), 0, 1]))  # Y^2 = alpha, a non-square of order 8
QQ_I = ExtensionField(QQ, Polynomial(QQ, [1, 0, 1]))

OPERATOR_TOWERS = {
    "Fp-2": (F25, F13_4.gen()),
    "Fp-3": (F25_3, F13_4.gen()),
    "QQ-2": (K_EISENSTEIN, QQ_I.gen()),
    "QQ-3": (E_CUBIC, QQ_I.gen()),
}

OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "==": operator.eq}


def _down(field, levels):
    """A nonzero element `levels` levels below the top of the tower."""
    for _ in range(levels):
        field = field.base
    if isinstance(field, ExtensionField):
        return field.element([field.base.from_int(k + 2) for k in range(field.degree)])
    return field.from_int(3)


def operator_operands(tower: str) -> dict:
    top, foreign = OPERATOR_TOWERS[tower]
    operands = {
        "same": top.element([_down(top, 1) * (k + 1) for k in range(top.degree)]),
        "equal-field-copy": ExtensionField(top.base, top.modulus).element([_down(top, 1)] * top.degree),
        "down-1": _down(top, 1),
        "int": 3,
        "fraction": Fraction(2, 3),
        "foreign-prime": PrimeFieldElement(3, 13 if top.characteristic() != 13 else 5),
        "foreign-extension": foreign,
        "str": "3",
    }
    if top.height() == 3:
        operands["down-2"] = _down(top, 2)
    return operands


def operator_lefts(tower: str) -> dict:
    top, _ = OPERATOR_TOWERS[tower]
    return {
        "generic": top.element([_down(top, 1)] * top.degree),
        "embedded": top.embed(_down(top, 1)),
    }


def _describe(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, ExtensionElement):
        return {"field": str(value.field), "coords": [_coords(c) for c in value.coords]}
    return {"value": repr(value)}


def _coords(value):
    if isinstance(value, ExtensionElement):
        return [_coords(c) for c in value.coords]
    return str(value)


def operator_outcomes(left, operand) -> dict:
    """`left op operand` and `operand op left` for every operator."""
    out = {}
    for symbol, op in OPERATORS.items():
        for side, args in (("", (left, operand)), ("reflected ", (operand, left))):
            try:
                out[side + symbol] = _describe(op(*args))
            except Exception as exc:  # the class is the pinned outcome
                out[side + symbol] = {"raises": type(exc).__name__}
    return out


def operator_cases():
    for tower in OPERATOR_TOWERS:
        for left_name, left in operator_lefts(tower).items():
            for kind, operand in operator_operands(tower).items():
                yield f"{tower}/{left_name}/{kind}", left, operand


def current_operator_table() -> dict:
    return {key: operator_outcomes(left, operand) for key, left, operand in operator_cases()}


OPERATOR_TABLE = json.loads(OPERATOR_TABLE_PATH.read_text())


def test_operator_table_covers_every_case():
    assert [key for key, _, _ in operator_cases()] == list(OPERATOR_TABLE)


@pytest.mark.parametrize("key,left,operand", list(operator_cases()), ids=[key for key, _, _ in operator_cases()])
def test_operator_outcome_pinned(key, left, operand):
    assert operator_outcomes(left, operand) == OPERATOR_TABLE[key]


if __name__ == "__main__":
    print(json.dumps(current_operator_table(), indent=1))
