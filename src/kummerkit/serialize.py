"""Canonical JSON for field specs, elements, inputs and certificates.

Conventions (normative for every file this package reads or writes):

* scalars are decimal strings, never JSON numbers: rationals as "num/den"
  with the denominator omitted when it is 1, prime-field values as their
  canonical representative in [0, p); each integer in a scalar string is
  spelt as ``str(int)`` writes it;
* an element of a ground field (prime or rationals) is a scalar string; an
  element of an extension is the array of its coordinates over the base,
  degree-ascending, recursively;
* polynomials are arrays of element encodings, degree-ascending;
* structural integers (n, eigenvalue exponents, dimensions) are JSON
  integers, not strings or booleans -- small counts, not field scalars;
* emitted documents have a fixed key order, so identical values serialize
  to identical bytes.

Each leaf kind has one reader, any other spelling is a SchemaViolation, and
each leaf is read once, E's Kummer witness included (``input_from_json``).
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .errors import (
    MalformedCertificate,
    NotMonic,
    ParseError,
    SchemaViolation,
    TowerTooTall,
    ValidationError,
    ZeroDenominator,
)
from .kummer import (
    CERTIFICATE_VERSION,
    CHECK_NAMES,
    CyclicExtensionInput,
    EigenEntry,
    EigenReport,
    KummerCertificate,
)
from .polynomials import Polynomial
from .scalars import PrimeField, PrimeFieldElement, RationalField, rational
from .tower import ExtensionField


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: fixed key order, 2-space indent, newline end."""
    return json.dumps(obj, indent=2, ensure_ascii=True) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # after JSONDecodeError, its subclass
        raise ParseError(f"invalid JSON: an integer literal past {sys.get_int_max_str_digits()} digits") from exc


# -- elements --------------------------------------------------------------

def element_to_json(field, elem):
    if isinstance(field, (PrimeField, RationalField)):
        return str(field.coerce(elem))
    return [element_to_json(field.base, c) for c in field.coerce(elem).coords]


def element_from_json(field, obj):
    if isinstance(field, PrimeField):
        return PrimeFieldElement(_int_from_json(obj, "prime-field element"), field.p)
    if isinstance(field, RationalField):
        return _rational_from_json(obj)
    return field.element(_coords_from_json(field.base, field.modulus, obj))


def _coords_from_json(base, modulus, obj) -> list:
    """The coordinates over base of an element of base[X]/(modulus), read
    before that field need exist (E, while its witness is read)."""
    if not isinstance(obj, list):
        raise SchemaViolation(f"element of {base}[X]/({modulus}) must be a coordinate array, got {obj!r}")
    if len(obj) > modulus.degree >= 1:  # a modulus of degree < 1 is the build's to name
        raise SchemaViolation(f"{len(obj)} coordinates for a degree-{modulus.degree} extension")
    return [element_from_json(base, c) for c in obj]


def _int_from_json(obj, what: str) -> int:
    if not isinstance(obj, str):
        raise SchemaViolation(f"{what} must be a decimal string, got {obj!r}")
    try:
        return _decimal(obj)
    except ValueError as exc:
        raise SchemaViolation(f"{what} is not a decimal integer: {obj!r}") from exc


def _count_from_json(obj, what: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaViolation(f"{what} must be a JSON integer, got {obj!r}")
    return obj


def _decimal(text: str) -> int:
    """The int that text spells as ``str`` writes it: ASCII digits, a '-'
    only before a nonzero value, no '+', space, '_' or leading zero."""
    value = int(text, 10)
    if str(value) != text:
        raise ValueError(f"{text!r} is not a canonical decimal integer")
    return value


def _rational_from_json(obj) -> Fraction:
    """The rational that obj spells as ``str`` writes it: "num/den" in
    lowest terms with den > 1, or the integer alone; so not "2/4", "3/1",
    "1/-2" or "0/5"."""
    if not isinstance(obj, str):
        raise SchemaViolation(f"rational must be a string like 'num/den', got {obj!r}")
    num, _, den = obj.partition("/")
    try:
        value = rational(_decimal(num), _decimal(den)) if den else Fraction(_decimal(num))
        if str(value) != obj:
            raise ValueError(f"{obj!r} is not a canonical rational")
    except (ValueError, ZeroDenominator) as exc:
        raise SchemaViolation(f"invalid rational {obj!r}") from exc
    return value


# -- polynomials -----------------------------------------------------------

def poly_to_json(poly: Polynomial) -> list:
    return [element_to_json(poly.field, c) for c in poly.coeffs]


def poly_from_json(field, obj) -> Polynomial:
    if not isinstance(obj, list):
        raise SchemaViolation(f"polynomial must be an array of coefficients, got {obj!r}")
    return Polynomial(field, [element_from_json(field, c) for c in obj])


# -- field specs -------------------------------------------------------------

def field_to_json(field) -> dict:
    if isinstance(field, PrimeField):
        return {"kind": "prime", "p": str(field.p)}
    if isinstance(field, RationalField):
        return {"kind": "rationals"}
    if isinstance(field, ExtensionField):
        return {
            "kind": "extension",
            "base": field_to_json(field.base),
            "modulus": poly_to_json(field.modulus),
        }
    raise SchemaViolation(f"unknown field {field!r}")


def field_from_json(obj):
    """The field a spec describes, built from its ground field up by a loop
    over the ``base`` chain: a spec nested as deep as the JSON parser allows
    fails as too tall, not on the interpreter's recursion limit."""
    moduli = []
    while isinstance(obj, dict) and obj.get("kind") == "extension":
        if "base" not in obj or "modulus" not in obj:
            raise SchemaViolation("extension field spec needs 'base' and 'modulus'")
        moduli.append(obj["modulus"])
        obj = obj["base"]
    if not isinstance(obj, dict):
        raise SchemaViolation(f"field spec must be an object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "prime":
        if "p" not in obj:
            raise SchemaViolation("prime field spec needs 'p'")
        field = PrimeField(_int_from_json(obj["p"], "field characteristic"))
    elif kind == "rationals":
        field = RationalField()
    else:
        raise SchemaViolation(f"unknown field kind {kind!r}")
    for modulus in reversed(moduli):
        field = _build_extension(field, poly_from_json(field, modulus))
    return field


def _build_extension(base, modulus, witness=None) -> ExtensionField:
    # structural defects in a document are schema violations, not arithmetic
    # errors; ReducibleModulus stays a validation rejection
    try:
        return ExtensionField(base, modulus, witness)
    except (NotMonic, TowerTooTall, ValueError) as exc:
        raise SchemaViolation(str(exc)) from exc


# -- tower-spec documents ----------------------------------------------------

INPUT_KEYS = ("base", "n", "zeta", "modulus", "sigma_image")


def input_to_json(inp: CyclicExtensionInput) -> dict:
    base = inp.base_field
    return {
        "base": field_to_json(base),
        "n": inp.n,
        "zeta": element_to_json(base, inp.zeta),
        "modulus": poly_to_json(inp.modulus),
        "sigma_image": element_to_json(inp.ext_field, inp.sigma_image),
    }


def input_from_json(obj, x=None) -> tuple:
    """(the input a tower spec describes, x or None). A certificate passes
    its encoded x too, which is returned as an element of E. Every leaf is
    read once, before E is built: over F_p the parsed n, zeta, s and x are
    E's Kummer witness, which may prove E a field instead of the Rabin test
    (``ExtensionField``), with the same result."""
    if not isinstance(obj, dict):
        raise SchemaViolation(f"tower spec must be an object, got {obj!r}")
    missing = [k for k in INPUT_KEYS if k not in obj]
    if missing:
        raise SchemaViolation(f"tower spec is missing keys: {', '.join(missing)}")
    base = field_from_json(obj["base"])
    modulus = poly_from_json(base, obj["modulus"])
    n = _count_from_json(obj["n"], "n")
    zeta = element_from_json(base, obj["zeta"])
    image = _coords_from_json(base, modulus, obj["sigma_image"])
    if x is not None:
        x = _coords_from_json(base, modulus, x)
    ext = _build_extension(base, modulus, None if x is None else (n, zeta, image, x))
    return CyclicExtensionInput(ext, n, zeta, ext.element(image)), None if x is None else ext.element(x)


# -- certificates -------------------------------------------------------------

def certificate_to_json(cert: KummerCertificate) -> dict:
    base = cert.input.base_field
    ext = cert.input.ext_field
    return {
        "input": input_to_json(cert.input),
        "eigen": [
            {"i": e.i, "eigenvalue": element_to_json(base, e.eigenvalue), "dimension": e.dimension}
            for e in cert.eigen.entries
        ],
        "x": element_to_json(ext, cert.x),
        "c": element_to_json(base, cert.c),
        "x_min_poly": poly_to_json(cert.x_min_poly),
        "checks": {name: bool(cert.checks[name]) for name in CHECK_NAMES},
        "version": CERTIFICATE_VERSION,
    }


def certificate_from_json(obj) -> KummerCertificate:
    try:
        if not isinstance(obj, dict):
            raise MalformedCertificate("certificate must be a JSON object")
        for key in ("input", "eigen", "x", "c", "x_min_poly", "checks", "version"):
            if key not in obj:
                raise MalformedCertificate(f"certificate is missing '{key}'")
        if obj["version"] != CERTIFICATE_VERSION:
            raise MalformedCertificate(f"unsupported certificate version {obj['version']!r}")
        inp, x = input_from_json(obj["input"], obj["x"])
        base = inp.base_field
        entries = []
        if not isinstance(obj["eigen"], list):
            raise MalformedCertificate("'eigen' must be an array")
        for entry in obj["eigen"]:
            entries.append(
                EigenEntry(
                    i=_count_from_json(entry["i"], "eigenvalue exponent"),
                    eigenvalue=element_from_json(base, entry["eigenvalue"]),
                    dimension=_count_from_json(entry["dimension"], "eigenspace dimension"),
                )
            )
        checks = obj["checks"]
        if not isinstance(checks, dict) or set(checks) != set(CHECK_NAMES):
            raise MalformedCertificate("'checks' must contain exactly the documented flags")
        if not all(isinstance(v, bool) for v in checks.values()):
            raise MalformedCertificate("check flags must be booleans")
        return KummerCertificate(
            input=inp,
            eigen=EigenReport(tuple(entries)),
            x=x,
            c=element_from_json(base, obj["c"]),
            x_min_poly=poly_from_json(base, obj["x_min_poly"]),
            checks={name: checks[name] for name in CHECK_NAMES},
        )
    except MalformedCertificate:
        raise
    except (SchemaViolation, ValidationError, KeyError, TypeError) as exc:
        raise MalformedCertificate(f"certificate does not match the schema: {exc}") from exc
