"""Exception hierarchy.

Three branches matter to callers: ``ValidationError`` (the input violates a
hypothesis and was rejected), ``InputFormatError`` (the input could not even
be parsed), and everything else (contract breaches that indicate a bug or a
corrupted value). The CLI maps these to exit codes 1, 3 and 2 respectively.
"""


class KummerError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(KummerError):
    """A hypothesis or well-formedness requirement on the input failed."""


class InputFormatError(KummerError):
    """A document could not be parsed or does not match the schema."""


# -- arithmetic contract errors ------------------------------------------

class ZeroDenominator(KummerError):
    pass


class DivisionByZero(KummerError):
    pass


class NotInvertible(ValidationError):
    """gcd with the modulus is not 1; witnesses a reducible modulus."""


class FieldMismatch(KummerError):
    pass


class DimensionMismatch(KummerError):
    pass


class NotMonic(KummerError):
    pass


# -- hypothesis / input validation errors --------------------------------

class NotPrime(ValidationError):
    pass


class PrimeTooLarge(ValidationError):
    """The characteristic is too large for the primality test to be exact."""


class NoPrimitiveRoot(ValidationError):
    pass


class CharacteristicDividesN(ValidationError):
    pass


class ReducibleModulus(ValidationError):
    pass


class TowerTooTall(ValidationError):
    pass


class NotAnAutomorphism(ValidationError):
    pass


class AutomorphismOrderMismatch(ValidationError):
    pass


class EmptyEigenspace(ValidationError):
    """The expected eigenspace is empty; the input lied about being cyclic."""


class ScalarTooLarge(ValidationError):
    """A certificate scalar has more decimal digits than the interpreter's
    int-to-str conversion limit (sys.get_int_max_str_digits()) allows."""


# -- serialization errors -------------------------------------------------

class ParseError(InputFormatError):
    pass


class SchemaViolation(InputFormatError):
    pass


class MalformedCertificate(InputFormatError):
    pass
