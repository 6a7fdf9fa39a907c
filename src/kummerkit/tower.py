"""Field towers: a ground field (F_p or QQ) plus up to two quotient-ring
extension levels, with full element arithmetic.

An extension element is a coordinate vector over the level below, always
stored at full length (zero-padded). Coordinates stay recursive: an element
of E = K[X]/(f) over K = QQ[t]/(g) holds K-elements, never a flattened
rational vector, so the linear algebra downstream is genuinely over K.
"""

from __future__ import annotations

from .errors import DivisionByZero, FieldMismatch, NotInvertible, NotMonic, ReducibleModulus, TowerTooTall
from .polynomials import Polynomial, is_irreducible_mod_p, poly_gcd_extended
from .scalars import PrimeField, fp_ext_mul

MAX_TOWER_HEIGHT = 3


class ExtensionField:
    """base[X]/(modulus) for a monic modulus of degree >= 1 over the base.

    Over a prime-field base the modulus is verified irreducible; over other
    bases it is accepted as asserted and a reducible one surfaces later as a
    NotInvertible witness or a failed certificate check.
    """

    __slots__ = ("base", "modulus", "degree")

    def __init__(self, base, modulus: Polynomial):
        if modulus.field != base:
            raise FieldMismatch(f"modulus over {modulus.field}, base is {base}")
        if modulus.degree < 1:
            raise ValueError("extension modulus must have degree >= 1")
        if not modulus.is_monic():
            raise NotMonic(f"extension modulus must be monic, got {modulus}")
        if base.height() + 1 > MAX_TOWER_HEIGHT:
            raise TowerTooTall(f"tower would have height {base.height() + 1}, cap is {MAX_TOWER_HEIGHT}")
        if isinstance(base, PrimeField) and not is_irreducible_mod_p(modulus):
            raise ReducibleModulus(f"{modulus} is reducible over {base}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "degree", modulus.degree)

    def __setattr__(self, name, value):
        raise AttributeError("ExtensionField is immutable")

    def height(self) -> int:
        return self.base.height() + 1

    def characteristic(self) -> int:
        return self.base.characteristic()

    def element(self, coords) -> "ExtensionElement":
        coords = [self.base.coerce(c) for c in coords]
        if len(coords) > self.degree:
            raise FieldMismatch(f"{len(coords)} coordinates for a degree-{self.degree} extension")
        coords += [self.base.zero()] * (self.degree - len(coords))
        return ExtensionElement(self, tuple(coords))

    def zero(self) -> "ExtensionElement":
        return self.element(())

    def one(self) -> "ExtensionElement":
        return self.element((self.base.one(),))

    def gen(self) -> "ExtensionElement":
        """The class of X, i.e. the adjoined root of the modulus."""
        if self.degree == 1:
            # X = -modulus[0] in a degree-1 quotient
            return self.element((-self.modulus.coeffs[0],))
        return self.element((self.base.zero(), self.base.one()))

    def embed(self, c) -> "ExtensionElement":
        return self.element((self.base.coerce(c),))

    def from_int(self, k: int) -> "ExtensionElement":
        return self.embed(self.base.from_int(k))

    def coerce(self, value) -> "ExtensionElement":
        if isinstance(value, ExtensionElement):
            if value.field == self:
                return value
            if value.field == self.base:
                return self.embed(value)
            raise FieldMismatch(f"element of {value.field} is not in {self}")
        if isinstance(value, int):
            return self.from_int(value)
        return self.embed(self.base.coerce(value))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.modulus.coeffs == self.modulus.coeffs
        )

    def __hash__(self):
        return hash(("extension", self.base, self.modulus.coeffs))

    def __repr__(self):
        return f"ExtensionField({self.base!r}, {self.modulus!r})"

    def __str__(self):
        return f"{self.base}[X]/({self.modulus})"


class ExtensionElement:
    """Element of an ExtensionField as a full-length coordinate vector."""

    __slots__ = ("field", "coords")

    def __init__(self, field: ExtensionField, coords: tuple):
        self.field = field
        self.coords = coords

    def _coerce(self, other):
        if isinstance(other, ExtensionElement):
            if other.field is self.field or other.field == self.field:
                return other
            if other.field == self.field.base:
                return self.field.embed(other)
            raise FieldMismatch(f"elements of {self.field} and {other.field}")
        if isinstance(other, int):
            return self.field.from_int(other)
        try:
            c = self.field.base.coerce(other)
        except FieldMismatch:
            return NotImplemented
        return self.field.embed(c)

    def _lift_into(self, other):
        """self embedded one level up, when other sits in an extension of
        self's field; None otherwise. Needed because Python never tries the
        reflected operator when both operands share a class."""
        if isinstance(other, ExtensionElement) and other.field.base == self.field:
            return other.field.embed(self)
        return None

    def __add__(self, other):
        lifted = self._lift_into(other)
        if lifted is not None:
            return lifted + other
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExtensionElement(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        lifted = self._lift_into(other)
        if lifted is not None:
            return lifted - other
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExtensionElement(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return ExtensionElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        """Product in the extension.

        A base-field operand (anything ``field.base.coerce`` accepts, ints
        included) multiplies each coordinate: the embedding of c is
        (c, 0, ..., 0), and c * sum(a_i X^i) = sum((c a_i) X^i) needs no
        reduction, so the result equals the full product with the embedded
        scalar at n base multiplies instead of n^2. Two extension elements
        are multiplied schoolbook and folded back with the monic modulus,
        over an F_p base by the int kernel ``fp_ext_mul``.
        """
        field = self.field
        if not (isinstance(other, ExtensionElement) and (other.field is field or other.field == field)):
            lifted = self._lift_into(other)
            if lifted is not None:
                return lifted * other
            if isinstance(other, ExtensionElement) and other.field != field.base:
                raise FieldMismatch(f"elements of {field} and {other.field}")
            try:
                c = field.base.coerce(other)
            except FieldMismatch:
                return NotImplemented
            return ExtensionElement(field, tuple(a * c for a in self.coords))
        if type(field.base) is PrimeField:
            return ExtensionElement(field, tuple(fp_ext_mul(self.coords, other.coords, field.modulus.coeffs, field.base.p)))
        deg = field.degree
        zero = field.base.zero()
        prod = [zero] * (2 * deg - 1)
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(other.coords):
                prod[i + j] = prod[i + j] + a * b
        # fold degrees >= deg back down using the monic modulus
        f = field.modulus.coeffs
        for k in range(2 * deg - 2, deg - 1, -1):
            c = prod[k]
            if c:
                for j in range(deg):
                    prod[k - deg + j] = prod[k - deg + j] - c * f[j]
        return ExtensionElement(field, tuple(prod[:deg]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        lifted = self._lift_into(other)
        if lifted is not None:
            return lifted / other
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "ExtensionElement":
        """Multiplicative inverse via extended gcd with the modulus.

        A nonzero element whose representative shares a factor with the
        modulus raises NotInvertible: arithmetic just witnessed that the
        asserted-irreducible modulus is in fact reducible.
        """
        if not self:
            raise DivisionByZero(f"0 has no inverse in {self.field}")
        rep = Polynomial(self.field.base, self.coords)
        g, u, _ = poly_gcd_extended(rep, self.field.modulus)
        if g.degree != 0:
            raise NotInvertible(
                f"gcd({rep}, {self.field.modulus}) = {g}; the modulus is reducible"
            )
        inv = u % self.field.modulus
        return self.field.element(inv.coeffs)

    def as_base(self):
        """The base-field value when all higher coordinates vanish, else None."""
        if any(self.coords[1:]):
            return None
        return self.coords[0]

    def __eq__(self, other):
        if isinstance(other, ExtensionElement) and (other.field is self.field or other.field == self.field):
            return self.coords == other.coords
        lifted = self._lift_into(other)
        if lifted is not None:
            return lifted.coords == other.coords
        try:
            coerced = self._coerce(other)
        except FieldMismatch:
            return False
        if coerced is NotImplemented:
            return NotImplemented
        return self.coords == coerced.coords

    def __hash__(self):
        return hash((self.field, self.coords))

    def __bool__(self):
        return any(self.coords)

    def __repr__(self):
        return f"ExtensionElement({self.field!r}, {self.coords!r})"

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"
