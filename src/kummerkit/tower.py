"""Field towers: a ground field (F_p or QQ) plus up to two quotient-ring
extension levels, with full element arithmetic.

An extension element is a coordinate vector over the level below, always
stored at full length (zero-padded). Coordinates stay recursive: an element
of E = K[X]/(f) over K = QQ[t]/(g) holds K-elements, never a flattened
rational vector, so the linear algebra downstream is genuinely over K.
Only the multiply, the dot product and the elimination flatten, and only
K knows how, on its ground field's ``to_ints`` and ``from_ints``: over an
extension of F_p or QQ, ``raw_mul_mod`` runs ``int_mul_mod`` on ground
ints, and a matrix's one int form is its ``int_expansion``, which
``raw_mat_apply`` applies (``int_mat_apply``) and ``rref`` over a K
proven a field eliminates over the ground field, reading K's RREF back
(``from_expansion_rref``); none of them multiplies or inverts in K.
"""

from __future__ import annotations

import operator

from .errors import DivisionByZero, FieldMismatch, NotInvertible, NotMonic, ReducibleModulus, TowerTooTall
from .linalg import substitution_matrix
from .polynomials import Polynomial, cyclotomic_index, kummer_frobenius, poly_gcd_extended, poly_pow_mod
from .polynomials import rabin_frobenius, raw_mul_mod
from .scalars import IdentityHooks, PrimeField, RationalField

MAX_TOWER_HEIGHT = 3


class ExtensionField(IdentityHooks):
    """base[X]/(modulus) for a monic modulus of degree >= 1 over the base.

    Building the field records what it proved, for every caller to read.
    ``proven_field``: the modulus is irreducible over F_p, or it equals
    some Phi_m over QQ (``cyclotomic_index``; irreducible by Gauss). Over
    F_p the field keeps the coordinates of X^p mod f as the tuple
    ``frobenius_image``, and ``frobenius`` is the Frobenius matrix Q
    (column j is X^(j*p) mod f); over other bases both are None.

    Over F_p, ``witness`` may offer a certificate's Kummer witness
    (n, zeta, s, x): an int n, and zeta and the at most d coordinates each
    of s and x as anything ``kummer_frobenius`` takes, such as the elements
    a certificate's reader parsed. When ``kummer_frobenius`` finds that it
    proves the modulus irreducible (one X^p and one x^n), no Rabin test
    runs: the field records the witness as ``kummer_witness``, (x's
    coordinates, x^n), and builds Q from ``frobenius_image`` when
    ``frobenius`` is first read. Otherwise
    ``kummer_witness`` is None and the Rabin test runs, which raises
    ReducibleModulus on a reducible modulus and keeps its Q. Both ways give
    the same field, with the same ``frobenius_image`` and Q.

    A modulus over another base, not proven irreducible, is accepted as
    asserted: a reducible one surfaces only when a division meets a zero
    divisor (NotInvertible), and otherwise may go unseen, so some such
    algebras certify valid (ROADMAP item 1).

    Over F_p or QQ, ``int_modulus`` is the modulus's low coefficients as
    ground ints (``flatten``), kept for every fold by it; over a higher
    base it is None, as on F_p and QQ themselves.
    """

    __slots__ = ("base", "modulus", "degree", "_frobenius", "frobenius_image", "kummer_witness", "proven_field", "int_modulus")

    def __init__(self, base, modulus: Polynomial, witness=None):
        if modulus.field != base:
            raise FieldMismatch(f"modulus over {modulus.field}, base is {base}")
        if modulus.degree < 1:
            raise ValueError("extension modulus must have degree >= 1")
        if not modulus.is_monic():
            raise NotMonic(f"extension modulus must be monic, got {modulus}")
        if base.height() + 1 > MAX_TOWER_HEIGHT:
            raise TowerTooTall(f"tower would have height {base.height() + 1}, cap is {MAX_TOWER_HEIGHT}")
        frobenius = frobenius_image = kummer_witness = None
        if isinstance(base, PrimeField):
            proof = None if witness is None else kummer_frobenius(modulus, *witness)
            if proof is not None:
                frobenius_image, kummer_witness = proof
            else:
                rabin = rabin_frobenius(modulus)
                if rabin is None:
                    raise ReducibleModulus(f"{modulus} is reducible over {base}")
                frobenius, frobenius_image = rabin
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "degree", modulus.degree)
        object.__setattr__(self, "_frobenius", frobenius)
        object.__setattr__(self, "frobenius_image", frobenius_image)
        object.__setattr__(self, "kummer_witness", kummer_witness)
        object.__setattr__(self, "proven_field", frobenius_image is not None or cyclotomic_index(modulus) is not None)
        on_ints = isinstance(base, (PrimeField, RationalField))
        object.__setattr__(self, "int_modulus", self.flatten([modulus.coeffs[:-1]], self.degree) if on_ints else None)

    @property
    def frobenius(self):
        """Q, the substitution matrix of X^p mod f over F_p (None over other
        bases): the Rabin test's, or built on first read."""
        if self._frobenius is None and self.frobenius_image is not None:
            object.__setattr__(self, "_frobenius", substitution_matrix(self.base, self.modulus, self.frobenius_image))
        return self._frobenius

    def __setattr__(self, name, value):
        raise AttributeError("ExtensionField is immutable")

    def flatten(self, rows, s: int) -> tuple[list, int]:
        """([(i s + u, c)], D): the nonzero ground values of rows of e
        values each, value u of row i at index i s + u, as ints c over one
        denominator D (the ground field's ``to_ints``)."""
        e = self.degree
        ints, den = self.base.to_ints([c for row in rows for c in row])
        return [(k // e * s + k % e, c) for k, c in enumerate(ints) if c], den

    def _fold_by_g(self, out: list, row: int) -> int:
        """The fold of a product by this field's modulus g, monic of degree
        e, on ground ints, in place: the t^u of out's row at index row, a
        run of 2e - 1 ints, are folded from u = 2e - 2 down to e by
        t^e = -(low ints of g)/D, ``int_modulus``. When D != 1, every int of
        out is multiplied by D before each nonzero t^u is folded; the
        product of those D, by which out's denominator grows, is returned.
        The ints at u >= e are left behind, to be ignored."""
        e = self.degree
        low, den = self.int_modulus
        scale = 1
        for m in range(row + 2 * e - 2, row + e - 1, -1):
            x = out[m]
            if x:
                if den != 1:
                    out[:] = [c * den for c in out]
                    scale *= den
                for j, y in low:
                    out[m - e + j] -= x * y
        return scale

    def _box(self, ints, den: int) -> "ExtensionElement":
        """The element whose e ground coordinates are ints over the
        denominator den (the ground field's ``from_ints``)."""
        return ExtensionElement(self, tuple(self.base.from_ints(ints, den)))

    def int_mul_mod(self, a, b, f: Polynomial) -> list:
        """``raw_mul_mod`` over this field K = ground[t]/(g), ground F_p or
        QQ, g monic of degree e, on ints.

        Flatten: the d e ground coordinates of a, of b and of f's d low
        coefficients become (index, int) terms over a common denominator
        each (``flatten``), coordinate u of coefficient k at index k s + u,
        where the stride s = 2e - 1 holds a row's t-coefficients before
        their reduction mod g. Multiply: the bivariate product of a and b,
        once, over ZZ. Fold, row by row from the top: the row by g
        (``_fold_by_g``), and then, in a row k >= d, the whole row by f into
        rows k - d .. k - 1, so no row ever holds more than s coefficients.
        A fold by f, whose low terms are -(ints)/D, multiplies every int by
        D first, once per row, and D multiplies the result's denominator;
        D is 1 over F_p and for an integral f. Box: rows 0 .. d-1,
        coordinates 0 .. e-1, become one element each (``_box``).
        """
        d, e = f.degree, self.degree
        s = 2 * e - 1
        terms_a, den = self.flatten([x.coords for x in a], s)
        terms_b, den_b = (terms_a, den) if a is b else self.flatten([x.coords for x in b], s)
        out = [0] * ((2 * d - 1) * s)
        for i, x in terms_a:
            for j, y in terms_b:
                out[i + j] += x * y
        den *= den_b
        low_f, den_f = self.flatten([c.coords for c in f.coeffs[:d]], s)
        for row in range((2 * d - 2) * s, -1, -s):
            den *= self._fold_by_g(out, row)
            top = out[row : row + e]
            if row >= d * s and any(top):
                if den_f != 1:
                    out = [c * den_f for c in out]
                    den *= den_f
                for u, x in enumerate(top, row - d * s):
                    if x:
                        for j, y in low_f:
                            out[u + j] -= x * y
        return [self._box(out[row : row + e], den) for row in range(0, d * s, s)]

    def int_expansion(self, raw_rows) -> list:
        """The ground expansion of a matrix over this field K, ground F_p or
        QQ, g monic of degree e: the matrix of the ground-linear map that the
        matrix is, as rows (ints, D) of ground ints over a denominator D. Its
        column (j, u), at index j e + u, is t^u times column j; its row
        (i, w), at index i e + w, holds coordinate w.

        Each row is flattened once, over its own denominator (``flatten``),
        and the matrix is kept as e lanes, lane w holding coordinate w of
        every entry. t^(u + 1) times the entries is t^u times them with the
        lanes moved up one and the top lane folded once by
        t^e = -(low ints of g)/D_g, ``int_modulus``. When D_g != 1, every
        int so far is multiplied by D_g first, so every row's denominator
        grows by D_g^(e - 1)."""
        e = self.degree
        low, den_g = self.int_modulus
        width = len(raw_rows[0]) * e if raw_rows else 0
        flat, dens = [0] * (len(raw_rows) * width), []
        for i, row in enumerate(raw_rows):
            terms, den = self.flatten([x.coords for x in row], e)
            for k, c in terms:
                flat[i * width + k] = c
            dens.append(den)
        power = [flat[w::e] for w in range(e)]
        ground = [[0] * len(flat) for _ in range(e)]
        for u in range(e):
            if u:
                top = power[-1]
                if den_g != 1:
                    power = [[den_g * c for c in lane] for lane in power]
                    ground = [[den_g * c for c in lane] for lane in ground]
                power = [[0] * len(top)] + power[:-1]
                for w, y in low:
                    power[w] = [c - y * x for c, x in zip(power[w], top)]
            for lane, values in zip(ground, power):
                lane[u::e] = values
        scale = den_g ** (e - 1)
        return [(lane[i * width : i * width + width], den * scale) for i, den in enumerate(dens) for lane in ground]

    def int_mat_apply(self, expansion, v) -> list:
        """``raw_mat_apply`` over this field K, ground F_p or QQ, g monic of
        degree e, on a matrix's ``int_expansion``: the vector's ground
        coordinates flattened the same way (``flatten``), each ground row's
        sum of products with them in ZZ, and e of those sums boxed over
        their rows' denominator times the vector's (``_box``). No fold: the
        expansion has folded each t^u by g already."""
        e = self.degree
        terms, den_v = self.flatten([x.coords for x in v], e)
        ints = [0] * (len(v) * e)
        for i, y in terms:
            ints[i] = y
        sums = [sum(map(operator.mul, row, ints)) for row, _ in expansion]
        return [self._box(sums[r : r + e], expansion[r][1] * den_v) for r in range(0, len(sums), e)]

    def from_expansion_rref(self, rows) -> list:
        """The raw rows of K's RREF from the RREF of its ``int_expansion``,
        read back as ground elements at the columns j e only: coordinate u
        of K's entry (r, j) is the element j of ground row r e + u."""
        e = self.degree
        return [[ExtensionElement(self, c) for c in zip(*rows[r : r + e])] for r in range(0, len(rows), e)]

    def raw_inverse(self, value):
        return value.inverse()

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

    def _match(self, other):
        """(a, b): self and other as elements of one field, or None when
        other is no element of this tower (a foreign prime scalar, a
        non-field object). When other lies in an extension of self's field,
        self is embedded one level up, since Python never tries the reflected
        operator when both operands share a class; anything else goes through
        ``self.field.coerce``."""
        field = self.field
        if isinstance(other, ExtensionElement) and other.field is not field and other.field.base == field:
            return other.field.embed(self), other
        try:
            return self, field.coerce(other)
        except FieldMismatch:
            if isinstance(other, ExtensionElement):
                raise  # an element of an unrelated extension
            return None

    def _coordwise(self, other, op):
        pair = self._match(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return ExtensionElement(a.field, tuple(map(op, a.coords, b.coords)))

    def __add__(self, other):
        return self._coordwise(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._coordwise(other, operator.sub)

    def __rsub__(self, other):
        pair = self._match(other)
        return NotImplemented if pair is None else pair[1] - pair[0]

    def __neg__(self):
        return ExtensionElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        """Product in the extension.

        A base-field operand (anything ``field.coerce`` embeds, ints
        included) multiplies each coordinate: the embedding of c is
        (c, 0, ..., 0), and c * sum(a_i X^i) = sum((c a_i) X^i) needs no
        reduction, so the result equals the full product with the embedded
        scalar at n base multiplies instead of n^2. Two extension elements
        are multiplied by ``raw_mul_mod``, the only multiply mod f, on the
        base field's raw values, unboxed once (once for a square), and
        boxed once; ``poly_pow_mod``, the only residue power, runs on it
        too. Over F_p that is one packed multiply and one fold by the
        modulus's fold table, which the field's multiplies and powers share;
        over an extension of F_p or QQ, one product and one fold on the
        ground ints.
        """
        field = self.field
        if not (isinstance(other, ExtensionElement) and (other.field is field or other.field == field)):
            pair = self._match(other)
            if pair is None:
                return NotImplemented
            a, b = pair
            if a is not self:  # self was lifted into other's field
                return a * b
            c = b.coords[0]  # b embeds a base-field scalar
            return ExtensionElement(field, tuple(x * c for x in self.coords))
        base = field.base
        a = base.unbox(self.coords)
        b = a if other is self else base.unbox(other.coords)
        return ExtensionElement(field, tuple(base.box(raw_mul_mod(base, a, b, field.modulus))))

    __rmul__ = __mul__

    def __truediv__(self, other):
        pair = self._match(other)
        return NotImplemented if pair is None else pair[0] * pair[1].inverse()

    def __rtruediv__(self, other):
        pair = self._match(other)
        return NotImplemented if pair is None else pair[1] * pair[0].inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        field = self.field
        return field.element(poly_pow_mod(Polynomial._of(field.base, list(self.coords)), e, field.modulus).coeffs)

    def inverse(self) -> "ExtensionElement":
        """Multiplicative inverse via extended gcd with the modulus.

        A nonzero element whose representative shares a factor with the
        modulus raises NotInvertible: arithmetic just witnessed that the
        asserted-irreducible modulus is in fact reducible.
        """
        if not self:
            raise DivisionByZero(f"0 has no inverse in {self.field}")
        field = self.field
        rep = Polynomial._of(field.base, list(self.coords))
        g, u, _ = poly_gcd_extended(rep, field.modulus)
        if g.degree != 0:
            raise NotInvertible(f"gcd({rep}, {field.modulus}) = {g}; the modulus is reducible")
        return ExtensionElement(field, u.padded(field.degree))  # deg u < deg f

    def as_base(self):
        """The base-field value when all higher coordinates vanish, else None."""
        if any(self.coords[1:]):
            return None
        return self.coords[0]

    def __eq__(self, other):
        try:
            pair = self._match(other)
        except FieldMismatch:
            return False
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.coords == b.coords

    def __hash__(self):
        return hash((self.field, self.coords))

    def __bool__(self):
        return any(self.coords)

    def __repr__(self):
        return f"ExtensionElement({self.field!r}, {self.coords!r})"

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"
