"""The shared arithmetic loops against reference loops over field elements.

Polynomial multiply, ``raw_divmod`` (under ``poly_divmod`` and
``raw_euclid``, the Euclid of every gcd), the E x E multiply, ``rref``
and ``raw_mat_apply`` (under ``mat_apply``) each run one loop on raw
values through the hooks of the field descriptor (``unbox``, ``box``, ``reduce``, ``raw_inverse``,
``raw_zero``). ``rref`` is the only elimination and ``raw_mat_apply`` the
only dot product: ``first_linear_dependency`` reads the first dependency
off ``rref`` and ``Matrix.__mul__`` applies ``mat_apply`` to each column.
``mul_mod`` is the only multiply mod f, made once per modulus and kept on
it over every base, and ``raw_pow_mod`` the only residue power: the E
multiply, ``ExtensionElement.__pow__``, ``poly_pow_mod`` and
``substitution_matrix`` (column j + 1 is column j times the image) run
through them. The first two are checked against ``oracle_ext_mul`` and
``oracle_pow_mod``, as are each column of ``substitution_matrix`` and the
Frobenius matrix that an extension of F_p keeps from its Rabin test.
``oracle_poly_gcd`` is the Euclid ``poly_gcd`` ran on elements before it
ran on raw values. Over ``PrimeField`` the raw values are ints reduced mod
p; over ``QQ`` and tower bases they are the elements themselves. The
oracles below are the generic loops these operations ran before they were
merged, kept verbatim but for the branch to the former int kernels: they
use the elements' own operators and never the hooks. Over a two-level base
those operators still multiply two base elements by the shared E multiply
one level down, so ``test_extension_multiply`` also checks that multiply
against ``oracle_ext_mul`` over the ground field.
``oracle_first_linear_dependency`` is the incremental echelon loop the
dependency search ran before it read ``rref``, ``oracle_mat_mul`` the
row-by-column loop of the former mat-mul, and ``oracle_raw_product`` the
schoolbook loop on F_p's int raw values; all three stay as references.
Every property builds one input and requires the shared loop and the
oracle to give equal values, each of them canonical for its field, over
F_p for every p in ``PRIMES``, over ``QQ`` and over the two-level bases
``QQ(i)`` and ``F_5[t]/(t^2 - 2)``.

The largest p is prime, 1 mod 4 and below ``MR_EXACT_BOUND``, so products of
two values reach about 164 bits before they are reduced.

Over F_p, ``mul_mod`` is the only packed product: it packs the values
into one int each (Kronecker substitution) and folds the high slots back
with the modulus's fold table, which also fixes the slot width.
``raw_product`` is the schoolbook loop over every field, checked against
``oracle_raw_product`` on the same inputs. The packed tests run at p in
``PACKED_PRIMES``, whose slots span one 64-bit word up to three,
and d up to 128: at the largest slot load (every operand coefficient and
every low coefficient of f equal to p - 1), on a zero operand, on a square
(one operand twice) and on the sparse base X. A namespace with the modulus
stands in for the extension there, since the multiply needs only the ring
F_p[X]/(f) and a degree-128 field would spend seconds on its Rabin test.
``substitution_matrix`` is checked the same way at p = 2, 7681 and the
81-bit ``WIDE_P`` and d up to 64, and counted: d - 1 calls of f's kept
multiply, no dot product and no fold table of its own; the Rabin test after it makes
d - 1 Frobenius steps. Those steps are packed dot products on Q's packed
columns, which a counting test finds built once in a whole certify over
F_p: the n eigen kernels shift them. The slot codec round-trips slots of
one, two and three 64-bit words.

Over an extension base K = ground[t]/(g), ``mul_mod`` multiplies and
folds the ground coordinates as ints. Its property draws K among
``EXTENSION_BASES`` (QQ(i), QQ(zeta_3), a g with rational coefficients,
t^3 + 2, a K of degree 1 over QQ and over F_5, and F_25), f integral or
with any rational coordinates, and operands with zero coordinates and
negative and 40-digit numerators and denominators, and checks a * b,
a * a and a^e against ``oracle_ext_mul``, whose K multiplies run on the
Fraction loop or the packed one. ``raw_mat_apply`` over such a K also runs
on ground ints: its property checks ``mat_apply`` and ``Matrix.__mul__``
over every such K, from 1 x 1 to 5 x 5 and non-square, with zero rows, a
zero vector and 40-digit values, against ``oracle_mat_apply`` and
``oracle_mat_mul``. ``rref`` over QQ runs fraction-free on ints, and over
a K proven a field on the ground ints of K's expansion: its property checks
it over QQ and every such K, with 40-digit values, zero and dependent rows
and non-square shapes, against ``oracle_rref``, and runs the expansion
directly on the K that are fields but not proven. A counting test finds no
inverse and no multiply in K inside ``rref`` or ``nullspace`` over a
proven K, and another one ``int_expansion`` per matrix, the one int form
that every dot product and an elimination read. Every int comes from the
ground field's ``to_ints`` and goes back through its ``from_ints``: a
property checks the round trip and the common denominator over every p
in ``PRIMES`` and over QQ. Another finds no ``raw_product`` call inside
such an E multiply, power, substitution matrix, dot product or matrix
product, and counts what K writes as ground ints in each: f flattened
once per modulus, the operands on each multiply, a dot product's vector
and a matrix's rows through ``to_ints``, never its modulus g, whose ints
``int_modulus`` holds from K's construction;
another pins the ``ExtensionElement.__mul__`` calls of a
tower and verify pair of each qq family. The last test of that section
counts ``raw_product`` calls across CLI requests like the benchmark's:
none is over F_p, so every F_p product of the pipeline is packed.

``raw_euclid`` is the only Euclid loop. ``oracle_poly_gcd_extended`` is
the extended Euclid that ran on boxed polynomials before it, and
``oracle_inverse`` the inverse in E that read it. ``poly_gcd_extended``,
``poly_gcd`` and ``ExtensionElement.inverse`` are checked against them
over F_13, F_7681, the 81-bit F_p, QQ and QQ(i) with 40-digit values, and
F_5[t]/(t^2 - 2), and both ``NotInvertible`` messages are pinned. The
last test counts no ``Polynomial`` add, subtract, negate or multiply in
a tower and verify pair of each qq family and a finite request.
"""

import collections
import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from kummerkit.cli import main
from kummerkit.families import frobenius_family
from kummerkit.kummer import certify
from kummerkit.errors import DimensionMismatch, DivisionByZero, NotInvertible
from kummerkit.linalg import (
    Matrix,
    RrefResult,
    element_min_poly,
    first_linear_dependency,
    mat_apply,
    nullspace,
    rref,
    substitution_matrix,
)
from kummerkit import linalg, polynomials, serialize
from kummerkit.polynomials import (
    Polynomial,
    is_irreducible_mod_p,
    poly_divmod,
    poly_gcd,
    poly_gcd_extended,
    mul_mod,
    poly_pow_mod,
    raw_product,
)
from kummerkit.scalars import MR_EXACT_BOUND, PrimeField, PrimeFieldElement, RationalField, is_prime
from kummerkit.tower import ExtensionElement, ExtensionField

from matrix_oracles import identity, power
from test_determinism import shanks_cubic, simplest_quartic

BIG_P = 3317044064679887385959989
PRIMES = (2, 3, 97, 65537, BIG_P)
QQ = RationalField()
QQ_I = ExtensionField(QQ, Polynomial(QQ, [1, 0, 1]))
F_25 = ExtensionField(PrimeField(5), Polynomial(PrimeField(5), [-2, 0, 1]))
FIELDS = tuple(PrimeField(p) for p in PRIMES) + (QQ, QQ_I, F_25)


# -- oracles: the generic loops over field elements --------------------------


def oracle_poly_mul(self: Polynomial, other: Polynomial) -> Polynomial:
    if not self.coeffs or not other.coeffs:
        return Polynomial.zero(self.field)
    zero = self.field.zero()
    out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
    for i, a in enumerate(self.coeffs):
        if not a:
            continue
        for j, b in enumerate(other.coeffs):
            out[i + j] = out[i + j] + a * b
    return Polynomial(self.field, out)


def oracle_raw_product(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


def oracle_poly_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    field = a.field
    if a.degree < b.degree:
        return Polynomial.zero(field), a
    rem = list(a.coeffs)
    quo = [field.zero()] * (a.degree - b.degree + 1)
    inv_lead = field.one() / b.leading
    for k in range(a.degree - b.degree, -1, -1):
        c = rem[k + b.degree] * inv_lead
        quo[k] = c
        if c:
            for j, bj in enumerate(b.coeffs):
                rem[k + j] = rem[k + j] - c * bj
    return Polynomial(field, quo), Polynomial(field, rem[: b.degree])


def oracle_ext_mul(self: ExtensionElement, other: ExtensionElement) -> ExtensionElement:
    field = self.field
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


def oracle_mat_mul(self: Matrix, other: Matrix) -> Matrix:
    cols = [other.column(j) for j in range(other.ncols)]
    zero = self.field.zero()
    out = []
    for row in self.rows:
        out.append([sum((a * b for a, b in zip(row, col) if a and b), zero) for col in cols])
    return Matrix(self.field, out)


def oracle_rref(m: Matrix) -> RrefResult:
    rows = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        lead = rows[r][c]
        if lead != m.field.one():
            inv = m.field.one() / lead
            rows[r] = [a * inv for a in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return RrefResult(Matrix(m.field, rows), pivots, len(pivots))


def oracle_mat_apply(m: Matrix, v) -> tuple:
    v = tuple(m.field.coerce(c) for c in v)
    if len(v) != m.ncols:
        raise DimensionMismatch(f"vector of length {len(v)} against {m.nrows}x{m.ncols}")
    zero = m.field.zero()
    return tuple(sum((a * b for a, b in zip(row, v) if a and b), zero) for row in m.rows)


def oracle_first_linear_dependency(field, vectors, limit: int) -> list:
    zero, one = field.zero(), field.one()
    basis = []  # (pivot column, row with 1 at the pivot, combination)
    for k, v in enumerate(itertools.islice(vectors, limit)):
        row = [field.coerce(c) for c in v]
        combo = [zero] * k + [one]
        for pivot, brow, bcombo in basis:
            f = row[pivot]
            if f:
                row = [a - f * b for a, b in zip(row, brow)]
                combo[: len(bcombo)] = [a - f * b for a, b in zip(combo, bcombo)]
        pivot = next((j for j, a in enumerate(row) if a), None)
        if pivot is None:
            return combo
        inv = one / row[pivot]
        basis.append((pivot, [a * inv for a in row], [a * inv for a in combo]))
    raise AssertionError("no linear dependency found within the promised bound")


def oracle_pow_mod(base: Polynomial, e: int, modulus: Polynomial) -> Polynomial:
    """base^e mod modulus by square-and-multiply on the oracle loops."""
    result = oracle_poly_divmod(Polynomial.one(base.field), modulus)[1]
    base = oracle_poly_divmod(base, modulus)[1]
    while e:
        if e & 1:
            result = oracle_poly_divmod(oracle_poly_mul(result, base), modulus)[1]
        base = oracle_poly_divmod(oracle_poly_mul(base, base), modulus)[1]
        e >>= 1
    return result


def oracle_poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while b:
        a, b = b, oracle_poly_divmod(a, b)[1]
    return a.monic()


# -- inputs ------------------------------------------------------------------


def elements(field):
    """Elements of the field, with 0, 1 and -1 drawn often so that ranks
    drop and operands vanish."""
    one = field.one()
    special = st.sampled_from([field.zero(), field.zero(), one, -one])
    if isinstance(field, PrimeField):
        general = st.integers(0, field.p - 1).map(field.coerce)
    elif isinstance(field, RationalField):
        general = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    else:
        general = st.lists(elements(field.base), min_size=field.degree, max_size=field.degree).map(field.element)
    return st.one_of(special, general)


def assert_canonical(seq, field):
    for c in seq:
        if isinstance(field, PrimeField):
            assert type(c) is PrimeFieldElement
            assert c.p == field.p and 0 <= c.value < field.p
        elif isinstance(field, RationalField):
            assert type(c) is Fraction
        else:
            assert type(c) is ExtensionElement and c.field == field
            assert len(c.coords) == field.degree
            assert_canonical(c.coords, field.base)


@functools.cache
def irreducible(p: int, d: int, k: int) -> tuple[int, ...]:
    """Coefficients, degree-ascending, of the first monic irreducible of
    degree d drawn by Random(f"{p}-{d}-{k}")."""
    rng = random.Random(f"{p}-{d}-{k}")
    field = PrimeField(p)
    for _ in range(1000):  # about one draw in d is irreducible
        coeffs = tuple(rng.randrange(p) for _ in range(d)) + (1,)
        if is_irreducible_mod_p(Polynomial(field, coeffs)):
            return coeffs
    raise AssertionError(f"no irreducible of degree {d} over F_{p} in 1000 draws")


@st.composite
def matrices(draw, field, nrows=None, ncols=None):
    nrows = draw(st.integers(0, 6)) if nrows is None else nrows
    ncols = draw(st.integers(1, 7)) if ncols is None else ncols
    rows = [draw(st.lists(elements(field), min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if nrows >= 2 and draw(st.booleans()):  # a dependent row: rank below nrows
        k = draw(elements(field))
        rows[-1] = [a + k * b for a, b in zip(rows[0], rows[1])]
    return Matrix(field, rows)


def polys(field, max_len: int = 8):
    return st.lists(elements(field), max_size=max_len).map(lambda c: Polynomial(field, c))


# -- properties ----------------------------------------------------------------


def test_largest_prime_is_in_range():
    assert is_prime(BIG_P) and BIG_P % 4 == 1 and BIG_P < MR_EXACT_BOUND


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rref_and_nullspace(data):
    field = data.draw(st.sampled_from(FIELDS))
    m = data.draw(matrices(field))
    got, want = rref(m), oracle_rref(m)
    assert got == want
    for row in got.matrix.rows:
        assert_canonical(row, field)
    basis = nullspace(m)
    assert len(basis) == m.ncols - got.rank
    free = [c for c in range(m.ncols) if c not in got.pivots]
    for fc, v in zip(free, basis):
        assert_canonical(v, field)
        assert v[fc] == field.one() and not any(v[c] for c in free if c != fc)
        assert not any(oracle_mat_apply(m, v))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mat_apply_mul_and_power(data):
    field = data.draw(st.sampled_from(FIELDS))
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    a, b = data.draw(matrices(field, n, k)), data.draw(matrices(field, k, m))
    v = data.draw(st.lists(elements(field), min_size=k, max_size=k))
    got = mat_apply(a, v)
    assert got == oracle_mat_apply(a, v)
    assert_canonical(got, field)
    got = a * b
    assert got == oracle_mat_mul(a, b)
    for row in got.rows:
        assert_canonical(row, field)
    square = data.draw(matrices(field, n, n))
    e = data.draw(st.integers(0, 9))
    got, want = power(square, e), identity(field, n)
    for _ in range(e):
        want = oracle_mat_mul(want, square)
    assert got == want
    for row in got.rows:
        assert_canonical(row, field)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_first_linear_dependency_on_krylov_sequences(data):
    field = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(1, 6))
    m = data.draw(matrices(field, n, n))
    start = tuple(data.draw(st.lists(elements(field), min_size=n, max_size=n).filter(any)))

    def krylov(apply):
        v = start
        while True:
            yield v
            v = apply(m, v)

    got = first_linear_dependency(field, krylov(mat_apply), n + 1)
    assert got == oracle_first_linear_dependency(field, krylov(oracle_mat_apply), n + 1)
    assert got[-1] == field.one()
    assert_canonical(got, field)


@st.composite
def extensions(draw, base):
    """base[X]/(f) for a monic f of degree 1 to 6: irreducible over a prime
    field, where the constructor proves it, and drawn freely elsewhere,
    since the multiply needs only the quotient ring."""
    d = draw(st.integers(1, 6))  # degree 1: X - a, one coordinate
    if isinstance(base, PrimeField):
        coeffs = irreducible(base.p, d, draw(st.integers(0, 2)))
    else:
        coeffs = draw(st.lists(elements(base), min_size=d, max_size=d)) + [base.one()]
    return ExtensionField(base, Polynomial(base, coeffs))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_extension_multiply(data):
    base = data.draw(st.sampled_from(FIELDS))
    if isinstance(base, ExtensionField):  # the two-level base's own multiply
        x, y = data.draw(elements(base)), data.draw(elements(base))
        assert x * y == oracle_ext_mul(x, y)
        assert_canonical([x * y], base)
    ext = data.draw(extensions(base))
    d = ext.degree
    zero = st.just([base.zero()] * d)
    coords = st.one_of(zero, st.lists(elements(base), min_size=d, max_size=d))
    a, b = ext.element(data.draw(coords)), ext.element(data.draw(coords))
    got = a * b
    assert got == oracle_ext_mul(a, b)
    assert_canonical([got], ext)
    # the minimal polynomial runs E multiplies and the Krylov loop together
    if a:
        powers = itertools.accumulate(itertools.repeat(a), oracle_ext_mul, initial=ext.one())
        want = oracle_first_linear_dependency(base, (x.coords for x in powers), d + 1)
        got = element_min_poly(a)
        assert got == Polynomial(base, want)
        assert_canonical(got.coeffs, base)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_extension_power_and_substitution_matrix(data):
    base = data.draw(st.sampled_from(FIELDS))
    ext = data.draw(extensions(base))
    d = ext.degree
    a = ext.element(data.draw(st.lists(elements(base), min_size=d, max_size=d)))
    e = data.draw(st.integers(0, 12))
    got, want = a**e, ext.one()
    for _ in range(e):
        want = oracle_ext_mul(want, a)
    assert got == want
    assert_canonical([got], ext)
    m = substitution_matrix(base, ext.modulus, a.coords)
    image = Polynomial(base, a.coords)
    for j in range(d):
        assert_canonical(m.column(j), base)
        assert Polynomial(base, m.column(j)) == oracle_pow_mod(image, j, ext.modulus)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_substitution_matrix_over_any_monic_modulus(data):
    # the ring field[X]/(f) is all the matrix needs, so f is drawn freely
    field = data.draw(st.sampled_from(FIELDS))
    d = data.draw(st.integers(1, 6))
    f = Polynomial(field, data.draw(st.lists(elements(field), min_size=d, max_size=d)) + [field.one()])
    coords = data.draw(st.lists(elements(field), min_size=d, max_size=d))
    m = substitution_matrix(field, f, coords)
    assert (m.nrows, m.ncols) == (d, d)
    image = Polynomial(field, coords)
    for j in range(d):
        assert_canonical(m.column(j), field)
        assert Polynomial(field, m.column(j)) == oracle_pow_mod(image, j, f)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_frobenius_matrix_of_the_rabin_test(data):
    # over F_p, column j of ExtensionField.frobenius is X^(j*p) mod f, and
    # frobenius_image is X^p mod f; other bases keep neither
    base = data.draw(st.sampled_from(FIELDS))
    ext = data.draw(extensions(base))
    if not isinstance(base, PrimeField):
        assert ext.frobenius is None and ext.frobenius_image is None
        return
    x = Polynomial.x(base)
    assert Polynomial(base, ext.frobenius_image) == oracle_pow_mod(x, base.p, ext.modulus)
    for j in range(ext.degree):
        assert_canonical(ext.frobenius.column(j), base)
        assert Polynomial(base, ext.frobenius.column(j)) == oracle_pow_mod(x, j * base.p, ext.modulus)


@pytest.mark.parametrize("p", PRIMES)
def test_frobenius_image_in_every_degree(p):
    base = PrimeField(p)
    x = Polynomial.x(base)
    for d in range(1, 7):
        ext = ExtensionField(base, Polynomial(base, irreducible(p, d, 0)))
        assert type(ext.frobenius_image) is tuple and len(ext.frobenius_image) == d
        assert_canonical(ext.frobenius_image, base)
        assert Polynomial(base, ext.frobenius_image) == oracle_pow_mod(x, p, ext.modulus)
        assert ext.frobenius == substitution_matrix(base, ext.modulus, ext.frobenius_image)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_polynomial_multiply_and_divmod(data):
    field = data.draw(st.sampled_from(FIELDS))
    a, b = data.draw(polys(field)), data.draw(polys(field).filter(bool))
    got = a * b
    assert got == oracle_poly_mul(a, b)
    assert_canonical(got.coeffs, field)
    q, r = poly_divmod(a, b)
    assert (q, r) == oracle_poly_divmod(a, b)
    assert_canonical(q.coeffs + r.coeffs, field)
    assert q * b + r == a


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_poly_gcd(data):
    field = data.draw(st.sampled_from(FIELDS))
    a, b = data.draw(polys(field)), data.draw(polys(field))  # either may be zero
    if data.draw(st.booleans()):  # a common factor of degree >= 1
        c = data.draw(polys(field, 3).filter(lambda c: c.degree >= 1))
        a, b = oracle_poly_mul(a, c), oracle_poly_mul(b, c)
    got = poly_gcd(a, b)
    assert got == oracle_poly_gcd(a, b)
    assert_canonical(got.coeffs, field)
    assert got == poly_gcd(b, a)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_poly_gcd_of_zero_operands(field):
    zero = Polynomial.zero(field)
    g = Polynomial(field, [field.from_int(2), field.one(), field.from_int(3)])
    for a, b in ((zero, zero), (g, zero), (zero, g)):
        got = poly_gcd(a, b)
        assert got == oracle_poly_gcd(a, b)
        assert_canonical(got.coeffs, field)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_poly_pow_mod_at_chosen_exponents(data):
    # e = p is the Frobenius power the Rabin test takes; 0 to 3 cover the
    # first bits of the left-to-right loop
    field = data.draw(st.sampled_from(FIELDS))
    d = data.draw(st.integers(1, 5))
    modulus = Polynomial(field, data.draw(st.lists(elements(field), min_size=d, max_size=d)) + [field.one()])
    base = data.draw(st.one_of(st.just(Polynomial.x(field)), polys(field)))
    char = field.characteristic()
    exponents = [0, 1, 2, 3] + ([char, data.draw(st.integers(0, 10**6))] if char else [data.draw(st.integers(4, 30))])
    for e in exponents:
        got = poly_pow_mod(base, e, modulus)
        assert got == oracle_pow_mod(base, e, modulus), e
        assert_canonical(got.coeffs, field)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_poly_pow_mod(data):
    field = data.draw(st.sampled_from(FIELDS))
    d = data.draw(st.integers(1, 5))
    modulus = Polynomial(field, data.draw(st.lists(elements(field), min_size=d, max_size=d)) + [field.one()])
    base = data.draw(polys(field))
    # rational coefficients grow with e, so characteristic 0 takes small e
    finite = field.characteristic() != 0
    e = data.draw(st.one_of(st.integers(0, 300), st.integers(0, 10**30)) if finite else st.integers(0, 40))
    got = poly_pow_mod(base, e, modulus)
    assert got == oracle_pow_mod(base, e, modulus)
    assert_canonical(got.coeffs, field)


# -- the packed product over F_p -----------------------------------------------

PACKED_PRIMES = (2, 3, 13, 1201, 2**61 - 1, BIG_P)
PACKED_DEGREES = (1, 2, 3, 8, 16, 64, 128)


def ring(field, modulus: Polynomial):
    """field[X]/(modulus) as the E multiply and ``oracle_ext_mul`` read it:
    its base, modulus and degree, with no irreducibility proof."""
    return SimpleNamespace(base=field, modulus=modulus, degree=modulus.degree)


def check_packed_multiply(field, f: Polynomial, a: list, b: list):
    """raw_product against the schoolbook loop, and mul_mod and the E
    multiply against ``oracle_ext_mul``, on the raw values a and b."""
    assert raw_product(field, a, b) == oracle_raw_product(a, b)
    e = ring(field, f)
    x, y = ExtensionElement(e, tuple(field.box(a))), ExtensionElement(e, tuple(field.box(b)))
    want = oracle_ext_mul(x, y).coords
    got = mul_mod(field, f)(a, b)
    assert all(0 <= c < field.p for c in got) and field.box(got) == list(want)
    got = x * y
    assert got.coords == want
    assert_canonical(got.coords, field)
    assert mul_mod(field, f)(a, a) == [c.value for c in oracle_ext_mul(x, x).coords]


@pytest.mark.parametrize("d", PACKED_DEGREES)
@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_multiply_and_power(p, d):
    field = PrimeField(p)
    rng = random.Random(f"packed-{p}-{d}")
    top = [p - 1] * d
    heaviest = Polynomial(field, top + [1])  # every low coefficient p - 1
    dense = Polynomial(field, [rng.randrange(p) for _ in range(d)] + [1])
    for f in (heaviest, dense):
        x = field.unbox((Polynomial.x(field) % f).padded(d))
        for a, b in (
            (top, top),  # the largest slot load
            ([0] * d, [rng.randrange(p) for _ in range(d)]),
            ([rng.randrange(p) for _ in range(d)], [0] * d),
            (x, top),
            ([rng.randrange(p) for _ in range(d)], [rng.randrange(p) for _ in range(d)]),
        ):
            check_packed_multiply(field, f, a, b)
        # the exponent p is the Frobenius power; the oracle loop is slow at large d
        bases = (Polynomial.x(field), Polynomial(field, top), Polynomial(field, [rng.randrange(p) for _ in range(d)]))
        for base, e in itertools.product(bases, (0, 1, 2, 3, p)) if d <= 16 else zip(bases, (5, 3, 6)):
            got = poly_pow_mod(base, e, f)
            assert got == oracle_pow_mod(base, e, f), e
            assert_canonical(got.coeffs, field)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packed_multiply_property(data):
    next_prime = lambda n: next(q for q in itertools.count(n) if is_prime(q))  # noqa: E731
    p = data.draw(st.one_of(st.sampled_from(PACKED_PRIMES), st.integers(2, 2**81).map(next_prime)), label="p")
    d = data.draw(st.integers(1, 40), label="d")
    field = PrimeField(p)
    values = st.lists(st.one_of(st.integers(0, p - 1), st.sampled_from([0, p - 1])), min_size=d, max_size=d)
    f = Polynomial(field, data.draw(values) + [1])
    check_packed_multiply(field, f, data.draw(values), data.draw(values))
    b = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=2 * d))
    a = data.draw(values)
    assert raw_product(field, a, b) == oracle_raw_product(a, b)


@pytest.fixture
def fold_tables(monkeypatch):
    """The moduli whose fold table is built, as coefficient tuples, in order."""
    built = []
    build = polynomials._build_fold_table

    def counting(field, f):
        built.append(f.coeffs)
        return build(field, f)

    monkeypatch.setattr(polynomials, "_build_fold_table", counting)
    return built


@pytest.mark.parametrize("p", [13, 1201, BIG_P])
def test_one_fold_table_per_modulus(p, fold_tables):
    # the Rabin test's X^p builds the table; multiplies and powers reuse it
    field = PrimeField(p)
    coeffs = irreducible(p, 4, 0)  # its search tests other moduli
    fold_tables.clear()
    ext = ExtensionField(field, Polynomial(field, coeffs))
    assert fold_tables == [ext.modulus.coeffs]
    a, b = ext.element([1, 2, 3, 4]), ext.element([5, 0, 7, 1])
    for _ in range(5):
        a = a * b * a
    assert a**p == a.field.element(oracle_pow_mod(Polynomial(field, a.coords), p, ext.modulus).coeffs)
    assert fold_tables == [ext.modulus.coeffs]
    assert ext.modulus.mul_mod is not None


def test_no_fold_table_over_other_bases(fold_tables, monkeypatch):
    # off F_p the kept multiply is the schoolbook fold over QQ and K's
    # int_mul_mod over K, each made once per modulus, as the fold table is
    prepared = []
    schoolbook, int_mul_mod = polynomials._schoolbook_mul_mod, ExtensionField.int_mul_mod

    def counting(make):
        def preparing(field, f):
            prepared.append(f)
            return make(field, f)

        return preparing

    monkeypatch.setattr(polynomials, "_schoolbook_mul_mod", counting(schoolbook))
    monkeypatch.setattr(ExtensionField, "int_mul_mod", counting(int_mul_mod))
    for base in (QQ, QQ_I, F_25):
        ext = ExtensionField(base, Polynomial(base, [base.one(), base.zero(), base.one(), base.one()]))
        a = ext.element([base.one(), base.from_int(2), base.zero()])
        assert a * a == oracle_ext_mul(a, a) and a**5 == oracle_ext_mul(oracle_ext_mul(a * a, a * a), a)
        assert a * ext.gen() * a == oracle_ext_mul(oracle_ext_mul(a, ext.gen()), a)
        assert [f for f in prepared if f is ext.modulus] == [ext.modulus], base
        assert ext.modulus.mul_mod is not None
    assert fold_tables == []


# -- substitution_matrix over F_p: wide slots and large d ----------------------

WIDE_P = 2417851639229258349405569  # prime, 81 bits: slots wider than one word


@pytest.mark.parametrize("d", (1, 2, 16, 64))
@pytest.mark.parametrize("p", (2, 7681, WIDE_P))
def test_substitution_matrix_on_packed_slots(p, d):
    # the largest slot load (image and every low coefficient of f equal to
    # p - 1) and the Rabin test's image X^p mod f of a dense f; column j is
    # image^j mod f, stepped column by column on the oracle loops, and the
    # oracle power, squaring afresh, checks the last column
    field = PrimeField(p)
    rng = random.Random(f"substitution-{p}-{d}")
    top = [p - 1] * d
    heaviest = Polynomial(field, top + [1])
    dense = Polynomial(field, [rng.randrange(p) for _ in range(d)] + [1])
    for f, image in ((heaviest, field.box(top)), (dense, poly_pow_mod(Polynomial.x(field), p, dense).padded(d))):
        m = substitution_matrix(field, f, image)
        assert (m.nrows, m.ncols) == (d, d)
        g = Polynomial(field, image)
        want = oracle_poly_divmod(Polynomial.one(field), f)[1]
        for j in range(d):
            assert_canonical(m.column(j), field)
            assert Polynomial(field, m.column(j)) == want, j
            want = oracle_poly_divmod(oracle_poly_mul(want, g), f)[1]
        assert Polynomial(field, m.column(d - 1)) == oracle_pow_mod(g, d - 1, f)


@pytest.mark.parametrize("p,d", [(13, 1), (13, 4), (7681, 16), (BIG_P, 8)])
def test_substitution_matrix_makes_d_minus_1_multiplies_mod_f(p, d, fold_tables, monkeypatch):
    # counted in linalg's namespace, where substitution_matrix finds f's
    # kept multiply and the Rabin test its Frobenius steps; poly_pow_mod's
    # multiplies are not
    field = PrimeField(p)
    f = Polynomial(field, irreducible(p, d, 0))  # its search tests other moduli
    fold_tables.clear()
    calls, kept = {"mul_mod": 0, "raw_mat_apply": 0}, []

    def counting_mul_mod(field, modulus):
        mul = polynomials.mul_mod(field, modulus)
        kept.append(mul is modulus.mul_mod)

        def counting(a, b):
            calls["mul_mod"] += 1
            return mul(a, b)

        return counting

    def counting_apply(*args, fn=linalg.raw_mat_apply):
        calls["raw_mat_apply"] += 1
        return fn(*args)

    monkeypatch.setattr(linalg, "mul_mod", counting_mul_mod)
    monkeypatch.setattr(linalg, "raw_mat_apply", counting_apply)
    # X^p builds f's fold table; Q reuses it, then d - 1 Frobenius steps run
    q_matrix, x_to_p = polynomials.rabin_frobenius(f)
    assert fold_tables == [f.coeffs]
    assert calls == {"mul_mod": d - 1, "raw_mat_apply": d - 1}
    calls.update(mul_mod=0, raw_mat_apply=0)
    assert substitution_matrix(field, f, x_to_p) == q_matrix
    assert calls == {"mul_mod": d - 1, "raw_mat_apply": 0}
    assert fold_tables == [f.coeffs] and kept == [True, True]


@pytest.mark.parametrize("width", (64, 128, 192))
def test_the_slot_codec_round_trips_whole_words(width):
    # a slot is whole 64-bit words; one of k words goes through its bytes
    top = (1 << width) - 1
    rng = random.Random(width)
    for values in ([], [0], [top], [0, top, 0], [top] * 9, [rng.randrange(top + 1) for _ in range(33)] + [0, top]):
        n = PrimeField.pack(values, width)
        assert n == sum(v << i * width for i, v in enumerate(values))
        assert PrimeField.unpack(n, width, len(values)) == values
    assert PrimeField.unpack(PrimeField.pack([top, 5], width), width, 4) == [top, 5, 0, 0]
    assert PrimeField.slot_width(top) == width and PrimeField.slot_width(top + 1) == width + 64
    assert PrimeField.slot_width(0) == 64


@pytest.mark.parametrize("p,n", [(97, 16), (17, 8), (13, 4), (5, 1)])
def test_a_certify_over_fp_packs_q_once(p, n, monkeypatch):
    # the Rabin test's d - 1 Frobenius steps pack Q's columns on the first
    # and keep them; the n eigen kernels shift the kept columns, and each
    # elimination runs on its kernel's: no other matrix is packed
    base = PrimeField(p)
    # its search packs other moduli's Q; a fresh copy of the found modulus,
    # as a request's --modulus is parsed, carries no recorded Rabin answer
    modulus = Polynomial(base, frobenius_family(base, n).ext_field.modulus.coeffs)
    packed, calls = [], {"raw_mat_apply": 0, "rref": 0}
    pack_columns = linalg._pack_columns

    def counting_pack(field, rows, ncols):
        packed.append((len(rows), ncols))
        return pack_columns(field, rows, ncols)

    monkeypatch.setattr(linalg, "_pack_columns", counting_pack)
    for name in calls:

        def counting(*args, name=name, fn=getattr(linalg, name)):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(linalg, name, counting)
    inp = frobenius_family(base, n, modulus)
    assert calls == {"raw_mat_apply": n - 1, "rref": 0}
    assert packed == ([(n, n)] if n > 1 else [])
    cert = certify(inp)
    assert cert.is_valid() and calls == {"raw_mat_apply": n - 1, "rref": n}
    assert packed == [(n, n)] and inp.ext_field.frobenius.int_form is not None


# -- the multiply over an extension base, on ground ints ------------------------

F_5 = PrimeField(5)
EXTENSION_BASES = (
    QQ_I,
    ExtensionField(QQ, Polynomial(QQ, [1, 1, 1])),  # QQ(zeta_3)
    ExtensionField(QQ, Polynomial(QQ, [Fraction(1, 2), Fraction(-1, 3), 1])),  # t^2 - t/3 + 1/2
    ExtensionField(QQ, Polynomial(QQ, [2, 0, 0, 1])),  # t^3 + 2
    ExtensionField(QQ, Polynomial(QQ, [Fraction(-3, 7), 1])),  # e = 1: t = 3/7
    F_25,
    ExtensionField(F_5, Polynomial(F_5, [3, 1])),  # e = 1: t = 2
)
DIGITS_40 = 10**40


def ground_values(ground):
    """Ground values with 0 drawn often, and over QQ negative and 40-digit
    numerators and denominators."""
    if isinstance(ground, PrimeField):
        return st.one_of(st.just(ground.zero()), st.integers(0, ground.p - 1).map(ground.coerce))
    big = st.integers(DIGITS_40 // 10, DIGITS_40 - 1)
    numerators = st.one_of(st.integers(-9, 9), big, big.map(operator.neg))
    return st.one_of(
        st.just(Fraction(0)),
        numerators.map(Fraction),
        st.builds(Fraction, numerators, st.one_of(st.integers(1, 9), big)),
    )


def base_elements(base, integral: bool = False):
    values = st.integers(-9, 9).map(base.base.coerce) if integral else ground_values(base.base)
    return st.lists(values, min_size=base.degree, max_size=base.degree).map(base.element)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_multiply_over_an_extension_base_against_the_oracle(data):
    base = data.draw(st.sampled_from(EXTENSION_BASES), label="base")
    d = data.draw(st.integers(1, 4), label="d")
    integral = data.draw(st.booleans(), label="integral f")
    low = data.draw(st.lists(base_elements(base, integral), min_size=d, max_size=d))
    if not integral and isinstance(base.base, RationalField):  # a denominator in f, small or of 41 digits
        low[0] += Fraction(1, data.draw(st.sampled_from([3, DIGITS_40 + 1])))
    ext = ExtensionField(base, Polynomial(base, low + [base.one()]))
    dense = st.lists(base_elements(base), min_size=d, max_size=d)
    coords = st.one_of(dense, dense, dense, st.just([base.zero()] * d))
    a, b = ext.element(data.draw(coords)), ext.element(data.draw(coords))
    for got, want in ((a * b, oracle_ext_mul(a, b)), (a * a, oracle_ext_mul(a, a))):
        assert got == want
        assert_canonical([got], ext)
    e = data.draw(st.integers(0, 6), label="e")
    got, want = a**e, ext.one()
    for _ in range(e):
        want = oracle_ext_mul(want, a)
    assert got == want
    assert_canonical([got], ext)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dot_product_over_an_extension_base_against_the_oracle(data):
    base = data.draw(st.sampled_from(EXTENSION_BASES), label="base")
    nrows, ncols, width = (data.draw(st.integers(1, 5), label=label) for label in ("rows", "columns", "width"))

    def vectors(length):
        dense = st.lists(base_elements(base), min_size=length, max_size=length)
        return st.one_of(dense, dense, dense, st.just([base.zero()] * length))

    m = Matrix(base, data.draw(st.lists(vectors(ncols), min_size=nrows, max_size=nrows), label="m"))
    v = data.draw(vectors(ncols), label="v")
    got = mat_apply(m, v)
    assert got == oracle_mat_apply(m, v)
    assert_canonical(got, base)
    other = Matrix(base, data.draw(st.lists(vectors(width), min_size=ncols, max_size=ncols), label="other"))
    got = m * other
    assert got == oracle_mat_mul(m, other)
    for row in got.rows:
        assert_canonical(row, base)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rref_over_qq_and_every_extension_base_against_the_oracle(data):
    # QQ runs the fraction-free loop on ints; a proven K the ground RREF of
    # its expansion, which is also run directly on the K that are fields
    # but not proven (den(g) != 1, e = 3 and e = 1), whose rref keeps the
    # loop with pivot inverses
    field = data.draw(st.sampled_from((QQ,) + EXTENSION_BASES), label="field")
    values = ground_values(QQ) if field is QQ else st.one_of(st.just(field.zero()), base_elements(field))
    nrows, ncols = data.draw(st.integers(0, 5), label="rows"), data.draw(st.integers(1, 6), label="columns")
    rows = data.draw(st.lists(st.lists(values, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    if nrows >= 2 and data.draw(st.booleans(), label="dependent row"):
        k = data.draw(values)
        rows[-1] = [a + k * b for a, b in zip(rows[0], rows[1])]
    if nrows >= 1 and data.draw(st.booleans(), label="zero row"):
        rows[data.draw(st.integers(0, nrows - 1))] = [field.zero()] * ncols
    m = Matrix(field, rows)
    want = oracle_rref(m)
    got = rref(m)
    assert got == want
    for row in got.matrix.rows:
        assert_canonical(row, field)
    if field is not QQ:
        got = expansion_rref(m)
        assert got == want
        for row in got.matrix.rows:
            assert_canonical(row, field)


def expansion_rref(m: Matrix) -> RrefResult:
    """The RREF that ``rref`` reads back over a K proven a field, run on
    any K over F_p or QQ: the ground RREF of K's ``int_expansion`` of m,
    read back by ``from_expansion_rref``."""
    field, e = m.field, m.field.degree
    expansion = [row for row, _ in field.int_expansion(m.raw_rows)]
    rows, pivots = linalg._ground_rref(field.base, expansion, m.ncols * e, e)
    return RrefResult(Matrix._of_raw(field, field.from_expansion_rref(rows)), pivots, len(pivots))


def test_rref_over_a_proven_extension_base_makes_no_inverse_and_no_multiply_in_k(monkeypatch):
    # over a K proven a field, the elimination runs on the ground ints of
    # K's expansion: rref and nullspace invert and multiply nothing in K
    assert [base.proven_field for base in EXTENSION_BASES] == [True, True, False, False, False, True, True]
    calls = collections.Counter()

    def counted(name, method):
        def counting(*args):
            calls[name] += 1
            return method(*args)

        return counting

    cases = []
    for base in EXTENSION_BASES:
        if base.proven_field:
            t = base.gen()
            rows = [[t, base.one(), t + 3, base.zero()], [base.from_int(2), t, base.zero(), t - 1]]
            rows.append([a + b for a, b in zip(*rows)])  # rank 2
            m = Matrix(base, rows)
            cases.append((m, oracle_rref(m)))
    for name in ("inverse", "__mul__", "__rmul__"):
        monkeypatch.setattr(ExtensionElement, name, counted(name, getattr(ExtensionElement, name)))
    for m, want in cases:
        assert rref(m) == want and want.rank == 2
        assert len(nullspace(m)) == 2
    assert calls == {}


def test_an_e_multiply_over_an_extension_base_makes_no_product_in_k(monkeypatch):
    # the ground coordinates are multiplied and folded as ints: no K
    # multiply, so no raw_product, runs inside the E multiply, the power,
    # the substitution matrix or a dot product. K flattens f's d low
    # coefficients once per modulus, on its first multiply, and the
    # operands on each multiply (a square's operand once). A dot product
    # writes its vector as ints on each product, and a matrix's rows on its
    # first product only, d values a row, through the ground field's
    # to_ints, with no flatten. Its own modulus g, one row, K flattened
    # when it was built, and never again
    calls = collections.Counter()
    product = polynomials.raw_product
    flatten = ExtensionField.flatten
    flattened, converted = [], []

    def counting(field, a, b):
        calls[str(field)] += 1
        return product(field, a, b)

    def counting_flatten(field, rows, s):
        flattened.append(len(rows))
        return flatten(field, rows, s)

    def counting_to_ints(to_ints):
        def converting(field, values):
            converted.append(len(values))
            return to_ints(field, values)

        return converting

    monkeypatch.setattr(polynomials, "raw_product", counting)
    monkeypatch.setattr(ExtensionField, "flatten", counting_flatten)
    for ground in (PrimeField, RationalField):
        monkeypatch.setattr(ground, "to_ints", counting_to_ints(ground.to_ints))
    assert PrimeField(5).int_modulus is None and QQ.int_modulus is None
    for base in EXTENSION_BASES:
        ext = ExtensionField(base, Polynomial(base, [base.from_int(2), base.gen(), base.zero(), base.one()]))
        assert base.int_modulus is not None and ext.int_modulus is None
        a = ext.element([base.gen(), base.from_int(3), base.one() + base.gen()])
        b = ext.element([base.one(), base.zero(), base.from_int(-2)])
        flattened.clear()
        m = substitution_matrix(base, ext.modulus, a.coords)
        counts = [len(flattened)]
        for operation in (lambda: a * b, lambda: a * a, lambda: a**7):
            before = len(flattened)
            operation()
            counts.append(len(flattened) - before)
        for operation in (lambda: mat_apply(m, b.coords), lambda: m * m):
            before, written = len(flattened), len(converted)
            operation()
            assert len(flattened) == before, base
            counts.append(len(converted) - written)
        # f once, then d - 1 columns of one multiply each; a^7 is two
        # squares and two multiplies; m * m is one product per column, on
        # the kept rows
        d, e = ext.degree, base.degree
        assert counts == [1 + 2 * (d - 1), 2, 1, 2 * 1 + 2 * 2, 1 + d, d], base
        assert set(flattened) == {d}, base
        assert set(converted[-(1 + 2 * d) :]) == {d * e}, base
    assert calls == {}


def test_a_matrix_over_an_extension_base_builds_its_int_form_once(monkeypatch):
    # the expansion is the matrix's one int form: the first dot product
    # builds it, and every later product and an elimination read it
    built = []
    expansion = ExtensionField.int_expansion

    def counting(field, raw_rows):
        built.append(field)
        return expansion(field, raw_rows)

    monkeypatch.setattr(ExtensionField, "int_expansion", counting)
    for base in EXTENSION_BASES:
        t = base.gen()
        m = Matrix(base, [[t, base.one(), t + 3], [base.from_int(2), t, base.zero()]])
        built.clear()
        for k in range(5):
            assert mat_apply(m, [t, base.from_int(k), t - k]) == oracle_mat_apply(m, [t, base.from_int(k), t - k])
            assert built == [base]
        assert m * Matrix(base, [[t], [1], [0]]) == oracle_mat_mul(m, Matrix(base, [[t], [1], [0]]))
        assert rref(m) == oracle_rref(m)
        assert built == [base]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_ground_hooks_write_values_as_ints_over_their_lcm_and_back(data):
    # to_ints and from_ints alone know how a ground element is written as
    # an int: over F_p its value over 1; over QQ its numerator scaled to
    # the lcm of the denominators
    ground = data.draw(st.sampled_from(tuple(PrimeField(p) for p in PRIMES) + (QQ,)), label="ground")
    big = st.integers(DIGITS_40 // 10, DIGITS_40 - 1)
    ints = st.one_of(st.just(0), st.integers(-9, 9), big, big.map(operator.neg))
    if ground is QQ:
        shared = st.builds(Fraction, ints, st.sampled_from([2, 4, 6, 12, DIGITS_40]))  # lcm below the product
        values = st.one_of(*(st.lists(v, max_size=8) for v in (ground_values(QQ), ints.map(Fraction), shared)))
    else:
        values = st.lists(ints.map(ground.coerce), max_size=8)
    values = data.draw(values, label="values")
    got, den = ground.to_ints(values)
    assert all(type(c) is int for c in got) and len(got) == len(values)
    assert den == (math.lcm(*[v.denominator for v in values]) if ground is QQ else 1)
    assert ground.from_ints(got, den) == values


def qq_tower_requests(tmp_path) -> dict:
    """{family: (tower argv, verify argv)} for Shanks' cubic over QQ(zeta_3)
    and the simplest quartic over QQ(i) at a = 10^19 + 9, with the spec
    written and the certificate read in tmp_path."""
    requests = {}
    for family, make in (("cubic", shanks_cubic), ("quartic", simplest_quartic)):
        spec, cert = tmp_path / f"{family}.spec.json", tmp_path / f"{family}.cert.json"
        spec.write_text(serialize.canonical_dumps(serialize.input_to_json(make(10**19 + 9))))
        requests[family] = (["tower", str(spec), "--out", str(cert)], ["verify", str(cert)])
    return requests


def test_e_multiplies_of_a_qq_tower_request(tmp_path, capsys, monkeypatch):
    # neither sigma nor the elimination makes a K multiply: what is left
    # are the E multiplies and verify's few
    requests = qq_tower_requests(tmp_path)
    calls = collections.Counter()
    multiply = ExtensionElement.__mul__

    def counting(self, other):
        calls["__mul__"] += 1
        return multiply(self, other)

    monkeypatch.setattr(ExtensionElement, "__mul__", counting)
    monkeypatch.setattr(ExtensionElement, "__rmul__", counting)
    counts = {}
    for family, pair in requests.items():
        for argv in pair:
            calls.clear()
            assert main(argv + ["--format", "json"]) == 0, argv
            counts[family, argv[0]] = calls["__mul__"]
    capsys.readouterr()
    assert counts == {
        ("cubic", "tower"): 13,
        ("cubic", "verify"): 8,
        ("quartic", "tower"): 16,
        ("quartic", "verify"): 10,
    }


# -- the pipeline's products over F_p are all mod f ----------------------------


def test_no_pipeline_request_multiplies_over_f_p_without_a_modulus(tmp_path, capsys, monkeypatch):
    # mul_mod packs; raw_product, the schoolbook loop, runs only over
    # QQ and towers on these requests, which the benchmark's workloads make
    calls = collections.Counter()
    product = polynomials.raw_product

    def counting(field, a, b):
        calls[isinstance(field, PrimeField)] += 1
        return product(field, a, b)

    monkeypatch.setattr(polynomials, "raw_product", counting)
    modulus = ",".join(map(str, irreducible(97, 16, 0)))
    f16, cubic = tmp_path / "f16.json", tmp_path / "cubic.json"
    for argv in (
        ["finite", "--p", "97", "--n", "16", "--modulus", modulus, "--out", str(f16)],
        ["verify", str(f16)],
        ["finite", "--p", "13", "--n", "4"],
        ["tower", "builtin-cubic", "--out", str(cubic)],
        ["verify", str(cubic)],
    ):
        assert main(argv + ["--format", "json"]) == 0, argv
    capsys.readouterr()
    assert calls[False] > 0 and calls[True] == 0, calls


# -- the one Euclid loop ---------------------------------------------------------


def oracle_poly_gcd_extended(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """The extended Euclid on boxed polynomials that ``poly_gcd_extended``
    ran before it read ``raw_euclid``'s quotients, on the oracle divmod and
    multiply; the removed ``Polynomial.scale`` is a multiply per coefficient."""
    field = a.field
    if not a and not b:
        raise DivisionByZero("gcd(0, 0) is undefined")
    r0, r1 = a, b
    u0, u1 = Polynomial.one(field), Polynomial.zero(field)
    v0, v1 = Polynomial.zero(field), Polynomial.one(field)
    while r1:
        q, r = oracle_poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - oracle_poly_mul(q, u1)
        v0, v1 = v1, v0 - oracle_poly_mul(q, v1)
    lead = r0.leading
    if lead != field.one():
        inv = field.one() / lead
        r0, u0, v0 = (Polynomial(field, [c * inv for c in p.coeffs]) for p in (r0, u0, v0))
    return r0, u0, v0


def oracle_inverse(x: ExtensionElement) -> ExtensionElement:
    """``ExtensionElement.inverse`` as it read the boxed extended Euclid,
    with its u mod f and its coercion through ``field.element``."""
    field = x.field
    rep = Polynomial(field.base, x.coords)
    g, u, _ = oracle_poly_gcd_extended(rep, field.modulus)
    if g.degree != 0:
        raise NotInvertible(f"gcd({rep}, {field.modulus}) = {g}; the modulus is reducible")
    return field.element(oracle_poly_divmod(u, field.modulus)[1].coeffs)


# F_p at 13, 7681 and 81 bits, QQ with 40-digit numerators and denominators,
# QQ(i) with such coordinates, and F_5[t]/(t^2 - 2)
EUCLID_FIELDS = (PrimeField(13), PrimeField(7681), PrimeField(WIDE_P), QQ, QQ_I, F_25)


def euclid_values(field):
    return ground_values(field) if field.height() == 1 else base_elements(field)


def euclid_polys(field, max_len: int = 5):
    return st.lists(euclid_values(field), max_size=max_len).map(lambda c: Polynomial(field, c))


def check_gcds(a: Polynomial, b: Polynomial):
    field = a.field
    want = oracle_poly_gcd_extended(a, b)
    got = poly_gcd_extended(a, b)
    assert got == want
    for poly in got:
        assert_canonical(poly.coeffs, field)
    assert poly_gcd(a, b) == want[0]
    g, u, v = got
    assert oracle_poly_mul(u, a) + oracle_poly_mul(v, b) == g and g.is_monic()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_extended_gcd_against_the_boxed_loop(data):
    field = data.draw(st.sampled_from(EUCLID_FIELDS), label="field")
    a, b = data.draw(euclid_polys(field)), data.draw(euclid_polys(field))
    shape = data.draw(st.sampled_from(["any", "common factor", "equal", "a shorter"]), label="shape")
    if shape == "common factor":
        c = data.draw(euclid_polys(field, 3).filter(lambda c: c.degree >= 1))
        a, b = oracle_poly_mul(a, c), oracle_poly_mul(b, c)
    elif shape == "equal":
        b = a
    elif shape == "a shorter" and a.degree > b.degree:
        a, b = b, a
    if not a and not b:
        with pytest.raises(DivisionByZero):
            poly_gcd_extended(a, b)
        assert poly_gcd(a, b) == Polynomial.zero(field)
        return
    check_gcds(a, b)


@pytest.mark.parametrize("field", EUCLID_FIELDS, ids=str)
def test_extended_gcd_of_chosen_operands(field):
    zero = Polynomial.zero(field)
    two, three = field.from_int(2), field.from_int(3)
    line = Polynomial(field, [two, three])  # degree 1
    cubic = Polynomial(field, [field.one(), field.zero(), three, two])
    with pytest.raises(DivisionByZero):
        poly_gcd_extended(zero, zero)
    assert poly_gcd(zero, zero) == zero
    for a, b in ((line, zero), (zero, line), (cubic, cubic), (line, cubic), (cubic, line), (line, line)):
        check_gcds(a, b)
    check_gcds(oracle_poly_mul(line, cubic), oracle_poly_mul(line, line))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_inverse_against_the_boxed_loop(data):
    base = data.draw(st.sampled_from(EUCLID_FIELDS), label="base")
    d = data.draw(st.integers(1, 4), label="d")
    if isinstance(base, PrimeField):  # a reducible modulus would fail the Rabin test
        f = Polynomial(base, irreducible(base.p, d, data.draw(st.integers(0, 2))))
    else:  # any monic f, a reducible one included
        f = Polynomial(base, data.draw(st.lists(euclid_values(base), min_size=d, max_size=d)) + [base.one()])
    ext = ExtensionField(base, f)
    x = ext.element(data.draw(st.lists(euclid_values(base), min_size=d, max_size=d).filter(any)))
    try:
        want = oracle_inverse(x)
    except NotInvertible as error:
        with pytest.raises(NotInvertible) as caught:
            x.inverse()
        assert str(caught.value) == str(error)
        return
    got = x.inverse()
    assert got == want
    assert_canonical([got], ext)
    assert oracle_ext_mul(got, x) == ext.one()


def test_not_invertible_messages():
    k = ExtensionField(QQ, Polynomial(QQ, [-1, 0, 1]))  # QQ[t]/(t^2 - 1)
    with pytest.raises(NotInvertible) as caught:
        (k.gen() - 1).inverse()
    assert str(caught.value) == "gcd(X + -1, X^2 + -1) = X + -1; the modulus is reducible"
    f_25 = ExtensionField(F_5, Polynomial(F_5, [2, 0, 1]))  # F_5[t]/(t^2 + 2)
    ext = ExtensionField(f_25, Polynomial(f_25, [-1, 0, 1]))  # X^2 - 1 over it
    with pytest.raises(NotInvertible) as caught:
        (ext.gen() - 1).inverse()
    assert str(caught.value) == "gcd(X + (4, 0), X^2 + (4, 0)) = X + (4, 0); the modulus is reducible"


def test_no_request_runs_boxed_polynomial_arithmetic(tmp_path, capsys, monkeypatch):
    # every gcd, the inverses in E and K among them, runs on raw values: a
    # tower and verify pair of each qq family and a finite request add,
    # subtract, negate and multiply no Polynomial
    calls = collections.Counter()
    for name in ("__add__", "__sub__", "__neg__", "__mul__"):

        def counting(*args, _name=name, _method=getattr(Polynomial, name)):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(Polynomial, name, counting)
    argvs = [["finite", "--p", "13", "--n", "4"]]
    argvs += [argv for pair in qq_tower_requests(tmp_path).values() for argv in pair]
    calls.clear()  # building the inputs inverts in E
    for argv in argvs:
        assert main(argv + ["--format", "json"]) == 0, argv
    capsys.readouterr()
    assert calls == {}, calls
