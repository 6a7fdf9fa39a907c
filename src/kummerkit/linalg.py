"""Exact dense linear algebra over any tower field.

Everything here is deterministic: pivots are the first nonzero entry scanning
top-to-bottom in the leftmost unresolved column (magnitude heuristics are
meaningless in exact arithmetic), and nullspace bases use the standard RREF
free-column parametrization. Vectors are plain tuples of field elements.

A ``Matrix`` carries its raw rows and one product, ``__mul__``: kernels and
products with vectors are all that sigma's matrix is needed for. Over F_p
and over an extension of F_p or QQ it also keeps one int form, built on
first use and kept (``_int_form``): over F_p its packed columns, each
column one int of ``PrimeField.pack`` slots, the codec of the packed
multiply mod f; over K its expansion, the field's ground expansion of it.
The dot product (``raw_mat_apply``) and an elimination read it, and
``Matrix.shifted`` gives M - c I its packed columns from M's, one add
per column.

``rref`` is the only elimination. Over F_p and QQ, and over an extension
of F_p or QQ proven a field, it runs one ground elimination on ints: on
the packed columns over F_p, on the rows scaled to ints over QQ, or on
the field's ground expansion of the matrix, from which the field reads its
RREF back (``_ground_rref``). Over F_p that is ``_rref_columns``, the one
F_p loop: per pivot one unpack of the pivot column and one packed vector
of multipliers, and each later column one big-int multiply-add; slots are
reduced mod p only when a column is packed or unpacked, and
``PrimeField.slot_width`` makes them wide enough for the sums in between.
Over QQ it is fraction-free, with no inverse. Over a field not proven
one, each pivot is inverted in it.
"""

from __future__ import annotations

import itertools
import operator
from math import gcd
from typing import NamedTuple

from .errors import DimensionMismatch, FieldMismatch
from .polynomials import Polynomial, mul_mod
from .scalars import PrimeField, RationalField


class Matrix:
    """Immutable dense matrix, kept as ``raw_rows``: a tuple of rows of the
    field's raw values, which need not be reduced. ``int_form`` is the
    matrix's one int form (``_int_form``), None until first used and then
    kept, which every later product and an elimination read."""

    __slots__ = ("field", "raw_rows", "int_form")

    def __init__(self, field, rows):
        raw_rows = tuple(field.unbox(map(field.coerce, row)) for row in rows)
        if raw_rows:
            width = len(raw_rows[0])
            if any(len(r) != width for r in raw_rows):
                raise DimensionMismatch("ragged rows")
        self.field = field
        self.raw_rows = raw_rows
        self.int_form = None

    @classmethod
    def _of_raw(cls, field, raw_rows) -> "Matrix":
        """A matrix from equal-length rows of the field's raw values, which
        are trusted: neither coerced nor reduced."""
        m = object.__new__(cls)
        m.field = field
        m.raw_rows = tuple(raw_rows)
        m.int_form = None
        return m

    @property
    def rows(self) -> tuple:
        """The rows as a tuple of row tuples of field elements, boxed on
        each read."""
        return tuple(tuple(self.field.box(row)) for row in self.raw_rows)

    @property
    def nrows(self) -> int:
        return len(self.raw_rows)

    @property
    def ncols(self) -> int:
        return len(self.raw_rows[0]) if self.raw_rows else 0

    @classmethod
    def from_columns(cls, field, columns) -> "Matrix":
        columns = [tuple(col) for col in columns]
        if not columns:
            raise DimensionMismatch("no columns")
        n = len(columns[0])
        if any(len(c) != n for c in columns):
            raise DimensionMismatch("columns of unequal length")
        return cls(field, [[col[i] for col in columns] for i in range(n)])

    def column(self, j: int) -> tuple:
        return tuple(self.field.box([row[j] for row in self.raw_rows]))

    def shifted(self, value) -> "Matrix":
        """M - value I, for a square M and a raw value of its field: the raw
        rows with value subtracted on the diagonal. Over F_p the packed
        columns come from M's with one add per column, which sets slot j of
        column j to the new diagonal entry reduced mod p, so every slot
        stays canonical, as packing leaves it."""
        if self.nrows != self.ncols:
            raise DimensionMismatch(f"a {self.nrows}x{self.ncols} matrix shifted by a multiple of I")
        field, rows = self.field, [list(row) for row in self.raw_rows]
        for j, row in enumerate(rows):
            row[j] -= value
        shifted = Matrix._of_raw(field, rows)
        if isinstance(field, PrimeField):
            p, width = field.p, field.slot_width(self.nrows)
            shifted.int_form = [
                col + ((row[j] % p - old[j] % p) << j * width)
                for j, (col, row, old) in enumerate(zip(_int_form(self), rows, self.raw_rows))
            ]
        return shifted

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch(f"matrices over {self.field} and {other.field}")
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        cols = [raw_mat_apply(self, col) for col in zip(*other.raw_rows)]
        return Matrix._of_raw(self.field, [tuple(col[i] for col in cols) for i in range(self.nrows)])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return f"Matrix({self.field!r}, {[list(r) for r in self.rows]!r})"


class RrefResult(NamedTuple):
    matrix: Matrix
    pivots: list[int]
    rank: int


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form with leading 1s; fully deterministic.

    One loop per kind of field, each giving the same, unique, RREF:

    * over F_p, Gauss-Jordan on a copy of the matrix's packed columns
      (``_rref_columns``): one big-int multiply-add per column update, one
      pivot inverse per pivot;
    * over QQ, fraction-free Gauss-Jordan on the rows scaled to ints
      (``_ground_rref``), with no inverse; each entry of the result is
      boxed once, as its int over its row's pivot;
    * over an extension K = ground[t]/(g) of F_p or QQ proven a field
      (``int_modulus`` set, ``proven_field`` true), g monic of degree e,
      the ground RREF of K's expansion, the matrix of the ground-linear map
      that m is, whose RREF is the expansion of K's: the loop of its ground
      field (``_ground_rref``) on the kept expansion, read back by K
      (``from_expansion_rref``), with no inverse and no multiply in K;
    * over any other K, Gauss-Jordan with one pivot inverse in K per pivot
      (``_rref_with_inverses``), where a zero divisor raises NotInvertible.

    The result is made of raw rows as they stand, reduced or not."""
    field = m.field
    if isinstance(field, PrimeField):
        rows, pivots = _rref_columns(field, list(_int_form(m)), m.nrows)
    elif isinstance(field, RationalField):
        rows, pivots = _ground_rref(field, [field.to_ints(row)[0] for row in m.raw_rows], m.ncols, 1)
    elif field.int_modulus is not None and field.proven_field:
        e = field.degree
        rows, pivots = _ground_rref(field.base, [row for row, _ in _int_form(m)], m.ncols * e, e)
        rows = field.from_expansion_rref(rows)
    else:
        rows = list(map(list, m.raw_rows))
        pivots = _rref_with_inverses(field, rows, m.ncols)
    return RrefResult(Matrix._of_raw(field, rows), pivots, len(pivots))


def _ground_rref(ground, rows: list, ncols: int, e: int) -> tuple[list, list[int]]:
    """The ground elimination of a list of rows of ints over F_p or QQ,
    which it may reorder and replace but changes no row of: fraction-free
    over QQ (``_rref_on_ints``), on the rows' packed columns over F_p
    (``_rref_columns``, which leaves each pivot 1). Over a field the
    pivots come in whole blocks of e, K's pivot c giving ground pivots
    c e .. c e + e - 1; over a ring that need not hold. Returns (rows,
    pivots): each row read back over its pivot entry (``from_ints``; over
    1 in a zero row) as ground elements at the columns j e only, and the
    blocks' pivots."""
    if isinstance(ground, RationalField):
        ground_pivots = _rref_on_ints(rows, ncols)
    else:
        rows, ground_pivots = _rref_columns(ground, _pack_columns(ground, rows, ncols), len(rows))
    pivots = [c // e for c in ground_pivots[::e]]
    assert ground_pivots == [c * e + u for c in pivots for u in range(e)], "the ground pivots of a field come in whole blocks"
    heads = [row[c] for row, c in zip(rows, ground_pivots)] + [1] * (len(rows) - len(ground_pivots))
    return [ground.from_ints(row[::e], h) for row, h in zip(rows, heads)], pivots


def _primitive(row: list[int]) -> list[int]:
    """The row of ints divided by their gcd, when it is not 0 or 1."""
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def _rref_on_ints(rows: list, ncols: int) -> list[int]:
    """Fraction-free Gauss-Jordan on rows of ints, in place of the list
    rows, each row standing for every nonzero multiple of it; returns the
    pivot columns.

    Each row is divided by the gcd of its ints first and after each update
    row_i <- P row_i - F row_r, where P is the pivot and F the row's entry
    in the pivot column; no inverse is taken. Every row is a nonzero
    multiple of the row that the loop with inverses holds at the same
    step, so the pivots are the same, and row r ends as its pivot entry
    times row r of the RREF."""
    rows[:] = map(_primitive, rows)
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        p = pivot[c]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = _primitive([p * a - f * b for a, b in zip(rows[i], pivot)])
        pivots.append(c)
        r += 1
    return pivots


def _pack_columns(field, rows, ncols: int) -> list:
    """The packed columns of rows of ints over F_p, raw values reduced or
    not: column j is one int of ``field.pack`` slots, slot i holding entry
    (i, j) reduced mod p, in ``field.slot_width`` of max(nrows, ncols)."""
    p, width, pack = field.p, field.slot_width(max(len(rows), ncols)), field.pack
    return [pack([a % p for a in column], width) for column in zip(*rows)]


def _int_form(m: Matrix) -> list:
    """The matrix's one int form, built on first use and kept as
    ``m.int_form``; no caller changes it in place. Over F_p its packed
    columns (``_pack_columns``); over an extension K of F_p or QQ (its
    ``int_modulus`` is set) K's ``int_expansion`` of the rows."""
    if m.int_form is None:
        field = m.field
        if isinstance(field, PrimeField):
            m.int_form = _pack_columns(field, m.raw_rows, m.ncols)
        else:
            m.int_form = field.int_expansion(m.raw_rows)
    return m.int_form


def _rref_columns(field, columns: list, nrows: int) -> tuple[list, list[int]]:
    """Gauss-Jordan over F_p on packed columns, in place of the list
    columns, whose ints (``_pack_columns``, slots canonical) it changes;
    returns (rows, pivots): the RREF's rows, nonnegative and left
    unreduced, as raw rows may be, and its pivot columns. The one F_p
    elimination: ``rref`` over F_p runs it on a copy of the matrix's int
    form, and ``_ground_rref`` over an F_p ground on rows packed for it.

    A row swap is kept as a slot permutation: order[r] is the slot of the
    RREF's row r. For each pivot column c, the column alone is unpacked
    and its entries reduced; the pivot is the first nonzero one among the
    rows not yet pivots, at slot s, and with one inverse (one ``pow``) its
    row op, row s scaled by 1/f and every other row k less e_k times it,
    is one packed vector of multipliers, -e_k/f in slot k and 1/f - 1 in
    slot s. Every later column then gets one big-int multiply-add,
    col += x V, x its slot s reduced. The earlier columns are unchanged:
    a pivot column is 0 and a free column is 0 mod p in every row that is
    not yet a pivot's. At the end only the free columns are unpacked: the
    RREF's row r holds 1 at its pivot and the free columns' slot order[r]
    as it stands, and the rows past the rank are 0.

    No slot overflows into the next (``field.slot_width``): each x and
    each slot of V is in [0, p), and a column, packed canonical, gains one
    product per pivot in a slot. The values mod p are those of the loop
    with inverses, so the RREF, which is unique, is the same, and so is
    every certificate byte."""
    p, ncols = field.p, len(columns)
    width = field.slot_width(max(nrows, ncols))
    mask = (1 << width) - 1
    pack, unpack = field.pack, field.unpack
    order = list(range(nrows))
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        entries = unpack(columns[c], width, nrows)
        for i in range(r, nrows):
            f = entries[order[i]] % p
            if f:
                break
        else:
            continue
        order[r], order[i] = order[i], order[r]
        s = order[r]
        scale = p - pow(f, -1, p)
        multipliers = [a * scale % p for a in entries]
        multipliers[s] = (-1 - scale) % p
        vector, shift = pack(multipliers, width), s * width
        columns[c + 1 :] = [col + (col >> shift & mask) % p * vector for col in columns[c + 1 :]]
        pivots.append(c)
    rows = [[0] * ncols for _ in range(nrows)]
    for row, c in zip(rows, pivots):
        row[c] = 1
    slots = order[: len(pivots)]
    for c in set(range(ncols)).difference(pivots):
        entries = unpack(columns[c], width, nrows)
        for row, s in zip(rows, slots):
            row[c] = entries[s]
    return rows, pivots


def _rref_with_inverses(field, rows: list, ncols: int) -> list[int]:
    """Gauss-Jordan on rows of the field's raw values, in place, with one
    ``raw_inverse`` per pivot; returns the pivot columns. ``rref`` runs it
    over an extension K that is not proven a field only, where a pivot's
    inverse is where a zero divisor raises NotInvertible.

    A pivot row is reduced when it is normalized, the other rows only when
    one of their entries is tested or used as a multiplier. The normalized
    pivot row is zero left of its pivot, so the other rows are updated from
    the pivot column on."""
    reduce = field.reduce
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if reduce(rows[i][c])), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.raw_inverse(rows[r][c])
        rows[r] = [reduce(a * inv) for a in rows[r]]
        tail = rows[r][c:]
        for i in range(nrows):
            if i != r:
                row = rows[i]
                f = reduce(row[c])
                if f:
                    row[c:] = [a - f * b for a, b in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
    return pivots


def nullspace(m: Matrix) -> list[tuple]:
    """Basis of the right kernel, one vector per free column, ascending.

    Each basis vector carries the entry 1 at its own free column (standard
    RREF parametrization), which makes the basis canonical. Only the entries
    of the free columns in the pivot rows are boxed.
    """
    reduced, pivots, rank = rref(m)
    field = m.field
    zero, one = field.zero(), field.one()
    raw = reduced.raw_rows
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [zero] * m.ncols
        v[fc] = one
        for pc, c in zip(pivots, field.box([-raw[r][fc] for r in range(rank)])):
            v[pc] = c
        basis.append(tuple(v))
    assert rank + len(basis) == m.ncols  # rank-nullity
    return basis


def raw_mat_apply(m: Matrix, v) -> list:
    """The only dot product: a matrix's raw rows times a vector of raw
    values, with one path per kind of base, as ``mul_mod`` has, on the
    matrix's int form (``_int_form``) where it has one. Over F_p it is
    sum v_j C_j on the packed columns C_j: one big-int multiply-add per
    coordinate, each v_j reduced first, then one unpack and one reduction
    per entry, in ``field.slot_width``'s slots. Over an extension K of
    F_p or QQ (its ``int_modulus`` is set), K's ``int_mat_apply`` runs on
    the ground ints of the matrix's ``int_expansion``, with no multiply in
    K. Over QQ and a base higher in a tower, each entry is the sum of the
    products, reduced once."""
    field = m.field
    if isinstance(field, PrimeField):
        p = field.p
        total = sum(map(operator.mul, [a % p for a in v], _int_form(m)))
        return [c % p for c in field.unpack(total, field.slot_width(max(m.nrows, m.ncols)), m.nrows)]
    if field.int_modulus is not None:
        return field.int_mat_apply(_int_form(m), v)
    reduce, zero = field.reduce, field.raw_zero
    return [reduce(sum(map(operator.mul, row, v), zero)) for row in m.raw_rows]


def mat_apply(m: Matrix, v) -> tuple:
    """Matrix-vector product on field elements: ``raw_mat_apply``, boxed."""
    field = m.field
    v = field.unbox(map(field.coerce, v))
    if len(v) != m.ncols:
        raise DimensionMismatch(f"vector of length {len(v)} against {m.nrows}x{m.ncols}")
    return tuple(field.box(raw_mat_apply(m, v)))


def substitution_matrix(field, f: Polynomial, image) -> Matrix:
    """Matrix of g(X) -> g(image) on field[X]/(f), f monic of degree d and
    image the d coordinates of a residue: column j is image^j mod f, and
    column j + 1 is column j times image by f's kept ``mul_mod``, from the
    column of 1. It is sigma's matrix (image s) and the Rabin test's
    Frobenius matrix (image X^p mod f). The result is made of the raw rows,
    never boxed here."""
    d = f.degree
    if len(image) != d:
        raise DimensionMismatch(f"an image of {len(image)} coordinates mod a modulus of degree {d}")
    image, mul = field.unbox(image), mul_mod(field, f)
    columns = [field.unbox([field.one()]) + [field.raw_zero] * (d - 1)]
    while len(columns) < d:
        columns.append(mul(columns[-1], image))
    return Matrix._of_raw(field, zip(*columns))


def first_linear_dependency(field, vectors, limit: int) -> list:
    """Monic coefficients of the first dependency in a vector sequence.

    Returns [c_0, ..., c_{k-1}, 1] with sum(c_j * v_j) + v_k = 0 for the
    first v_k in the span of its predecessors; the caller guarantees one
    within ``limit`` vectors. The first ``limit`` vectors are the columns of
    a matrix and k is its first non-pivot column: columns 0..k-1 are pivots,
    the kernel of [v_0 ... v_k] is a line, and the RREF row of pivot j holds
    -c_j in column k.
    """
    columns = list(itertools.islice(vectors, limit))
    reduced, pivots, rank = rref(Matrix.from_columns(field, columns))
    k = next((j for j, c in enumerate(pivots) if j != c), rank)
    if k == len(columns):
        raise AssertionError("no linear dependency found within the promised bound")
    raw = reduced.raw_rows
    return field.box([-raw[j][k] for j in range(k)]) + [field.one()]


def poly_at_matrix(p: Polynomial, m: Matrix) -> Matrix:
    """Substitute the matrix into the polynomial: Horner on the raw columns
    of the result, each step one ``raw_mat_apply`` per column and the next
    coefficient added on the diagonal."""
    if m.nrows != m.ncols:
        raise DimensionMismatch("polynomial of a non-square matrix")
    field, n = m.field, m.nrows
    columns = [[field.raw_zero] * n for _ in range(n)]
    for c in reversed(field.unbox(map(field.coerce, p.coeffs))):
        columns = [raw_mat_apply(m, col) for col in columns]
        for j, col in enumerate(columns):
            col[j] += c
    return Matrix._of_raw(field, zip(*columns))


def operator_min_poly(m: Matrix) -> Polynomial:
    """Least-degree monic polynomial annihilating the matrix.

    The first linear dependency among the powers I, M, M^2, ..., each
    flattened to its n^2 entries: a dependency ending at M^k is a monic
    polynomial of degree k that annihilates M, and none of lower degree
    does. By Cayley-Hamilton one ends within the first n + 1 powers.
    """
    if m.nrows != m.ncols:
        raise DimensionMismatch("minimal polynomial of a non-square matrix")
    field, n = m.field, m.nrows

    def powers():
        power = Matrix(field, [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)])
        while True:
            yield itertools.chain.from_iterable(power.rows)
            power = power * m

    return Polynomial(field, first_linear_dependency(field, powers(), n + 1))


def element_min_poly(x) -> Polynomial:
    """Minimal polynomial of an extension element over the base field.

    Krylov on the coordinate vectors of 1, x, x^2, ...; the first linear
    dependency over the base field gives the monic minimal polynomial.
    """
    ext = x.field

    def powers():
        acc = ext.one()
        while True:
            yield acc.coords
            acc = acc * x

    coeffs = first_linear_dependency(ext.base, powers(), ext.degree + 1)
    return Polynomial(ext.base, coeffs)
