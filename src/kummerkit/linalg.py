"""Exact dense linear algebra over any tower field.

Everything here is deterministic: pivots are the first nonzero entry scanning
top-to-bottom in the leftmost unresolved column (magnitude heuristics are
meaningless in exact arithmetic), and nullspace bases use the standard RREF
free-column parametrization. Vectors are plain tuples of field elements.

A ``Matrix`` carries its raw rows and one product, ``__mul__``: kernels and
products with vectors are all that sigma's matrix is needed for. Over an
extension of F_p or QQ it also keeps one int form, the field's ground
expansion of it, built on its first dot product (``raw_mat_apply``) for
every later one.

``rref`` is the only elimination. Over QQ, and over an extension of F_p or
QQ proven a field, it runs one ground elimination (``_ground_rref``) on
ints: on the rows scaled to ints, or on the field's ground expansion of
the matrix, from which the field reads its RREF back. It is fraction-free
over QQ and takes no inverse outside F_p. Over F_p, and over a field not
proven one, each pivot is inverted.
"""

from __future__ import annotations

import itertools
import operator
from math import gcd
from typing import NamedTuple

from .errors import DimensionMismatch, FieldMismatch
from .polynomials import Polynomial, raw_mul_mod
from .scalars import RationalField


class Matrix:
    """Immutable dense matrix, kept as ``raw_rows``: a tuple of rows of the
    field's raw values, which need not be reduced. Over an extension of F_p
    or QQ, ``int_expansion`` is None until the first dot product; it then
    holds the field's ``int_expansion`` of the rows, the matrix's one int
    form, which every later product and an elimination read."""

    __slots__ = ("field", "raw_rows", "int_expansion")

    def __init__(self, field, rows):
        raw_rows = tuple(field.unbox(map(field.coerce, row)) for row in rows)
        if raw_rows:
            width = len(raw_rows[0])
            if any(len(r) != width for r in raw_rows):
                raise DimensionMismatch("ragged rows")
        self.field = field
        self.raw_rows = raw_rows
        self.int_expansion = None

    @classmethod
    def _of_raw(cls, field, raw_rows) -> "Matrix":
        """A matrix from equal-length rows of the field's raw values, which
        are trusted: neither coerced nor reduced."""
        m = object.__new__(cls)
        m.field = field
        m.raw_rows = tuple(raw_rows)
        m.int_expansion = None
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

    * over QQ, fraction-free Gauss-Jordan on the rows scaled to ints
      (``_ground_rref``), with no inverse; each entry of the result is
      boxed once, as its int over its row's pivot;
    * over an extension K of F_p or QQ proven a field (``int_modulus`` set,
      ``proven_field`` true), the ground RREF of K's expansion
      (``_rref_of_expansion``): no inverse and no multiply in K;
    * over F_p and any other K, Gauss-Jordan with one pivot inverse per
      pivot (``_rref_with_inverses``). Over a K not proven a field that
      inverse is where a zero divisor raises NotInvertible.

    The result is made of raw rows as they stand, reduced or not."""
    field = m.field
    if field.int_modulus is not None and field.proven_field:
        return _rref_of_expansion(m)
    if isinstance(field, RationalField):
        rows, pivots = _ground_rref(field, [field.to_ints(row)[0] for row in m.raw_rows], m.ncols, 1)
    else:
        rows = list(map(list, m.raw_rows))
        pivots = _rref_with_inverses(field, rows, m.ncols)
    return RrefResult(Matrix._of_raw(field, rows), pivots, len(pivots))


def _rref_of_expansion(m: Matrix) -> RrefResult:
    """``rref`` over an extension K = ground[t]/(g) of F_p or QQ, g monic of
    degree e: the ground RREF of K's expansion, the matrix of the
    ground-linear map that m is, whose RREF is the expansion of K's. The
    expansion m keeps is read, else one is built and not kept: a matrix is
    eliminated once."""
    field, e = m.field, m.field.degree
    expansion = m.int_expansion or field.int_expansion(m.raw_rows)
    rows, pivots = _ground_rref(field.base, [list(row) for row, _ in expansion], m.ncols * e, e)
    return RrefResult(Matrix._of_raw(field, field.from_expansion_rref(rows)), pivots, len(pivots))


def _ground_rref(ground, rows: list, ncols: int, e: int) -> tuple[list, list[int]]:
    """The ground elimination, in place, of rows of ints over F_p or QQ:
    fraction-free over QQ (``_rref_on_ints``), with inverses over F_p
    (``_rref_with_inverses``, which leaves each pivot 1). Over a field the
    pivots come in whole blocks of e, K's pivot c giving ground pivots
    c e .. c e + e - 1; over a ring that need not hold. Returns (rows,
    pivots): each row read back over its pivot entry (``from_ints``; over 1
    in a zero row) as ground elements at the columns j e only, and the
    blocks' pivots."""
    if isinstance(ground, RationalField):
        ground_pivots = _rref_on_ints(rows, ncols)
    else:
        ground_pivots = _rref_with_inverses(ground, rows, ncols)
    pivots = [c // e for c in ground_pivots[::e]]
    assert ground_pivots == [c * e + u for c in pivots for u in range(e)], "the ground pivots of a field come in whole blocks"
    heads = [row[c] for row, c in zip(rows, ground_pivots)] + [1] * (len(rows) - len(ground_pivots))
    return [ground.from_ints(row[::e], h) for row, h in zip(rows, heads)], pivots


def _primitive(row: list[int]) -> list[int]:
    """The row of ints divided by their gcd, when it is not 0 or 1."""
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def _rref_on_ints(rows: list, ncols: int) -> list[int]:
    """Fraction-free Gauss-Jordan on rows of ints, in place, each row
    standing for every nonzero multiple of it; returns the pivot columns.

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


def _rref_with_inverses(field, rows: list, ncols: int) -> list[int]:
    """Gauss-Jordan on rows of the field's raw values, in place, with one
    ``raw_inverse`` per pivot; returns the pivot columns.

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
    values, with one path per kind of base, as ``raw_mul_mod`` has. Over an
    extension K of F_p or QQ (its ``int_modulus`` is set), K's
    ``int_mat_apply`` runs on the ground ints of the matrix's
    ``int_expansion``, built on its first product and kept, with no
    multiply in K. Over F_p, QQ and a base higher in a tower, each entry is
    the sum of the products, reduced once."""
    field = m.field
    if field.int_modulus is not None:
        if m.int_expansion is None:
            m.int_expansion = field.int_expansion(m.raw_rows)
        return field.int_mat_apply(m.int_expansion, v)
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
    column j + 1 is one ``raw_mul_mod`` of column j by image, from the
    column of 1. It is sigma's matrix (image s) and the Rabin test's
    Frobenius matrix (image X^p mod f). The result is made of the raw rows,
    never boxed here."""
    d = f.degree
    if len(image) != d:
        raise DimensionMismatch(f"an image of {len(image)} coordinates mod a modulus of degree {d}")
    image = field.unbox(image)
    columns = [field.unbox([field.one()]) + [field.raw_zero] * (d - 1)]
    while len(columns) < d:
        columns.append(raw_mul_mod(field, columns[-1], image, f))
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
