"""Exact linear algebra tests.

Minimal-polynomial oracles are built from the other direction: diagonal
matrices whose minimal polynomial is the product of (X - lambda) over the
distinct diagonal entries, expanded with plain polynomial multiplication.
"""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from kummerkit import linalg
from kummerkit.errors import DimensionMismatch, NotInvertible
from kummerkit.kummer import check_diagonalizability
from kummerkit.linalg import (
    Matrix,
    element_min_poly,
    first_linear_dependency,
    mat_apply,
    nullspace,
    operator_min_poly,
    poly_at_matrix,
    rref,
    substitution_matrix,
)
from kummerkit.polynomials import Polynomial, poly_divmod
from kummerkit.scalars import PrimeField, RationalField
from kummerkit.tower import ExtensionField

from matrix_oracles import horner_at_matrix, identity, is_zero, krylov_lcm_min_poly, power, shift, zeros
from test_fp_kernels import WIDE_P, elements, expansion_rref, polys

F5 = PrimeField(5)
F13 = PrimeField(13)
QQ = RationalField()


def diag(field, entries):
    zero = field.zero()
    n = len(entries)
    return Matrix(field, [[entries[i] if i == j else zero for j in range(n)] for i in range(n)])


def product_of_linear_factors(field, roots):
    out = Polynomial.one(field)
    for r in roots:
        out = out * Polynomial(field, [-field.coerce(r), field.one()])
    return out


def random_matrix(field, rng, nrows, ncols, span=13):
    return Matrix(field, [[rng.randrange(span) for _ in range(ncols)] for _ in range(nrows)])


class TestRref:
    def test_identity_is_fixed(self):
        m = identity(QQ, 2)
        result = rref(m)
        assert result.matrix == m
        assert result.pivots == [0, 1]
        assert result.rank == 2

    def test_zero_matrix(self):
        m = zeros(QQ, 2, 2)
        result = rref(m)
        assert result.matrix == m
        assert result.pivots == []
        assert result.rank == 0

    def test_dependent_rows(self):
        m = Matrix(QQ, [[1, 2], [2, 4]])
        result = rref(m)
        assert result.matrix == Matrix(QQ, [[1, 2], [0, 0]])
        assert result.rank == 1

    @pytest.mark.parametrize("field", [F5, F13, QQ])
    def test_idempotent(self, field):
        rng = random.Random(0)
        for _ in range(15):
            m = random_matrix(field, rng, rng.randrange(1, 5), rng.randrange(1, 5))
            once = rref(m).matrix
            assert rref(once).matrix == once


def test_a_zero_divisor_pivot_raises_not_invertible_over_a_k_not_proven_a_field():
    # QQ[t]/(t^2 - 1) is no field and is not proven one, so rref keeps the
    # loop with pivot inverses, which meets the zero divisor t - 1. The
    # ground expansion, which only a proven field takes, would eliminate
    # the same matrix without complaint, to a false RREF
    k = ExtensionField(QQ, Polynomial(QQ, [-1, 0, 1]))
    t = k.gen()
    m = Matrix(k, [[t - 1], [t + 1]])
    assert not k.proven_field
    with pytest.raises(NotInvertible) as caught:
        rref(m)
    assert str(caught.value) == "gcd(X + -1, X^2 + -1) = X + -1; the modulus is reducible"
    assert expansion_rref(m) == (Matrix(k, [[1], [0]]), [0], 1)


class TestRawRows:
    """A matrix keeps only raw rows, which need not be reduced: one whose raw
    values are unreduced reads, compares and hashes as the matrix built from
    the reduced elements."""

    QQ_I = ExtensionField(QQ, Polynomial(QQ, [1, 0, 1]))

    @staticmethod
    def assert_same(m, expected):
        assert m.rows == expected.rows
        assert [m.column(j) for j in range(m.ncols)] == [expected.column(j) for j in range(expected.ncols)]
        assert m == expected and hash(m) == hash(expected)

    def test_of_raw_with_values_past_p_and_negative(self):
        m = Matrix._of_raw(F13, [[13, -1, 27], [-13, 40, -27]])
        self.assert_same(m, Matrix(F13, [[0, 12, 1], [0, 1, 12]]))

    @pytest.mark.parametrize("field", [F13, QQ, QQ_I], ids=["F13", "QQ", "QQ(i)"])
    def test_rref_result(self, field):
        rng = random.Random(2)
        unreduced = 0
        for _ in range(10):
            rows = [[field.coerce(rng.randrange(-6, 7)) for _ in range(4)] for _ in range(3)]
            if field is self.QQ_I:
                rows = [[a + self.QQ_I.gen() * rng.randrange(-3, 4) for a in row] for row in rows]
            reduced = rref(Matrix(field, rows)).matrix
            boxed = Matrix(field, reduced.rows)
            unreduced += reduced.raw_rows != boxed.raw_rows
            self.assert_same(reduced, boxed)
        if field is F13:
            assert unreduced  # rref leaves rows it only updated unreduced


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        assert nullspace(identity(F5, 3)) == []

    def test_zero_one_by_one(self):
        assert nullspace(zeros(QQ, 1, 1)) == [(Fraction(1),)]

    def test_shifted_diagonal(self):
        # diag(1,8,12,5) - 5*I has its only zero diagonal entry at position 3
        m = shift(diag(F13, [1, 8, 12, 5]), 5)
        basis = nullspace(m)
        assert basis == [tuple(F13.from_int(v) for v in (0, 0, 0, 1))]

    @pytest.mark.parametrize("field", [F5, F13, QQ])
    def test_kernel_vectors_annihilate_and_rank_nullity(self, field):
        rng = random.Random(1)
        for _ in range(20):
            m = random_matrix(field, rng, rng.randrange(1, 5), rng.randrange(1, 5))
            basis = nullspace(m)
            assert rref(m).rank + len(basis) == m.ncols
            zero = tuple(field.zero() for _ in range(m.nrows))
            for v in basis:
                assert mat_apply(m, v) == zero


class TestOperatorMatrix:
    """substitution_matrix builds the matrix of the operator g -> g(image)."""

    def test_identity_images(self):
        f = Polynomial(F5, [-2, 0, 1])
        assert substitution_matrix(F5, f, Polynomial.x(F5).padded(2)) == identity(F5, 2)

    def test_frobenius_on_f25(self):
        # alpha^5 = 4*alpha by hand: alpha^5 = alpha*(alpha^2)^2 = alpha*4
        f = Polynomial(F5, [-2, 0, 1])
        assert substitution_matrix(F5, f, Polynomial(F5, [0, 4]).padded(2)) == diag(F5, [1, 4])

    def test_frobenius_on_f13_quartic(self):
        # alpha^13 = (alpha^4)^3 * alpha = 8*alpha, so alpha^j -> 8^j alpha^j
        f = Polynomial(F13, [-2, 0, 0, 0, 1])
        assert substitution_matrix(F13, f, Polynomial(F13, [0, 8]).padded(4)) == diag(F13, [1, 8, 12, 5])

    @pytest.mark.parametrize("field", [F13, QQ], ids=str)
    def test_image_of_the_wrong_length(self, field):
        # an image needs exactly deg f coordinates: one too few or too many
        # would give a matrix of the wrong shape
        f = Polynomial(field, [2, 0, 0, 1])
        for image in ([3], [3, 1], [3, 1, 0, 0]):
            with pytest.raises(DimensionMismatch):
                substitution_matrix(field, f, [field.coerce(c) for c in image])


class TestMatApply:
    def test_identity(self):
        v = (Fraction(3), Fraction(-1))
        assert mat_apply(identity(QQ, 2), v) == v

    def test_zero(self):
        assert mat_apply(zeros(F5, 2, 2), (1, 2)) == (F5.zero(), F5.zero())

    def test_diagonal_action(self):
        m = diag(F13, [1, 8, 12, 5])
        assert mat_apply(m, (0, 0, 0, 1)) == tuple(F13.from_int(v) for v in (0, 0, 0, 5))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_apply(identity(QQ, 2), (1, 2, 3))


class TestOperatorMinPoly:
    def test_identity(self):
        got = operator_min_poly(identity(QQ, 3))
        assert got == Polynomial(QQ, [-1, 1])

    def test_two_distinct_eigenvalues(self):
        expected = product_of_linear_factors(F5, [1, 4])
        assert tuple(c.value for c in expected.coeffs) == (4, 0, 1)
        assert operator_min_poly(diag(F5, [1, 4])) == expected

    def test_four_distinct_eigenvalues(self):
        expected = product_of_linear_factors(F13, [1, 8, 12, 5])
        assert expected == Polynomial(F13, [-1, 0, 0, 0, 1])
        assert operator_min_poly(diag(F13, [1, 8, 12, 5])) == expected

    def test_repeated_eigenvalue_still_squarefree_min_poly(self):
        assert operator_min_poly(diag(F5, [2, 2, 3])) == product_of_linear_factors(F5, [2, 3])

    def test_nilpotent_block(self):
        m = Matrix(QQ, [[0, 1], [0, 0]])
        assert operator_min_poly(m) == Polynomial(QQ, [0, 0, 1])

    @pytest.mark.parametrize("field", [F5, F13, QQ])
    def test_annihilates_matrix(self, field):
        rng = random.Random(2)
        for _ in range(10):
            n = rng.randrange(1, 5)
            m = random_matrix(field, rng, n, n)
            p = operator_min_poly(m)
            assert p.is_monic()
            assert is_zero(poly_at_matrix(p, m))


class TestElementMinPoly:
    def test_generator_min_poly_is_the_modulus(self):
        ext = ExtensionField(F13, Polynomial(F13, [-2, 0, 0, 0, 1]))
        assert element_min_poly(ext.gen()) == ext.modulus

    def test_base_element_min_poly_is_linear(self):
        ext = ExtensionField(F13, Polynomial(F13, [-2, 0, 0, 0, 1]))
        e = ext.embed(F13.from_int(7))
        assert element_min_poly(e) == Polynomial(F13, [-7, 1])

    def test_intermediate_element(self):
        # alpha^2 in F_13[X]/(X^4-2) satisfies Y^2 - 2 and nothing smaller
        ext = ExtensionField(F13, Polynomial(F13, [-2, 0, 0, 0, 1]))
        assert element_min_poly(ext.gen() ** 2) == Polynomial(F13, [-2, 0, 1])

    def test_one_rref_and_no_nullspace(self, monkeypatch):
        # the dependency search eliminates once, through rref itself, so
        # nullspace keeps counting only the eigenspace kernels
        calls = {"rref": 0, "nullspace": 0}
        for name in calls:
            fn = getattr(linalg, name)

            def counted(m, name=name, fn=fn):
                calls[name] += 1
                return fn(m)

            monkeypatch.setattr(linalg, name, counted)
        ext = ExtensionField(F13, Polynomial(F13, [-2, 0, 0, 0, 1]))
        assert element_min_poly(ext.gen() ** 2) == Polynomial(F13, [-2, 0, 1])
        assert calls == {"rref": 1, "nullspace": 0}


# -- oracles for the fast paths ---------------------------------------------

def companion(coeffs):
    """Companion matrix (as int rows) of the monic polynomial with the given
    degree-ascending coefficients, leading 1 omitted."""
    d = len(coeffs)
    return [[(1 if i == j + 1 else 0) if j < d - 1 else -coeffs[i] for j in range(d)] for i in range(d)]


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return out


DEGENERATE = {
    "identity": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "diagonal-repeated": [[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]],
    "jordan-plus-repeat": block_diag([[2, 1], [0, 2]], [[2]]),
    # X^2 + X - 2 = (X - 1)(X + 2), twice
    "companion-reducible-twice": block_diag(companion([-2, 1]), companion([-2, 1])),
}
CYCLIC = {
    "jordan-block": [[2, 1, 0], [0, 2, 1], [0, 0, 2]],
    # X^3 - 3X + 2 = (X - 1)^2 (X + 2)
    "companion-reducible": companion([2, -3, 0]),
}


def sympy_min_poly(rows):
    """Least-degree monic divisor of the characteristic polynomial that
    annihilates the matrix, searched over all divisors by sympy over QQ."""
    x = sympy.Symbol("x")
    m = sympy.Matrix(rows)
    n = m.rows
    divisors = [sympy.Integer(1)]
    for f, e in sympy.factor_list(m.charpoly(x).as_expr(), x)[1]:
        divisors = [d * f**k for d in divisors for k in range(e + 1)]
    for d in sorted(divisors, key=lambda d: sympy.degree(d, x)):
        poly = sympy.Poly(d, x)
        acc = sympy.zeros(n)
        for c in poly.all_coeffs():
            acc = acc * m + c * sympy.eye(n)
        if acc.is_zero_matrix:
            lead = poly.LC()
            return [Fraction(int(sympy.numer(c / lead)), int(sympy.denom(c / lead))) for c in reversed(poly.all_coeffs())]
    raise AssertionError("the characteristic polynomial annihilates every matrix")


def brute_force_min_poly_mod_p(rows, p):
    """First monic polynomial, by degree then lex order, with f(M) = 0 mod p."""
    n = len(rows)

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]

    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(n):
        powers.append(matmul(powers[-1], rows))
    for deg in range(1, n + 1):
        for tail in itertools.product(range(p), repeat=deg):
            coeffs = tail + (1,)
            if all(
                sum(c * pw[i][j] for c, pw in zip(coeffs, powers)) % p == 0 for i in range(n) for j in range(n)
            ):
                return list(coeffs)
    raise AssertionError("Cayley-Hamilton bounds the degree by n")


class TestOperatorMinPolyOracles:
    @pytest.mark.parametrize("name", sorted(DEGENERATE) + sorted(CYCLIC))
    def test_rationals_against_sympy(self, name):
        rows = {**DEGENERATE, **CYCLIC}[name]
        got = operator_min_poly(Matrix(QQ, rows))
        assert got == Polynomial(QQ, sympy_min_poly(rows))
        assert (got.degree < len(rows)) == (name in DEGENERATE)

    @pytest.mark.parametrize("name", sorted(DEGENERATE) + sorted(CYCLIC))
    def test_f5_against_brute_force(self, name):
        rows = {**DEGENERATE, **CYCLIC}[name]
        got = operator_min_poly(Matrix(F5, rows))
        assert got == Polynomial(F5, brute_force_min_poly_mod_p(rows, 5))

    def test_f5_split_companion(self):
        # X^4 - 1 splits over F_5 into four distinct linear factors
        rows = companion([-1, 0, 0, 0])
        assert operator_min_poly(Matrix(F5, rows)) == Polynomial(F5, brute_force_min_poly_mod_p(rows, 5))


QQ_I = ExtensionField(QQ, Polynomial(QQ, [1, 0, 1]))
# candidates for the roots of unity of each field: all of F_p, and the roots
# of unity QQ and QQ(i) have
UNIT_CANDIDATES = {
    PrimeField(2): [0, 1],
    F13: range(13),
    QQ: [1, -1],
    QQ_I: [QQ_I.one(), -QQ_I.one(), QQ_I.gen(), -QQ_I.gen()],
}


@st.composite
def operators(draw):
    """A square matrix over F_2, F_13, QQ or QQ(i) of size 0 to 6: dense,
    nilpotent (strictly upper triangular), scalar, or similar to a diagonal
    or Jordan form whose diagonal holds distinct or repeated eigenvalues or
    n-th roots of unity, conjugated by a few elementary matrices."""
    field = draw(st.sampled_from(list(UNIT_CANDIDATES)))
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["dense", "nilpotent", "scalar", "diagonalizable", "repeated", "roots-of-unity"]))
    entry = elements(field)
    zero = field.zero()
    if kind == "dense":
        return field, n, Matrix(field, [[draw(entry) for _ in range(n)] for _ in range(n)])
    rows = [[zero] * n for _ in range(n)]
    if kind == "nilpotent":
        for i in range(n):
            rows[i][i + 1 :] = [draw(entry) for _ in range(n - i - 1)]
        return field, n, Matrix(field, rows)
    if kind == "scalar":
        eigenvalues = [draw(entry)] * n
    elif kind == "diagonalizable":
        eigenvalues = [draw(entry) for _ in range(n)]
    elif kind == "repeated":
        eigenvalues = sorted(draw(st.lists(st.sampled_from([zero, draw(entry)]), min_size=n, max_size=n)), key=str)
    else:
        units = [u for u in map(field.coerce, UNIT_CANDIDATES[field]) if u**n == field.one()]
        eigenvalues = [draw(st.sampled_from(units)) for _ in range(n)]
    for i in range(n):
        rows[i][i] = eigenvalues[i]
        if kind == "repeated" and i and eigenvalues[i] == eigenvalues[i - 1] and draw(st.booleans()):
            rows[i - 1][i] = field.one()  # a Jordan block
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        # A -> E A E^-1 with E = I + t e_ij: add t * row j to row i, then
        # subtract t * column i from column j
        i, j = draw(st.permutations(range(n)))[:2]
        t = draw(entry)
        rows[i] = [a + t * b for a, b in zip(rows[i], rows[j])]
        for row in rows:
            row[j] = row[j] - t * row[i]
    return field, n, Matrix(field, rows)


@settings(max_examples=150, deadline=None)
@given(case=operators(), data=st.data())
def test_min_poly_evaluation_and_diagonalizability_against_the_oracles(case, data):
    field, n, m = case
    min_poly = operator_min_poly(m)
    assert min_poly == krylov_lcm_min_poly(m)
    assert is_zero(poly_at_matrix(min_poly, m))
    p = data.draw(polys(field))
    assert poly_at_matrix(p, m) == horner_at_matrix(p, m)
    _, rem = poly_divmod(Polynomial.x_pow_minus_const(field, n, field.one()), min_poly)
    expected = (not rem) and power(m, n) == identity(field, n)
    ctx = SimpleNamespace(base_field=field, n=n)  # all check_diagonalizability reads
    assert check_diagonalizability(ctx, m) == (expected, min_poly)


def nullspace_first_linear_dependency(field, vectors, limit):
    """The original formulation: a fresh nullspace after every new vector."""
    cols = []
    for v in itertools.islice(vectors, limit):
        cols.append(tuple(v))
        kernel = nullspace(Matrix.from_columns(field, cols))
        if kernel:
            return list(kernel[0])
    raise AssertionError("no linear dependency found within the promised bound")


def random_low_rank_sequence(field, rng, dim):
    """dim + 1 vectors drawn from the span of a few random vectors, with the
    occasional zero vector; any dim + 1 vectors are dependent."""
    rank = rng.randrange(0, dim + 1)
    gens = [[field.from_int(rng.randrange(-6, 7)) for _ in range(dim)] for _ in range(rank)]
    seq = []
    for _ in range(dim + 1):
        v = [field.zero()] * dim
        for g in gens:
            k = field.from_int(rng.randrange(-4, 5))
            v = [a + k * b for a, b in zip(v, g)]
        seq.append(tuple(v))
    return seq


class TestFirstLinearDependency:
    @pytest.mark.parametrize("field", [F5, F13, QQ], ids=["F5", "F13", "QQ"])
    def test_matches_nullspace_version_on_random_sequences(self, field):
        rng = random.Random(1604)
        for _ in range(60):
            dim = rng.randrange(1, 7)
            seq = random_low_rank_sequence(field, rng, dim)
            got = first_linear_dependency(field, iter(seq), dim + 1)
            assert got == nullspace_first_linear_dependency(field, iter(seq), dim + 1), seq

    @pytest.mark.parametrize("field", [F5, F13, QQ], ids=["F5", "F13", "QQ"])
    def test_matches_nullspace_version_on_krylov_sequences(self, field):
        rng = random.Random(1997)
        for _ in range(30):
            n = rng.randrange(1, 6)
            m = random_matrix(field, rng, n, n)
            start = tuple(field.from_int(rng.randrange(-3, 4)) for _ in range(n))
            seq = [start]
            for _ in range(n):
                seq.append(mat_apply(m, seq[-1]))
            got = first_linear_dependency(field, iter(seq), n + 1)
            assert got == nullspace_first_linear_dependency(field, iter(seq), n + 1)

    def test_zero_first_vector(self):
        assert first_linear_dependency(F5, iter([(0, 0)]), 1) == [F5.one()]

    def test_no_dependency_within_limit(self):
        with pytest.raises(AssertionError):
            first_linear_dependency(QQ, iter([(1, 0), (0, 1)]), 2)


# -- the packed F_p elimination against the loop with inverses ------------------

ELIMINATION_PRIMES = (2, 3, 13, 7681, WIDE_P)  # WIDE_P: slots wider than one word


@st.composite
def raw_fp_matrices(draw):
    """(p, rows, ncols): up to 9 x 9 raw rows over F_p, of one of four
    kinds: entries anywhere in [-3p, 3p], negative and unreduced; every
    entry p - 1, where a slot grows most; combinations of at most two
    drawn rows, rank-deficient, each entry shifted by a multiple of p; or
    all zero."""
    p = draw(st.sampled_from(ELIMINATION_PRIMES))
    nrows, ncols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    kind = draw(st.sampled_from(["raw", "p - 1", "low rank", "zero"]))
    entry = st.one_of(st.sampled_from([0, 1, p - 1, -1, -p, p]), st.integers(-3 * p, 3 * p))
    if kind == "raw":
        rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    elif kind == "p - 1":
        rows = [[p - 1] * ncols for _ in range(nrows)]
    elif kind == "low rank":
        basis = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=2))
        rows = []
        for _ in range(nrows):
            scales = draw(st.lists(st.integers(-p, p), min_size=len(basis), max_size=len(basis)))
            shifts = draw(st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols))
            rows.append([sum(k * b[j] for k, b in zip(scales, basis)) + s * p for j, s in enumerate(shifts)])
    else:
        rows = [[0] * ncols for _ in range(nrows)]
    return p, rows, ncols


def reduced(rows, p):
    return [[a % p for a in row] for row in rows]


@settings(max_examples=300, deadline=None)
@given(raw_fp_matrices())
def test_packed_elimination_matches_the_loop_with_inverses(case):
    p, rows, ncols = case
    field = PrimeField(p)
    given_rows = [list(row) for row in rows]
    oracle = [list(row) for row in rows]
    packed, pivots = linalg._rref_columns(field, linalg._pack_columns(field, given_rows, ncols), len(given_rows))
    assert pivots == linalg._rref_with_inverses(field, oracle, ncols)
    assert reduced(packed, p) == reduced(oracle, p)
    assert all(a >= 0 for row in packed for a in row)
    assert all(packed[r][c] == 1 for r, c in enumerate(pivots))
    assert given_rows == rows  # no row it was given is changed


@settings(max_examples=150, deadline=None)
@given(raw_fp_matrices())
def test_nullspace_and_dependency_over_fp_run_on_the_packed_elimination(case):
    p, rows, ncols = case
    field = PrimeField(p)
    oracle = [list(row) for row in rows]
    pivots = linalg._rref_with_inverses(field, oracle, ncols)
    result = rref(Matrix._of_raw(field, rows))
    assert result.pivots == pivots and reduced(result.matrix.raw_rows, p) == reduced(oracle, p)
    m = Matrix._of_raw(field, rows)  # with no rows it has no columns
    basis = nullspace(m)
    free = [c for c in range(m.ncols) if c not in pivots]
    assert len(basis) == len(free)
    for fc, v in zip(free, basis):
        expected = [0] * m.ncols
        expected[fc] = 1
        for r, c in enumerate(pivots):
            expected[c] = -oracle[r][fc] % p
        assert [c.value for c in v] == expected
        assert all(sum(a * c.value for a, c in zip(row, v)) % p == 0 for row in rows)
    if rows and ncols:  # the columns, then a zero vector: a dependency within ncols + 1
        columns = [[row[j] for row in rows] for j in range(ncols)] + [[0] * len(rows)]
        got = first_linear_dependency(field, iter(columns), ncols + 1)
        k = len(got) - 1
        assert k == next((j for j, c in enumerate(pivots) if j != c), len(pivots))
        assert all((sum(c.value * col[i] for c, col in zip(got, columns)) % p) == 0 for i in range(len(rows)))


# -- the packed columns over F_p: elimination, shift and dot product -----------

WORD_P = 4294967291  # the largest prime below 2^32: (p - 1)^2 fills one word, a sum of two needs two
COLUMN_PRIMES = ELIMINATION_PRIMES + (WORD_P,)


@st.composite
def fp_matrices_to_eliminate(draw):
    """(p, rows, ncols): up to 9 x 9 raw rows over F_p, of one of four
    kinds: entries anywhere in [-3p, 3p]; rows whose first columns are zero
    in the top rows, so that pivots come from lower rows and the slot
    permutation swaps them; combinations of at most two drawn rows,
    rank-deficient; or a square matrix of canonical entries whose diagonal
    is raised by p - z for a z in [1, p - 1], entries up to 2p - 2, as
    adding p - zeta^i shifts an eigen kernel's diagonal."""
    p = draw(st.sampled_from(COLUMN_PRIMES))
    nrows, ncols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    kind = draw(st.sampled_from(["raw", "swaps", "low rank", "shifted diagonal"]))
    entry = st.one_of(st.sampled_from([0, 1, p - 1, -1, -p, p]), st.integers(-3 * p, 3 * p))
    row_of = st.lists(entry, min_size=ncols, max_size=ncols)
    if kind == "raw":
        rows = draw(st.lists(row_of, min_size=nrows, max_size=nrows))
    elif kind == "swaps":
        rows = draw(st.lists(row_of, min_size=nrows, max_size=nrows))
        lead, top = draw(st.integers(0, ncols)), draw(st.integers(0, nrows))
        for row in rows[:top]:
            row[:lead] = [p * draw(st.integers(-1, 1)) for _ in range(lead)]
    elif kind == "low rank":
        basis = draw(st.lists(row_of, min_size=1, max_size=2))
        rows = []
        for _ in range(nrows):
            scales = draw(st.lists(st.integers(-p, p), min_size=len(basis), max_size=len(basis)))
            rows.append([sum(k * b[j] for k, b in zip(scales, basis)) for j in range(ncols)])
    else:
        ncols = nrows
        canonical = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
        rows = draw(st.lists(st.lists(canonical, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
        z = draw(st.one_of(st.sampled_from([1, p - 1]), st.integers(1, p - 1)))
        for j, row in enumerate(rows):
            row[j] += p - z
    return p, rows, ncols


@settings(max_examples=300, deadline=None)
@given(fp_matrices_to_eliminate())
def test_column_elimination_matches_the_loop_with_inverses(case):
    # rref over F_p eliminates a copy of the matrix's kept packed columns,
    # as the ground elimination does the columns of the rows it is given
    p, rows, ncols = case
    field = PrimeField(p)
    oracle = [list(row) for row in rows]
    pivots = linalg._rref_with_inverses(field, oracle, ncols)
    m = Matrix._of_raw(field, [list(row) for row in rows])
    got = rref(m)
    assert got.pivots == pivots and got.rank == len(pivots)
    assert reduced(got.matrix.raw_rows, p) == reduced(oracle, p)
    assert all(a >= 0 for row in got.matrix.raw_rows for a in row)
    assert all(got.matrix.raw_rows[r][c] == 1 for r, c in enumerate(pivots))
    assert m.raw_rows == tuple(map(list, rows)) and m.int_form == linalg._pack_columns(field, rows, ncols)
    assert rref(m) == got  # the kept form is eliminated again, unchanged
    packed = linalg._pack_columns(field, rows, ncols)
    assert linalg._rref_columns(field, packed, len(rows)) == (list(got.matrix.raw_rows), pivots)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_shifted_matrix_keeps_canonical_packed_columns(data):
    # M - z I takes its packed columns from M's, one add per column, and
    # they are those of its raw rows packed afresh: every slot canonical,
    # for z anywhere in [-2p, 2p], whether M's form was built before or not
    p = data.draw(st.sampled_from(COLUMN_PRIMES), label="p")
    n = data.draw(st.integers(0, 9), label="n")
    entry = st.one_of(st.sampled_from([0, 1, p - 1, -1, -p, p]), st.integers(-3 * p, 3 * p))
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n), label="rows")
    z = data.draw(st.one_of(st.sampled_from([0, 1, p - 1, p, -1]), st.integers(-2 * p, 2 * p)), label="z")
    field = PrimeField(p)
    m = Matrix._of_raw(field, rows)
    if data.draw(st.booleans(), label="form built first"):
        linalg.raw_mat_apply(m, [1] * n)
    shifted = m.shifted(z)
    expected = [[a - z if i == j else a for j, a in enumerate(row)] for i, row in enumerate(rows)]
    assert shifted.raw_rows == tuple(expected) and m.raw_rows == tuple(rows)
    assert shifted.int_form == linalg._pack_columns(field, expected, n)
    assert m.int_form == linalg._pack_columns(field, rows, n)
    oracle = [list(row) for row in expected]
    pivots = linalg._rref_with_inverses(field, oracle, n)
    assert rref(shifted).pivots == pivots
    assert nullspace(shifted) == nullspace(Matrix(field, expected))
    v = data.draw(st.lists(entry, min_size=n, max_size=n), label="v")
    assert linalg.raw_mat_apply(shifted, v) == [sum(a * b for a, b in zip(row, v)) % p for row in expected]


def test_shifted_matches_the_full_shift_over_every_field():
    k = quadratic_field(13)
    cases = [
        (F13, [[1, 2, 3], [4, 5, 6], [7, 8, 9]], 5),
        (QQ, [[Fraction(1, 2), 2, 0], [0, -1, 3], [Fraction(5, 7), 0, 1]], Fraction(-1, 3)),
        (k, [[k.gen(), 1, 0], [2, k.gen() + 3, 1], [0, 0, k.one()]], k.gen() + 1),
    ]
    for field, rows, lam in cases:
        m = Matrix(field, rows)
        got = m.shifted(field.unbox([field.coerce(lam)])[0])
        assert got == shift(m, lam)
        assert nullspace(got) == nullspace(shift(m, lam))
    with pytest.raises(DimensionMismatch):
        Matrix(F13, [[1, 2]]).shifted(1)


@pytest.mark.parametrize("p", COLUMN_PRIMES)
def test_packed_dot_product_matches_the_sum_of_products(p):
    # sum v_j C_j on the packed columns against the sum of products: d = 1,
    # a zero vector, every entry p - 1 (the largest slot sums), unreduced
    # and negative raw values on both sides, square and not
    field = PrimeField(p)
    rng = random.Random(p)
    for nrows, ncols in [(1, 1), (1, 6), (6, 1), (2, 2), (5, 3), (16, 16), (40, 40)]:
        heaviest = [[p - 1] * ncols for _ in range(nrows)]
        raw = [[rng.choice([0, 1, p - 1, -1, 3 * p - 1, rng.randrange(-3 * p, 3 * p)]) for _ in range(ncols)]
               for _ in range(nrows)]
        for rows in (heaviest, raw):
            m = Matrix._of_raw(field, rows)
            vectors = ([0] * ncols, [p - 1] * ncols, [rng.randrange(-3 * p, 3 * p) for _ in range(ncols)])
            for v in vectors:
                assert linalg.raw_mat_apply(m, v) == [sum(a * b for a, b in zip(row, v)) % p for row in rows]
            assert m.int_form == linalg._pack_columns(field, rows, ncols)


def quadratic_field(p: int) -> ExtensionField:
    """F_p[t]/(g) for an irreducible g of degree 2: t^2 + t + 1 over F_2,
    else t^2 - a for the least non-residue a."""
    field = PrimeField(p)
    if p == 2:
        return ExtensionField(field, Polynomial(field, [1, 1, 1]))
    a = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    return ExtensionField(field, Polynomial(field, [-a, 0, 1]))


@pytest.mark.parametrize("p", ELIMINATION_PRIMES)
def test_ground_rref_over_fp_runs_the_packed_elimination(p):
    # K = F_p[t]/(g) is proven a field, so rref over K eliminates K's ground
    # expansion with the packed loop: the same RREF as inverses in K give
    k = quadratic_field(p)
    assert k.proven_field and k.int_modulus is not None
    rng = random.Random(p)
    values = [0, 1, p - 1, -1, -p]
    for _ in range(25):
        nrows, ncols = rng.randrange(0, 6), rng.randrange(0, 6)
        basis = [[k.element([rng.choice(values + [rng.randrange(p)]) for _ in range(2)]) for _ in range(ncols)]
                 for _ in range(rng.randrange(1, 4))]
        rows = [[sum((k.from_int(rng.randrange(-2, 3)) * b[j] for b in basis), k.zero()) for j in range(ncols)]
                for _ in range(nrows)]
        m = Matrix(k, rows)
        oracle = [list(row) for row in m.raw_rows]
        pivots = linalg._rref_with_inverses(k, oracle, ncols)
        got = rref(m)
        assert got.pivots == pivots
        assert got.matrix == Matrix(k, oracle)
