"""The F_p int kernels against the generic loops over field elements.

Over ``PrimeField`` itself, polynomials, extension elements and matrices run
their hot loops through the ``fp_*`` kernels of ``kummerkit.scalars``. A
``PrimeField`` subclass fails that exact-type dispatch, so the same values
over ``GenericPrimeField(p)`` take the generic loops, which are the reference
here. Every property builds one input over both fields and requires equal
values out, each of them a ``PrimeFieldElement`` with value in [0, p).

The largest p is prime, 1 mod 4 and below ``MR_EXACT_BOUND``, so products of
two values reach about 164 bits before they are reduced.
"""

import functools
import random

from hypothesis import given, settings, strategies as st

from kummerkit.linalg import Matrix, element_min_poly, first_linear_dependency, mat_apply, nullspace, rref
from kummerkit.polynomials import Polynomial, is_irreducible_mod_p, poly_divmod, poly_pow_mod
from kummerkit.scalars import MR_EXACT_BOUND, PrimeField, PrimeFieldElement, is_prime
from kummerkit.tower import ExtensionField

BIG_P = 3317044064679887385959989
PRIMES = (2, 3, 97, 65537, BIG_P)


class GenericPrimeField(PrimeField):
    """F_p on the generic element loops: not exactly PrimeField."""

    __slots__ = ()


@functools.cache
def fields(p: int):
    """(kernel field, reference field) for p."""
    return PrimeField(p), GenericPrimeField(p)


def values(p: int):
    """Residues mod p, with 0, 1 and -1 drawn often so that ranks drop and
    operands vanish."""
    return st.one_of(st.sampled_from([0, 0, 1, p - 1]), st.integers(0, p - 1))


def vals(seq) -> list[int]:
    return [c.value for c in seq]


def assert_canonical(seq, p: int):
    for c in seq:
        assert type(c) is PrimeFieldElement
        assert c.p == p and 0 <= c.value < p


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
def matrices(draw, p, nrows=None, ncols=None):
    nrows = draw(st.integers(0, 6)) if nrows is None else nrows
    ncols = draw(st.integers(1, 7)) if ncols is None else ncols
    rows = [draw(st.lists(values(p), min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if nrows >= 2 and draw(st.booleans()):  # a dependent row: rank below nrows
        k = draw(values(p))
        rows[-1] = [(a + k * b) % p for a, b in zip(rows[0], rows[1])]
    return rows


def test_largest_prime_is_in_range():
    assert is_prime(BIG_P) and BIG_P % 4 == 1 and BIG_P < MR_EXACT_BOUND


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rref_and_nullspace(data):
    p = data.draw(st.sampled_from(PRIMES))
    rows = data.draw(matrices(p))
    fast, ref = (Matrix(f, rows) for f in fields(p))
    got, want = rref(fast), rref(ref)
    assert [vals(r) for r in got.matrix.rows] == [vals(r) for r in want.matrix.rows]
    assert got.pivots == want.pivots and got.rank == want.rank
    for row in got.matrix.rows:
        assert_canonical(row, p)
    got, want = nullspace(fast), nullspace(ref)
    assert [vals(v) for v in got] == [vals(v) for v in want]
    for v in got:
        assert_canonical(v, p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mat_apply_mul_and_power(data):
    p = data.draw(st.sampled_from(PRIMES))
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    a_rows, b_rows = data.draw(matrices(p, n, k)), data.draw(matrices(p, k, m))
    v = data.draw(st.lists(values(p), min_size=k, max_size=k))
    (fa, fb), (ra, rb) = ((Matrix(f, a_rows), Matrix(f, b_rows)) for f in fields(p))
    got, want = mat_apply(fa, v), mat_apply(ra, v)
    assert vals(got) == vals(want)
    assert_canonical(got, p)
    got, want = fa * fb, ra * rb
    assert [vals(r) for r in got.rows] == [vals(r) for r in want.rows]
    for row in got.rows:
        assert_canonical(row, p)
    square = data.draw(matrices(p, n, n))
    e = data.draw(st.integers(0, 9))
    got, want = (Matrix(f, square).power(e) for f in fields(p))
    assert [vals(r) for r in got.rows] == [vals(r) for r in want.rows]
    for row in got.rows:
        assert_canonical(row, p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_first_linear_dependency_on_krylov_sequences(data):
    p = data.draw(st.sampled_from(PRIMES))
    n = data.draw(st.integers(1, 6))
    rows = data.draw(matrices(p, n, n))
    start = data.draw(st.lists(values(p), min_size=n, max_size=n).filter(any))
    results = []
    for field in fields(p):
        m = Matrix(field, rows)

        def krylov(v=tuple(field.coerce(c) for c in start), m=m):
            while True:
                yield v
                v = mat_apply(m, v)

        results.append(first_linear_dependency(field, krylov(), n + 1))
    got, want = results
    assert vals(got) == vals(want) and got[-1].value == 1
    assert_canonical(got, p)


def extension_pair(p: int, d: int, k: int):
    coeffs = irreducible(p, d, k)
    return [ExtensionField(f, Polynomial(f, coeffs)) for f in fields(p)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_extension_multiply(data):
    p = data.draw(st.sampled_from(PRIMES))
    d = data.draw(st.integers(1, 6))  # degree 1: X - a, one coordinate
    exts = extension_pair(p, d, data.draw(st.integers(0, 2)))
    coords = st.one_of(st.just([0] * d), st.lists(values(p), min_size=d, max_size=d))
    a, b = data.draw(coords), data.draw(coords)
    got, want = (e.element(a) * e.element(b) for e in exts)
    assert vals(got.coords) == vals(want.coords)
    assert len(got.coords) == d
    assert_canonical(got.coords, p)
    # the minimal polynomial runs E multiplies and the Krylov kernel together
    if any(a):
        got, want = (element_min_poly(e.element(a)) for e in exts)
        assert vals(got.coeffs) == vals(want.coeffs)
        assert_canonical(got.coeffs, p)


def polys(p: int, max_len: int = 8):
    return st.lists(values(p), max_size=max_len)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_polynomial_multiply_and_divmod(data):
    p = data.draw(st.sampled_from(PRIMES))
    a, b = data.draw(polys(p)), data.draw(polys(p).filter(lambda c: any(c)))
    (fa, fb), (ra, rb) = ((Polynomial(f, a), Polynomial(f, b)) for f in fields(p))
    got, want = fa * fb, ra * rb
    assert vals(got.coeffs) == vals(want.coeffs)
    assert_canonical(got.coeffs, p)
    (gq, gr), (wq, wr) = poly_divmod(fa, fb), poly_divmod(ra, rb)
    assert vals(gq.coeffs) == vals(wq.coeffs) and vals(gr.coeffs) == vals(wr.coeffs)
    assert_canonical(gq.coeffs + gr.coeffs, p)
    assert gq * fb + gr == fa


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_poly_pow_mod(data):
    p = data.draw(st.sampled_from(PRIMES))
    d = data.draw(st.integers(1, 5))
    modulus = data.draw(st.lists(values(p), min_size=d, max_size=d)) + [1]
    base = data.draw(polys(p))
    e = data.draw(st.one_of(st.integers(0, 300), st.integers(0, 10**30)))
    got, want = (poly_pow_mod(Polynomial(f, base), e, Polynomial(f, modulus)) for f in fields(p))
    assert vals(got.coeffs) == vals(want.coeffs)
    assert_canonical(got.coeffs, p)
