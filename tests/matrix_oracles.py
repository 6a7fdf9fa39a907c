"""Matrix algebra that kummerkit does not carry, kept here as test oracles.

A ``Matrix`` has raw rows and one product, ``__mul__``. These helpers build
and combine matrices from its boxed rows the plain way, and keep the
formulations that ``operator_min_poly`` and ``poly_at_matrix`` replaced:
the LCM of the Krylov minimal polynomials, and Horner with whole matrices.
"""

from kummerkit.linalg import Matrix, first_linear_dependency, mat_apply
from kummerkit.polynomials import Polynomial, poly_gcd


def identity(field, n: int) -> Matrix:
    one, zero = field.one(), field.zero()
    return Matrix(field, [[one if i == j else zero for j in range(n)] for i in range(n)])


def zeros(field, nrows: int, ncols: int) -> Matrix:
    return Matrix(field, [[field.zero()] * ncols for _ in range(nrows)])


def add(a: Matrix, b: Matrix) -> Matrix:
    assert (a.field, a.nrows, a.ncols) == (b.field, b.nrows, b.ncols)
    return Matrix(a.field, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)])


def scale(m: Matrix, k) -> Matrix:
    k = m.field.coerce(k)
    return Matrix(m.field, [[a * k for a in row] for row in m.rows])


def shift(m: Matrix, lam) -> Matrix:
    """M - lam*I, with the identity built and scaled in full."""
    return add(m, scale(identity(m.field, m.nrows), -m.field.coerce(lam)))


def is_zero(m: Matrix) -> bool:
    return not any(any(row) for row in m.rows)


def power(m: Matrix, e: int) -> Matrix:
    """M^e by square-and-multiply through ``Matrix.__mul__``."""
    result, base = identity(m.field, m.nrows), m
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


def horner_at_matrix(p: Polynomial, m: Matrix) -> Matrix:
    """p(M) by Horner on whole matrices: result * M + c * I per coefficient."""
    n = m.nrows
    result = zeros(m.field, n, n)
    for c in reversed(p.coeffs):
        result = add(result * m, scale(identity(m.field, n), c))
    return result


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    if not a or not b:
        return Polynomial.zero(a.field)
    return ((a * b) // poly_gcd(a, b)).monic()


def krylov_lcm_min_poly(m: Matrix) -> Polynomial:
    """The LCM, over each standard basis vector e_i, of the least monic
    polynomial annihilating the Krylov sequence e_i, M e_i, M^2 e_i, ...;
    over the full basis it annihilates M and divides every polynomial that
    does."""
    field, n = m.field, m.nrows
    acc = Polynomial.one(field)
    for i in range(n):
        v = tuple(field.one() if j == i else field.zero() for j in range(n))
        krylov = [v]
        for _ in range(n):
            krylov.append(mat_apply(m, krylov[-1]))
        acc = poly_lcm(acc, Polynomial(field, first_linear_dependency(field, iter(krylov), n + 1)))
    return acc
