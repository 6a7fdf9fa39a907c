"""kummerkit: exact-arithmetic certification that cyclic extensions with
enough roots of unity are radical extensions.

The pipeline takes E = K[X]/(f) of degree n, a primitive n-th root of unity
zeta in K, and a generating automorphism (as the image of the class of X),
then extracts x with sigma(x) = zeta*x and certifies x^n in K and E = K(x),
flag by flag.
"""

from .errors import KummerError, ValidationError, InputFormatError
from .scalars import (
    PrimeField,
    PrimeFieldElement,
    RationalField,
    Rational,
    rational,
    is_prime,
    invert_mod_p,
    multiplicative_order,
    find_nth_root_of_unity,
)
from .polynomials import (
    Polynomial,
    poly_divmod,
    poly_gcd,
    poly_gcd_extended,
    poly_pow_mod,
    cyclotomic_polynomial,
    is_irreducible_mod_p,
)
from .tower import ExtensionField, ExtensionElement
from .linalg import (
    Matrix,
    rref,
    nullspace,
    mat_apply,
    operator_min_poly,
    substitution_matrix,
    element_min_poly,
)
from .kummer import (
    CHECK_NAMES,
    CyclicExtensionInput,
    ValidatedContext,
    EigenReport,
    KummerCertificate,
    validate_setup,
    check_diagonalizability,
    eigen_spectrum,
    check_gamma_closure,
    check_spectrum_complete,
    check_fixed_field,
    extract_radical_generator,
    lagrange_resolvent,
    compute_certificate,
    certify,
    verify_certificate,
    verify_certificate_report,
)
from .families import (
    frobenius_family,
    builtin_cubic_over_eisenstein,
    parse_tower_spec,
    default_modulus,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
