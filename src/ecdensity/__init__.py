"""One-level density of low-lying zeros for the elliptic-curve family
y^2 = x^3 + ax + b, via the explicit formula, with a Poisson-dual fast path
and verification harnesses for the supporting identities and inequalities.
"""

from .analysis import (
    DEFAULT_BOX,
    SmoothWeight,
    TestFunctionPair,
    bump,
    fejer_pair,
    verify_fourier_pair,
)
from .arith import (
    DTriple,
    Factorization,
    cube_kernel,
    d_triple,
    factorize,
    is_prime,
    jacobi,
    legendre,
    mod_inverse,
    psi4,
    sieve_primes,
)
from .characters import (
    DirichletCharacter,
    char_order_and_conductor,
    conductor as char_conductor,
    count_cube_roots,
    cubic_characters,
    cubic_structure_report,
    enumerate_characters,
    gauss_sum_matrix,
    is_primitive,
    real_characters,
)
from .curves import ConductorInfo, conductor, minimal_short_model, reduction_type
from .density import (
    CrosscheckReport,
    DensityReport,
    FamilySpec,
    ZeroFileError,
    ZeroList,
    ZeroListTooShort,
    density_report,
    explicit_formula_crosscheck,
    family,
    p1_direct,
    p1_poisson,
    p2_direct,
    parse_zero_file,
    rank_bound_exact,
    report_json,
    sweep_csv,
    verify_char_expansion,
    w_total,
    write_zero_file,
)
from .frobenius import (
    FrobTable,
    TableFormatError,
    get_table,
    lambda_p,
    lambda_sq_total,
    lambda_table,
    load_table,
    save_table,
    twisted_closed_form,
    twisted_complete_sum,
)
from .harness import (
    GrowthFit,
    RatioReport,
    WellSpacedSet,
    dirichlet_meanvalue_check,
    expsum_ratio,
    gallagher_integral_ratio,
    gallagher_spacing_check,
    heathbrown_ratio,
    large_sieve_check,
    lemma_f_growth,
    weyl_ratio,
)

__version__ = "1.0.0"
