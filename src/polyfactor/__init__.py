"""Integer polynomial factorization by recombination of real roots.

Factor each square-free part over the reals, its roots multiplied by its
leading coefficient, take the fractional parts of the real roots and
conjugate-pair sums, and search for subsets that sum to an integer; each hit
is a candidate factor verified by exact integer division. The search is a
subset-sum instance with five backends of increasing sophistication
(exhaustive scan up to meet-in-the-middle window queries over one sorted
half), plus a threaded build of the distribution-sort table of backend d.
"""

from .errors import (
    NonConvergence,
    PolyfactorError,
    PolynomialParseError,
    UnpairedComplexRoot,
    WidthExceeded,
)
from .polynomial import (
    IntPolynomial,
    SquareFreePart,
    divide_exact,
    gen_random_reducible,
    gen_random_reducible_parts,
    gen_swinnerton_dyer,
    multiply,
    poly_gcd,
    square_free_decompose,
)
from .recombine import (
    BACKENDS,
    CandidateSet,
    RecombineStats,
    RhoVector,
    ValueTable,
    accept,
    expand,
    find,
    insert,
    predict_beta,
    query,
    recombine_a,
    recombine_b,
    recombine_c,
    recombine_d,
    recombine_e,
    splat,
    splat_cost_bounds,
    value,
)
from .rootfinder import (
    RootProfile,
    ToleranceConfig,
    build_profile,
    expected_n,
    expected_real_roots,
    find_roots,
    profile_polynomial,
)
from .parallel import parallel_build
from .verify import (
    CandidateFactor,
    FactorizationResult,
    FactorStats,
    build_candidate,
    factor,
    is_irreducible,
    round_and_divide,
    screen_candidates,
    trace_test,
)

__version__ = "0.1.0"
