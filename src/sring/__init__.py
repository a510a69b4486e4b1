"""Exact computations over finite rings with a designated multiplicative subset."""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    EmptySpectrumError,
    MalformedExpressionError,
    SizeCapExceededError,
    SRingError,
    ZeroInClosureError,
)
from .rings import (
    DEFAULT_SIZE_CAP,
    FiniteRing,
    Idealization,
    ModuleSpec,
    Product,
    Quotient,
    RingExpression,
    TriangularE,
    ZMod,
    build_ring,
    expression_label,
    nilpotent_profile,
    verify_ring_axioms,
    zero_divisor_set,
)
from .polynomials import Polynomial, poly, poly_add, poly_multiply
from .ideals import (
    Ideal,
    MultiplicativeSet,
    SPrimeWitness,
    colon_elem,
    enumerate_ideals,
    ideal_generated,
    is_prime_ideal,
    mult_closure,
    s_minimal_s_primes,
    s_nilradical,
    s_radical,
    s_spectrum,
    spectrum_intersection,
)
from .predicates import (
    ArmendarizVerdict,
    LocalizationResult,
    SReducedCertificate,
    is_reduced,
    is_s_integral_domain,
    is_s_pf,
    is_s_pure,
    is_s_reduced,
    is_s_zero_ideal,
    is_u_s_armendariz_up_to,
    localize,
    s_strongly_hopfian_profile,
    zero_product_poly_pairs,
)
from .harness import (
    CorpusConfig,
    CorpusInstance,
    StatementId,
    StatementReport,
    VerifyConfig,
    check_statement,
    counterexample_search,
    generate_corpus,
    run_catalog,
    summarize,
)
from .ringfile import (
    expression_from_json,
    expression_to_json,
    instance_to_json,
    parse_ring_data,
    parse_ring_file,
)
