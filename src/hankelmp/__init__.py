"""Exact Hankel-determinant classification of finite moment sequences.

Classifies a finite real sequence by the sign pattern of its Hankel
determinants, recovers the unique finitely supported representing measure in
the degenerate case, extends the sequence uniquely, and verifies the
underlying determinant identities by randomized exact checks.  All arithmetic
is exact rational; irrational atoms are certified interval enclosures.
"""

from .errors import (
    BadShape,
    DegenerateNormalization,
    InconsistentWindow,
    InfeasibleSpec,
    MomentProblemError,
    NotSquareFree,
    NotSymmetric,
    OutOfWindow,
    PrecisionUnattainable,
    PreconditionViolated,
    ZeroPolynomial,
)
from .exact import (
    Fraction,
    IsolatingInterval,
    RationalPoly,
    cauchy_root_bound,
    format_rational,
    parse_rational,
    poly_eval,
    poly_gcd,
    refine_root,
    sign_variations,
    sturm_chain,
    sturm_isolate,
)
from .hankel import (
    Classification,
    Degenerate,
    Invalid,
    InvalidReason,
    MomentWindow,
    PositiveWindow,
    SymMatrix,
    WindowAnalysis,
    analyze,
    classify,
    det_exact,
    det_sequence,
    hankel_matrix,
    is_psd,
    principal_minor_sums,
)
from .identities import (
    CampaignReport,
    Det2Instance,
    Det2Result,
    MeasureGenSpec,
    SplitMix64,
    det1_determinant,
    det1_matrix,
    det2_check,
    det2_matrix,
    random_measure,
    verify_det1,
    verify_det2,
    verify_psd_theorem,
    verify_roundtrip,
)
from .orthopoly import (
    MomentForm,
    moment_inner_product,
    monic_orthogonal_poly,
)
from .recovery import (
    AtomValue,
    DiscreteMeasure,
    RationalInterval,
    WeightValue,
    extend,
    measure_moments,
    reconstruct,
)

__version__ = "0.1.0"
