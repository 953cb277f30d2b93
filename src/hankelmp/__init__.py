"""Exact Hankel-determinant classification of finite moment sequences.

Classifies a finite real sequence by the sign pattern of its Hankel
determinants, recovers the unique finitely supported representing measure in
the degenerate case, extends the sequence uniquely, and verifies the
underlying determinant identities by randomized exact checks.  All arithmetic
is exact rational; irrational atoms are certified interval enclosures.
"""

from .errors import (
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
    IsolatingInterval,
    RationalInterval,
    RationalPoly,
    format_rational,
    parse_rational,
    refine_root,
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
    WindowAnalysis,
    analyze,
    classify,
    det_sequence,
    hankel_matrix,
    is_psd,
    psd_witness,
)
from .identities import (
    CampaignReport,
    SplitMix64,
    verify_det1,
    verify_det2,
    verify_psd_theorem,
    verify_roundtrip,
)
from .recovery import (
    AtomValue,
    DiscreteMeasure,
    WeightValue,
    extend,
    measure_moments,
    reconstruct,
)

__version__ = "0.1.0"
