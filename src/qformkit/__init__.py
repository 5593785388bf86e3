"""qformkit: exact certificates for real quadratic forms.

Decides zero-set containment and proportionality of indefinite forms,
divisibility of homogeneous polynomials by indefinite quadratics,
simultaneous diagonalizability of semidefinite pairs, and interval
invariance of candidate frame transforms, always returning a checkable
certificate (a constant, a quotient, a basis, or a null-cone witness).
"""

from .containment import (
    ContainmentVerdict,
    Counterexample,
    Proportional,
    WitnessVector,
    construct_witness,
    decide_containment,
    verify_witness,
)
from .errors import (
    CertificateRejected,
    ContainmentFails,
    DegreeMismatch,
    DimensionMismatch,
    FormatError,
    InvalidSpeed,
    MismatchedRadicand,
    NonSymmetricMatrix,
    NotIndefinite,
    NotPythagorean,
    NotSemidefinite,
    NoWitnessFound,
    NumericalFailure,
    QFormError,
    Unsupported,
)
from .forms import (
    CongruenceDiagonalization,
    Inertia,
    LinearTransform,
    QuadraticForm,
    apply_transform,
    bilinear_eval,
    classify,
    classify_inertia,
    congruence_diagonalize,
    evaluate,
    inertia,
)
from .polys import (
    BudgetExhausted,
    ConePointWitness,
    Divisible,
    DivisionResult,
    HomogeneousPoly,
    decide_containment_homogeneous,
    poly_from_form,
    reduce_by_quadratic,
    sample_cone_point,
    verify_poly_witness,
)
from .relativity import (
    TransformReport,
    boost_from_triple,
    check_interval_invariance,
    minkowski_form,
    rotation_from_triple,
)
from .scalars import (
    QuadExt,
    Rational,
    parse_quadext,
    parse_rational,
    render_quadext,
    render_rational,
)
from .semidefinite import (
    SimDiagResult,
    SubspaceBasis,
    containment_psd,
    kernel_basis,
    simdiag_general,
    simdiag_psd,
)

__version__ = "0.1.0"
