"""qformkit: exact certificates for real quadratic forms.

Decides zero-set containment and proportionality of indefinite forms,
divisibility of homogeneous polynomials by indefinite quadratics,
simultaneous diagonalizability of semidefinite pairs, and interval
invariance of candidate frame transforms, always returning a checkable
certificate (a constant, a quotient, a basis, or a null-cone witness).

The public names below load with their module on first use (PEP 562),
so ``import qformkit`` and each CLI subcommand run only the modules
they need.
"""

import importlib

_EXPORTS = {
    "containment": (
        "ContainmentVerdict",
        "Counterexample",
        "Proportional",
        "WitnessVector",
        "construct_witness",
        "decide_containment",
        "verify_witness",
    ),
    "errors": (
        "CertificateRejected",
        "ContainmentFails",
        "DegreeMismatch",
        "DimensionMismatch",
        "FormatError",
        "InvalidSpeed",
        "MismatchedRadicand",
        "NonSymmetricMatrix",
        "NotIndefinite",
        "NotPythagorean",
        "NotSemidefinite",
        "NoWitnessFound",
        "NumericalFailure",
        "QFormError",
    ),
    "forms": (
        "CongruenceDiagonalization",
        "Inertia",
        "LinearTransform",
        "QuadraticForm",
        "apply_transform",
        "classify",
        "classify_inertia",
        "congruence_diagonalize",
        "evaluate",
        "inertia",
    ),
    "polys": (
        "ConePointWitness",
        "Divisible",
        "DivisionResult",
        "HomogeneousPoly",
        "decide_containment_homogeneous",
        "poly_from_form",
        "reduce_by_quadratic",
        "sample_cone_point",
        "verify_poly_witness",
    ),
    "relativity": (
        "TransformReport",
        "boost_from_triple",
        "check_interval_invariance",
        "minkowski_form",
    ),
    "scalars": (
        "QuadExt",
        "parse_rational",
        "render_quadext",
        "render_rational",
    ),
    "semidefinite": (
        "SimDiagResult",
        "SubspaceBasis",
        "kernel_basis",
        "simdiag_general",
        "simdiag_psd",
    ),
}

# public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
