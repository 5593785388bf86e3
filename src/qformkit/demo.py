"""The built-in fixtures that `qformkit demo` runs end to end.

Each fixture returns (ok, payload): whether every documented property
held, and the JSON object the demo prints for it.  Only `demo` imports
this module.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import containment, forms, relativity, semidefinite
from .errors import NotIndefinite, NotSemidefinite
from .scalars import render_rational

# Textbook substitution example: two forms sharing the zero line
# span{(1,1,2)} without being proportional.
_S2_JSON = '{"dim": 3, "rows": [[2, 0, -1], [0, 2, -1], [-1, -1, 1]]}'
_SUBST_JSON = '{"dim": 3, "rows": [[-2, -2, 1], [0, 2, -2], [0, 0, -2]]}'
_S2_PRIME_EXPECTED = '{"dim": 3, "rows": [[8, 8, -8], [8, 16, -12], [-8, -12, 10]]}'
# The semidefinite trap: (x-y)^2 vanishes only on x = y, where x^2 - y^2
# also vanishes, yet the pair is not simultaneously diagonalizable.
_SQUARE_JSON = '{"dim": 2, "rows": [[1, -1], [-1, 1]]}'
_HYPERBOLIC_JSON = '{"dim": 2, "rows": [[1, 0], [0, -1]]}'
_ANISOTROPIC_JSON = '{"dim": 4, "rows": [[1,0,0,0],[0,2,0,0],[0,0,1,0],[0,0,0,1]]}'


def _raises(error, fn, *args):
    """Whether fn(*args) raises error; any other exception propagates."""
    try:
        fn(*args)
    except error:
        return True
    return False


def substitution():
    s2 = forms.form_from_json(json.loads(_S2_JSON))
    L = forms.transform_from_json(json.loads(_SUBST_JSON))
    expected = forms.form_from_json(json.loads(_S2_PRIME_EXPECTED))
    pulled = forms.apply_transform(s2, L)
    # one frame per form: the inertia, the kernel and the rejection read it
    dq, dp = forms.congruence_diagonalize(s2), forms.congruence_diagonalize(pulled)
    ok = pulled == expected and dq.inertia == dp.inertia == forms.Inertia(2, 0, 1)
    kq = semidefinite._kernel_in_frame(dq).vectors
    # both kernels must be the single line through (1, 1, 2), its last entry 1
    half = Fraction(1, 2)
    ok = ok and kq == semidefinite._kernel_in_frame(dp).vectors == ((half, half, 1),)
    ok = _raises(NotIndefinite, containment._decide_in_frame, s2, pulled, dq) and ok
    return ok, {
        "name": "linear-substitution",
        "pulled_back": forms.matrix_to_json(pulled),
        "inertia": [dq.inertia.k, dq.inertia.m, dq.inertia.z],
        "shared_kernel": [[render_rational(e) for e in v] for v in kq],
        "proportional": False,
        "containment_rejected": "NotIndefinite",
        "ok": ok,
    }


def semidefinite_trap():
    q = forms.form_from_json(json.loads(_SQUARE_JSON))
    r = forms.form_from_json(json.loads(_HYPERBOLIC_JSON))
    # one frame per form: both rejections and both classifications read it
    dq, dr = forms.congruence_diagonalize(q), forms.congruence_diagonalize(r)
    rejected = _raises(NotSemidefinite, semidefinite._simdiag_in_frame, q, r, dq, dr, semidefinite.DEFAULT_TOL)
    ok = _raises(NotIndefinite, containment._decide_in_frame, q, r, dq) and rejected
    return ok, {
        "name": "semidefinite-trap",
        "q_classification": forms.classify_inertia(dq.inertia),
        "r_classification": forms.classify_inertia(dr.inertia),
        "simdiag_rejected": "NotSemidefinite",
        "containment_rejected": "NotIndefinite",
        "ok": ok,
    }


def minkowski():
    boost = relativity.boost_from_triple(3, 4, 5, "x")
    rep_boost = relativity.check_interval_invariance(boost)
    scaling = forms.LinearTransform.scaling(4, 2)
    rep_scale = relativity.check_interval_invariance(scaling)
    aniso = forms.transform_from_json(json.loads(_ANISOTROPIC_JSON))
    rep_break = relativity.check_interval_invariance(aniso)
    ok = rep_boost.kappa == 1 and rep_scale.kappa == 4
    ok = ok and rep_break.classification == relativity.CONE_BREAKING
    q = relativity.minkowski_form(1)
    ok = ok and containment.verify_witness(
        q, rep_break.pulled_back_form, rep_break.witness_event
    )
    return ok, {
        "name": "minkowski",
        "boost_345": rep_boost.to_json(),
        "scaling_2I": rep_scale.to_json(),
        "anisotropic": rep_break.to_json(),
        "ok": ok,
    }


FIXTURES = (substitution, semidefinite_trap, minkowski)
