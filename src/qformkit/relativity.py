"""Interval invariance under candidate frame transformations.

The interval form of an event (t, x, y, z) is diag(-c^2, 1, ..., 1), an
indefinite form whose null cone is the light cone.  Pulling it back
through a candidate linear transform and running the proportionality
decision yields the scale factor kappa, or a concrete light-like event
that the transform moves off the cone.
"""

from __future__ import annotations

from fractions import Fraction

from .containment import Proportional, decide_containment, witness_json
from .errors import DimensionMismatch, InvalidSpeed, NotPythagorean
from .forms import LinearTransform, QuadraticForm, apply_transform, matrix_to_json
from .record import Record
from .scalars import parse_rational, render_rational

INTERVAL_PRESERVING = "interval-preserving"
CONFORMAL_SCALING = "conformal-scaling"
CONE_BREAKING = "cone-breaking"
DEGENERATE = "degenerate"

_AXES = {"x": 1, "y": 2, "z": 3}


class TransformReport(Record):
    """kappa with pullback = kappa * interval form, or None when the
    transform breaks the cone; witness_event is then the light-like event
    it moves off the cone, and None otherwise."""

    __slots__ = ("kappa", "classification", "witness_event", "pulled_back_form")

    def to_json(self):
        out = {
            "kappa": None if self.kappa is None else render_rational(self.kappa),
            "classification": self.classification,
            "pulled_back_form": matrix_to_json(self.pulled_back_form),
        }
        if self.witness_event is not None:
            out.update(witness_json(self.witness_event, "witness_event"))
        return out


def minkowski_form(c, dim_space: int = 3) -> QuadraticForm:
    """diag(-c^2, 1, ..., 1) on (1 + dim_space) coordinates, time first."""
    c = parse_rational(c)
    if c <= 0:
        raise InvalidSpeed(f"speed of light must be positive, got {c}")
    if dim_space < 1:
        raise DimensionMismatch(
            f"the interval form needs at least one space dimension, got {dim_space}"
        )
    return QuadraticForm.diagonal([-c * c] + [1] * dim_space)


def check_interval_invariance(L: LinearTransform, c=Fraction(1)) -> TransformReport:
    """Pull the interval form back through L and decide proportionality.

    kappa = 1 means the interval itself is preserved; positive kappa a
    conformal scaling; kappa = 0 a singular collapse of the cone; a
    counterexample is a light-like event that L maps off the cone.
    """
    q = minkowski_form(c, dim_space=L.dim - 1)
    pulled = apply_transform(q, L)
    verdict = decide_containment(q, pulled)
    if isinstance(verdict, Proportional):
        kappa, event = verdict.alpha, None
        if kappa == 1:
            cls = INTERVAL_PRESERVING
        elif kappa == 0:
            cls = DEGENERATE
        else:
            cls = CONFORMAL_SCALING
    else:
        kappa, cls, event = None, CONE_BREAKING, verdict.witness
    return TransformReport(kappa, cls, event, pulled)


def boost_from_triple(a: int, b: int, h: int, axis: str = "x") -> LinearTransform:
    """Exact-rational Lorentz boost (c = 1) from a Pythagorean triple:
    beta = a/h, gamma = h/b, gamma*beta = a/b."""
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {sorted(_AXES)}, got {axis!r}")
    if a <= 0 or b <= 0 or h <= 0 or a * a + b * b != h * h:
        raise NotPythagorean(f"({a}, {b}, {h}) is not a positive Pythagorean triple")
    ax = _AXES[axis]
    gamma = Fraction(h, b)
    gb = Fraction(a, b)
    rows = [[int(i == j) for j in range(4)] for i in range(4)]
    rows[0][0] = gamma
    rows[0][ax] = -gb
    rows[ax][0] = -gb
    rows[ax][ax] = gamma
    return LinearTransform(rows)
