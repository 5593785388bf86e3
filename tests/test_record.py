"""The immutable value base (qformkit.record) and the lazy package
namespace: field-wise equality, hash and repr, immutability, both ways of
construction, copy and pickle for every value type, and every public name
reachable from `qformkit`."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

import qformkit
from qformkit import (
    ConePointWitness,
    Counterexample,
    HomogeneousPoly,
    Inertia,
    LinearTransform,
    Proportional,
    QuadExt,
    QuadraticForm,
    WitnessVector,
    boost_from_triple,
    check_interval_invariance,
    congruence_diagonalize,
    decide_containment,
    decide_containment_homogeneous,
    kernel_basis,
    poly_from_form,
    reduce_by_quadratic,
    simdiag_general,
)

from qformkit.record import lazy

from conftest import poly_mul

HYP = QuadraticForm([[1, 0, 0], [0, -1, 0], [0, 0, 2]])
CIRCLE = QuadraticForm([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
SQUARE = QuadraticForm([[1, -1], [-1, 1]])
X1X2 = HomogeneousPoly(3, 2, {(1, 1, 0): 1})


def _witness():
    return decide_containment(HYP, CIRCLE).witness


# one value of each of the 15 value types, built the way qformkit builds it
VALUES = {
    "QuadraticForm": lambda: HYP,
    "LinearTransform": lambda: LinearTransform([[1, 2], [3, 4]]),
    "QuadExt": lambda: QuadExt(1, Fraction(-2, 3), 5),
    "HomogeneousPoly": lambda: X1X2,
    "Inertia": lambda: Inertia(2, 1, 0),
    "CongruenceDiagonalization": lambda: congruence_diagonalize(HYP),
    "WitnessVector": _witness,
    "Proportional": lambda: decide_containment(HYP, QuadraticForm([[-3, 0, 0], [0, 3, 0], [0, 0, -6]])),
    "Counterexample": lambda: decide_containment(HYP, CIRCLE),
    "DivisionResult": lambda: reduce_by_quadratic(poly_mul(X1X2, X1X2), poly_from_form(HYP)),
    "Divisible": lambda: decide_containment_homogeneous(HYP, poly_mul(poly_from_form(HYP), X1X2)),
    "ConePointWitness": lambda: decide_containment_homogeneous(HYP, X1X2),
    "SubspaceBasis": lambda: kernel_basis(SQUARE),
    "SimDiagResult": lambda: simdiag_general(HYP, HYP),
    "TransformReport": lambda: check_interval_invariance(boost_from_triple(3, 4, 5)),
}


@pytest.mark.parametrize("kind", VALUES)
@pytest.mark.parametrize(
    "roundtrip",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_value_types_roundtrip(kind, roundtrip):
    value = VALUES[kind]()
    assert type(value).__name__ == kind
    back = roundtrip(value)
    assert type(back) is type(value)
    assert back == value
    assert hash(back) == hash(value)


def test_lazy_basis_survives_copy():
    d = congruence_diagonalize(QuadraticForm([[0, 1], [1, 0]]))
    basis = d.basis
    assert d.basis is basis  # built once
    for back in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert back.basis == basis


# every record.lazy attribute, on a value that has not built it yet
LAZY = {
    "QuadraticForm.matrix": (lambda: QuadraticForm([[1, 2], [2, 1]]), "matrix"),
    "LinearTransform.matrix": (lambda: LinearTransform([[1, 2], [3, 4]]), "matrix"),
    "CongruenceDiagonalization.cols": (lambda: congruence_diagonalize(QuadraticForm([[0, 1], [1, 0]])), "cols"),
    "CongruenceDiagonalization.basis": (lambda: congruence_diagonalize(QuadraticForm([[0, 1], [1, 0]])), "basis"),
    "HomogeneousPoly.terms": (lambda: HomogeneousPoly(3, 2, {(1, 1, 0): Fraction(1, 2)}), "terms"),
    "WitnessVector.coords": (_witness, "coords"),
}


@pytest.mark.parametrize("make, name", LAZY.values(), ids=LAZY)
def test_lazy_attribute_is_built_once_and_read_only(monkeypatch, make, name):
    value = make()
    attr = inspect.getattr_static(type(value), name)
    assert isinstance(attr, lazy)
    calls = []
    fn = attr.fn
    monkeypatch.setattr(attr, "fn", lambda obj: calls.append(obj) or fn(obj))
    first = getattr(value, name)
    assert all(getattr(value, name) is first for _ in range(3))
    assert calls == [value]
    with pytest.raises(AttributeError):
        setattr(value, name, first)
    assert getattr(value, name) is first


def test_repr_is_the_dataclass_repr():
    assert repr(Proportional(Fraction(4))) == "Proportional(alpha=Fraction(4, 1))"
    assert repr(Inertia(1, 2, 0)) == "Inertia(k=1, m=2, z=0)"


def test_equality_needs_the_same_class():
    w = _witness()
    assert Counterexample(w) == Counterexample(w)
    assert Counterexample(w) != ConePointWitness(w)
    assert Proportional(Fraction(2)) == Proportional(2)
    assert Proportional(2) != Fraction(2)


def test_equal_records_hash_equal():
    assert Inertia(1, 2, 0) == Inertia(1, 2, 0)
    assert hash(Inertia(1, 2, 0)) == hash(Inertia(1, 2, 0))
    assert hash(Proportional(Fraction(4))) == hash(Proportional(4))
    assert len({Inertia(1, 2, 0), Inertia(1, 2, 0), Inertia(2, 1, 0)}) == 2


@pytest.mark.parametrize("kind", VALUES)
def test_values_are_immutable(kind):
    value = VALUES[kind]()
    name = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_positional_and_keyword_construction():
    w = _witness()
    assert WitnessVector(w.coords, w.q_value, w.r_value) == w
    assert WitnessVector(coords=w.coords, q_value=w.q_value, r_value=w.r_value) == w
    assert Inertia(1, m=2, z=0) == Inertia(1, 2, 0)
    assert Inertia(1, 2, 0).dim == 3


@pytest.mark.parametrize(
    "make",
    [
        lambda: Inertia(1, 2),
        lambda: Inertia(1, 2, 0, 4),
        lambda: Inertia(1, 2, z=0, w=4),
        lambda: Proportional(),
        lambda: Proportional(beta=1),
        lambda: Proportional(1, alpha=1),
    ],
    ids=["missing", "extra", "unknown-keyword", "none", "wrong-keyword", "twice"],
)
def test_wrong_fields_raise_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_every_public_name_resolves():
    for name in qformkit.__all__:
        assert getattr(qformkit, name) is not None, name
    assert qformkit.QuadExt is QuadExt
    assert qformkit.Proportional.__module__ == "qformkit.containment"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qformkit import *", namespace)
    assert set(qformkit.__all__) <= set(namespace)
    assert namespace["decide_containment"] is decide_containment


def test_dir_lists_every_public_name():
    assert set(qformkit.__all__) <= set(dir(qformkit))
    assert "__version__" in dir(qformkit)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qformkit.no_such_name
    assert not hasattr(qformkit, "Record")
