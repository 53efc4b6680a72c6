"""Value semantics of every record type: equality, hash, repr, immutability,
pickling and copying, and the validation each constructor performs."""

import copy
import inspect
import pickle

import pytest

from hornkit.cli import CLIError, RunConfig
from hornkit.exactla import DEFAULT_PRIME, Mat, Subspace
from hornkit.horn import HornInequality, Verdict, Violation
from hornkit.strings import (
    LiftCertificate,
    Partition,
    StepString,
    lift,
    lift_certificate,
)
from hornkit.tangent import (
    FlagModel,
    PatternSpace,
    TransversalityReport,
    TwoStepModel,
    hat_Y,
)
from hornkit.witness import WitnessLevel, WitnessTrace, _descend, _LevelData, find_witness

PAIR = (Partition((0, 2), 2), Partition((1, 1), 2))


def _ineq():
    mus = (Partition((0,), 1), Partition((1,), 1))
    return HornInequality(1, mus, ((1,), (2,)), 2)


def _build(cls):
    """A fresh instance of each record type; two calls give equal objects."""
    if cls is Partition:
        return Partition((0, 1, 3, 3), 5)
    if cls is StepString:
        return StepString("0120", 2)
    if cls is LiftCertificate:
        return lift_certificate(StepString("0101", 1), StepString("10", 1))
    if cls is Mat:
        return Mat(((1, 9), (3, 4)), 7)
    if cls is Subspace:
        return Subspace(3, 7, ((1, 0, 0),))
    if cls is PatternSpace:
        return PatternSpace(2, 2, {(1, 1), (2, 1)})
    if cls is FlagModel:
        return FlagModel(Mat(((0, 1), (1, 0)), 7))
    if cls is TwoStepModel:
        return hat_Y(StepString("0122", 2), 2, 3, 4)
    if cls is TransversalityReport:
        return TransversalityReport(False, 1, 0)
    if cls is HornInequality:
        return _ineq()
    if cls is Violation:
        return Violation(_ineq(), -1)
    if cls is Verdict:
        return Verdict(False, "horn-recursion", Violation(_ineq(), -1))
    if cls is WitnessLevel:
        return find_witness(PAIR, 2, 4, seed=0).levels[0]
    if cls is WitnessTrace:
        return find_witness(PAIR, 2, 4, seed=0)
    if cls is _LevelData:
        return _descend(PAIR, 2, 2, 1, 0, DEFAULT_PRIME, 8)[0]
    if cls is RunConfig:
        return RunConfig(trials=5)
    raise AssertionError(cls)


RECORDS = (
    Partition,
    StepString,
    LiftCertificate,
    Mat,
    Subspace,
    PatternSpace,
    FlagModel,
    TwoStepModel,
    TransversalityReport,
    HornInequality,
    Violation,
    Verdict,
    WitnessLevel,
    WitnessTrace,
    _LevelData,
    RunConfig,
)


def _fields(obj):
    """Field values in constructor order, by the constructor's parameter names."""
    return tuple(getattr(obj, name) for name in inspect.signature(type(obj)).parameters)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equal_arguments_give_equal_objects_and_hashes(cls):
    a, b = _build(cls), _build(cls)
    assert type(a) is cls
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a))
    # equality is between instances of the same class only
    assert a != _fields(a)
    assert a.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_constructor_takes_fields_by_position_and_keyword(cls):
    a = _build(cls)
    names = inspect.signature(cls).parameters
    values = _fields(a)
    assert cls(*values) == a
    assert cls(**dict(zip(names, values))) == a


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_is_the_dataclass_format(cls):
    a = _build(cls)
    names = inspect.signature(cls).parameters
    body = ", ".join(f"{name}={getattr(a, name)!r}" for name in names)
    assert repr(a) == f"{cls.__qualname__}({body})"


def test_repr_examples():
    assert repr(_build(Partition)) == "Partition(parts=(0, 1, 3, 3), cap=5)"
    assert repr(_build(StepString)) == "StepString(word='0120', k=2)"
    assert repr(_build(Mat)) == "Mat(data=((1, 2), (3, 4)), p=7)"
    assert repr(_build(FlagModel)) == "FlagModel(matrix=Mat(data=((0, 1), (1, 0)), p=7))"
    assert repr(Verdict(True, "lr-oracle")) == (
        "Verdict(nonzero=True, method='lr-oracle', violated=None)"
    )
    assert repr(RunConfig()) == (
        f"RunConfig(prime={DEFAULT_PRIME}, seed=0, trials=3, fmt='json')"
    )
    assert repr(_build(PatternSpace)).endswith(", kind='hom(V,Q)')")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_assignment_and_deletion_raise(cls):
    a = _build(cls)
    before = _fields(a)
    for name in inspect.signature(cls).parameters:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert _fields(a) == before


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_pickle_and_deepcopy_round_trip(cls):
    a = _build(cls)
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(b) is cls
        assert b == a and hash(b) == hash(a)


def test_normalisation():
    assert Partition(["0", 2.0, 2], 2).parts == (0, 2, 2)
    assert Mat(((1, 9), (-1, 4)), 7).data == ((1, 2), (6, 4))
    free = PatternSpace(2, 2, [(1, 1), (1, 1)]).free
    assert type(free) is frozenset and free == {(1, 1)}


def test_flag_model_keeps_its_inverse_out_of_the_value():
    flag = FlagModel(Mat(((1, 2), (3, 4)), 7))
    assert flag.matrix.mul(flag.inverse) == Mat.identity(2, 7)
    assert flag.inverse.mul(flag.matrix) == Mat.identity(2, 7)
    assert "inverse" not in repr(flag)
    assert hash(flag) == hash((flag.matrix,))
    assert FlagModel.standard(3, 7).inverse == Mat.identity(3, 7)
    assert FlagModel(Mat((), 7)).size == 0


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: Partition((1, 0), 3), ValueError, "weakly increasing"),
        (lambda: Partition((0, 4), 3), ValueError, r"must lie in \[0, 3\]"),
        (lambda: Partition((0,), -1), ValueError, "cap must be nonnegative"),
        (lambda: StepString("01", 0), ValueError, "must be >= 1"),
        (lambda: StepString("01", 10), ValueError, "single digit"),
        (lambda: StepString("0121", 1), ValueError, "letters outside 0..1"),
        (
            lambda: LiftCertificate(
                StepString("0101", 1), StepString("10", 1), StepString("0120", 2)
            ),
            ValueError,
            "does not project to the base",
        ),
        (
            lambda: LiftCertificate(
                StepString("0101", 1),
                StepString("01", 1),
                lift(StepString("0101", 1), StepString("10", 1)),
            ),
            ValueError,
            "does not slice to the fiber",
        ),
        (lambda: Mat(((1, 2), (3,)), 7), ValueError, "ragged rows"),
        (lambda: PatternSpace(2, 2, {(3, 1)}), ValueError, "outside 2x2 grid"),
        (lambda: FlagModel(Mat(((1, 2),), 7)), ValueError, "must be square"),
        (lambda: FlagModel(Mat(((1, 2), (2, 4)), 7)), ValueError, "must be invertible"),
        (
            lambda: HornInequality(0, (), (), 0),
            ValueError,
            "level d must be positive",
        ),
        (
            lambda: HornInequality(1, (Partition((0,), 1),), (), 0),
            ValueError,
            "one index set per mu",
        ),
        (
            lambda: HornInequality(1, (Partition((0,), 1),), ((1, 2),), 0),
            ValueError,
            "index sets must have size d",
        ),
        (
            lambda: HornInequality(1, (Partition((0,), 1),), ((2,),), 0),
            ValueError,
            "do not match mu",
        ),
        (
            lambda: Verdict(False, "horn-recursion"),
            ValueError,
            "must carry a violation",
        ),
        (
            lambda: Verdict(False, "horn-recursion", Violation(_ineq(), 0)),
            ValueError,
            "must carry a violation",
        ),
        (lambda: RunConfig(prime=4), CLIError, "not a prime number"),
        (lambda: RunConfig(trials=0), CLIError, "at least 1"),
        (lambda: RunConfig(fmt="xml"), CLIError, "unknown format"),
    ],
)
def test_validation_errors(build, error, match):
    with pytest.raises(error, match=match):
        build()
