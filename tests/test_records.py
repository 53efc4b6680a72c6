"""Value semantics of every record type: equality, hash, repr, immutability,
pickling and copying, and the validation each constructor (and ``rref``)
performs."""

import copy
import inspect
import pickle

import pytest

from _twostep import standard_flag
from hornkit.exactla import Mat, Subspace, rref
from hornkit.horn import HornInequality, Verdict, Violation
from hornkit.strings import Partition, StepString
from hornkit.tangent import FlagModel, TransversalityReport
from hornkit.witness import WitnessLevel, WitnessTrace, find_witness

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
    if cls is Mat:
        return Mat(((1, 9), (3, 4)), 7)
    if cls is Subspace:
        return Subspace(3, 7, ((1, 0, 0),))
    if cls is FlagModel:
        return FlagModel(Mat(((0, 1), (1, 0)), 7))
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
    raise AssertionError(cls)


RECORDS = (
    Partition,
    StepString,
    Mat,
    Subspace,
    FlagModel,
    TransversalityReport,
    HornInequality,
    Violation,
    Verdict,
    WitnessLevel,
    WitnessTrace,
)


VALIDATING = (Partition, StepString, Mat, FlagModel, HornInequality, Verdict)


def _fields(obj):
    """Field values in constructor order, by the record's field names."""
    return tuple(getattr(obj, name) for name in type(obj)._fields)


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
    values = _fields(a)
    assert cls(*values) == a
    assert cls(**dict(zip(cls._fields, values))) == a
    assert cls(*values[:1], **dict(zip(cls._fields[1:], values[1:]))) == a


def test_only_validating_records_define_a_constructor():
    assert tuple(cls for cls in RECORDS if "__init__" in vars(cls)) == VALIDATING


CONSTRUCTORS = [(cls, cls.__init__) for cls in VALIDATING] + [(Mat, Mat._of_reduced)]


@pytest.mark.parametrize(
    "cls, init", CONSTRUCTORS, ids=[init.__qualname__ for _, init in CONSTRUCTORS]
)
def test_validating_constructor_names_its_parameters_in_slot_order(cls, init):
    names = tuple(name for name in inspect.signature(init).parameters if name != "self")
    assert names == cls._fields


@pytest.mark.parametrize(
    "args, kwargs, match",
    [
        ((3, 7, (), 0), {}, r"Subspace\(\) takes \('ambient_dim', 'p', 'basis'\), got 4"),
        ((3, 7), {}, r"takes \('ambient_dim', 'p', 'basis'\), got 2"),
        ((3,), {"basis": ()}, r"takes \('ambient_dim', 'p', 'basis'\), got 2"),
        ((3, 7), {"p": 7, "basis": ()}, r"Subspace\(\) got 'p' twice"),
        ((3, 7, ()), {"q": 1}, r"Subspace\(\) got 'q' as an unknown field"),
        ((), {"ambient_dim": 3, "p": 7, "basis": (), "q": 1}, "'q' as an unknown field"),
    ],
    ids=["extra", "missing", "gap", "twice", "unknown", "unknown-by-name-only"],
)
def test_record_constructor_refuses_a_bad_binding(args, kwargs, match):
    with pytest.raises(TypeError, match=match):
        Subspace(*args, **kwargs)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_is_the_dataclass_format(cls):
    a = _build(cls)
    body = ", ".join(f"{name}={getattr(a, name)!r}" for name in cls._fields)
    assert repr(a) == f"{cls.__qualname__}({body})"


def test_repr_examples():
    assert repr(_build(Partition)) == "Partition(parts=(0, 1, 3, 3), cap=5)"
    assert repr(_build(StepString)) == "StepString(word='0120', k=2)"
    assert repr(_build(Mat)) == "Mat(data=((1, 2), (3, 4)), p=7)"
    assert repr(_build(FlagModel)) == "FlagModel(matrix=Mat(data=((0, 1), (1, 0)), p=7))"
    assert repr(Verdict(True, "lr-oracle")) == (
        "Verdict(nonzero=True, method='lr-oracle', violated=None)"
    )


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_assignment_and_deletion_raise(cls):
    a = _build(cls)
    before = _fields(a)
    for name in cls._fields:
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
    with pytest.raises(ValueError, match="'0' is not an integer"):
        Partition(["0", 2.0, 2], 2)
    assert Mat(((1, 9), (-1, 4)), 7).data == ((1, 2), (6, 4))


def test_flag_model_keeps_its_inverse_out_of_the_value():
    flag = FlagModel(Mat(((1, 2), (3, 4)), 7))
    assert flag.matrix.mul(flag.inverse) == Mat.identity(2, 7)
    assert flag.inverse.mul(flag.matrix) == Mat.identity(2, 7)
    assert "inverse" not in repr(flag)
    assert hash(flag) == hash((flag.matrix,))
    assert standard_flag(3, 7).inverse == Mat.identity(3, 7)
    assert FlagModel(Mat((), 7)).size == 0


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: Partition((1, 0), 3), ValueError, "weakly increasing"),
        (lambda: Partition((0, 4), 3), ValueError, r"must lie in \[0, 3\]"),
        (lambda: Partition((0,), -1), ValueError, "cap must be nonnegative"),
        # integers are read with operator.index: int() would truncate these
        (lambda: Partition((0, 1.7), 3), ValueError, "1.7 is not an integer"),
        (lambda: Partition((0, 1), 2.5), ValueError, "2.5 is not an integer"),
        (lambda: Mat(((0.5, 1), (1, 2.9)), 7), ValueError, "0.5 is not an integer"),
        (
            lambda: Subspace.from_equations([(0.9, 1)], 2, 7),
            ValueError,
            "0.9 is not an integer",
        ),
        (lambda: rref([(1.5, 2)], 2, 7), ValueError, "1.5 is not an integer"),
        (lambda: StepString("01", 0), ValueError, "must be >= 1"),
        (lambda: StepString("01", 1.5), ValueError, r"1\.5 is not an integer"),
        (lambda: StepString("01", "1"), ValueError, "'1' is not an integer"),
        (lambda: StepString("01", 10), ValueError, "single digit"),
        (lambda: StepString("0121", 1), ValueError, "letters outside 0..1"),
        # a list would be stored as given, unhashable and unequal to the str
        (lambda: StepString(["0", "1"], 1), ValueError, r"\['0', '1'\] is not a str"),
        (lambda: StepString(101, 1), ValueError, "101 is not a str"),
        (lambda: Mat(((1, 2), (3,)), 7), ValueError, "ragged rows"),
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
    ],
)
def test_validation_errors(build, error, match):
    with pytest.raises(error, match=match):
        build()
