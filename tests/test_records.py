"""The frozen result records: construction, immutability, equality, hash,
repr, copy, pickle and pattern matching, for every record class."""

import copy
import pickle
import random

import pytest

from qdescent import (
    AdcFinding,
    AdcReport,
    DescentStep,
    DescentTrace,
    EuclideanFailure,
    EuclideanReport,
    FractionPoint,
    GFpT,
    LineExpansion,
    N2Failure,
    N2Report,
    NormAxiomReport,
    OracleResult,
    SearchBox,
    ZI,
    ZZ,
    brute_integral_zero,
    check_euclidean,
    descend,
    parse_form,
    random_rational_zero,
    verify_adc,
)
from qdescent.domains import _Record, _Report
from qdescent.formparse import _Token

F3 = GFpT(3)

FIELDS = {
    NormAxiomReport: ("checked", "failures"),
    LineExpansion: ("A", "B", "C"),
    OracleResult: ("y", "value", "vnorm"),
    EuclideanFailure: ("x", "window", "min_norm"),
    EuclideanReport: ("checked", "failures"),
    DescentStep: ("x", "y", "v", "A", "B", "C", "b", "b_next", "x_next"),
    DescentTrace: ("steps", "result"),
    N2Failure: ("element", "reason"),
    N2Report: ("checked", "failures"),
    SearchBox: ("num_bound", "height"),
    AdcFinding: ("x", "value", "detail"),
    AdcReport: ("checked", "failures", "inapplicable"),
    _Token: ("kind", "text", "pos"),
}

RECORDS = pytest.mark.parametrize("cls", list(FIELDS), ids=[c.__name__ for c in FIELDS])

COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda r: pickle.loads(pickle.dumps(r)),
}


def _values(cls):
    # nonnegative ints suit every record, SearchBox's bounds included
    return tuple(range(3, 3 + len(FIELDS[cls])))


def test_every_record_is_covered():
    # importing qdescent defines every record; _Report, the field-less base
    # of the check reports, is walked through but is not a record itself
    seen, todo = set(), [_Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            seen.add(sub)
            todo.append(sub)
    assert seen - {_Report} == set(FIELDS)
    assert _Report._fields == ()


@RECORDS
def test_fields_in_declaration_order(cls):
    assert cls._fields == cls.__match_args__ == FIELDS[cls]
    rec = cls(*_values(cls))
    assert tuple(getattr(rec, f) for f in FIELDS[cls]) == _values(cls)


@RECORDS
def test_positional_and_shuffled_keyword_construction_agree(cls):
    fields, values = FIELDS[cls], _values(cls)
    rec = cls(*values)
    for seed in range(4):
        order = list(zip(fields, values))
        random.Random(seed).shuffle(order)
        other = cls(**dict(order))
        assert other == rec and rec == other
        assert hash(other) == hash(rec) == hash(values)
        assert repr(other) == repr(rec)
        assert list(vars(other)) == list(fields)
        assert pickle.dumps(other) == pickle.dumps(rec)
    head = cls(*values[:1], **dict(zip(fields[1:], values[1:])))
    assert head == rec


@RECORDS
def test_repr_lists_fields_in_order(cls):
    rec = cls(*_values(cls))
    inner = ", ".join(f"{f}={v!r}" for f, v in zip(FIELDS[cls], _values(cls)))
    assert repr(rec) == f"{cls.__qualname__}({inner})"


@RECORDS
def test_equality_needs_the_same_class_and_values(cls):
    values = _values(cls)
    rec = cls(*values)
    assert rec != cls(*values[:-1], values[-1] + 1)
    assert rec != values
    other = N2Report if cls is N2Failure else N2Failure
    assert rec != other(*values[:2])


def test_records_of_two_classes_with_equal_values_differ():
    assert N2Failure(3, 4) != N2Report(3, 4)
    assert not N2Failure(3, 4) == N2Report(3, 4)


@RECORDS
def test_construction_refuses_a_missing_unknown_or_duplicate_field(cls):
    fields, values = FIELDS[cls], _values(cls)
    with pytest.raises(TypeError):
        cls(**dict(zip(fields[1:], values[1:])))
    with pytest.raises(TypeError):
        cls(*values, extra=0)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, 0)


@RECORDS
def test_records_are_immutable(cls):
    rec = cls(*_values(cls))
    for name in (*FIELDS[cls], "other"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert rec == cls(*_values(cls))


@RECORDS
@pytest.mark.parametrize("copier", list(COPIERS))
def test_records_copy_and_pickle(cls, copier):
    rec = cls(*_values(cls))
    dup = COPIERS[copier](rec)
    assert type(dup) is cls
    assert dup == rec and hash(dup) == hash(rec) and repr(dup) == repr(rec)
    with pytest.raises(AttributeError):
        setattr(dup, FIELDS[cls][0], None)


@RECORDS
def test_records_match_positional_patterns(cls):
    values = _values(cls)
    match cls(*values):
        case cls(first, second):
            got = (first, second)
        case _:
            got = None
    assert got == values[:2]


def test_search_box_defaults_and_validation():
    assert SearchBox(3) == SearchBox(3, 1) == SearchBox(num_bound=3)
    assert SearchBox(3) == SearchBox(height=1, num_bound=3)
    assert hash(SearchBox(3)) == hash(SearchBox(3, 1))
    assert SearchBox(3) != SearchBox(3, 2)
    for args, kwargs in (((-1,), {}), ((1, -1), {}), ((), {"num_bound": -1})):
        with pytest.raises(ValueError):
            SearchBox(*args, **kwargs)
    match SearchBox(4, 2):
        case SearchBox(bound, height=h):
            got = (bound, h)
        case _:
            got = None
    assert got == (4, 2)


def test_pinned_reprs():
    f = parse_form("x^2+y^2-5", ZZ)
    trace = descend(f, FractionPoint(ZZ, [-11, 2], 5))
    assert repr(trace.steps[0]) == (
        "DescentStep(x=-11,2/5, y=(-2, 0), v=(-1, 2), A=5, B=4, C=-1, b=5, "
        "b_next=1, x_next=-1,-2/1)"
    )
    assert repr(trace) == f"DescentTrace(steps=({trace.steps[0]!r},), result=(-1, -2))"
    assert repr(SearchBox(3)) == "SearchBox(num_bound=3, height=1)"
    assert repr(SearchBox(8, 4)) == "SearchBox(num_bound=8, height=4)"


# -- a trace from descend, before and after its steps are read ------------------


def _lazy_traces(read):
    """A factory of fresh traces from descend, steps read or not, and the
    trace built from the same steps and result."""
    f = parse_form("x1*x2-2*i", ZI)
    x = random_rational_zero(f, brute_integral_zero(f, SearchBox(2)), seed=1, height_min=3,
                             direction_bound=40)
    ref = descend(f, x)
    eager = DescentTrace(ref.steps, ref.result)
    assert len(eager.steps) > 1

    def fresh():
        trace = descend(f, x)
        if read:
            trace.steps
        assert ("steps" in vars(trace)) == read
        return trace

    return fresh, eager


LAZY = pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])


@LAZY
def test_lazy_trace_equality_hash_and_repr(read):
    fresh, eager = _lazy_traces(read)
    assert fresh() == eager and eager == fresh() and not fresh() != eager
    assert fresh() == fresh()
    assert hash(fresh()) == hash(eager)
    assert repr(fresh()) == repr(eager)
    assert fresh() != DescentTrace(eager.steps[1:], eager.result)


@LAZY
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_lazy_trace_pickles_as_the_eager_one(read, protocol):
    fresh, eager = _lazy_traces(read)
    data = pickle.dumps(fresh(), protocol)
    assert data == pickle.dumps(eager, protocol)
    again = pickle.loads(data)
    assert type(again) is DescentTrace
    assert again == eager and hash(again) == hash(eager) and repr(again) == repr(eager)


@LAZY
@pytest.mark.parametrize("copier", ["copy", "deepcopy"])
def test_lazy_trace_copies_as_the_eager_one(read, copier):
    fresh, eager = _lazy_traces(read)
    again = COPIERS[copier](fresh())
    assert type(again) is DescentTrace
    assert again == eager and hash(again) == hash(eager) and repr(again) == repr(eager)
    assert list(vars(again)) == list(vars(COPIERS[copier](eager)))


@LAZY
def test_lazy_trace_matches_positional_patterns(read):
    fresh, eager = _lazy_traces(read)
    match fresh():
        case DescentTrace(steps, result):
            got = (steps, result)
        case _:
            got = None
    assert got == (eager.steps, eager.result)


@LAZY
def test_lazy_trace_is_immutable(read):
    fresh, eager = _lazy_traces(read)
    for name in ("steps", "result", "other"):
        trace = fresh()
        with pytest.raises(AttributeError):
            setattr(trace, name, None)
        with pytest.raises(AttributeError):
            delattr(trace, name)
        assert trace == eager
    with pytest.raises(AttributeError):
        fresh().other


# -- points, polynomials and the records that hold them -------------------------

DOMAIN_CASES = [
    # (domain, descent form, brute bound, Euclidean form, window, height): the
    # sweep of the Euclidean form over box 1 has failures in each domain
    (ZZ, "x^2+y^2+z^2-26", 6, "w^2+x^2+y^2+z^2", 2, 2),
    (ZI, "x1*x2-2*i", 2, "x1^2+x2^2", 2, 2),
    (F3, "x1^2+t*x2^2+x2-t", 1, "x1*x2", 0, 1),
]


def _descent_input(dom, text, bound):
    f = parse_form(text, dom)
    x = random_rational_zero(f, brute_integral_zero(f, SearchBox(bound)), seed=5, height_min=3)
    return f, x


@pytest.mark.parametrize("dom, text, bound, q_text, window, height", DOMAIN_CASES,
                         ids=["Z", "Zi", "Fpt:3"])
@pytest.mark.parametrize("copier", list(COPIERS))
def test_points_polynomials_and_reports_copy_and_pickle(dom, text, bound, q_text, window,
                                                        height, copier):
    dup = COPIERS[copier]
    f, x = _descent_input(dom, text, bound)
    q = parse_form(q_text, dom)
    trace = descend(f, x)
    euclid = check_euclidean(q, height, 1, window=window)
    adc = verify_adc(q, SearchBox(1, height), window=window)
    assert trace.steps and euclid.failures and adc.inapplicable
    for obj in (x, f, q, trace, euclid, adc):
        again = dup(obj)
        assert type(again) is type(obj)
        assert again == obj and repr(again) == repr(obj)
    again = dup(x)
    assert hash(again) == hash(x) and again.domain == dom
    assert dup(f).eval(x) == 0
    assert descend(dup(f), dup(x)) == trace
    with pytest.raises(AttributeError, match="^QuadraticPolynomial is immutable$"):
        dup(f).d = 1
    with pytest.raises(AttributeError, match="^QuadraticPolynomial is immutable$"):
        del dup(f).const
    with pytest.raises(AttributeError, match="^FractionPoint is immutable$"):
        dup(x).den = None
    with pytest.raises(AttributeError, match="^FractionPoint is immutable$"):
        del dup(x).den

