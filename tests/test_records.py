"""The package's records behave as the frozen dataclasses they replace.

Each of the fourteen record classes is compared with a twin that
``dataclasses.make_dataclass`` builds here from the same field names and
defaults, frozen, with ``ProbeSequence.step_texts`` left out of ``==``,
``hash`` and ``repr`` as its dataclass field was.  Field values are drawn by
hypothesis and set on both without running either ``__init__`` (the real
constructors check and convert their values), so ``==``, ``hash``, ``repr``
and the refused assignment and deletion are compared on any values.  A
``Scheme`` is compared on ``repr`` and freezing only: its ``==`` and ``hash``
read its stored integer form, not its two fields, and
``test_scheme_reference.py::test_equality_and_hash_are_those_of_the_views``
pins them to equality of those fields.  The generated constructors are
compared on the classes whose constructors take their values as given.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grdcalc import (
    GAUSSIAN_FORWARD,
    RIEMANN,
    Certificate,
    EquivalenceVerdict,
    FamilyKind,
    FunctionOracle,
    GaussianMatch,
    MzVerdict,
    NTimesReport,
    OrderInfo,
    ProbeConfig,
    ProbeReport,
    ProbeSequence,
    Scheme,
    Term,
    Witness,
)

_NO_DEFAULT = object()
# class -> its dataclass fields in order, each with its default (or none)
FIELDS = {
    Term: {"coeff": _NO_DEFAULT, "node": _NO_DEFAULT},
    Scheme: {"coeffs": _NO_DEFAULT, "nodes": _NO_DEFAULT},
    OrderInfo: {"order": _NO_DEFAULT, "leading_moment": _NO_DEFAULT, "normalizer": _NO_DEFAULT},
    FamilyKind: {"variant": _NO_DEFAULT, "n": _NO_DEFAULT, "k": None, "q": None},
    GaussianMatch: dict.fromkeys(("variant", "q", "scale_b", "n"), _NO_DEFAULT),
    Witness: dict.fromkeys(("order", "r", "s", "sym_factor", "skew_factor"), _NO_DEFAULT),
    EquivalenceVerdict: {
        "equivalent": _NO_DEFAULT, "witness": None, "path": None, "reason": None,
        "normalized_inputs": False,
    },
    Certificate: {"kind": _NO_DEFAULT, "match": None, "witness": None, "n": None, "reduced": None},
    MzVerdict: dict.fromkeys(("status", "certificate", "conjecture"), _NO_DEFAULT),
    NTimesReport: dict.fromkeys(
        ("orders_present", "per_order", "all_mz", "peano_equivalence", "identity_certificate",
         "note"),
        _NO_DEFAULT,
    ),
    FunctionOracle: {"kind": _NO_DEFAULT, "degree": 0, "coeffs": (), "generators": ()},
    ProbeConfig: {
        "h0": Fraction(1), "ratios": (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)),
        "j_min": 4, "j_max": 40, "tol": Fraction(1, 10 ** 9),
    },
    ProbeSequence: {
        **dict.fromkeys(
            ("ratio", "sign", "steps", "values", "settled", "candidate"), _NO_DEFAULT
        ),
        "in_group": None, "step_texts": (),
    },
    ProbeReport: {
        **dict.fromkeys(("verdict", "estimate", "sequences", "evidence", "config"), _NO_DEFAULT),
        "numeric_evidence": True,
    },
}
HIDDEN = {(ProbeSequence, "step_texts")}
# the classes whose constructors neither check nor convert their values
PLAIN = [OrderInfo, GaussianMatch, Witness, EquivalenceVerdict, Certificate, MzVerdict,
         NTimesReport, ProbeSequence, ProbeReport]


def twin(cls):
    """The frozen dataclass with ``cls``'s name, fields and defaults."""
    specs = []
    for name, default in FIELDS[cls].items():
        options = {} if default is _NO_DEFAULT else {"default": default}
        if (cls, name) in HIDDEN:
            options.update(compare=False, repr=False)
        specs.append((name, object, dataclasses.field(**options)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


TWINS = {cls: twin(cls) for cls in FIELDS}

leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(["a", "b", "known-mz"]),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)
value = st.one_of(leaf, st.tuples(leaf, leaf), st.tuples())


def unchecked(cls, values):
    """A ``cls`` holding ``values`` as its fields, with no ``__init__`` run."""
    record = object.__new__(cls)
    for name, item in zip(FIELDS[cls], values):
        object.__setattr__(record, name, item)
    return record


def refusal(action, record, name):
    with pytest.raises(AttributeError) as caught:
        action(record, name)
    return str(caught.value)


def setattr_zero(record, name):
    setattr(record, name, 0)


def test_fields_and_slots_are_the_dataclass_ones():
    for cls in FIELDS:
        assert cls._fields == tuple(FIELDS[cls]), cls
    assert not hasattr(Term(1, 2), "__dict__") and Term.__slots__ == ("coeff", "node")
    assert hasattr(Scheme((Term(1, 2),)), "__dict__") and "__dict__" in dir(ProbeSequence)


@settings(max_examples=60, deadline=None)
@given(st.data())
@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_equality_hash_repr_and_freezing_match_the_twin(cls, data):
    size = len(FIELDS[cls])
    first = data.draw(st.lists(value, min_size=size, max_size=size))
    second = data.draw(st.one_of(
        st.just(list(first)),
        st.lists(value, min_size=size, max_size=size),
        st.integers(0, size - 1).flatmap(
            lambda i: value.map(lambda v: first[:i] + [v] + first[i + 1:])
        ),
    ))
    records = [unchecked(cls, first), unchecked(cls, second)]
    twins = [TWINS[cls](*first), TWINS[cls](*second)]
    assert repr(records[0]) == repr(twins[0]) and repr(records[1]) == repr(twins[1])
    assert records[0] != twins[0] and not records[0] == twins[0]
    if cls is not Scheme:  # its == and hash read the integer form, not these fields
        assert (records[0] == records[1]) == (twins[0] == twins[1])
        assert (records[0] != records[1]) == (twins[0] != twins[1])
        assert records[0] == unchecked(cls, first)
        assert hash(records[0]) == hash(twins[0]) and hash(records[1]) == hash(twins[1])
    for name in (*FIELDS[cls], "other"):
        assert refusal(setattr_zero, records[0], name) == refusal(setattr_zero, twins[0], name)
        assert refusal(delattr, records[0], name) == refusal(delattr, twins[0], name)
    assert [getattr(records[0], name) for name in FIELDS[cls]] == first


@settings(max_examples=40, deadline=None)
@given(st.data())
@pytest.mark.parametrize("cls", PLAIN, ids=lambda cls: cls.__name__)
def test_constructors_match_the_twin(cls, data):
    fields = FIELDS[cls]
    required = sum(default is _NO_DEFAULT for default in fields.values())
    given_count = data.draw(st.integers(required, len(fields)))
    values = data.draw(st.lists(value, min_size=given_count, max_size=given_count))
    by_name = data.draw(st.integers(0, given_count))  # how many trailing values go by keyword
    args = values[: given_count - by_name]
    kwargs = dict(zip(list(fields)[len(args):], values[len(args):]))
    built, expected = cls(*args, **kwargs), TWINS[cls](*args, **kwargs)
    assert repr(built) == repr(expected)
    assert [getattr(built, name) for name in fields] == [getattr(expected, name) for name in fields]
    for bad_args, bad_kwargs in [
        (values[: required - 1], {}),
        ([*values, *[None] * (len(fields) - len(values) + 1)], {}),
        (args, {**kwargs, "no_such_field": 1}),
        ([*values[:1], *args[1:]] if args else [None], {list(fields)[0]: None}),
    ]:
        with pytest.raises(TypeError):
            TWINS[cls](*bad_args, **bad_kwargs)
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)


def test_checked_constructors_keep_their_conversions():
    assert Term("1/2", 3) == Term(coeff=Fraction(1, 2), node=Fraction(3))
    assert repr(Term(1, "-2")) == "Term(coeff=Fraction(1, 1), node=Fraction(-2, 1))"
    assert FamilyKind(RIEMANN, 2) == FamilyKind(RIEMANN, n=2, k=None, q=None)
    assert FamilyKind(GAUSSIAN_FORWARD, 2, q="3/2").q == Fraction(3, 2)
    assert ProbeConfig() == ProbeConfig(1, ("1/2", "1/3", "1/5"), 4, 40, Fraction(1, 10 ** 9))
    assert FunctionOracle("mono", degree=2) == FunctionOracle("mono", 2, (), ())
    with pytest.raises(TypeError):
        ProbeConfig(1, (Fraction(1, 2),), 4, 40, Fraction(1, 10 ** 9), "extra")
