"""The package's records are NamedTuples: each keeps the repr it had as a
dataclass, compares and hashes by value, takes no attribute assignment
and survives a pickle round trip; the four that check their fields
refuse a bad field with the same ValueError however they are built."""

import pickle

import numpy as np
import pytest

from matcount.asymptotics import ErrorFit, MainTermKind, ShiftedDiscrimination
from matcount.exact import DecompositionReport, DeltaSums, SignClass
from matcount.hyperbola import AsymptoticReport, CurveQuery, Hyperbolic, HyperbolaQuery
from matcount.tau_tables import TauTable, TauWindows, build_tau_table

# One record of each of the 11 classes, keyed by its repr.  TauTable's
# cells are a tuple here, so that it compares by value; its own array is
# tested apart.
RECORDS = {
    repr(r): r
    for r in (
        TauTable(2, (0, 1, 2, 0, 1)),
        TauWindows(5),
        DeltaSums(3, {1: (2, 3, 4)}),
        SignClass(1, -1, 1),
        DecompositionReport(
            total=8, per_class={(1, 1, 1): 1}, zero_entry=4, assembly_ok=False, failures=["x"]
        ),
        Hyperbolic(10),
        HyperbolaQuery(K=1, q=5),
        CurveQuery(K=1, q=5, U=0, X=3, bound=Hyperbolic(A=10)),
        AsymptoticReport(7, 6.5, 1.0),
        ErrorFit(1.5, -0.25, 0.75),
        ShiftedDiscrimination(6, 0.0, 1.5, MainTermKind.SHIFTED_NOLOG_CANDIDATE, {30: 100}),
    )
}


def test_reprs_are_unchanged():
    assert list(RECORDS) == [
        "TauTable(N=2, counts=(0, 1, 2, 0, 1))",
        "TauWindows(N=5)",
        "DeltaSums(N=3, terms={1: (2, 3, 4)})",
        "SignClass(alpha=1, gamma=-1, delta_prime=1)",
        "DecompositionReport(total=8, per_class={(1, 1, 1): 1}, zero_entry=4, "
        "assembly_ok=False, failures=['x'])",
        "Hyperbolic(A=10, cap=None)",
        "HyperbolaQuery(K=1, q=5, U=0, V=0, X=0, Y=0)",
        "CurveQuery(K=1, q=5, U=0, X=3, bound=Hyperbolic(A=10, cap=None))",
        "AsymptoticReport(exact=7, main=6.5, bound=1.0)",
        "ErrorFit(exponent=1.5, log_constant=-0.25, r_squared=0.75, degenerate=False)",
        "ShiftedDiscrimination(delta=6, slope=0.0, predicted_log_slope=1.5, "
        "selected=<MainTermKind.SHIFTED_NOLOG_CANDIDATE: 'shifted_nolog_candidate'>, "
        "values={30: 100})",
    ]


@pytest.mark.parametrize("text", RECORDS)
def test_records_are_values(text):
    record = RECORDS[text]
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy is not record
    assert copy == record == type(record)(*record) == tuple(record)
    if any(isinstance(v, (dict, list)) for v in record):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(copy) == hash(record)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):  # no field but its own, either
        record.extra = 0


def test_a_tau_table_keeps_its_array():
    table = build_tau_table(2)
    assert repr(table) == "TauTable(N=2, counts=array([0, 1, 2, 0, 1], dtype=uint16))"
    copy = pickle.loads(pickle.dumps(table))
    assert copy.N == 2 and np.array_equal(copy.counts, table.counts)
    with pytest.raises(AttributeError):
        table.counts = None


# The four records that check their fields: good keyword fields, and a
# field with a value that every way of building the record refuses.
CHECKED = [
    (TauWindows, {"N": 5}, "N", 46341),
    (SignClass, {"alpha": 1, "gamma": 1, "delta_prime": 1}, "gamma", 0),
    (HyperbolaQuery, {"K": 1, "q": 5}, "q", 0),
    (CurveQuery, {"K": 1, "q": 5, "U": 0, "X": 3, "bound": Hyperbolic(10)}, "U", -1),
]


@pytest.mark.parametrize("cls, fields, name, bad", CHECKED, ids=[c[0].__name__ for c in CHECKED])
def test_every_way_to_build_a_checked_record_checks_it(cls, fields, name, bad):
    good = cls(**fields)
    assert cls._make(good) == good._replace() == good
    values = [bad if f == name else v for f, v in zip(cls._fields, good)]
    builds = [
        lambda: cls(*values),
        lambda: cls(**dict(zip(cls._fields, values))),
        lambda: cls._make(values),
        lambda: good._replace(**{name: bad}),
        lambda: pickle.loads(pickle.dumps(tuple.__new__(cls, values))),
    ]
    messages = set()
    for build in builds:
        with pytest.raises(ValueError) as info:
            build()
        messages.add(str(info.value))
    assert len(messages) == 1, messages
