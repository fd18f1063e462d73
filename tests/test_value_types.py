"""Value records: immutable, hashable, picklable, with the dataclass repr.

Every record is a typing.NamedTuple.  The reprs below were taken from the
frozen dataclasses the records used to be, so printing a result reads the
same as before.
"""

import pickle

import pytest

from derivation import SymmetryElement
from hypgeo import (
    CausalType,
    Covector,
    CutDescriptor,
    GeodesicSample,
    GroupTag,
    LocusSample,
    Metric,
    SplitQuaternion,
    SrMomentum,
    WavefrontPoint,
)

Q = SplitQuaternion(1.25, -0.5, 0.0, 2.0)
P = Covector(0.5, -0.25, 1.5, -1.9375, CausalType.TIME_LIKE, 1.3919410907075054, 1.0776318121606494)

Q_REPR = "SplitQuaternion(q0=1.25, q1=-0.5, q2=0.0, q3=2.0)"
P_REPR = (
    "Covector(p1=0.5, p2=-0.25, p3=1.5, kil=-1.9375, ctype=<CausalType.TIME_LIKE: 'time-like'>, "
    "norm=1.3919410907075054, pbar3=1.0776318121606494)"
)

# (record, its repr, a second record built from equal fields)
RECORDS = [
    (Q, Q_REPR, SplitQuaternion(1.25, -0.5, 0.0, 2.0)),
    (Metric(1.0, 4.0), "Metric(i1=1.0, i3=4.0)", Metric(i1=1.0, i3=4.0)),
    (P, P_REPR, Covector(*P.components(), P.kil, P.ctype, P.norm, P.pbar3)),
    (
        Covector(1.0, 0.0, 1.0, 0.0, CausalType.LIGHT_LIKE, 0.0, None),
        "Covector(p1=1.0, p2=0.0, p3=1.0, kil=0.0, ctype=<CausalType.LIGHT_LIKE: 'light-like'>, "
        "norm=0.0, pbar3=None)",
        Covector(1.0, 0.0, 1.0, 0.0, CausalType.LIGHT_LIKE, 0.0, None),
    ),
    (GeodesicSample(0.5, Q), f"GeodesicSample(t=0.5, point={Q_REPR})", GeodesicSample(t=0.5, point=Q)),
    (  # the symmetry group lives with the tests (tests/derivation.py)
        SymmetryElement.sigma1(),
        "SymmetryElement(angle=0.0, mirror=True, flip3=False)",
        SymmetryElement(0.0, True, False),
    ),
    (
        CutDescriptor(GroupTag.SL2, 1.0, 2.0, 1.0, None),
        "CutDescriptor(group=<GroupTag.SL2: 'sl2'>, t_max=1.0, t_conj=2.0, t_cut=1.0, "
        "active_stratum=None)",
        CutDescriptor(GroupTag.SL2, 1.0, 2.0, 1.0, None),
    ),
    (
        LocusSample("Z", (Q,), ((P, 2.5, 0.0),), 1e-15),
        f"LocusSample(stratum='Z', points=({Q_REPR},), witnesses=(({P_REPR}, 2.5, 0.0),), "
        "validation_error=1e-15)",
        LocusSample("Z", (Q,), ((P, 2.5, 0.0),), 1e-15),
    ),
    (
        WavefrontPoint(Q, True, P, (0.0, 1.0, 0.0)),
        f"WavefrontPoint(point={Q_REPR}, optimal=True, row={P_REPR}, column=(0.0, 1.0, 0.0))",
        WavefrontPoint(Q, True, P, (0.0, 1.0, 0.0)),
    ),
    (SrMomentum(1.2, 0.3), "SrMomentum(beta=1.2, phi0=0.3)", SrMomentum(beta=1.2, phi0=0.3)),
]
IDS = [type(r).__name__ for r, _, _ in RECORDS]


def test_every_record_type_is_covered():
    assert len({type(r) for r, _, _ in RECORDS}) == 9


@pytest.mark.parametrize("record, text, _", RECORDS, ids=IDS)
def test_repr_matches_the_dataclass_repr(record, text, _):
    assert repr(record) == text


@pytest.mark.parametrize("record, _, __", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(record, _, __):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
    with pytest.raises(AttributeError):
        record.extra = 0.0


@pytest.mark.parametrize("record, _, twin", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(record, _, twin):
    assert record is not twin
    assert record == twin
    assert hash(record) == hash(twin)
    assert len({record, twin}) == 1


@pytest.mark.parametrize("record, _, __", RECORDS, ids=IDS)
def test_pickle_round_trip(record, _, __):
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record
    assert repr(back) == repr(record)


def test_components():
    assert Q.components() == (1.25, -0.5, 0.0, 2.0)
    assert P.components() == (0.5, -0.25, 1.5)
    assert -Q == SplitQuaternion(-1.25, 0.5, -0.0, -2.0)


def test_records_are_tuples():
    # equal to the plain tuple of their fields, iterable and indexable
    assert Q == (1.25, -0.5, 0.0, 2.0)
    assert tuple(Q) == Q.components()
    assert Q[3] == Q.q3 == 2.0
    assert SymmetryElement() == (0.0, False, False)
    assert SymmetryElement(0.5).flip3 is False
