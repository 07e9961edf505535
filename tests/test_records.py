"""The result records are named tuples with a fixed field order."""

import pytest

from aqpath.construct import DPathFamily, TraceEntry, construct
from aqpath.oracle import WitnessReport
from aqpath.report import CriterionResult
from aqpath.verify import Violation, ViolationKind

# each record with one value per field, in the order the fields are declared
RECORDS = [
    (TraceEntry, {"dimension": 4, "case": "B1", "translation": 0,
                  "roles": (0, 2, 1)}),
    (DPathFamily, {"n": 4, "terminals": (0, 2, 1), "paths": [(1, 0, 2)],
                   "trace": []}),
    (Violation, {"kind": ViolationKind.NOT_A_PATH, "detail": "0 and 5 not adjacent",
                 "paths": (1,)}),
    (WitnessReport, {"n": 4, "triple": (0, 7, 11), "shared": (3, 15, 8, 4),
                     "certificate": ((0, 3, "h3"),), "uncorrected_third": 10}),
    (CriterionResult, {"number": 1, "title": "exact base value", "passed": True,
                       "detail": "pi3(AQ_4)=4"}),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_a_record_builds_by_keyword_and_by_position(cls, fields):
    by_name = cls(**fields)
    by_position = cls(*fields.values())
    assert by_name == by_position
    assert tuple(by_position) == tuple(fields.values())
    for name, value in fields.items():
        assert getattr(by_position, name) == value


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_a_record_refuses_assignment(cls, fields):
    rec = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)


def test_a_violation_names_no_member_by_default():
    assert Violation(ViolationKind.NOT_SIMPLE, "vertex 3 repeats").paths == ()


def test_a_built_family_used_no_fallback():
    # the benchmark harness reads this attribute on every construct operation
    assert construct(4, (0b0000, 0b0010, 0b0001)).fallback_used is False

