"""The eight result records: construction by keyword with defaults,
repr, equality and hash, read-only fields, and tuple behaviour."""

import pytest

from intervalcoloring import (
    BoundEntry,
    BoundsReport,
    CaseStats,
    IntervalReport,
    MaxSpanResult,
    ProbeRecord,
    SearchOutcome,
    SearchStatus,
    Violation,
    ViolationKind,
)

_UNUSED = Violation(kind=ViolationKind.COLOR_UNUSED, color=1)
_GENERAL = BoundEntry(name="general", formula="2|V|-3", value=None, applicable=False)
_PROBE = ProbeRecord(t=8, status=SearchStatus.EXHAUSTED_NO_SOLUTION, nodes_explored=14)

# (build, a record differing in one field, that field, the repr); the
# defaults show in the repr, and each build makes a new object.
RECORDS = {
    "Violation": (
        lambda: Violation(kind=ViolationKind.NOT_PROPER, vertex=3),
        Violation(kind=ViolationKind.NOT_PROPER, vertex=4),
        "vertex",
        "Violation(kind=<ViolationKind.NOT_PROPER: 'not-proper'>, vertex=3, edge=None, color=None)",
    ),
    "IntervalReport": (
        lambda: IntervalReport(violations=(_UNUSED,)),
        IntervalReport(violations=()),
        "violations",
        "IntervalReport(violations=(Violation(kind=<ViolationKind.COLOR_UNUSED: "
        "'color-unused'>, vertex=None, edge=None, color=1),))",
    ),
    "BoundEntry": (
        lambda: BoundEntry(name="general", formula="2|V|-3", value=None, applicable=False),
        BoundEntry(name="general", formula="2|V|-3", value=None, applicable=False, reason="x"),
        "reason",
        "BoundEntry(name='general', formula='2|V|-3', value=None, applicable=False, reason='')",
    ),
    "BoundsReport": (
        lambda: BoundsReport(label="K_2", lower=(), upper=(_GENERAL,)),
        BoundsReport(label="K_2", lower=(), upper=()),
        "upper",
        "BoundsReport(label='K_2', lower=(), upper=(BoundEntry(name='general', "
        "formula='2|V|-3', value=None, applicable=False, reason=''),))",
    ),
    "CaseStats": (
        lambda: CaseStats(case=5, edge_count=1, min_color=2, max_color=2),
        CaseStats(case=5, edge_count=0, min_color=None, max_color=None),
        "edge_count",
        "CaseStats(case=5, edge_count=1, min_color=2, max_color=2)",
    ),
    "SearchOutcome": (
        lambda: SearchOutcome(
            status=SearchStatus.BUDGET_EXCEEDED, coloring=None, nodes_explored=100
        ),
        SearchOutcome(status=SearchStatus.BUDGET_EXCEEDED, coloring=None, nodes_explored=99),
        "nodes_explored",
        "SearchOutcome(status=<SearchStatus.BUDGET_EXCEEDED: 'budget-exceeded'>, "
        "coloring=None, nodes_explored=100)",
    ),
    "ProbeRecord": (
        lambda: ProbeRecord(t=8, status=SearchStatus.EXHAUSTED_NO_SOLUTION, nodes_explored=14),
        ProbeRecord(t=7, status=SearchStatus.EXHAUSTED_NO_SOLUTION, nodes_explored=14),
        "t",
        "ProbeRecord(t=8, status=<SearchStatus.EXHAUSTED_NO_SOLUTION: "
        "'exhausted-no-solution'>, nodes_explored=14)",
    ),
    "MaxSpanResult": (
        lambda: MaxSpanResult(max_span=0, complete=True, witness=None, probes=(_PROBE,)),
        MaxSpanResult(max_span=0, complete=False, witness=None, probes=(_PROBE,)),
        "complete",
        "MaxSpanResult(max_span=0, complete=True, witness=None, probes=(ProbeRecord(t=8, "
        "status=<SearchStatus.EXHAUSTED_NO_SOLUTION: 'exhausted-no-solution'>, "
        "nodes_explored=14),))",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr_equality_hash_and_read_only_fields(name):
    build, other, field, text = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    assert repr(record) == text
    assert record == build() and record is not build()
    assert hash(record) == hash(build())
    assert record != other
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(other, field))
    assert record == build()


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_tuples(name):
    # dataclasses.replace and asdict on these records become _replace
    # and _asdict; instances index, unpack and equal plain tuples.
    build, other, _, _ = RECORDS[name]
    record = build()
    fields = type(record)._fields
    assert tuple(record) == record
    assert list(record._asdict()) == list(fields)
    assert record[0] is getattr(record, fields[0])
    changed = record._replace(**{f: getattr(other, f) for f in fields})
    assert changed == other and changed != record


def test_interval_report_passes_exactly_when_it_has_no_violations():
    # verdict and truth are read from violations, so no report disagrees.
    for violations in ((), (_UNUSED,)):
        report = IntervalReport(violations)
        assert report.verdict is bool(report) is (not violations)
