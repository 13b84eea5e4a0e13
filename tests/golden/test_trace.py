"""Value contract of the commit-trace records.

``TraceEntry`` is a frozen, slotted dataclass, and the simulators build it
through the positional :func:`trace_entry` constructor.  Both paths must
give the same value: equal and equally hashed entries, the same pickle
round trip (traces cross the worker pool), frozen fields in the same
order, and unchanged ``summary`` / ``render`` text.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.golden.trace import CommitTrace, MemOp, TraceEntry, trace_entry

FIELD_ORDER = ("pc", "instr", "priv", "rd", "rd_value", "mem", "trap_cause",
               "trap_tval", "csr_write")

#: (keyword form, positional form) of the same entry, one per entry shape.
PAIRS = [
    (TraceEntry(pc=0x80000000, instr=0x00500513, priv=3, rd=10, rd_value=5),
     trace_entry(0x80000000, 0x00500513, 3, 10, 5, None, None, 0, None)),
    (TraceEntry(pc=0x80000004, instr=0x00B53023, priv=0,
                mem=MemOp(0x80080100, 8, True, 0xDEAD)),
     trace_entry(0x80000004, 0x00B53023, 0, None, 0,
                 MemOp(0x80080100, 8, True, 0xDEAD), None, 0, None)),
    (TraceEntry(pc=0x80000008, instr=0x34029073, priv=3,
                csr_write=(0x340, 7)),
     trace_entry(0x80000008, 0x34029073, 3, None, 0, None, None, 0,
                 (0x340, 7))),
    (TraceEntry(pc=0x700, instr=0, priv=3, trap_cause=1, trap_tval=0x700),
     trace_entry(0x700, 0, 3, None, 0, None, 1, 0x700)),
    (TraceEntry(pc=0x8000000C, instr=0x0405A02F, priv=3, rd=0,
                rd_value=0xFFFF_FFFF_FFFF_FFFF),
     trace_entry(0x8000000C, 0x0405A02F, 3, 0, 0xFFFF_FFFF_FFFF_FFFF)),
]


@pytest.mark.parametrize("kw, pos", PAIRS)
def test_fast_constructor_equals_keyword_construction(kw, pos):
    assert type(pos) is TraceEntry
    assert pos == kw and hash(pos) == hash(kw)
    assert repr(pos) == repr(kw)
    for name in FIELD_ORDER:
        assert getattr(pos, name) == getattr(kw, name)


def test_fields_keep_their_order():
    assert tuple(f.name for f in dataclasses.fields(TraceEntry)) == FIELD_ORDER


def test_defaults_match():
    assert trace_entry(1, 2, 3) == TraceEntry(pc=1, instr=2, priv=3)


def test_unequal_entries_differ():
    kw, pos = PAIRS[0]
    assert pos != dataclasses.replace(kw, rd_value=6)
    assert pos != PAIRS[1][1]


@pytest.mark.parametrize("kw, pos", PAIRS)
@pytest.mark.parametrize("protocol", [2, pickle.DEFAULT_PROTOCOL,
                                      pickle.HIGHEST_PROTOCOL])
def test_pickle_round_trip(kw, pos, protocol):
    for entry in (kw, pos):
        copy = pickle.loads(pickle.dumps(entry, protocol))
        assert type(copy) is TraceEntry
        assert copy == kw and hash(copy) == hash(kw)


def test_commit_trace_pickle_round_trip():
    trace = CommitTrace(entries=[pos for _, pos in PAIRS],
                        stop_reason="max_traps", instret=len(PAIRS))
    trace.cycles = 99
    copy = pickle.loads(pickle.dumps(trace))
    assert copy == trace and copy.cycles == 99


@pytest.mark.parametrize("kw, pos", PAIRS[:2])
def test_entries_are_frozen(kw, pos):
    for entry in (kw, pos):
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.rd_value = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.pc = 0
        assert not hasattr(entry, "__dict__")


def test_summary_and_render_text():
    trace = CommitTrace()
    for _, entry in PAIRS:
        trace.append(entry)
    trace.stop_reason = "wfi"
    assert [e.summary() for _, e in PAIRS] == [
        "pc=0x80000000 instr=0x00500513 prv=3 x10<-0x5",
        "pc=0x80000004 instr=0x00b53023 prv=0 ST[0x80080100,8]=0xdead",
        "pc=0x80000008 instr=0x34029073 prv=3 csr[0x340]<-0x7",
        "pc=0x700 instr=0x00000000 prv=3 trap=1 tval=0x700",
        "pc=0x8000000c instr=0x0405a02f prv=3 x0<-0xffffffffffffffff",
    ]
    assert trace.render(limit=2) == "\n".join([
        "pc=0x80000000 instr=0x00500513 prv=3 x10<-0x5",
        "pc=0x80000004 instr=0x00b53023 prv=0 ST[0x80080100,8]=0xdead",
        "... (3 more)",
        "-- stop: wfi, instret=5",
    ])
