"""A minimal cycle-driven RTL simulation framework with condition coverage.

This package replaces Synopsys VCS in the paper's stack.
It provides:

- :class:`~repro.rtl.coverage.ConditionCoverage` — declare-before-use
  condition cover points; each condition contributes a *true arm* and a
  *false arm*, matching VCS condition-coverage accounting.
- :class:`~repro.rtl.module.Module` — hierarchical design units whose
  ``cond()`` calls are auto-prefixed with the instance path.
- :class:`~repro.rtl.signal.Reg` — two-phase clocked state.
- :class:`~repro.rtl.simulator.ClockDomain` — drives ``tick()`` across the
  module tree and counts cycles.
- :class:`~repro.rtl.report.CoverageReport` — the per-test coverage report
  consumed by the Coverage Calculator (:mod:`repro.coverage`).
- :class:`~repro.rtl.bitset.Bitset` — the packed, set-compatible bitmap the
  whole coverage data path (recording, reports, merging, IPC) runs on.
"""

from repro.rtl.bitset import Bitset
from repro.rtl.coverage import ConditionCoverage
from repro.rtl.module import Module
from repro.rtl.report import CoverageReport
from repro.rtl.signal import Reg
from repro.rtl.simulator import ClockDomain

__all__ = ["Bitset", "ClockDomain", "ConditionCoverage", "CoverageReport",
           "Module", "Reg"]
