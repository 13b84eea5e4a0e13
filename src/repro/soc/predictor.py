"""Branch predictor model: BTB + 2-bit counters.

Mispredict recovery is one of the pipeline's big latency/coverage levers;
hitting the predictor's conditions requires *repeated* control flow over the
same PCs (loops) — exactly the entangled behaviour the paper argues random
instruction streams lack.
"""

from __future__ import annotations

from repro.rtl.coverage import ConditionCoverage
from repro.rtl.module import Module


class BranchPredictor(Module):
    """Direct-mapped BTB with per-entry 2-bit saturating counters."""

    def __init__(self, path: str, cov: ConditionCoverage, entries: int = 16) -> None:
        super().__init__(path, cov)
        self.entries = entries
        self.btb: list[dict | None] = [None] * entries
        self.conditions(
            "btb_hit",
            "btb_alias",       # hit on a different branch PC (tag mismatch)
            "pred_taken",
            "mispredict",
            "ctr_saturated_taken",
            "ctr_saturated_not_taken",
            "update_new_entry",
        )

    def _index(self, pc: int) -> int:
        return (pc >> 2) % self.entries

    def predict(self, pc: int) -> bool:
        """Predict taken/not-taken for the branch at ``pc``."""
        entry = self.btb[self._index(pc)]
        hit = entry is not None and entry["pc"] == pc
        taken = bool(hit and entry["ctr"] >= 2)
        pairs = self._pairs
        self.cov.record_mask(
            pairs["btb_hit"][hit]
            | pairs["btb_alias"][entry is not None and entry["pc"] != pc]
            | pairs["pred_taken"][taken])
        return taken

    def update(self, pc: int, taken: bool, predicted: bool) -> None:
        """Train the predictor with the resolved outcome."""
        pairs = self._pairs
        mask = pairs["mispredict"][taken != predicted]
        index = self._index(pc)
        entry = self.btb[index]
        if entry is None or entry["pc"] != pc:
            self.cov.record_mask(mask | pairs["update_new_entry"][True])
            self.btb[index] = {"pc": pc, "ctr": 2 if taken else 1}
            return
        if taken:
            entry["ctr"] = min(3, entry["ctr"] + 1)
        else:
            entry["ctr"] = max(0, entry["ctr"] - 1)
        self.cov.record_mask(
            mask
            | pairs["update_new_entry"][False]
            | pairs["ctr_saturated_taken"][entry["ctr"] == 3]
            | pairs["ctr_saturated_not_taken"][entry["ctr"] == 0])

    def reset(self) -> None:
        super().reset()
        self.btb = [None] * self.entries
