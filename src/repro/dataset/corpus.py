"""Corpus container: the training set of per-function machine code."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.dataset.codegen import CodegenConfig, generate_binary
from repro.dataset.extraction import extract_functions
from repro.isa.decoder import decode


@dataclass
class Corpus:
    """A machine-language training corpus: one entry per extracted function."""

    entries: list[tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, idx: int) -> tuple[int, ...]:
        return self.entries[idx]

    def __iter__(self):
        return iter(self.entries)

    # -- construction ----------------------------------------------------------

    @classmethod
    def synthesize(
        cls,
        n_functions: int,
        seed: int = 0,
        config: CodegenConfig | None = None,
    ) -> "Corpus":
        """Generate a binary and run the static extraction pass over it."""
        binary = generate_binary(n_functions, seed=seed, config=config)
        return cls(entries=[tuple(f) for f in extract_functions(binary)])

    def split(self, validation_fraction: float = 0.05) -> tuple["Corpus", "Corpus"]:
        """Deterministic train/validation split."""
        n_validation = max(1, int(len(self.entries) * validation_fraction))
        return (
            Corpus(self.entries[:-n_validation]),
            Corpus(self.entries[-n_validation:]),
        )

    # -- statistics ------------------------------------------------------------

    def total_instructions(self) -> int:
        return sum(len(entry) for entry in self.entries)

    def mnemonic_histogram(self) -> dict[str, int]:
        """Instruction-frequency profile (used by tests)."""
        histogram: dict[str, int] = {}
        for entry in self.entries:
            for word in entry:
                instr = decode(word)
                key = instr.mnemonic if instr is not None else "<invalid>"
                histogram[key] = histogram.get(key, 0) + 1
        return histogram

    # -- persistence -------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        payload = {"entries": [list(entry) for entry in self.entries]}
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: str | Path) -> "Corpus":
        payload = json.loads(Path(path).read_text())
        return cls(entries=[tuple(entry) for entry in payload["entries"]])
