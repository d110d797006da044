"""What the benchmark's modules share: paths, the run context, the outcome."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: How many cold set-ups one run times; ``setup_s`` is their median.
SETUPS = 3


@dataclass
class Context:
    """What a workload needs to run: its inputs' seed, budget and places."""

    seed: int
    seconds: float
    trace: bool
    workdir: Path
    env: dict[str, str]

    def script(self, name: str, *args: object) -> list[str]:
        """Command line running benchmark script *name* with *args*."""
        return [sys.executable, str(HERE / name), *map(str, args)]


@dataclass
class Outcome:
    """A workload's result: its checks, operation counts and metrics."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    #: Details printed on the line before the result, for diagnosis.
    info: dict = field(default_factory=dict)

    def check(self, condition: bool, problem: str) -> None:
        """Record *problem* unless *condition* holds."""
        if not condition:
            self.problems.append(problem)


