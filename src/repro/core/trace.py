"""Browsable orchestration trace.

The paper's demonstration "will provide browsable trace information that
shows what transducers are being orchestrated, their inputs and results".
The :class:`Trace` collects one :class:`TraceStep` per transducer execution
and offers summaries used by the examples and by the Figure-1/orchestration
benchmark.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["TraceStep", "Trace"]


@dataclass(frozen=True)
class TraceStep:
    """One transducer execution."""

    index: int
    transducer: str
    activity: str
    #: Names of the transducers that were runnable when this one was chosen.
    runnable: tuple[str, ...]
    #: KB global revision before and after the execution.
    revision_before: int
    revision_after: int
    facts_added: int
    tables_written: tuple[str, ...]
    duration_seconds: float
    notes: str = ""
    #: Label of the orchestration phase (bootstrap / data_context / feedback /
    #: user_context) during which the step ran, when the caller sets one.
    phase: str = ""

    def __str__(self) -> str:
        tables = f" tables={list(self.tables_written)}" if self.tables_written else ""
        return (f"[{self.index:03d}] {self.transducer} ({self.activity}) "
                f"+{self.facts_added} facts{tables} {self.notes}")


@dataclass
class Trace:
    """The ordered list of executions of one orchestration session."""

    steps: list[TraceStep] = field(default_factory=list)

    def record(self, step: TraceStep) -> None:
        """Append one step."""
        self.steps.append(step)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[TraceStep]:
        return iter(self.steps)

    def __getitem__(self, index: int) -> TraceStep:
        return self.steps[index]

    # -- summaries -----------------------------------------------------------

    def execution_counts(self) -> dict[str, int]:
        """Transducer name → number of executions."""
        return dict(Counter(step.transducer for step in self.steps))

    def activity_counts(self) -> dict[str, int]:
        """Activity → number of executions."""
        return dict(Counter(step.activity for step in self.steps))

    def phase_counts(self) -> dict[str, int]:
        """Phase label → number of executions."""
        return dict(Counter(step.phase for step in self.steps if step.phase))

    def reruns(self) -> dict[str, int]:
        """Transducer name → number of executions beyond the first."""
        return {name: count - 1 for name, count in self.execution_counts().items() if count > 1}

    def total_facts_added(self) -> int:
        """Sum of facts added across all steps."""
        return sum(step.facts_added for step in self.steps)

    def total_duration(self) -> float:
        """Total execution time in seconds."""
        return sum(step.duration_seconds for step in self.steps)

    def steps_in_phase(self, phase: str) -> list[TraceStep]:
        """All steps executed during ``phase``."""
        return [step for step in self.steps if step.phase == phase]

    # -- rendering ------------------------------------------------------------

    def to_text(self) -> str:
        """A browsable text rendering of the whole trace."""
        if not self.steps:
            return "(empty trace)"
        lines = [str(step) for step in self.steps]
        lines.append("")
        lines.append(f"total: {len(self.steps)} executions, "
                     f"{self.total_facts_added()} facts, "
                     f"{self.total_duration():.3f}s")
        return "\n".join(lines)

    def summary(self) -> dict:
        """Aggregate statistics used by benchmarks and tests."""
        return {
            "steps": len(self.steps),
            "facts_added": self.total_facts_added(),
            "by_transducer": self.execution_counts(),
            "by_activity": self.activity_counts(),
            "by_phase": self.phase_counts(),
            "reruns": self.reruns(),
            "duration_seconds": self.total_duration(),
        }
