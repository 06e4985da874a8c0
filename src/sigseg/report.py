"""Structured result of a detection run, serializable to JSON."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class DetectionReport:
    """What ran, what it found, what it cost, and every resolved parameter.

    breakpoints include the terminal index T; penalized_objective is None
    for fixed-change-count runs.  config_echo carries the fully resolved
    parameter set so a run can be reproduced from its own report.
    """

    method: str
    cost: str
    breakpoints: list[int]
    sum_of_costs: float
    penalized_objective: float | None
    elapsed_ms: float
    config_echo: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.elapsed_ms < 0:
            raise ValueError("elapsed_ms must be >= 0")

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "cost": self.cost,
            "breakpoints": list(self.breakpoints),
            "sum_of_costs": self.sum_of_costs,
            "penalized_objective": self.penalized_objective,
            "elapsed_ms": self.elapsed_ms,
            "config_echo": dict(self.config_echo),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, allow_nan=False)
