"""What one benchmark run found: operations, check verdicts and metrics."""

from __future__ import annotations

import math
from typing import Dict, List, Optional


class Outcome:
    """Accumulates a run's operations, verdicts, metrics and notes.

    ``attempted``/``failed`` count operations (a fit-plus-predict round,
    or one HTTP request). Every check is recorded by name with how often
    it passed and failed, so the report shows each verdict once.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.setup_s: List[float] = []
        self.metrics: Dict[str, dict] = {}
        self.checks: Dict[str, List] = {}
        self.notes: List[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        entry = self.checks.setdefault(name, [0, 0, ""])
        entry[0 if ok else 1] += 1
        if not ok or not entry[2]:
            entry[2] = detail
        return bool(ok)

    def metric(self, name: str, value: float, unit: str, n: Optional[int] = None) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit, "n": n}

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not any(fails for _, fails, _ in self.checks.values())

    def lines(self) -> List[str]:
        """Human-readable report: metrics with units and counts, verdicts."""
        out = []
        for name, m in self.metrics.items():
            n = f" (n={m['n']})" if m["n"] is not None else ""
            out.append(f"{name} = {m['value']:.6g} {m['unit']}{n}")
        for name, (passes, fails, detail) in self.checks.items():
            verdict = "PASS" if not fails else "FAIL"
            out.append(f"check {name}: {verdict} ({passes} passed, {fails} failed; {detail})")
        out.extend(f"note: {text}" for text in self.notes)
        out.append(f"operations: {self.attempted} attempted, {self.failed} failed")
        return out

    def unmeasured(self, names: List[str]) -> List[str]:
        """Those of ``names`` without a finite value (too many failures)."""
        return [k for k in names if not math.isfinite(self.metrics.get(k, {}).get("value", math.nan))]

    def result(self, names: List[str]) -> dict:
        """The final JSON object, restricted to ``names`` in that order.

        Every name must have been measured (see ``unmeasured``).
        """
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                k: {"value": self.metrics[k]["value"], "unit": self.metrics[k]["unit"]} for k in names
            },
        }
