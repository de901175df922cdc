"""Committed suppression baseline for the analyzer.

The baseline is the escape hatch for findings that are *understood and
accepted* rather than fixed — every entry must carry a one-line
justification, and entries that stop matching anything are reported as
stale (and fail the run) so the file can only shrink or stay honest.

Format (``analysis_baseline.json`` at the repo root)::

    {
      "version": 1,
      "entries": [
        {
          "rule": "lock-order/blocking-call",
          "path": "src/repro/serving/server.py",
          "symbol": "InferenceServer.stop",
          "justification": "why this is accepted"
        }
      ]
    }

Matching is on ``(rule, path, symbol)`` — never on line numbers — so
unrelated edits do not expire entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple, Union

from repro.analysis.framework import Finding

_BASELINE_VERSION = 1
DEFAULT_BASELINE_NAME = "analysis_baseline.json"


@dataclass(frozen=True)
class BaselineEntry:
    rule: str
    path: str
    symbol: str
    justification: str = ""

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.symbol)

    def to_dict(self) -> Dict[str, str]:
        return {
            "rule": self.rule,
            "path": self.path,
            "symbol": self.symbol,
            "justification": self.justification,
        }


class Baseline:
    """An in-memory set of accepted findings keyed on (rule, path, symbol)."""

    def __init__(self, entries: Iterable[BaselineEntry] = ()) -> None:
        self.entries: List[BaselineEntry] = list(entries)
        self._keys: Set[Tuple[str, str, str]] = {e.key for e in self.entries}

    def __len__(self) -> int:
        return len(self.entries)

    def matches(self, finding: Finding) -> bool:
        return finding.key in self._keys

    def stale(self, matched_keys: Set[tuple]) -> List[dict]:
        """Entries whose key matched no finding in the completed run."""
        return [e.to_dict() for e in self.entries if e.key not in matched_keys]

    def unjustified(self) -> List[BaselineEntry]:  # repro: noqa[unused/symbol] tests/analysis/test_enforcement.py
        return [e for e in self.entries if not e.justification.strip()]

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Baseline":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict) or "entries" not in payload:
            raise ValueError(f"{path}: not a baseline file (missing 'entries')")
        version = payload.get("version", _BASELINE_VERSION)
        if version != _BASELINE_VERSION:
            raise ValueError(f"{path}: unsupported baseline version {version!r}")
        entries = []
        for raw in payload["entries"]:
            entries.append(
                BaselineEntry(
                    rule=str(raw["rule"]),
                    path=str(raw["path"]),
                    symbol=str(raw.get("symbol", "")),
                    justification=str(raw.get("justification", "")),
                )
            )
        return cls(entries)

    @classmethod
    def from_findings(
        cls, findings: Iterable[Finding], justification: str = "TODO: justify"
    ) -> "Baseline":
        entries = []
        seen = set()
        for finding in sorted(findings):
            key = finding.key
            if key in seen:
                continue
            seen.add(key)
            entries.append(
                BaselineEntry(
                    rule=finding.rule,
                    path=finding.path,
                    symbol=finding.symbol,
                    justification=justification,
                )
            )
        return cls(entries)

    def save(self, path: Union[str, Path]) -> None:
        payload = {
            "version": _BASELINE_VERSION,
            "entries": [e.to_dict() for e in self.entries],
        }
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=False) + "\n", encoding="utf-8"
        )
