"""Rule registry, findings and the analysis driver.

A *rule* is a class with a ``name`` (the rule family, e.g. ``lock-order``),
registered via :func:`register`.  Its :meth:`Rule.check` receives one parsed
:class:`ModuleContext` and yields :class:`Finding` objects whose ``rule``
field carries the full stable id (``family/sub-id``, e.g.
``lock-order/cycle``).

Suppression happens at two levels:

* inline — a ``# repro: noqa[rule-id]`` comment on the finding's line
  (``rule-id`` may be a full id, a family, or ``*``), unless the rule
  rejected the pragma's reason (:attr:`Finding.suppressible`);
* committed — entries in ``analysis_baseline.json`` matched on
  ``(rule, path, symbol)`` so line drift does not expire them (see
  :mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Type, Union

#: ``# repro: noqa[lock-order/cycle, determinism]`` — codes between brackets.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([^\]]*)\]")

_SCHEMA_VERSION = 1


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a file/line and a stable symbol.

    ``symbol`` names the *thing* that violated the rule (an attribute, an
    edge, a call) rather than the position, so baselines survive line
    drift: two findings are the same baseline entry iff
    ``(rule, path, symbol)`` match.
    """

    path: str
    line: int
    rule: str
    symbol: str
    message: str
    #: ``False`` when the rule has already judged the line's pragma and
    #: rejected it, so no ``noqa`` on that line can silence the finding.
    suppressible: bool = field(default=True, compare=False)

    @property
    def key(self) -> tuple:
        return (self.rule, self.path, self.symbol)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Rule:
    """Base class for analysis rules; subclasses register themselves."""

    name: str = ""
    description: str = ""

    def check(self, module: "ModuleContext") -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding ``cls`` to the global rule registry."""
    if not cls.name:
        raise ValueError(f"rule {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def registered_rules() -> Dict[str, Type[Rule]]:
    return dict(_REGISTRY)


def all_rules(only: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the registered rules (optionally a named subset)."""
    if only is None:
        return [cls() for _, cls in sorted(_REGISTRY.items())]
    unknown = sorted(set(only) - set(_REGISTRY))
    if unknown:
        raise KeyError(f"unknown rules: {', '.join(unknown)}")
    return [_REGISTRY[name]() for name in only]


@dataclass
class ModuleContext:
    """One parsed source file handed to every rule."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    @classmethod
    def parse(cls, path: Path, root: Path) -> "ModuleContext":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        return cls(
            path=path,
            relpath=relpath,
            source=source,
            tree=tree,
            lines=source.splitlines(),
        )

    def _pragma(self, line: int) -> Optional["re.Match[str]"]:
        if not 1 <= line <= len(self.lines):
            return None
        return _NOQA_RE.search(self.lines[line - 1])

    def noqa_codes(self, line: int) -> List[str]:
        """Suppression codes from a ``# repro: noqa[...]`` pragma on ``line``."""
        match = self._pragma(line)
        if match is None:
            return []
        return [code.strip() for code in match.group(1).split(",") if code.strip()]

    def noqa_reason(self, line: int) -> str:
        """The text after the ``# repro: noqa[...]`` pragma on ``line``."""
        match = self._pragma(line)
        return "" if match is None else self.lines[line - 1][match.end():].strip()

    def is_suppressed(self, finding: Finding) -> bool:
        if not finding.suppressible:
            return False
        for code in self.noqa_codes(finding.line):
            if code == "*" or finding.rule == code or finding.rule.startswith(code + "/"):
                return True
        return False


@dataclass
class AnalysisReport:
    """The partitioned outcome of one analyzer run.

    ``findings`` are actionable (neither suppressed nor baselined);
    ``stale_baseline`` lists committed entries that no longer match
    anything — either half being non-empty fails the run.
    """

    findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    stale_baseline: List[dict] = field(default_factory=list)
    files_scanned: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.stale_baseline and not self.errors

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": _SCHEMA_VERSION,
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "findings": [f.to_dict() for f in sorted(self.findings)],
            "baselined": [f.to_dict() for f in sorted(self.baselined)],
            "suppressed": [f.to_dict() for f in sorted(self.suppressed)],
            "stale_baseline": list(self.stale_baseline),
            "errors": list(self.errors),
        }


def iter_python_files(
    paths: Sequence[Union[str, Path]], root: Path
) -> Iterator[Path]:
    """Yield the ``.py`` files under ``paths`` in a stable order."""
    seen = set()
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def analyze_paths(
    paths: Sequence[Union[str, Path]],
    root: Optional[Union[str, Path]] = None,
    rules: Optional[Sequence[str]] = None,
    baseline: Optional["Baseline"] = None,  # noqa: F821 - see baseline.py
) -> AnalysisReport:
    """Run the (selected) rules over every python file under ``paths``."""
    root = Path(root) if root is not None else Path.cwd()
    active = all_rules(rules)
    report = AnalysisReport()
    matched_keys = set()
    for path in iter_python_files(paths, root):
        try:
            module = ModuleContext.parse(path, root)
        except (SyntaxError, UnicodeDecodeError, OSError) as error:
            report.errors.append(f"{path}: {error}")
            continue
        report.files_scanned += 1
        for rule in active:
            for finding in rule.check(module):
                if module.is_suppressed(finding):
                    report.suppressed.append(finding)
                elif baseline is not None and baseline.matches(finding):
                    matched_keys.add(finding.key)
                    report.baselined.append(finding)
                else:
                    report.findings.append(finding)
    if baseline is not None:
        report.stale_baseline = baseline.stale(matched_keys)
    report.findings.sort()
    report.baselined.sort()
    report.suppressed.sort()
    return report
