"""``unused`` — public code that nothing in the program calls.

* ``unused/symbol`` — a public (no leading underscore) module-level
  function or class under ``src/``, or a public method of such a class,
  whose name appears as a code identifier nowhere in the program's caller
  trees except at its own definition.  The caller trees are ``src/``,
  ``examples/``, ``perfbench/``, ``benchmarks/`` and ``tools/`` under the
  analysis root; tests are not callers, so a helper only tests reach is
  reported too.

A code identifier is a name, an attribute or an imported name (``foo``
in ``foo(...)``, ``x.foo`` or ``from m import foo``), never a string or a
comment.  A ``from ... import`` inside a package ``__init__.py`` is a
re-export, not a use, so it keeps nothing alive (nor does ``__all__``, a
list of strings); a name the ``__init__`` uses in its own code still
counts.  Classes decorated with a ``@register``-style decorator count as
used, since their registry reaches them by key.  Matching is by bare name,
not by type, so any ``x.update`` keeps every ``update`` method alive: the
rule under-reports rather than guess types.

A symbol kept on purpose (a reference tests compare against, an
instrument the test suites drive, an entry point the README documents)
carries ``# repro: noqa[unused/symbol]`` and a reason on its ``def``
line.  The reason must name a repo-relative ``.py`` file or directory (a
word ending in ``.py`` or holding a ``/``) in which the symbol's name
occurs as a code identifier, by the same test as above.  A reason that
names no such path (free text, a missing path, a file that mentions the
name only in a string or a comment) does not suppress: the finding
stands, and no pragma on that line can silence it.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.analysis.framework import (
    Finding,
    ModuleContext,
    Rule,
    iter_python_files,
    register,
)

#: Directories under the analysis root whose code counts as a caller.
CALLER_TREES = ("src", "examples", "perfbench", "benchmarks", "tools")

_Definition = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]
#: identifier -> every ``(relpath, line)`` it occurs at.
_Index = Dict[str, List[Tuple[str, int]]]


def _identifiers(tree: ast.AST, package_init: bool) -> Iterable[Tuple[str, int]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno or node.lineno
        elif isinstance(node, ast.ImportFrom) and not package_init:
            for alias in node.names:
                yield alias.name, node.lineno


def _build_index(paths: List[Path], root: Path) -> _Index:
    index: _Index = defaultdict(list)
    for path in iter_python_files(paths, root):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (SyntaxError, UnicodeDecodeError, OSError):
            continue
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
        for name, line in _identifiers(tree, path.name == "__init__.py"):
            index[name].append((relpath, line))
    return index


def _named_paths(reason: str, root: Path) -> List[Path]:
    """The repo-relative ``.py`` files and directories a pragma's reason names."""
    root = root.resolve()
    paths = []
    for word in reason.split():
        word = word.strip("\"'`()[]{},;:").rstrip(".")
        if "/" not in word and not word.endswith(".py") or Path(word).is_absolute():
            continue  # prose, not a repo-relative path
        path = (root / word).resolve()
        if root not in path.parents:
            continue
        if path.is_dir() or (path.suffix == ".py" and path.is_file()):
            paths.append(path)
    return paths


def _root_of(module: ModuleContext) -> Optional[Path]:
    """The analysis root: the module's path minus its root-relative ``relpath``."""
    parts = Path(module.relpath).parts
    resolved = module.path.resolve().parts
    if len(resolved) <= len(parts) or resolved[-len(parts):] != parts:
        return None
    return Path(*resolved[: -len(parts)])


def _registered(node: _Definition) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name.startswith("register"):
            return True
    return False


@register
class UnusedRule(Rule):
    name = "unused"
    description = (
        "public functions, classes and methods under src/ that no code in "
        "src/, examples/, perfbench/, benchmarks/ or tools/ references"
    )

    def __init__(self) -> None:
        self._root: Optional[Path] = None
        self._index: _Index = {}

    def _index_for(self, root: Path) -> _Index:
        if self._root != root:
            trees = [root / name for name in CALLER_TREES if (root / name).is_dir()]
            self._root, self._index = root, _build_index(trees, root)
        return self._index

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        root = _root_of(module) if module.relpath.startswith("src/") else None
        if root is None:
            return []
        index = self._index_for(root)
        findings: List[Finding] = []
        seen = set()

        def used_in(node: _Definition, occurrences: _Index) -> bool:
            first = min([d.lineno for d in node.decorator_list] + [node.lineno])
            return any(
                path != module.relpath or not first <= line <= node.end_lineno
                for path, line in occurrences.get(node.name, ())
            )

        def judged(node: _Definition, finding: Finding) -> Finding:
            """``finding``, unsuppressible unless its pragma names a user."""
            if not module.is_suppressed(finding):
                return finding
            reason = module.noqa_reason(finding.line)
            if used_in(node, _build_index(_named_paths(reason, root), root)):
                return finding
            return replace(
                finding,
                message=(
                    f"the suppression of {finding.symbol} names no .py file or "
                    f"directory that uses {node.name} in code: {reason or 'no reason'}"
                ),
                suppressible=False,
            )

        def visit(body: List[ast.stmt], owner: str) -> None:
            for node in body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                if node.name.startswith("_"):
                    continue
                symbol = f"{owner}.{node.name}" if owner else node.name
                if symbol in seen:  # a property's setter shares the getter's name
                    continue
                seen.add(symbol)
                if not (_registered(node) or used_in(node, index)):
                    kind = "class" if isinstance(node, ast.ClassDef) else "function"
                    finding = Finding(
                        path=module.relpath,
                        line=node.lineno,
                        rule="unused/symbol",
                        symbol=symbol,
                        message=(
                            f"public {kind} {symbol} is referenced nowhere in "
                            f"{', '.join(CALLER_TREES)} outside its definition"
                        ),
                    )
                    findings.append(judged(node, finding))
                elif isinstance(node, ast.ClassDef):
                    visit(node.body, symbol)

        visit(module.tree.body, "")
        return findings
