"""Baseline add/expire round-trip, CLI exit codes, JSON schema stability."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Baseline, analyze_paths
from repro.analysis.baseline import BaselineEntry

REPO_ROOT = Path(__file__).resolve().parents[2]

DIRTY = textwrap.dedent(
    """
    import threading

    class Core:
        def __init__(self):
            self._lock = threading.Lock()
            self._drifted = {}
            self._step = 0

        def get_state(self):
            return {"step": self._step}

        def wait(self, future):
            with self._lock:
                return future.result()
    """
)

CLEAN = textwrap.dedent(
    """
    class Core:
        def __init__(self):
            self._step = 0

        def get_state(self):
            return {"step": self._step}
    """
)


#: Calls every public name of the fixture, so the ``unused`` rule (which
#: counts callers under ``examples/``) has nothing to report in this tree.
CALLER = textwrap.dedent(
    """
    from repro.streaming.fixture import Core

    Core().get_state()
    Core().wait(None)
    """
)


@pytest.fixture
def dirty_tree(tmp_path):
    package = tmp_path / "src" / "repro" / "streaming"
    package.mkdir(parents=True)
    (package / "fixture.py").write_text(DIRTY)
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "caller.py").write_text(CALLER)
    return tmp_path


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestAnalyzeAPI:
    def test_findings_without_baseline(self, dirty_tree):
        report = analyze_paths(["src"], root=dirty_tree)
        assert not report.ok
        assert sorted({f.rule for f in report.findings}) == [
            "checkpoint/missing-attr",
            "lock-order/blocking-call",
        ]

    def test_baseline_absorbs_and_round_trips(self, dirty_tree, tmp_path):
        report = analyze_paths(["src"], root=dirty_tree)
        baseline = Baseline.from_findings(report.findings, justification="accepted")
        baseline_path = tmp_path / "analysis_baseline.json"
        baseline.save(baseline_path)

        reloaded = Baseline.load(baseline_path)
        assert len(reloaded) == len(baseline)
        again = analyze_paths(["src"], root=dirty_tree, baseline=reloaded)
        assert again.ok
        assert len(again.baselined) == len(report.findings)
        assert again.findings == []
        assert again.stale_baseline == []

    def test_fixed_finding_expires_its_baseline_entry(self, dirty_tree):
        report = analyze_paths(["src"], root=dirty_tree)
        baseline = Baseline.from_findings(report.findings, justification="accepted")
        fixture = dirty_tree / "src" / "repro" / "streaming" / "fixture.py"
        fixture.write_text(CLEAN)

        after_fix = analyze_paths(["src"], root=dirty_tree, baseline=baseline)
        assert after_fix.findings == []
        stale_rules = sorted(entry["rule"] for entry in after_fix.stale_baseline)
        assert stale_rules == ["checkpoint/missing-attr", "lock-order/blocking-call"]
        assert not after_fix.ok  # stale entries fail the run until removed

    def test_unjustified_entries_are_reported(self):
        baseline = Baseline(
            [BaselineEntry(rule="x/y", path="a.py", symbol="S", justification="  ")]
        )
        assert len(baseline.unjustified()) == 1


class TestCLI:
    def test_exit_one_with_findings_zero_when_baselined(self, dirty_tree):
        dirty = run_cli(["src", "--no-baseline"], cwd=dirty_tree)
        assert dirty.returncode == 1
        assert "checkpoint/missing-attr" in dirty.stdout

        write = run_cli(["src", "--write-baseline"], cwd=dirty_tree)
        assert write.returncode == 0

        clean = run_cli(["src"], cwd=dirty_tree)
        assert clean.returncode == 0, clean.stdout
        assert "2 baselined" in clean.stdout

    def test_rule_subset_selection(self, dirty_tree):
        result = run_cli(["src", "--rules", "determinism"], cwd=dirty_tree)
        assert result.returncode == 0

    def test_list_rules(self, dirty_tree):
        result = run_cli(["--list-rules"], cwd=dirty_tree)
        assert result.returncode == 0
        for family in ("lock-order", "checkpoint", "determinism", "boundary", "unused"):
            assert family in result.stdout

    def test_json_schema_is_stable(self, dirty_tree):
        result = run_cli(["src", "--json", "--no-baseline"], cwd=dirty_tree)
        payload = json.loads(result.stdout)
        assert set(payload) == {
            "version",
            "ok",
            "files_scanned",
            "findings",
            "baselined",
            "suppressed",
            "stale_baseline",
            "errors",
        }
        assert payload["version"] == 1
        assert payload["ok"] is False
        assert payload["files_scanned"] == 1
        for finding in payload["findings"]:
            assert set(finding) == {"rule", "path", "line", "symbol", "message"}
            assert finding["path"] == "src/repro/streaming/fixture.py"
            assert isinstance(finding["line"], int)

    def test_unknown_rule_is_a_usage_error(self, dirty_tree):
        result = run_cli(["src", "--rules", "nope"], cwd=dirty_tree)
        assert result.returncode == 2
