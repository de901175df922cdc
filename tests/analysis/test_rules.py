"""Fixture snippets for every rule: positive, negative, and noqa-suppressed."""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis import ModuleContext, all_rules, analyze_paths
from repro.analysis.framework import registered_rules


def run_rule(rule_name, source, relpath="src/repro/streaming/fixture.py"):
    """Run one rule family over an inline snippet; returns its findings."""
    source = textwrap.dedent(source)
    module = ModuleContext(
        path=Path(relpath),
        relpath=relpath,
        source=source,
        tree=ast.parse(source),
        lines=source.splitlines(),
    )
    (rule,) = all_rules([rule_name])
    findings = list(rule.check(module))
    return [f for f in findings if not module.is_suppressed(f)]


def rules_of(findings):
    return sorted({f.rule for f in findings})


class TestRegistry:
    def test_all_five_families_registered(self):
        assert set(registered_rules()) >= {
            "lock-order",
            "checkpoint",
            "determinism",
            "boundary",
            "unused",
        }

    def test_unknown_rule_name_raises(self):
        with pytest.raises(KeyError):
            all_rules(["no-such-rule"])


class TestLockOrder:
    def test_opposite_nesting_orders_flag_a_cycle(self):
        findings = run_rule(
            "lock-order",
            """
            import threading

            class Worker:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def backward(self):
                    with self._b:
                        with self._a:
                            pass
            """,
        )
        assert "lock-order/cycle" in rules_of(findings)
        (cycle,) = [f for f in findings if f.rule == "lock-order/cycle"]
        assert "Worker._a" in cycle.symbol and "Worker._b" in cycle.symbol

    def test_consistent_order_is_clean(self):
        findings = run_rule(
            "lock-order",
            """
            import threading

            class Worker:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def also_forward(self):
                    with self._a:
                        with self._b:
                            pass
            """,
        )
        assert findings == []

    def test_cycle_through_intra_class_call_is_found(self):
        findings = run_rule(
            "lock-order",
            """
            import threading

            class Worker:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def outer(self):
                    with self._a:
                        self.helper()

                def helper(self):
                    with self._b:
                        pass

                def backward(self):
                    with self._b:
                        with self._a:
                            pass
            """,
        )
        assert "lock-order/cycle" in rules_of(findings)

    def test_nonreentrant_reentry_is_a_self_deadlock(self):
        findings = run_rule(
            "lock-order",
            """
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()

                def step(self):
                    with self._lock:
                        with self._lock:
                            pass
            """,
        )
        assert rules_of(findings) == ["lock-order/self-deadlock"]

    def test_rlock_reentry_is_fine(self):
        findings = run_rule(
            "lock-order",
            """
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.RLock()

                def step(self):
                    with self._lock:
                        with self._lock:
                            pass
            """,
        )
        assert findings == []

    def test_untimed_result_under_lock_flagged_timed_allowed(self):
        findings = run_rule(
            "lock-order",
            """
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()

                def bad(self, future):
                    with self._lock:
                        return future.result()

                def good(self, future):
                    with self._lock:
                        return future.result(timeout=5.0)
            """,
        )
        assert rules_of(findings) == ["lock-order/blocking-call"]
        (finding,) = findings
        assert "Worker.bad" in finding.message

    def test_str_join_is_not_a_blocking_call(self):
        findings = run_rule(
            "lock-order",
            """
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()

                def render(self, parts):
                    with self._lock:
                        return ", ".join(parts)
            """,
        )
        assert findings == []

    def test_untimed_join_and_sleep_under_lock_flagged(self):
        findings = run_rule(
            "lock-order",
            """
            import threading
            import time

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()

                def stop(self, thread):
                    with self._lock:
                        thread.join()
                        time.sleep(0.1)
            """,
        )
        assert rules_of(findings) == ["lock-order/blocking-call"]
        assert len(findings) == 2

    def test_blocking_reachable_through_self_call_flagged(self):
        findings = run_rule(
            "lock-order",
            """
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.drain()

                def drain(self):
                    for future in []:
                        future.result()
            """,
        )
        assert "lock-order/blocking-call" in rules_of(findings)

    def test_module_level_lock_cycle_with_class_lock(self):
        findings = run_rule(
            "lock-order",
            """
            import threading

            _GLOBAL = threading.Lock()

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()

                def one(self):
                    with self._lock:
                        with _GLOBAL:
                            pass

                def two(self):
                    with _GLOBAL:
                        with self._lock:
                            pass
            """,
        )
        assert "lock-order/cycle" in rules_of(findings)

    def test_noqa_suppresses_the_finding(self):
        findings = run_rule(
            "lock-order",
            """
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()

                def bad(self, future):
                    with self._lock:
                        return future.result()  # repro: noqa[lock-order/blocking-call]
            """,
        )
        assert findings == []


class TestCheckpoint:
    def test_unsaved_attr_is_flagged(self):
        findings = run_rule(
            "checkpoint",
            """
            class Core:
                def __init__(self):
                    self._step = 0
                    self._drifted = {}

                def get_state(self):
                    return {"step": self._step}
            """,
        )
        assert rules_of(findings) == ["checkpoint/missing-attr"]
        (finding,) = findings
        assert finding.symbol == "Core._drifted"

    def test_saved_attrs_and_helper_reads_are_clean(self):
        findings = run_rule(
            "checkpoint",
            """
            class Core:
                def __init__(self):
                    self._step = 0
                    self._pending = []

                def get_state(self):
                    return {"step": self._step, **self._pack()}

                def _pack(self):
                    return {"pending": list(self._pending)}
            """,
        )
        assert findings == []

    def test_lock_and_thread_factories_are_auto_exempt(self):
        findings = run_rule(
            "checkpoint",
            """
            import threading

            class Core:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition()
                    self._step = 0

                def get_state(self):
                    return {"step": self._step}
            """,
        )
        assert findings == []

    def test_checkpoint_exempt_class_attr_opts_out(self):
        findings = run_rule(
            "checkpoint",
            """
            class Core:
                _CHECKPOINT_EXEMPT = ("_scratch",)

                def __init__(self):
                    self._scratch = []
                    self._step = 0

                def get_state(self):
                    return {"step": self._step}
            """,
        )
        assert findings == []

    def test_class_without_get_state_is_ignored(self):
        findings = run_rule(
            "checkpoint",
            """
            class Plain:
                def __init__(self):
                    self._anything = 1
            """,
        )
        assert findings == []

    def test_noqa_on_the_assignment_suppresses(self):
        findings = run_rule(
            "checkpoint",
            """
            class Core:
                def __init__(self):
                    self._scratch = []  # repro: noqa[checkpoint]
                    self._step = 0

                def get_state(self):
                    return {"step": self._step}
            """,
        )
        assert findings == []


class TestDeterminism:
    def test_global_np_random_sampler_flagged(self):
        findings = run_rule(
            "determinism",
            """
            import numpy as np

            def draw():
                return np.random.rand(3)
            """,
        )
        assert rules_of(findings) == ["determinism/unseeded-random"]

    def test_default_rng_and_seeded_seed_are_clean(self):
        findings = run_rule(
            "determinism",
            """
            import numpy as np
            import random

            def draw(seed):
                random.seed(seed)
                np.random.seed(seed)
                rng = np.random.default_rng(seed)
                local = random.Random(seed)
                return rng.uniform(), local.random()
            """,
        )
        assert findings == []

    def test_stdlib_global_random_flagged(self):
        findings = run_rule(
            "determinism",
            """
            import random

            def draw():
                return random.random()
            """,
        )
        assert rules_of(findings) == ["determinism/unseeded-random"]

    def test_from_import_of_sampler_flagged(self):
        findings = run_rule(
            "determinism",
            """
            from random import choice

            def pick(items):
                return choice(items)
            """,
        )
        assert rules_of(findings) == ["determinism/unseeded-random"]

    def test_wall_clock_flagged_only_on_numeric_paths(self):
        snippet = """
        import time

        def stamp():
            return time.time()
        """
        on_numeric = run_rule(
            "determinism", snippet, relpath="src/repro/fleet/fixture.py"
        )
        off_numeric = run_rule(
            "determinism", snippet, relpath="src/repro/obs/fixture.py"
        )
        assert rules_of(on_numeric) == ["determinism/wall-clock"]
        assert off_numeric == []

    def test_monotonic_is_allowed_on_numeric_paths(self):
        findings = run_rule(
            "determinism",
            """
            import time

            def deadline():
                return time.monotonic() + 5.0
            """,
            relpath="src/repro/fleet/fixture.py",
        )
        assert findings == []

    def test_noqa_suppresses(self):
        findings = run_rule(
            "determinism",
            """
            import numpy as np

            def draw():
                return np.random.rand(3)  # repro: noqa[determinism]
            """,
        )
        assert findings == []


class TestBoundary:
    def test_gateway_dumps_without_allow_nan_flagged(self):
        findings = run_rule(
            "boundary",
            """
            import json

            def respond(payload):
                return json.dumps(payload).encode()
            """,
            relpath="src/repro/gateway/fixture.py",
        )
        assert rules_of(findings) == ["boundary/json-nan"]

    def test_strict_dumps_is_clean_and_non_gateway_ignored(self):
        strict = run_rule(
            "boundary",
            """
            import json

            def respond(payload):
                return json.dumps(payload, allow_nan=False).encode()
            """,
            relpath="src/repro/gateway/fixture.py",
        )
        elsewhere = run_rule(
            "boundary",
            """
            import json

            def dump(payload):
                return json.dumps(payload)
            """,
            relpath="src/repro/utils/fixture.py",
        )
        assert strict == []
        assert elsewhere == []

    def test_illegal_metric_name_literal_flagged(self):
        findings = run_rule(
            "boundary",
            """
            def render(exp, value):
                exp.add("repro-bad-name", "gauge", "help", value)
            """,
            relpath="src/repro/gateway/metrics.py",
        )
        assert rules_of(findings) == ["boundary/metric-name"]

    def test_legal_names_and_fstring_fragments_clean(self):
        findings = run_rule(
            "boundary",
            """
            def render(exp, key, value):
                exp.add("repro_server_requests_total", "counter", "help", value)
                exp.add(f"repro_stream_{key}", "gauge", "help", value)
            """,
            relpath="src/repro/gateway/metrics.py",
        )
        assert findings == []

    def test_illegal_fstring_fragment_flagged(self):
        findings = run_rule(
            "boundary",
            """
            def render(exp, key, value):
                exp.add(f"repro stream {key}", "gauge", "help", value)
            """,
            relpath="src/repro/gateway/metrics.py",
        )
        assert rules_of(findings) == ["boundary/metric-name"]

    def test_illegal_label_name_in_dict_literal_flagged(self):
        findings = run_rule(
            "boundary",
            """
            def render(exp, value):
                exp.add("repro_x", "gauge", "help", value, {"bad-label": 1})
            """,
            relpath="src/repro/gateway/metrics.py",
        )
        assert rules_of(findings) == ["boundary/metric-name"]


class TestBoundaryScope:
    """The wire-facing surface is repro/gateway/ AND repro/obs/ — the SSE
    writer and structured-log sinks serialize to the network too."""

    def test_lax_dumps_in_obs_package_flagged(self):
        findings = run_rule(
            "boundary",
            """
            import json

            def frame(record):
                return json.dumps(record).encode("utf-8")
            """,
            relpath="src/repro/obs/events.py",
        )
        assert rules_of(findings) == ["boundary/json-nan"]

    def test_strict_obs_serializer_is_clean(self):
        findings = run_rule(
            "boundary",
            """
            import json

            def frame(record):
                return json.dumps(record, allow_nan=False).encode("utf-8")
            """,
            relpath="src/repro/obs/events.py",
        )
        assert findings == []

    def test_metric_name_sinks_checked_outside_metrics_module(self):
        # The sink check follows the call, not the filename: an exposition
        # builder fed a bad literal from sse.py (or any wire file) is caught.
        findings = run_rule(
            "boundary",
            """
            def render(exp, value):
                exp.add("bad metric name", "gauge", "help", value)
            """,
            relpath="src/repro/gateway/sse.py",
        )
        assert rules_of(findings) == ["boundary/metric-name"]

    def test_non_wire_packages_stay_out_of_scope(self):
        findings = run_rule(
            "boundary",
            """
            import json

            def dump(exp, payload):
                exp.add("bad metric name", "gauge", "help", 1.0)
                return json.dumps(payload)
            """,
            relpath="src/repro/utils/fixture.py",
        )
        assert findings == []


def run_unused(tmp_path, src, callers=None):
    """Run ``unused`` over a one-module project; ``callers`` maps relpaths to code.

    Returns ``(findings, suppressed)`` symbols.
    """
    files = {"src/repro/pkg/mod.py": src, **(callers or {})}
    for relpath, code in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(code))
    report = analyze_paths(["src"], root=tmp_path, rules=["unused"])
    assert {f.rule for f in report.findings + report.suppressed} <= {"unused/symbol"}
    return (
        sorted(f.symbol for f in report.findings),
        sorted(f.symbol for f in report.suppressed),
    )


class TestUnused:
    SOURCE = """
        def helper():
            return 1

        def _private():
            return helper()

        class Thing:
            def used(self):
                return self

            def spare(self):
                return "helper spare"  # spare() only named in strings

            def walk(self, node):
                return [self.walk(child) for child in node]
        """

    def test_public_symbols_nothing_references_are_found(self, tmp_path):
        findings, _ = run_unused(
            tmp_path,
            self.SOURCE,
            {
                # Tests are not callers, and strings / comments are not code.
                "tests/test_mod.py": "from repro.pkg.mod import Thing\nThing().spare()\n",
                "examples/demo.py": "from repro.pkg.mod import Thing\nThing().used()\n",
            },
        )
        # helper is called by _private, so only the method names fail.
        assert findings == ["Thing.spare", "Thing.walk"]

    def test_a_reference_from_any_caller_tree_counts(self, tmp_path):
        for tree in ("examples", "perfbench", "benchmarks", "tools", "src/repro/other"):
            findings, _ = run_unused(
                tmp_path,
                self.SOURCE,
                {
                    f"{tree}/caller.py": (
                        "from repro.pkg.mod import Thing\n"
                        "Thing().used().spare()\n"
                        "Thing().walk([])\n"
                    )
                },
            )
            assert findings == [], tree
            (tmp_path / tree / "caller.py").unlink()

    def test_a_package_reexport_is_not_a_use(self, tmp_path):
        findings, _ = run_unused(
            tmp_path,
            """
            def reexported():
                return 1

            def called_by_init():
                return 2

            def imported_by_example():
                return 3
            """,
            {
                "src/repro/pkg/__init__.py": (
                    "from repro.pkg.mod import called_by_init, reexported\n"
                    "from .mod import imported_by_example\n"
                    "__all__ = ['reexported', 'called_by_init', 'imported_by_example']\n"
                    "DEFAULT = called_by_init()\n"
                ),
                "examples/demo.py": "from repro.pkg import imported_by_example\n",
            },
        )
        assert findings == ["reexported"]

    def test_a_reexport_chain_is_not_a_use(self, tmp_path):
        """Re-exported twice, by ``repro.pkg`` and by ``repro``, still unused;
        an ordinary module's import of a sibling's symbol still counts."""
        findings, _ = run_unused(
            tmp_path,
            """
            def chained():
                return 1

            def used_by_sibling():
                return 2
            """,
            {
                "src/repro/pkg/__init__.py": (
                    "from repro.pkg.mod import chained, used_by_sibling\n"
                ),
                "src/repro/__init__.py": "from repro.pkg import chained\n",
                "src/repro/pkg/sibling.py": "from repro.pkg.mod import used_by_sibling\n",
            },
        )
        assert findings == ["chained"]

    def test_unused_class_is_one_finding(self, tmp_path):
        findings, _ = run_unused(
            tmp_path,
            """
            class Orphan:
                def method(self):
                    return Orphan()
            """,
        )
        assert findings == ["Orphan"]

    def test_registered_classes_count_as_used(self, tmp_path):
        findings, _ = run_unused(
            tmp_path,
            """
            from repro.analysis.framework import register

            @register
            class Rule:
                name = "x"

            @registry.register("y")
            class Other:
                pass

            @dataclass
            class Plain:
                pass
            """,
        )
        assert findings == ["Plain"]

    def test_noqa_pragma_suppresses_with_a_reason(self, tmp_path):
        findings, suppressed = run_unused(
            tmp_path,
            """
            def kept():  # repro: noqa[unused/symbol] tests/test_kept.py
                return 1

            def dropped():
                return 2
            """,
            {"tests/test_kept.py": "from repro.pkg.mod import kept\nkept()\n"},
        )
        assert findings == ["dropped"]
        assert suppressed == ["kept"]

    def test_a_reason_must_name_a_file_that_uses_the_symbol(self, tmp_path):
        findings, suppressed = run_unused(
            tmp_path,
            """
            def kept():  # repro: noqa[unused/symbol] reference for tests/test_kept.py
                return 1

            def misnamed():  # repro: noqa[unused/symbol] reference for tests/test_kept.py
                return 2
            """,
            {"tests/test_kept.py": "from repro.pkg.mod import kept\nassert kept() == 1\n"},
        )
        assert findings == ["misnamed"]
        assert suppressed == ["kept"]

    def test_a_reason_naming_a_directory_holds_if_a_file_under_it_uses_the_symbol(self, tmp_path):
        findings, suppressed = run_unused(
            tmp_path,
            """
            def kept():  # repro: noqa[unused/symbol] instrument tests/suite drives
                return 1

            def elsewhere():  # repro: noqa[unused/symbol] instrument tests/other/ drives
                return 2
            """,
            {
                "tests/suite/deep/test_kept.py": "from repro.pkg import mod\nmod.kept()\n",
                "tests/other/test_other.py": "from repro.pkg.mod import kept\nkept()\n",
            },
        )
        assert findings == ["elsewhere"]
        assert suppressed == ["kept"]

    @pytest.mark.parametrize(
        "reason",
        [
            "documented user entry point",
            "tests/test_missing.py",
            "tests/missing/",
            "../outside/test_kept.py",
        ],
    )
    def test_a_reason_naming_no_existing_path_leaves_the_finding(self, tmp_path, reason):
        (tmp_path / "outside").mkdir()
        (tmp_path / "outside" / "test_kept.py").write_text("kept()\n")
        findings, suppressed = run_unused(
            tmp_path / "repo",
            f"""
            def kept():  # repro: noqa[unused/symbol] {reason}
                return 1
            """,
            # A test does use it, but the reason does not name that file.
            {"tests/test_kept.py": "from repro.pkg.mod import kept\nkept()\n"},
        )
        assert findings == ["kept"]
        assert suppressed == []

    def test_a_file_naming_the_symbol_only_in_comments_or_strings_is_no_reason(self, tmp_path):
        findings, suppressed = run_unused(
            tmp_path,
            """
            def kept():  # repro: noqa[unused/symbol] tests/test_kept.py
                return 1
            """,
            {
                "tests/test_kept.py": (
                    "# kept() is what this file is about\n"
                    "NAME = 'kept'\n"
                    '"""kept() once more, in a docstring."""\n'
                ),
            },
        )
        assert findings == ["kept"]
        assert suppressed == []

    def test_a_pragma_cannot_silence_its_own_failed_reason(self, tmp_path):
        findings, suppressed = run_unused(
            tmp_path,
            """
            def kept():  # repro: noqa[unused/symbol, unused, *] for users
                return 1
            """,
        )
        assert findings == ["kept"]
        assert suppressed == []
        (finding,) = analyze_paths(["src"], root=tmp_path, rules=["unused"]).findings
        assert "names no .py file or directory that uses kept" in finding.message

    def test_modules_outside_src_are_not_checked(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "tools").mkdir()
        (tmp_path / "tools" / "script.py").write_text("def main():\n    pass\n")
        report = analyze_paths(["tools"], root=tmp_path, rules=["unused"])
        assert report.findings == []
