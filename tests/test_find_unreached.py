"""Tests for the unreached-code collector (scripts/find_unreached.py).

The full traced run takes minutes, so these tests drive each piece on a
throwaway package instead: the AST walk, the ``sitecustomize`` hook in a real
child process (fork included), the merge of the per-process dumps and the
report.  The entry-point list is checked against the
command line and the CI workflow it mirrors.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import _SCENARIOS, build_parser

REPO = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("find_unreached", REPO / "scripts" / "find_unreached.py")
fu = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fu)

PACKAGE = '''\
"""A throwaway package."""


def used():
    return helper()


def helper():
    return 1


def marked(func):
    return func


@marked
@marked
def decorated():
    def inner():
        return 2

    return inner()


class Thing:
    def method(self):
        return 3

    async def later(self):
        return 4


def tested():
    return 5


def unused():
    return 6
'''


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A fake repository root holding ``src/repro/__init__.py`` = PACKAGE."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(PACKAGE)
    monkeypatch.setattr(fu, "ROOT", tmp_path)
    monkeypatch.setattr(fu, "SRC", package)
    return tmp_path


def _python(code: str) -> list[str]:
    return [sys.executable, "-c", textwrap.dedent(code)]


def _rows_by_name() -> dict[str, tuple[str, int, int, str]]:
    return {row[3]: row for row in fu.functions()}


class TestFunctions:
    def test_every_def_is_found_under_its_qualified_name(self, tree):
        assert set(_rows_by_name()) == {
            "used", "helper", "marked", "decorated", "decorated.inner",
            "Thing.method", "Thing.later", "tested", "unused",
        }

    def test_a_decorated_function_starts_at_its_first_decorator(self, tree):
        lines = PACKAGE.splitlines()
        path, first, length, _ = _rows_by_name()["decorated"]
        assert path == "src/repro/__init__.py"
        assert lines[first - 1] == "@marked" and lines[first] == "@marked"
        assert lines[first + 1].startswith("def decorated")
        assert lines[first - 1 + length - 1].strip() == "return inner()"

    def test_the_ast_line_is_the_line_the_interpreter_reports(self, tree):
        namespace: dict = {}
        exec(compile(PACKAGE, "pkg", "exec"), namespace)
        rows = _rows_by_name()
        assert rows["decorated"][1] == namespace["decorated"].__code__.co_firstlineno
        assert rows["Thing.method"][1] == namespace["Thing"].method.__code__.co_firstlineno


class TestHook:
    def _run(self, tree, code: str) -> Counter:
        """Run ``code`` in a child under the hook; the merged counts by name."""
        hits, failures = fu.collect([("child", _python(code), 0)])
        assert failures == []
        by_line = {row[1]: row[3] for row in fu.functions()}
        return Counter({by_line[line]: n for (_, line), n in hits.items() if line in by_line})

    def test_calls_are_counted_per_function(self, tree):
        counts = self._run(tree, """
            import repro
            repro.used(); repro.used(); repro.decorated(); repro.Thing().method()
        """)
        assert counts["used"] == 2 and counts["helper"] == 2
        assert counts["decorated"] == 1 and counts["decorated.inner"] == 1
        assert counts["Thing.method"] == 1
        assert counts["unused"] == 0 and counts["tested"] == 0

    def test_a_forked_child_that_leaves_through_os_exit_still_dumps(self, tree):
        counts = self._run(tree, """
            import os, repro
            repro.used()
            pid = os.fork()
            if pid == 0:
                repro.tested()
                os._exit(0)
            os.waitpid(pid, 0)
        """)
        # The parent's call before the fork is not counted twice: the child
        # starts from an empty count.
        assert counts["used"] == 1 and counts["tested"] == 1

    def test_calls_on_other_threads_are_counted(self, tree):
        counts = self._run(tree, """
            import threading, repro
            worker = threading.Thread(target=repro.unused)
            worker.start(); worker.join()
        """)
        assert counts["unused"] == 1

    def test_code_outside_src_is_not_dumped(self, tree):
        hits, _ = fu.collect([("child", _python("import json, repro; json.dumps([repro.used()])"), 0)])
        assert hits and all(path == "src/repro/__init__.py" for path, _ in hits)


class TestCollect:
    def test_an_expected_nonzero_exit_is_not_a_failure(self, tree):
        _, failures = fu.collect([("refuses", _python("raise SystemExit(2)"), 2)])
        assert failures == []

    def test_an_unexpected_exit_is_reported_and_its_counts_still_merged(self, tree):
        hits, failures = fu.collect([
            ("crashes", _python("import repro; repro.used(); raise SystemExit(1)"), 0),
            ("fine", _python("import repro; repro.used()"), 0),
        ])
        assert failures == ["crashes"]
        used = _rows_by_name()["used"]
        assert hits[used[:2]] == 2


class TestReport:
    @staticmethod
    def _collected(monkeypatch) -> None:
        rows = _rows_by_name()
        hits = Counter({rows[name][:2]: n for name, n in
                        (("used", 3), ("helper", 3), ("Thing.method", 1))})
        monkeypatch.setattr(fu, "collect", lambda runs: (hits, []))

    def test_prints_every_function_and_the_zero_hit_total(self, tree, monkeypatch, capsys):
        self._collected(monkeypatch)
        assert fu.main([]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "hits\tlines\tlocation\tfunction"
        assert any(line.startswith("3\t") and line.endswith("\tused") for line in out)
        rows = [line for line in out[1:] if not line.startswith("#")]
        assert len(rows) == 9
        zero_lines = sum(row[2] for row in fu.functions()
                         if row[3] not in ("used", "helper", "Thing.method"))
        assert f"# 6 of 9 functions ({zero_lines} lines) have zero hits" in out

    def test_unreached_keeps_only_the_zero_hit_rows(self, tree, monkeypatch, capsys):
        self._collected(monkeypatch)
        assert fu.main(["--unreached"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()[1:] if not line.startswith("#")]
        assert rows and all(row.startswith("0\t") for row in rows)
        assert not any(row.endswith("\tused") for row in rows)

    def test_a_failed_entry_point_makes_the_exit_code_1(self, tree, monkeypatch, capsys):
        monkeypatch.setattr(fu, "collect", lambda runs: (Counter(), ["scenario x"]))
        assert fu.main([]) == 1
        assert "# entry point failed: scenario x" in capsys.readouterr().err


class TestEntryPoints:
    @staticmethod
    def _repro_commands() -> set[str]:
        return {argv[3] for _, argv, _ in fu.entry_points() if argv[1:3] == ["-m", "repro"]}

    def test_every_cli_subcommand_is_run(self):
        actions = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(actions[0].choices) <= self._repro_commands()

    def test_every_cli_scenario_is_run(self):
        assert set(fu.SCENARIOS) == set(_SCENARIOS)

    def test_the_fault_scenarios_mirror_the_chaos_matrix(self):
        text = (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
        block = text.split("chaos-matrix:", 1)[1].split("fault-seed:", 1)[0]
        matrix = {line.strip()[2:] for line in block.splitlines() if line.strip().startswith("- ")}
        assert set(fu.FAULT_SCENARIOS) == matrix

    def test_labels_are_unique(self):
        labels = [label for label, _, _ in fu.entry_points()]
        assert len(labels) == len(set(labels))

    def test_every_bench_runs_with_pytest_benchmark_disabled(self):
        benches = [argv for label, argv, _ in fu.entry_points() if label.startswith("bench ")]
        assert len(benches) == len(list((REPO / "benchmarks").glob("bench_*.py")))
        assert all("--benchmark-disable" in argv for argv in benches)
