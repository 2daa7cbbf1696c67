"""Tests for the documentation surface.

The docs are part of the contract: the link check that CI runs must pass from
the tier-1 suite too, every scenario the README advertises must exist in the
CLI *and* be exercised by the CI scenario matrix, and the modules that carry
doctests must keep them runnable.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def readme_scenarios() -> set[str]:
    """Scenario names from the README's scenario table (rows like ``| `name` |``)."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("## Scenarios", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\|\s*`([a-z-]+)`\s*\|", section, flags=re.MULTILINE))


def readme_cli_commands() -> set[str]:
    """Command names from the README's CLI reference table (rows like ``| `cmd` |``)."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("## CLI reference", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\|\s*`([a-z-]+)`\s*\|", section, flags=re.MULTILINE))


def ci_matrix_scenarios() -> set[str]:
    """Scenario entries of the CI scenario-matrix job."""
    text = (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    block = text.split("scenario:", 1)[1]
    names = []
    for line in block.splitlines()[1:]:
        match = re.match(r"\s+-\s+([a-z-]+)\s*$", line)
        if match is None:
            break
        names.append(match.group(1))
    return set(names)


class TestMarkdownLinks:
    def test_readme_and_docs_links_resolve(self):
        result = subprocess.run(
            [sys.executable, "scripts/check_markdown_links.py", "README.md", "docs"],
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr or result.stdout

    def test_required_documents_exist(self):
        for name in ("README.md", "docs/paper-map.md", "docs/consensus.md",
                     "docs/architecture.md", "docs/performance.md"):
            assert (REPO / name).is_file(), f"{name} is missing"


class TestScenarioCoverage:
    def test_readme_table_names_every_cli_scenario(self):
        from repro.cli import build_parser

        parser = build_parser()
        run_parser = parser._subparsers._group_actions[0].choices["run"]
        (choices,) = [
            action.choices for action in run_parser._actions
            if getattr(action, "dest", "") == "scenario"
        ]
        cli = set(choices) - {"none"}
        documented = readme_scenarios()
        assert documented == cli, (
            f"README scenario table ({sorted(documented)}) out of sync with the CLI "
            f"({sorted(cli)})"
        )
        assert len(documented) >= 9

    def test_ci_matrix_exercises_every_readme_scenario(self):
        documented = readme_scenarios()
        matrix = ci_matrix_scenarios()
        missing = documented - matrix
        assert not missing, f"scenarios documented but not in the CI matrix: {sorted(missing)}"


class TestCliReference:
    def test_readme_cli_table_names_every_command(self):
        from repro.cli import build_parser

        parser = build_parser()
        cli = set(parser._subparsers._group_actions[0].choices)
        documented = readme_cli_commands()
        assert documented == cli, (
            f"README CLI reference ({sorted(documented)}) out of sync with the "
            f"parser ({sorted(cli)})"
        )
        # The contribution-proof pair must stay a documented part of the surface.
        assert {"prove", "verify-proof"} <= documented


class TestDoctests:
    def test_consensus_module_doctests_pass(self):
        import doctest

        import repro.blockchain.consensus as consensus

        results = doctest.testmod(consensus)
        assert results.attempted > 0, "consensus.py lost its runnable doctest"
        assert results.failed == 0


class TestAsyncSwarmDocs:
    """The async-swarm surface must stay documented and exercised by CI."""

    def test_cli_exposes_the_async_transport(self):
        from repro.cli import build_parser

        parser = build_parser()
        swarm_parser = parser._subparsers._group_actions[0].choices["swarm"]
        dests = {getattr(action, "dest", "") for action in swarm_parser._actions}
        assert {"peers", "swarm_restart", "fault_plan"} <= dests

    def test_readme_documents_the_async_swarm_flags(self):
        text = (REPO / "README.md").read_text(encoding="utf-8")
        for needle in ("repro swarm", "--peers", "--swarm-restart", "swarm-smoke"):
            assert needle in text, f"README no longer documents {needle!r}"

    def test_architecture_doc_covers_the_async_swarm(self):
        text = (REPO / "docs" / "architecture.md").read_text(encoding="utf-8")
        assert "SocketTransport" in text
        assert "SwarmSupervisor" in text
        for topic in ("back-pressure", "timeout-as-abstain", "LinkFaultDecider"):
            assert topic.lower() in text.lower(), (
                f"architecture.md async-swarm section lost its {topic!r} coverage"
            )

    @staticmethod
    def _src_files_matching(pattern):
        return [
            str(path.relative_to(REPO))
            for path in sorted((REPO / "src" / "repro").rglob("*.py"))
            if re.search(pattern, path.read_text(encoding="utf-8"), flags=re.MULTILINE)
        ]

    def test_src_has_one_io_model(self):
        # The swarm's wire is blocking sockets end to end; an event loop
        # beside it would be a second I/O model to keep in step with the first.
        importers = self._src_files_matching(r"^\s*(import|from)\s+asyncio\b")
        assert importers == [], f"asyncio imported under src/repro/: {importers}"

    def test_committee_scoring_has_no_pooled_path(self):
        # Pooled ``score_models`` measured slower than serial at every size; a
        # block is one ``score_batch`` call and no option selects another way.
        mentions = self._src_files_matching(r"sv_workers|sv-workers|score_models")
        assert mentions == [], f"pooled committee scoring is back under src/repro/: {mentions}"

    def test_sampled_estimator_builds_no_prefix_models(self):
        # Prefixes are scored from running sums of member logits; the
        # ascending-player slice fold that built each prefix's averaged model
        # (``prefix_rows``, ``entry[order]``, the ``boundary`` walk) is gone.
        mentions = self._src_files_matching(
            r"prefix_rows|entry\[order\]|boundary = int\(entry|slice fold"
        )
        assert mentions == [], f"the prefix slice fold is back under src/repro/: {mentions}"

    def test_harness_derives_secrets_in_lanes(self):
        # A round's pair secrets and masks come in blocks of whole devices; a
        # masker, a scalar ``shared_secret`` or a ``net_mask`` per device would
        # be the per-device rebuild back.
        text = (REPO / "src" / "repro" / "core" / "crossdevice.py").read_text(encoding="utf-8")
        assert "PairwiseMasker" not in text
        assert re.search(r"\bshared_secret\b", text) is None
        assert re.search(r"\bnet_mask\(", text) is None

    def test_canonical_bytes_have_one_encoder(self):
        # ``canonical_dumps`` writes the text in one pass; the two-pass encoder
        # it replaced lives on only as the oracle in the tests.
        mentions = self._src_files_matching(r"_encode_value")
        assert mentions == [], f"a second canonical encoder is back under src/repro/: {mentions}"
        text = (REPO / "src" / "repro" / "utils" / "serialization.py").read_text(encoding="utf-8")
        assert "json.dumps" not in text

    def test_gossip_has_one_size_path(self):
        # A message is sized by its canonical wire record or refused; a
        # swallowed error falling back to ``repr`` is how a byte count stopped
        # being one.
        text = (REPO / "src" / "repro" / "blockchain" / "network.py").read_text(encoding="utf-8")
        assert "repr(" not in text
        assert "except Exception" not in text

    def test_ci_runs_the_swarm_smoke_job(self):
        text = (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
        assert "swarm-smoke:" in text, "CI lost the swarm-smoke job"
        assert "repro swarm --peers 16" in text
        assert "--swarm-restart" in text, "CI swarm-smoke lost the resync drill"

    def test_ci_installs_the_test_timeout_and_property_deps(self):
        requirements = (REPO / "requirements-ci.txt").read_text(encoding="utf-8")
        assert "pytest-timeout" in requirements
        assert "hypothesis" in requirements
