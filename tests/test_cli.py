"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import __version__
from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"

# ``python -m repro`` whose prints after the first wait until stdout's pipe has
# no reader: ``poll`` reports POLLERR on a pipe's write end once every read end
# is closed.
_PRINT_AFTER_THE_READER_LEFT = """
import select, sys
import repro.cli as cli

printed = []

def print_after_the_reader_left(*args, **kwargs):
    if printed:
        poller = select.poll()
        poller.register(sys.stdout.fileno(), select.POLLERR)
        poller.poll(60_000)
    printed.append(True)
    print(*args, **kwargs)

cli.print = print_after_the_reader_left
sys.exit(cli.main(sys.argv[1:]))
"""


class TestParser:
    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["does-not-exist"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.owners == 5
        assert args.groups == 3
        assert args.rounds == 3

    def test_run_custom_arguments(self):
        args = build_parser().parse_args(
            ["run", "--owners", "4", "--groups", "2", "--rounds", "1", "--sigma", "0.3"]
        )
        assert (args.owners, args.groups, args.rounds, args.sigma) == (4, 2, 1, 0.3)


class TestCommands:
    def test_info_command(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert __version__ in output
        assert "n_groups" in output

    def test_run_command_end_to_end(self, capsys):
        exit_code = main([
            "run", "--owners", "3", "--groups", "2", "--rounds", "1",
            "--samples", "240", "--local-epochs", "2", "--sigma", "0.1", "--seed", "3",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "accumulated contributions" in output
        assert "transparency audit (replay): PASSED" in output

    def test_run_command_churn_scenario(self, capsys):
        exit_code = main([
            "run", "--owners", "4", "--groups", "2", "--rounds", "2",
            "--samples", "320", "--local-epochs", "2", "--sigma", "0.1", "--seed", "3",
            "--scenario", "churn",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "scenario: churn" in output
        assert "cohort epochs (per-epoch settlement)" in output
        assert "transparency audit (replay): PASSED" in output

    def test_run_command_leader_dropout_scenario(self, capsys):
        exit_code = main([
            "run", "--owners", "4", "--groups", "2", "--rounds", "2",
            "--samples", "320", "--local-epochs", "2", "--sigma", "0.1", "--seed", "3",
            "--scenario", "leader-dropout",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "scenario: leader-dropout" in output
        assert "consensus authority (epoch schedule)" in output
        assert "view 0 owner-1: silent" in output
        assert "proposers verified: [0, 1]" in output
        assert "transparency audit (replay): PASSED" in output

    def test_run_membership_scenarios_need_two_rounds(self, capsys):
        exit_code = main([
            "run", "--owners", "4", "--groups", "2", "--rounds", "1",
            "--samples", "240", "--local-epochs", "1", "--scenario", "join",
        ])
        assert exit_code == 2
        assert "at least 2 rounds" in capsys.readouterr().out

    def test_run_leave_scenario_keeps_grouping_feasible(self, capsys):
        exit_code = main([
            "run", "--owners", "3", "--groups", "3", "--rounds", "2",
            "--samples", "240", "--local-epochs", "1", "--scenario", "leave",
        ])
        assert exit_code == 2
        assert "fewer than" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["--owners", "4", "--groups", "5"], "n_groups must be in [1, n_owners]"),
        (["--shard-size", "1"], "shard_size must be at least 2"),
    ], ids=["groups-over-owners", "singleton-shards"])
    def test_run_input_errors_are_one_line_and_exit_2(self, argv, message, capsys):
        exit_code = main(["run", *argv])
        output = capsys.readouterr().out
        assert exit_code == 2
        assert output.startswith(f"error: {message}") and output.count("\n") == 1

    def test_run_command_can_skip_audit(self, capsys):
        exit_code = main([
            "run", "--owners", "3", "--groups", "2", "--rounds", "1",
            "--samples", "240", "--local-epochs", "2", "--skip-audit",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "transparency audit" not in output

    def test_run_merkle_chain_with_incremental_audit(self, capsys):
        exit_code = main([
            "run", "--owners", "3", "--groups", "2", "--rounds", "1",
            "--samples", "240", "--local-epochs", "2", "--sigma", "0.1", "--seed", "3",
            "--audit-mode", "incremental",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "transparency audit (incremental): PASSED" in output
        assert "state roots verified" in output

    def test_a_closed_stdout_is_not_a_traceback(self):
        # ``repro run … | head -1``: the reader takes one line and leaves while
        # the run still has lines to print.  The child holds every print after
        # the first until the pipe has no reader left (POLLERR on its write
        # end), so the rest always meets a closed pipe: without the hold, a
        # child that wrote its whole output before the reader left exited 0.
        process = subprocess.Popen(
            [sys.executable, "-c", _PRINT_AFTER_THE_READER_LEFT, "run", "--owners", "4",
             "--groups", "2", "--rounds", "2", "--samples", "400", "--local-epochs", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": "1"},
        )
        first_line = process.stdout.readline()
        process.stdout.close()
        stderr = process.stderr.read()
        process.stderr.close()
        assert first_line.startswith(b"protocol finished")
        assert process.wait() == 1
        assert stderr == b""

    def test_prove_then_verify_roundtrip(self, capsys, tmp_path):
        import json

        proof_file = str(tmp_path / "proof.json")
        exit_code = main([
            "prove", "--owners", "3", "--groups", "2", "--rounds", "1",
            "--samples", "240", "--local-epochs", "2", "--seed", "3",
            "--namespace", "reward", "--key", "distribution/final",
            "--out", proof_file,
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "proved reward/distribution/final" in output
        with open(proof_file) as handle:
            payload = json.load(handle)
        root = payload["header"]["state_root"]

        assert main(["verify-proof", "--proof", proof_file, "--root", root]) == 0
        assert "VERIFIED" in capsys.readouterr().out

        # Against a different (untrusted) root, verification must fail.
        assert main(["verify-proof", "--proof", proof_file, "--root", "00" * 32]) == 1
        assert "FAILED" in capsys.readouterr().out

        # A tampered value no longer matches the committed leaf.
        payload["value_canonical"] = payload["value_canonical"].replace(
            '"reward_pool":', '"reward_pool_x":'
        )
        tampered_file = str(tmp_path / "tampered.json")
        with open(tampered_file, "w") as handle:
            json.dump(payload, handle)
        assert main(["verify-proof", "--proof", tampered_file, "--root", root]) == 1

    def test_prove_unknown_key_lists_namespace(self, capsys, tmp_path):
        exit_code = main([
            "prove", "--owners", "3", "--groups", "2", "--rounds", "1",
            "--samples", "240", "--local-epochs", "2", "--seed", "3",
            "--namespace", "reward", "--key", "nothing-here",
            "--out", str(tmp_path / "proof.json"),
        ])
        output = capsys.readouterr().out
        assert exit_code == 2
        assert "no state entry reward/nothing-here" in output
        assert "distribution/final" in output

    def test_prune_then_audit_from_the_store(self, capsys, tmp_path):
        store = f"sqlite:{tmp_path / 'run.db'}"
        assert main([
            "run", "--owners", "3", "--groups", "2", "--rounds", "2", "--samples", "240",
            "--local-epochs", "1", "--store", store, "--skip-audit",
        ]) == 0
        capsys.readouterr()
        assert main(["prune", "--store", store, "--keep", "1"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("pruned 4 reverse delta(s) (0..3)")
        assert "chain head 4; retained deltas 4..4" in output
        assert main(["audit", "--store", store, "--samples", "240",
                     "--audit-mode", "incremental"]) == 0
        assert "transparency audit (incremental): PASSED" in capsys.readouterr().out
        # A second prune at the same horizon finds nothing left to drop.
        assert main(["prune", "--store", store, "--keep", "1"]) == 0
        assert capsys.readouterr().out.startswith("nothing to prune")

    def test_sweep_groups_command(self, capsys):
        exit_code = main([
            "sweep-groups", "--owners", "4", "--samples", "320", "--local-epochs", "3",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "min anonymity" in output
        # One row per m in 2..4 plus the header lines.
        assert len(output.strip().splitlines()) >= 5

    def test_ground_truth_command(self, capsys):
        exit_code = main([
            "ground-truth", "--owners", "3", "--samples", "300", "--epochs", "5",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "native SV" in output
        assert "owner-0" in output


class TestResourceRelease:
    """The protocol (and with it the SQLite handle) is closed on every exit path."""

    ARGS = ["--owners", "3", "--groups", "2", "--rounds", "1", "--samples", "240",
            "--local-epochs", "1"]

    @pytest.fixture
    def closed(self, monkeypatch):
        from repro.core.protocol import BlockchainFLProtocol

        calls = []
        monkeypatch.setattr(BlockchainFLProtocol, "close", lambda self: calls.append(self))
        return calls

    def test_run_closes_the_protocol_when_the_round_aborts(self, closed, monkeypatch):
        from repro.core.pipeline import RoundScheduler
        from repro.exceptions import RoundError

        def timed_out(self, round_number, global_parameters):
            raise RoundError("straggler timeout")

        monkeypatch.setattr(RoundScheduler, "run_round", timed_out)
        with pytest.raises(RoundError):
            main(["run", *self.ARGS])
        assert len(closed) == 1

    def test_prove_closes_the_protocol(self, closed, tmp_path, capsys):
        assert main(["prove", *self.ARGS, "--out", str(tmp_path / "proof.json")]) == 0
        assert len(closed) == 1


class TestFaultCli:
    def test_transport_and_fault_flags_parse(self):
        args = build_parser().parse_args([
            "run", "--fault-seed", "5",
            "--fault-plan", '{"drop_probability": 0.1}',
            "--delivery-report-out", "report.json",
        ])
        assert args.fault_seed == 5
        assert args.fault_plan == '{"drop_probability": 0.1}'
        assert args.delivery_report_out == "report.json"

    def test_transport_defaults_to_deterministic(self):
        # Nothing on a default `run` implies the faulty transport.
        args = build_parser().parse_args(["run"])
        assert args.scenario == "none"
        assert args.fault_plan is None
        assert args.delivery_report_out is None

    @pytest.mark.parametrize("argv", [
        ["run", "--peers", "4"],  # the swarm is `repro swarm`
        ["run", "--transport", "faulty"],  # implied by --fault-plan / fault scenarios
        ["run", "--scenario", "cross-device-linear"],  # `repro cross-device`
        ["cross-device", "--groups", "2"],  # the harness has no GroupSV group count
        ["swarm", "--owners", "4"],
        # Committee scoring runs one way; the pooled path and its knob are gone.
        ["run", "--sv-estimator", "sampled", "--sv-workers", "2"],
        ["audit", "--store", "sqlite:absent.db", "--sv-workers", "2"],
        ["cross-device", "--sv-workers", "2"],
    ], ids=lambda argv: " ".join(argv))
    def test_options_a_command_does_not_read_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_fault_scenarios_are_selectable(self):
        for name in ("partition-heal", "eclipse", "lossy-gossip", "duplicate-storm"):
            assert build_parser().parse_args(["run", "--scenario", name]).scenario == name

    def test_run_command_partition_heal_scenario(self, capsys, tmp_path):
        report_path = tmp_path / "delivery.json"
        exit_code = main([
            "run", "--scenario", "partition-heal", "--owners", "4", "--groups", "2",
            "--rounds", "2", "--samples", "320", "--local-epochs", "2",
            "--fault-seed", "1", "--delivery-report-out", str(report_path),
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "transport delivery (faulty):" in output
        assert "round | attempt | attempted | delivered" in output  # per-round delivery table
        assert "aborted" in output  # the partitioned attempt shows up
        assert "transparency audit (replay): PASSED" in output

        report = json.loads(report_path.read_text())
        assert report["transport"] == "faulty"
        assert report["scenario"] == "partition-heal"
        assert report["report"]["totals"]["partitioned"] > 0
        committed = [row["committed"] for row in report["rounds"]]
        assert committed.count(False) == 1  # exactly one aborted attempt
        assert "delivery report written to" in output

    def test_run_command_generic_faulty_transport(self, capsys):
        exit_code = main([
            "run", "--owners", "3", "--groups", "2", "--rounds", "1",
            "--samples", "240", "--local-epochs", "2", "--seed", "3",
            "--fault-plan", '{"seed": 5, "drop_probability": 0.1}',
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "transport delivery (faulty):" in output
        assert "transparency audit (replay): PASSED" in output

    @pytest.mark.parametrize("command", ["run", "swarm"])
    @pytest.mark.parametrize("plan, message", [
        ('{"drop_probability": 2}', "bad --fault-plan: FaultPlan.drop_probability must be in [0, 1]"),
        ('{"drop_probabilty": 0.9}', "bad --fault-plan: FaultPlan has unknown field(s) ['drop_probabilty']"),
        ('{"links": {"a->b": {"drop": 1}}}', "bad --fault-plan: LinkFault has unknown field(s) ['drop']"),
        ('{"partitions": [{"cells": [["a"]]}]}', "bad --fault-plan: PartitionSpec is missing field(s) ['name']"),
        ('[1, 2]', "bad --fault-plan: FaultPlan must be a mapping, got list"),
        ("no-such-plan.json", "--fault-plan: cannot read JSON from 'no-such-plan.json'"),
    ], ids=["out-of-range", "misspelt-key", "misspelt-link-key", "missing-key", "not-a-mapping",
            "missing-file"])
    def test_a_bad_fault_plan_is_one_line_and_nothing_runs(self, command, plan, message, capsys):
        exit_code = main([command, "--fault-plan", plan])
        output = capsys.readouterr().out
        assert exit_code == 2
        assert output.startswith(f"error: {message}") and output.count("\n") == 1

    def test_verify_proof_of_a_missing_file_is_one_line(self, capsys, tmp_path):
        exit_code = main(["verify-proof", "--proof", str(tmp_path / "absent.json")])
        output = capsys.readouterr().out
        assert exit_code == 2
        assert output.startswith("error: --proof: cannot read JSON from") and output.count("\n") == 1

    def test_deterministic_run_prints_clean_delivery_summary(self, capsys):
        exit_code = main([
            "run", "--owners", "3", "--groups", "2", "--rounds", "1",
            "--samples", "240", "--local-epochs", "2", "--sigma", "0.1", "--seed", "3",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "transport delivery (deterministic):" in output


def _paths(node, prefix=()):
    """Every position in a JSON document below the root, at any depth."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for step, child in children:
        yield prefix + (step,)
        yield from _paths(child, prefix + (step,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


class TestProofDocumentBoundary:
    """``verify-proof`` reads a file someone else wrote: any shape is a verdict
    or one ``error:`` line, and only the committed entry ever verifies."""

    @pytest.fixture(scope="class")
    def proved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("proof") / "proof.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([
                "prove", "--owners", "3", "--groups", "2", "--rounds", "1", "--samples", "240",
                "--local-epochs", "2", "--seed", "3", "--out", str(path),
            ]) == 0
        return path, json.loads(path.read_text())

    @staticmethod
    def _verify(proved, document, *root):
        """Exit code and stdout of ``verify-proof`` on ``document`` (an object, or raw text)."""
        scratch = proved[0].with_name("mutated.json")
        scratch.write_text(document if isinstance(document, str) else json.dumps(document))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["verify-proof", "--proof", str(scratch), *root])
        return code, stdout.getvalue()

    def test_the_untouched_document_verifies(self, proved):
        assert self._verify(proved, proved[1])[0] == 0
        assert self._verify(proved, proved[1], "--root", proved[1]["header"]["state_root"])[0] == 0

    @pytest.mark.parametrize("mutate", [
        lambda document: [document],
        lambda document: {k: v for k, v in document.items() if k != "value_canonical"},
        lambda document: {**document, "value_canonical": document["value_canonical"][:-1]},
        lambda document: {**document, "proof": {**document["proof"], "leaf_index": float("inf")}},
        lambda document: {**document, "header": [document["header"]]},
    ], ids=["a-list", "no-value", "value-not-canonical-json", "infinite-index", "header-not-a-mapping"])
    def test_a_malformed_document_is_one_error_line(self, proved, mutate):
        exit_code, output = self._verify(proved, mutate(proved[1]))
        assert exit_code == 2
        assert output.startswith("error: ") and "malformed" in output and output.count("\n") == 1

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_property_a_mutated_document_never_raises_and_never_verifies_another_entry(
        self, proved, data
    ):
        original = proved[1]
        document = copy.deepcopy(original)
        *parents, last = data.draw(st.sampled_from(list(_paths(original))))
        holder = document
        for step in parents:
            holder = holder[step]
        kind = data.draw(st.sampled_from(["drop", "retype", "truncate", "cut-file"]))
        if kind == "drop":
            del holder[last]
        elif kind == "retype":
            holder[last] = data.draw(_JSON_VALUES)
        elif kind == "truncate":
            value = holder[last]
            if isinstance(value, (str, list)):
                holder[last] = value[: data.draw(st.integers(0, len(value)))]
            elif isinstance(value, dict):
                holder[last] = dict(list(value.items())[: data.draw(st.integers(0, len(value)))])
            else:
                holder[last] = value // 10 if isinstance(value, int) else value / 2
        else:
            text = json.dumps(document)
            document = text[: data.draw(st.integers(0, len(text) - 1))]

        code, output = self._verify(proved, document, "--root", original["header"]["state_root"])
        assert code in (0, 1, 2)
        if code == 2:
            assert output.startswith("error: ") and output.count("\n") == 1
        if code == 0:  # VERIFIED is a claim about one (namespace, key, value)
            assert [document["proof"][name] for name in ("namespace", "key")] == [
                original["proof"][name] for name in ("namespace", "key")
            ]
            assert json.loads(document["value_canonical"]) == json.loads(original["value_canonical"])
