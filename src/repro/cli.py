"""Command-line interface for the reproduction.

Provides runnable entry points for the common workflows so the system can be
exercised without writing Python:

* ``python -m repro run`` — run the full blockchain FL + GroupSV protocol
  through the staged round pipeline (optionally under a ``--scenario``:
  dropout, straggler, adversarial group claim, late join, adversary window,
  on-chain join/leave/churn, or a leader dropout forcing consensus view
  changes) and print contributions, rewards, and the audit verdict;
* ``python -m repro swarm`` — a miner swarm of OS processes gossiping
  over Unix sockets, verified against the single-process deterministic
  reference;
* ``python -m repro cross-device`` — the chain-less cross-device simulation
  (sharded masking + sampled GroupSV at 10^3–10^4 devices);
* ``python -m repro sweep-groups`` — the privacy/resolution/cost sweep over m;
* ``python -m repro ground-truth`` — native SV over retrained data coalitions
  (the Fig. 1 computation) for one σ; ``--workers N`` retrains coalitions on
  a process pool;
* ``python -m repro prove`` — run the deterministic protocol and write a
  self-contained Merkle inclusion-proof file for one published state entry (a
  contribution record, a settlement);
* ``python -m repro verify-proof`` — check such a proof file against a block
  header's state root, with nothing but the header;
* ``python -m repro resume`` — reopen a persisted run (``--store sqlite:PATH``,
  e.g. one stopped with ``run --stop-after``) and continue it to completion;
* ``python -m repro audit`` — re-run the transparency audit over a persisted
  chain, with nothing but the store and the public validation set;
* ``python -m repro prune`` — drop a persisted store's reverse deltas below a
  retention horizon (the chain itself is never pruned);
* ``python -m repro info`` — version and configuration defaults.

All commands are deterministic given ``--seed`` and print plain text (tables
and bar charts) so output can be diffed across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro import __version__
from repro.analysis.reporting import render_bar_chart, render_table
from repro.analysis.tradeoff import sweep_group_counts
from repro.core.audit import audit_chain
from repro.core.config import ProtocolConfig
from repro.core.crossdevice import DISTRIBUTIONS, CrossDeviceConfig, simulate_cross_device
from repro.core.adversary import AdversaryBehavior
from repro.blockchain.transport import FaultPlan
from repro.core.pipeline import (
    AdversarialSubmissionScenario,
    AdversaryInjectionScenario,
    ChurnScenario,
    ComposedScenario,
    DropoutScenario,
    DuplicateStormScenario,
    EclipseScenario,
    FaultScenario,
    JoinScenario,
    LateJoinScenario,
    LeaderDropoutScenario,
    LeaveScenario,
    LossyGossipScenario,
    PartitionAndHealScenario,
    RoundScheduler,
    Scenario,
    StragglerScenario,
)
from repro.core.protocol import BlockchainFLProtocol, protocol_runtime_factory
from repro.datasets.loader import OwnerDataset, make_owner_datasets
from repro.exceptions import BlockchainError, ConfigurationError, ProtocolError, ShapleyError, StorageError, ValidationError
from repro.fl.client import DataOwner
from repro.fl.server import CentralizedTrainer
from repro.fl.trainer import FederatedTrainer, TrainingConfig
from repro.shapley.backend import RetrainUtility
from repro.shapley.native import native_shapley
from repro.shapley.utility import AccuracyUtility, CachedUtility, CoalitionModelUtility


def _add_protocol_arguments(
    parser: argparse.ArgumentParser,
    owners: int = 5,
    groups: int = 3,
    rounds: int = 3,
    samples: int = 1500,
    local_epochs: int = 5,
) -> None:
    """The nine arguments a protocol run is a function of (``run``/``resume``/``prove``)."""
    parser.add_argument("--owners", type=int, default=owners, help="number of (genesis) data owners")
    parser.add_argument("--groups", type=int, default=groups, help="GroupSV group count m")
    parser.add_argument("--rounds", type=int, default=rounds, help="federated rounds")
    parser.add_argument("--sigma", type=float, default=0.1, help="per-rank data-quality noise increment")
    parser.add_argument("--samples", type=int, default=samples, help="total dataset size")
    parser.add_argument("--local-epochs", type=int, default=local_epochs, help="local epochs per round")
    parser.add_argument("--learning-rate", type=float, default=2.0, help="local learning rate")
    parser.add_argument("--reward-pool", type=float, default=1000.0, help="tokens to distribute at the end")
    parser.add_argument(
        "--seed", type=int, default=7,
        help="master seed (for `resume`: the original run's)",
    )


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    """The fault-injecting transport's plan (``run``/``swarm``)."""
    parser.add_argument(
        "--fault-plan", type=str, default=None, metavar="JSON",
        help="FaultPlan as inline JSON or a path to a JSON file (seed, "
        "drop_probability, duplicate_probability, latency_ticks, "
        "timeout_ticks, partitions, links); runs over the faulty transport",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the fault-injecting transport's RNG (a --fault-plan "
        "carries its own)",
    )


def _protocol_config(args: argparse.Namespace, **overrides) -> ProtocolConfig:
    """The :class:`ProtocolConfig` those nine arguments pin, plus per-command extras."""
    return ProtocolConfig(
        n_owners=args.owners,
        n_groups=args.groups,
        n_rounds=args.rounds,
        local_epochs=args.local_epochs,
        learning_rate=args.learning_rate,
        reward_pool=args.reward_pool,
        permutation_seed=args.seed,
        **overrides,
    )


def _cohort(args: argparse.Namespace, with_joiner: bool = False):
    """The dataset and genesis owners those arguments generate, plus an optional joiner.

    Membership scenarios that add an owner generate one extra dataset shard:
    the genesis cohort stays at ``--owners`` and the extra owner joins mid-run.
    """
    dataset, all_owners = make_owner_datasets(
        n_owners=args.owners + int(with_joiner), sigma=args.sigma,
        n_samples=args.samples, seed=args.seed,
    )
    return dataset, all_owners[: args.owners], all_owners[args.owners] if with_joiner else None


@dataclass(frozen=True)
class _ScenarioRequest:
    """What the command line hands a scenario builder."""

    target: str  # the owner the scenario is aimed at
    n_rounds: int
    joiner: OwnerDataset | None  # the extra owner (``needs_joiner`` scenarios only)
    plan: FaultPlan

    @property
    def join_round(self) -> int:
        return max(1, min(2, self.n_rounds - 1))


@dataclass(frozen=True)
class _ScenarioSpec:
    """One ``--scenario``: how to build it, how to announce it, what it needs.

    ``min_rounds`` refuses runs too short for the scenario to happen:
    membership changes take effect at a later round boundary, the adversary
    window opens at round 1, the default leader-dropout target is only
    scheduled to propose from round 1 on, and the partition/eclipse windows
    target round 1 — a single-round run would silently degenerate to a plain
    run while reporting the scenario.
    """

    build: Callable[[_ScenarioRequest], Scenario]
    describe: str = "{name} targeting {target}"
    needs_joiner: bool = False
    min_rounds: int = 1


#: Every ``run --scenario`` name, declared once (README and CI mirror the keys).
_SCENARIOS: dict[str, _ScenarioSpec] = {
    "dropout": _ScenarioSpec(lambda r: DropoutScenario(r.target, round_number=0, offline_ticks=2)),
    "straggler": _ScenarioSpec(lambda r: StragglerScenario(r.target, delay_ticks=1)),
    "adversarial-claim": _ScenarioSpec(lambda r: AdversarialSubmissionScenario(r.target)),
    "late-join": _ScenarioSpec(lambda r: LateJoinScenario(r.target, join_round=1)),
    "adversary-window": _ScenarioSpec(
        lambda r: AdversaryInjectionScenario(
            {r.target: AdversaryBehavior(kind="noise", magnitude=3.0, seed=5)},
            start_round=max(1, r.n_rounds - 2), end_round=r.n_rounds - 1,
        ),
        min_rounds=2,
    ),
    "join": _ScenarioSpec(
        lambda r: JoinScenario(r.joiner, join_round=r.join_round),
        "join — {joiner} enters the cohort on chain",
        needs_joiner=True, min_rounds=2,
    ),
    "leave": _ScenarioSpec(
        lambda r: LeaveScenario(r.target, leave_round=r.n_rounds - 1),
        "leave — {target} exits the cohort on chain",
        min_rounds=2,
    ),
    "churn": _ScenarioSpec(
        lambda r: ChurnScenario(
            joins=[(r.joiner, r.join_round)], leaves=[(r.target, r.n_rounds - 1)]
        ),
        "churn — {joiner} joins, {target} leaves",
        needs_joiner=True, min_rounds=2,
    ),
    "leader-dropout": _ScenarioSpec(
        lambda r: LeaderDropoutScenario(r.target),
        "leader-dropout — {target} never proposes; "
        "view changes hand its slots to the next scheduled owner",
        min_rounds=2,
    ),
    "partition-heal": _ScenarioSpec(
        lambda r: PartitionAndHealScenario(round_number=1, heal_after_attempts=1, plan=r.plan),
        "partition-heal — the swarm splits in half for round 1's "
        "first attempt, heals, and the retry commits the identical block",
        min_rounds=2,
    ),
    "eclipse": _ScenarioSpec(
        lambda r: EclipseScenario(r.target, rounds=(max(1, r.n_rounds - 1),), plan=r.plan),
        "eclipse — {target} is cut off from all inbound traffic, "
        "falls behind, and resyncs from an honest peer after the heal",
        min_rounds=2,
    ),
    "lossy-gossip": _ScenarioSpec(
        lambda r: LossyGossipScenario(drop_probability=0.08, seed=r.plan.seed),
        "lossy-gossip — every link drops messages (seeded); "
        "retries, redelivery, and failover absorb the loss",
    ),
    "duplicate-storm": _ScenarioSpec(
        lambda r: DuplicateStormScenario(duplicate_probability=0.5, seed=r.plan.seed),
        "duplicate-storm — links duplicate messages (seeded); "
        "dedup keeps the chain byte-identical to a clean run",
    ),
}


def _build_scenario(
    kind: str,
    owner_id: str,
    n_rounds: int,
    joiner_dataset=None,
    fault_plan: FaultPlan | None = None,
    fault_seed: int = 0,
) -> Scenario | None:
    """Construct the pipeline scenario requested on the command line."""
    if kind == "none":
        return None
    plan = fault_plan or FaultPlan(seed=fault_seed)
    return _SCENARIOS[kind].build(_ScenarioRequest(owner_id, n_rounds, joiner_dataset, plan))


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Transparent contribution evaluation for secure federated learning on blockchain",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run the full on-chain protocol")
    _add_protocol_arguments(run)
    run.add_argument("--skip-audit", action="store_true", help="skip the transparency audit")
    run.add_argument(
        "--scenario",
        choices=("none", *_SCENARIOS),
        default="none",
        help="pipeline scenario to run (dropout recovery, straggler delay, "
        "rejected adversarial group claim, orchestration-level late join, "
        "round-windowed adversary injection, on-chain cohort join/leave/churn, "
        "a silent block proposer forcing consensus view changes, or a "
        "transport fault family: network partition with heal, eclipsed "
        "victim, seeded message loss, or duplicate storm)",
    )
    run.add_argument(
        "--scenario-owner", type=str, default=None,
        help="owner targeted by the scenario (default: the second owner)",
    )
    run.add_argument(
        "--shard-size", type=int, default=None, metavar="K",
        help="shard the aggregation cohort into committees of at most K "
        "members (pins aggregation_topology=sharded on the registry); masks "
        "are pairwise within a committee, so each client derives O(K) masks "
        "instead of O(group)",
    )
    run.add_argument(
        "--sv-estimator", choices=("exact", "sampled"), default="exact",
        help="GroupSV assembly: exact 2^m enumeration (the default) or the "
        "stratified+truncated permutation estimator with per-owner confidence "
        "intervals (the only feasible choice once groups outnumber the exact "
        "engine's cap)",
    )
    run.add_argument(
        "--sv-samples", type=int, default=128,
        help="permutations the sampled estimator draws (rounded up to whole "
        "stratification blocks)",
    )
    run.add_argument(
        "--store", type=str, default="memory", metavar="SPEC",
        help="persistence backend for the reference replica: 'memory' (the "
        "default) or 'sqlite:PATH'; strictly off-chain, so chains are "
        "byte-identical with or without it",
    )
    run.add_argument(
        "--stop-after", type=int, default=None, metavar="R",
        help="commit rounds 0..R-1 then shut down cleanly before settlement "
        "(requires a persistent --store); continue with `python -m repro "
        "resume` using the same parameters",
    )
    run.add_argument(
        "--audit-mode", choices=("replay", "incremental"), default="replay",
        help="transparency audit mode: full genesis re-execution, or the "
        "incremental header-commitment walk over retained state versions",
    )
    run.add_argument(
        "--authority-rotation", action="store_true",
        help="propose round blocks under the epoch-authority schedule (leaders "
        "drawn from the round's cohort, view-change failover, auditable view "
        "numbers); implied by --scenario leader-dropout/partition-heal/eclipse",
    )
    _add_fault_arguments(run)
    run.add_argument(
        "--delivery-report-out", type=str, default=None, metavar="PATH",
        help="write the run's delivery report (per-topic outcomes, per-round "
        "rows, per-node resyncs) to a JSON file",
    )

    swarm = subparsers.add_parser(
        "swarm",
        help="run the socket miner swarm against the deterministic reference",
    )
    swarm.add_argument(
        "--peers", type=int, default=8,
        help="swarm size: miner OS processes gossiping framed messages over Unix sockets",
    )
    swarm.add_argument("--rounds", type=int, default=3, help="consensus rounds")
    swarm.add_argument("--seed", type=int, default=7, help="master seed")
    swarm.add_argument(
        "--swarm-restart", type=int, default=0, metavar="N",
        help="resync drill: hard-kill N non-leader peers before round 1, "
        "restart them one round later from their SQLite stores, and require "
        "post-heal convergence",
    )
    _add_fault_arguments(swarm)

    xdev = subparsers.add_parser(
        "cross-device",
        help="simulate a chain-less cross-device round (sharded masking + sampled GroupSV)",
    )
    xdev.add_argument(
        "--distribution", choices=DISTRIBUTIONS, default="linear",
        help="device-quality distribution",
    )
    xdev.add_argument("--owners", type=int, default=5, help="number of devices")
    xdev.add_argument("--rounds", type=int, default=3, help="federated rounds")
    xdev.add_argument("--seed", type=int, default=7, help="master seed")
    xdev.add_argument(
        "--shard-size", type=int, default=32, metavar="K",
        help="committee size: masks are pairwise within a committee of at most K devices",
    )
    xdev.add_argument(
        "--sv-estimator", choices=("exact", "sampled"), default="sampled",
        help="GroupSV assembly over the committees",
    )
    xdev.add_argument(
        "--sv-samples", type=int, default=128,
        help="permutations the sampled estimator draws",
    )

    sweep = subparsers.add_parser("sweep-groups", help="privacy/resolution trade-off over the group count")
    sweep.add_argument("--owners", type=int, default=9)
    sweep.add_argument("--sigma", type=float, default=0.1)
    sweep.add_argument("--samples", type=int, default=1500)
    sweep.add_argument("--local-epochs", type=int, default=10)
    sweep.add_argument("--seed", type=int, default=7)

    truth = subparsers.add_parser("ground-truth", help="native SV over retrained data coalitions (Fig. 1)")
    truth.add_argument("--owners", type=int, default=6, help="number of owners (cost is 2^n trainings)")
    truth.add_argument("--sigma", type=float, default=0.1)
    truth.add_argument("--samples", type=int, default=1200)
    truth.add_argument("--epochs", type=int, default=30, help="epochs per coalition retraining")
    truth.add_argument("--seed", type=int, default=7)
    truth.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for coalition retraining (1 = serial reference path)",
    )

    prove = subparsers.add_parser(
        "prove",
        help="run the protocol and emit a Merkle inclusion proof for one state entry",
    )
    _add_protocol_arguments(prove, owners=4, groups=2, rounds=2, samples=400, local_epochs=2)
    prove.add_argument(
        "--namespace", type=str, default="contribution",
        help="state namespace of the entry to prove (e.g. contribution, reward)",
    )
    prove.add_argument(
        "--key", type=str, default="totals",
        help="state key of the entry to prove (e.g. totals, distribution/final)",
    )
    prove.add_argument(
        "--out", type=str, default="proof.json",
        help="file the self-contained proof payload is written to",
    )

    verify = subparsers.add_parser(
        "verify-proof",
        help="check a proof file against a block header's state root",
    )
    verify.add_argument("--proof", type=str, required=True, help="proof file written by `prove`")
    verify.add_argument(
        "--root", type=str, default=None,
        help="the trusted header's 64-hex state root; defaults to the root "
        "embedded in the proof file (pass the root you obtained from the "
        "chain yourself for an independent check)",
    )

    resume = subparsers.add_parser(
        "resume",
        help="reopen a persisted chain and continue the run to completion",
    )
    resume.add_argument(
        "--store", type=str, required=True, metavar="SPEC",
        help="the persistent store the interrupted run wrote (sqlite:PATH)",
    )
    _add_protocol_arguments(resume)
    resume.add_argument(
        "--scenario", choices=("none", "join", "leave", "churn"), default="none",
        help="the membership scenario the original run was started with — it "
        "regenerates any joiner's dataset and replays the not-yet-committed "
        "membership events",
    )
    resume.add_argument(
        "--scenario-owner", type=str, default=None,
        help="owner targeted by the scenario (default: the second owner)",
    )
    resume.add_argument(
        "--audit-mode", choices=("replay", "incremental"), default="replay",
        help="transparency audit mode for the completed run",
    )
    resume.add_argument("--skip-audit", action="store_true", help="skip the transparency audit")

    audit = subparsers.add_parser(
        "audit",
        help="re-run the transparency audit over a persisted chain",
    )
    audit.add_argument(
        "--store", type=str, required=True, metavar="SPEC",
        help="the persistent store holding the chain to audit (sqlite:PATH)",
    )
    audit.add_argument(
        "--samples", type=int, default=1500,
        help="total dataset size of the original run (the public validation "
        "set is re-derived from --samples and --seed alone)",
    )
    audit.add_argument("--seed", type=int, default=7, help="master seed of the original run")
    audit.add_argument(
        "--audit-mode", choices=("replay", "incremental"), default="replay",
        help="full genesis re-execution, or the incremental header-commitment "
        "walk over retained state versions",
    )

    prune = subparsers.add_parser(
        "prune",
        help="drop a persisted store's reverse deltas below a retention horizon",
    )
    prune.add_argument(
        "--store", type=str, required=True, metavar="SPEC",
        help="the persistent store to prune (sqlite:PATH)",
    )
    prune.add_argument(
        "--keep", type=int, default=3, metavar="K",
        help="number of most recent reverse deltas to retain (>= 1); blocks "
        "and the key-value state are never pruned, so an incremental audit "
        "below the horizon falls back to snapshot+replay",
    )

    subparsers.add_parser("info", help="print version and default configuration")
    return parser


def _print_finished(result) -> None:
    print(f"protocol finished: {len(result.rounds)} rounds, {result.chain_height} blocks, "
          f"{result.total_transactions} transactions")


def _print_round_table(result) -> None:
    rows = [
        [record.round_number, f"{record.global_utility:.4f}", len(record.groups),
         sum(len(group) for group in record.groups)]
        for record in result.rounds
    ]
    print(render_table(["round", "global utility", "groups", "cohort"], rows))


def _print_settlement_and_audit(
    args: argparse.Namespace, result, chain, dataset, proposers: bool = False
) -> int:
    """The tail of ``run`` and ``resume``: contributions, rewards, and — unless
    ``--skip-audit`` — the transparency audit's verdict; returns the exit code."""
    print("\naccumulated contributions (GroupSV):")
    ordered = dict(sorted(result.total_contributions.items(), key=lambda kv: kv[1], reverse=True))
    print(render_bar_chart(ordered))

    print("\ntoken rewards:")
    rows = [[owner, f"{result.reward_balances[owner]:.2f}"] for owner in ordered]
    print(render_table(["owner", "reward"], rows))

    if args.skip_audit:
        return 0
    report = audit_chain(
        chain, dataset.test_features, dataset.test_labels, dataset.n_classes,
        mode=args.audit_mode,
    )
    print()
    return _print_audit_verdict(report, args.audit_mode, proposers=proposers)


def _print_audit_verdict(report, mode: str, proposers: bool = False) -> int:
    """Print one audit's verdict line (and mismatches); returns the exit code."""
    checked = f"rounds checked: {report.rounds_checked}"
    if mode == "incremental":
        checked += f", state roots verified: {len(report.state_versions_checked)} blocks"
    if proposers:
        checked += f", proposers verified: {report.proposers_checked}"
    print(f"transparency audit ({mode}): {'PASSED' if report.passed else 'FAILED'} ({checked})")
    for mismatch in report.mismatches:
        print(f"  mismatch: {mismatch}")
    return 0 if report.passed else 1


def _load_fault_plan(spec: str) -> FaultPlan:
    """Parse ``--fault-plan``: inline JSON first, then a JSON file path."""
    try:
        payload = json.loads(spec)
    except json.JSONDecodeError:
        payload = _read_json(spec, "--fault-plan")
    try:
        return FaultPlan.from_dict(payload)
    except (BlockchainError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad --fault-plan: {exc}") from exc


def _read_json(path: str, option: str) -> Any:
    """The JSON document at ``path``; unreadable or not JSON is bad input to ``option``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"{option}: cannot read JSON from {path!r}: {exc}") from exc


def _open_persistent_store(spec: str, purpose: str):
    """Open ``--store`` for a command that only makes sense on a persisted chain."""
    from repro.blockchain.storage import SQLiteBackend, open_backend

    backend = open_backend(spec)
    if not isinstance(backend, SQLiteBackend):
        raise StorageError(f"only persistent stores can be {purpose} (use sqlite:PATH)")
    return backend


def _command_cross_device(args: argparse.Namespace) -> int:
    """Run the chain-less cross-device simulation harness."""
    config = CrossDeviceConfig(
        n_devices=args.owners,
        shard_size=args.shard_size,
        distribution=args.distribution,
        sv_estimator=args.sv_estimator,
        sv_samples=args.sv_samples,
        n_rounds=args.rounds,
        seed=args.seed,
    )
    result = simulate_cross_device(config)
    print(f"cross-device simulation ({config.distribution} quality): "
          f"{config.n_devices} devices, shard size {config.shard_size}, "
          f"{len(result.rounds[0].shards)} committees, {config.n_rounds} round(s)")
    print(f"per-device pairwise masks: {result.max_mask_count} max "
          f"(flat aggregation would need {config.n_devices - 1})")
    rows = []
    for record in result.rounds:
        rows.append([
            record.round_number,
            f"{record.global_utility:.4f}",
            len(record.shards),
            f"{record.seconds_masking:.2f}",
            f"{record.seconds_aggregation:.2f}",
            f"{record.seconds_shapley:.2f}",
        ])
    print(render_table(
        ["round", "global utility", "committees", "mask s", "agg s", "sv s"], rows
    ))
    if result.rounds[0].estimator is not None:
        meta = result.rounds[0].estimator
        print(f"sampled GroupSV: {meta['n_samples']} permutations, seed {meta['seed']}, "
              f"{meta['confidence']:.0%} confidence, {meta['evaluations']} coalition "
              "evaluations in round 0")
    ordered = sorted(result.total_contributions.items(), key=lambda kv: kv[1], reverse=True)
    print("\ntop devices by accumulated contribution:")
    for device, value in ordered[:10]:
        width = result.rounds[-1].user_half_widths.get(device, 0.0)
        bound = f" ± {width:.6f}" if width else ""
        print(f"  {device}: {value:.6f}{bound} (quality {result.quality[device]:.3f})")
    return 0


def _command_swarm(args: argparse.Namespace) -> int:
    """Run the socket miner swarm and verify parity with the deterministic reference."""
    from repro.blockchain.swarm import (
        SwarmConfig,
        run_reference_workload,
        run_swarm_workload,
    )

    fault_plan = _load_fault_plan(args.fault_plan) if args.fault_plan else None
    if fault_plan is None and args.fault_seed:
        fault_plan = FaultPlan(seed=args.fault_seed)
    config = SwarmConfig(
        peers=args.peers,
        rounds=args.rounds,
        seed=args.seed,
        fault_plan=fault_plan,
    )
    if not 0 <= args.swarm_restart <= config.peers // 3:
        raise ConfigurationError(f"--swarm-restart must be in [0, peers//3]; got {args.swarm_restart}")
    kill_schedule = None
    if args.swarm_restart:
        # Kill from the top of the id range: those peers are never scheduled
        # to lead within --rounds, so the committed blocks stay byte-identical
        # to the reference while the drill exercises restart + resync.
        victims = config.peer_ids()[-args.swarm_restart:]
        kill_schedule = {1: victims}
    reference = run_reference_workload(config)
    print(f"reference (deterministic, single process): height {reference['height']}, "
          f"head {reference['head']}")
    result = run_swarm_workload(config, kill_schedule=kill_schedule)
    print(f"swarm ({config.peers} peers over Unix sockets): height {result['height']}, "
          f"head {result['head']}")
    for entry in result["round_log"]:
        print(f"  round {entry['round']}: leader {entry['leader']}, "
              f"{entry['attempts']} attempt(s)")
    resyncs = {
        peer: report["resyncs"]
        for peer, report in sorted(result["reports"].items())
        if not isinstance(report, Exception) and report.get("resyncs")
    }
    if resyncs:
        print(f"  resyncs: {{{', '.join(f'{p}: {len(r)}' for p, r in resyncs.items())}}}")
    print(f"  audit: replay + version roots clean at height {result['audit']['height']}")
    if result["head"] != reference["head"]:
        print("FAIL: swarm head differs from the deterministic reference")
        return 1
    print("OK: swarm head is byte-identical to the deterministic reference")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    if args.stop_after is not None and args.store == "memory":
        raise ConfigurationError(
            "--stop-after needs a persistent --store (sqlite:PATH) to resume from"
        )
    if args.stop_after is not None and not 1 <= args.stop_after <= args.rounds:
        raise ConfigurationError(f"--stop-after must be in [1, --rounds]; got {args.stop_after}")
    spec = _SCENARIOS.get(args.scenario)
    if spec is not None and args.rounds < spec.min_rounds:
        raise ConfigurationError(
            f"--scenario {args.scenario} needs at least {spec.min_rounds} rounds"
        )
    # Churn is exempt: its joiner enters at or before the leave boundary, so
    # the cohort at the leave round is back to --owners, which ProtocolConfig
    # already guarantees is >= --groups.
    if args.scenario == "leave" and args.owners - 1 < args.groups:
        raise ConfigurationError(
            f"--scenario {args.scenario} would leave fewer than "
            f"--groups {args.groups} owners in the cohort"
        )
    dataset, owners, joiner_dataset = _cohort(args, spec is not None and spec.needs_joiner)
    owner_ids = sorted(o.owner_id for o in owners)
    target = args.scenario_owner or owner_ids[min(1, len(owner_ids) - 1)]
    if spec is not None and target not in owner_ids:
        raise ConfigurationError(
            f"--scenario-owner {target!r} is not one of the generated owners "
            f"({', '.join(owner_ids)})"
        )
    fault_plan = _load_fault_plan(args.fault_plan) if args.fault_plan else None
    scenario = _build_scenario(
        args.scenario, target, args.rounds, joiner_dataset,
        fault_plan=fault_plan, fault_seed=args.fault_seed,
    )
    if fault_plan is not None and not isinstance(scenario, FaultScenario):
        # A generic faulty run: install the plan's transport after setup and
        # assert post-heal convergence + audit at settlement, composing with
        # whatever base scenario was requested.
        faulty = FaultScenario(fault_plan, round_retries=2)
        scenario = faulty if scenario is None else ComposedScenario([scenario, faulty])
    config = _protocol_config(
        args,
        shard_size=args.shard_size,
        sv_estimator=args.sv_estimator,
        sv_samples=args.sv_samples,
        authority_rotation=args.authority_rotation
        or (scenario is not None and scenario.requires_authority_rotation),
    )
    protocol = BlockchainFLProtocol(
        owners, dataset.test_features, dataset.test_labels, dataset.n_classes, config,
        store=None if args.store == "memory" else args.store,
    )
    scheduler = RoundScheduler(protocol, scenario)
    try:
        result = scheduler.run(stop_after=args.stop_after)
    finally:
        protocol.close()
    if args.stop_after is not None:
        chain = protocol.participants[protocol.owner_ids[0]].node.chain
        print(f"stopped after round {args.stop_after - 1}: chain height {chain.height}, "
              f"head {chain.head.block_hash[:16]}… persisted to {args.store}")
        print("continue with: python -m repro resume --store "
              f"{args.store} (same parameters and seed)")
        return 0

    _print_finished(result)
    if scenario is not None:
        # A bare --fault-plan run (spec is None) announces itself the default way.
        describe = _ScenarioSpec.describe if spec is None else spec.describe
        print("scenario: " + describe.format(
            name=args.scenario, target=target,
            joiner=None if joiner_dataset is None else joiner_dataset.owner_id,
        ))
        for ctx in scheduler.contexts:
            if ctx.ticks_waited or ctx.rejections:
                rejected = "; ".join(r.reason for r in ctx.rejections) or "none"
                print(f"  round {ctx.round_number}: waited {ctx.ticks_waited} tick(s), "
                      f"rejections: {rejected}")
    if config.authority_rotation:
        print("\nconsensus authority (epoch schedule):")
        rows = []
        for ctx in scheduler.contexts:
            changed = "; ".join(
                f"view {c['view']} {c['leader']}: {c['reason']}"
                for c in ctx.metadata.get("view_changes", [])
            ) or "-"
            rows.append([
                ctx.round_number,
                ctx.result.consensus.block_hash[:12] if ctx.result else "-",
                ctx.metadata.get("view", "-"),
                changed,
            ])
        print(render_table(["round", "block", "view", "view changes"], rows))

    totals = result.delivery_report.get("totals", {})
    print(f"\ntransport delivery ({protocol.network.transport.name}): "
          f"{totals.get('attempted', 0)} attempted, {totals.get('delivered', 0)} delivered, "
          f"{totals.get('dropped', 0) + totals.get('partitioned', 0)} lost, "
          f"{totals.get('duplicated', 0)} duplicated, {totals.get('timed_out', 0)} timed out, "
          f"{totals.get('retries', 0)} retries")
    if protocol.network.faulty:
        rows = []
        for ctx in scheduler.contexts:
            delta = ctx.metadata.get("delivery", {}).get("totals", {})
            rows.append([
                ctx.round_number,
                ctx.metadata.get("attempt", 0),
                delta.get("attempted", 0),
                delta.get("delivered", 0),
                delta.get("dropped", 0) + delta.get("partitioned", 0),
                delta.get("duplicated", 0),
                delta.get("timed_out", 0),
                delta.get("retries", 0),
                "committed" if ctx.result is not None else "aborted",
            ])
        print(render_table(
            ["round", "attempt", "attempted", "delivered", "lost", "dup",
             "timeout", "retries", "outcome"],
            rows,
        ))
        resyncs = {
            owner: protocol.participants[owner].node.resyncs
            for owner in protocol.owner_ids
            if protocol.participants[owner].node.resyncs
        }
        if resyncs:
            detail = ", ".join(
                f"{owner} ({sum(r['blocks'] for r in records)} block(s) from "
                f"{records[-1]['peer']})"
                for owner, records in sorted(resyncs.items())
            )
            print(f"resynced replicas: {detail}")

    _print_round_table(result)

    if args.delivery_report_out:
        payload = {
            "transport": protocol.network.transport.name,
            "fault_seed": args.fault_seed,
            "fault_plan": fault_plan.to_dict() if fault_plan else None,
            "scenario": args.scenario,
            "report": result.delivery_report,
            "rounds": [
                {
                    "round": ctx.round_number,
                    "attempt": ctx.metadata.get("attempt", 0),
                    "committed": ctx.result is not None,
                    "delivery": ctx.metadata.get("delivery", {}),
                }
                for ctx in scheduler.contexts
            ],
            "resyncs": {
                owner: protocol.participants[owner].node.resyncs
                for owner in protocol.owner_ids
            },
        }
        with open(args.delivery_report_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"delivery report written to {args.delivery_report_out}")

    if result.epoch_settlements:
        print("\ncohort epochs (per-epoch settlement):")
        rows = [
            [e["epoch"], f"{e['start']}..{e['end'] - 1}", len(e["cohort"]),
             f"{e['sv_mass']:.4f}", f"{e['reward_pool']:.2f}"]
            for e in result.epoch_settlements
        ]
        print(render_table(["epoch", "rounds", "cohort", "SV mass", "pool"], rows))

    return _print_settlement_and_audit(
        args, result, protocol.participants[protocol.owner_ids[0]].node.chain, dataset,
        proposers=config.authority_rotation,
    )


def _command_resume(args: argparse.Namespace) -> int:
    """Reopen a persisted run and continue it to completion."""
    spec = _SCENARIOS.get(args.scenario)
    dataset, owners, joiner_dataset = _cohort(args, spec is not None and spec.needs_joiner)
    config = _protocol_config(args)
    owner_ids = sorted(o.owner_id for o in owners)
    target = args.scenario_owner or owner_ids[min(1, len(owner_ids) - 1)]
    scenario = _build_scenario(args.scenario, target, args.rounds, joiner_dataset)
    try:
        protocol = BlockchainFLProtocol.resume_from(
            args.store, owners, dataset.test_features, dataset.test_labels,
            dataset.n_classes, config,
            extra_data=[joiner_dataset] if joiner_dataset is not None else (),
        )
    except ProtocolError as exc:
        # A store with nothing to resume, or one another configuration wrote.
        print(f"error: {exc}")
        return 2
    chain = protocol.participants[protocol.owner_ids[0]].node.chain
    done = protocol.completed_rounds()
    print(f"resumed from {args.store}: chain height {chain.height}, "
          f"head {chain.head.block_hash[:16]}…, "
          f"{len(done)} of {args.rounds} round(s) already committed")
    try:
        result = protocol.run(scenario)
    finally:
        protocol.close()

    _print_finished(result)
    _print_round_table(result)
    return _print_settlement_and_audit(args, result, chain, dataset)


def _command_audit(args: argparse.Namespace) -> int:
    """Re-run the transparency audit over a persisted chain.

    The auditor needs nothing but the store and the public validation set —
    which is a pure function of ``--samples`` and ``--seed`` — so this works
    without the original owners' datasets or protocol flags: the chain replica
    is rebuilt straight from the store (``attach_storage`` refuses one written
    under a retired state-root layout) and every verdict is recomputed from
    chain state alone.
    """
    from repro.blockchain.chain import Blockchain
    from repro.blockchain.contracts.registry import pinned_params, pinned_sv_estimator

    dataset, _ = make_owner_datasets(n_samples=args.samples, seed=args.seed)
    runtime_factory = protocol_runtime_factory(
        dataset.test_features, dataset.test_labels, dataset.n_classes
    )
    backend = _open_persistent_store(args.store, "audited standalone")
    try:
        chain = Blockchain(runtime_factory, chain_id="audit")
        if not chain.attach_storage(backend):
            raise StorageError(f"the store at {args.store} holds no committed chain to audit")
    finally:
        backend.close()
    # The restore is complete and the audit never commits: detach the closed
    # backend so no code path can touch it again.
    chain.storage = None

    estimator_name, _ = pinned_sv_estimator(pinned_params(chain.state) or {})
    report = audit_chain(
        chain, dataset.test_features, dataset.test_labels, dataset.n_classes,
        mode=args.audit_mode,
    )
    print(f"chain at {args.store}: height {chain.height}, "
          f"head {chain.head.block_hash[:16]}…, estimator {estimator_name}")
    return _print_audit_verdict(report, args.audit_mode)


def _command_prune(args: argparse.Namespace) -> int:
    """Prune a persisted store's reverse deltas below a retention horizon."""
    backend = _open_persistent_store(args.store, "pruned")
    try:
        pruned = backend.prune_to(args.keep)
        head = backend.committed_height()
        oldest = backend.oldest_retained_delta()
    finally:
        backend.close()
    if pruned:
        print(f"pruned {len(pruned)} reverse delta(s) ({pruned[0]}..{pruned[-1]}) "
              f"from {args.store}")
    else:
        print(f"nothing to prune in {args.store} (horizon already satisfied)")
    print(f"chain head {head}; retained deltas {oldest}..{head} — blocks and state "
          "are intact, an incremental audit below the horizon falls back to "
          "snapshot+replay")
    return 0


def _command_sweep_groups(args: argparse.Namespace) -> int:
    dataset, owners = make_owner_datasets(
        n_owners=args.owners, sigma=args.sigma, n_samples=args.samples, seed=args.seed
    )
    scorer = AccuracyUtility(dataset.test_features, dataset.test_labels, dataset.n_classes)
    clients = [
        DataOwner(o.owner_id, o.features, o.labels, dataset.n_classes,
                  local_epochs=args.local_epochs, learning_rate=2.0)
        for o in owners
    ]
    trainer = FederatedTrainer(
        clients, dataset.n_features, dataset.n_classes,
        TrainingConfig(n_rounds=1, local_epochs=args.local_epochs, learning_rate=2.0),
    )
    record = trainer.run_round(trainer.initial_parameters(), 0)
    local_models = {update.owner_id: update.parameters for update in record.updates}
    ground_truth = native_shapley(sorted(local_models), CoalitionModelUtility(local_models, scorer))
    points = sweep_group_counts(local_models, ground_truth, scorer, permutation_seed=args.seed)

    rows = [
        [p.n_groups, p.min_anonymity, f"{p.resolution:.2f}", f"{p.cosine_to_ground_truth:.4f}",
         f"{p.rank_correlation:.4f}", p.coalition_evaluations, f"{p.runtime_seconds:.3f}"]
        for p in points
    ]
    print(render_table(["m", "min anonymity", "resolution", "cosine", "rank corr", "coalitions", "seconds"], rows))
    return 0


def _command_ground_truth(args: argparse.Namespace) -> int:
    dataset, owners = make_owner_datasets(
        n_owners=args.owners, sigma=args.sigma, n_samples=args.samples, seed=args.seed
    )
    scorer = AccuracyUtility(dataset.test_features, dataset.test_labels, dataset.n_classes)
    trainer = CentralizedTrainer(dataset.n_features, dataset.n_classes, epochs=args.epochs, learning_rate=2.0)
    retrain = RetrainUtility(
        {o.owner_id: o.features for o in owners},
        {o.owner_id: o.labels for o in owners},
        scorer,
        trainer=trainer,
        n_workers=args.workers,
    )
    utility = CachedUtility(retrain)
    values = native_shapley([o.owner_id for o in owners], utility)
    print(f"native SV over {2 ** len(owners)} retrained coalitions "
          f"({utility.evaluations()} distinct trainings, "
          f"{retrain.backend.name} backend x{retrain.backend.n_workers}):")
    print(render_bar_chart(dict(sorted(values.items()))))
    return 0


def _command_prove(args: argparse.Namespace) -> int:
    """Run the deterministic protocol and write an inclusion proof."""
    from repro.utils.serialization import canonical_dumps

    dataset, owners, _ = _cohort(args)
    config = _protocol_config(args)
    protocol = BlockchainFLProtocol(
        owners, dataset.test_features, dataset.test_labels, dataset.n_classes, config
    )
    try:
        protocol.run()
    finally:
        protocol.close()
    chain = protocol.participants[protocol.owner_ids[0]].node.chain
    value = chain.state.get(args.namespace, args.key)
    if value is None:
        print(f"error: no state entry {args.namespace}/{args.key} on the chain")
        available = ", ".join(chain.state.keys(args.namespace)) or "(namespace empty)"
        print(f"keys in {args.namespace!r}: {available}")
        return 2
    proof = chain.state.prove(args.namespace, args.key)
    payload = {
        "proof": proof.to_dict(),
        "value_canonical": canonical_dumps(value),
        "header": {
            "height": chain.height,
            "block_hash": chain.head.block_hash,
            "state_root": chain.head.header.state_root,
        },
        "run": {
            "owners": args.owners, "groups": args.groups, "rounds": args.rounds,
            "sigma": args.sigma, "samples": args.samples,
            "local_epochs": args.local_epochs, "learning_rate": args.learning_rate,
            "reward_pool": args.reward_pool, "seed": args.seed,
        },
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"protocol finished: chain height {chain.height}, "
          f"state root {chain.head.header.state_root[:16]}…")
    print(f"proved {args.namespace}/{args.key} "
          f"({len(proof.bucket_siblings) + len(proof.namespace_siblings) + len(proof.top_siblings)} "
          f"sibling hashes) -> {args.out}")
    print(f"verify with: python -m repro verify-proof --proof {args.out} "
          f"--root {chain.head.header.state_root}")
    return 0


def _command_verify_proof(args: argparse.Namespace) -> int:
    """Check a proof file: the value's leaf must fold up to the trusted state root."""
    from repro.blockchain.state import StateProof, verify_state_proof
    from repro.utils.serialization import canonical_loads

    payload = _read_json(args.proof, "--proof")
    # The file is someone else's: whatever shape it has, the answer is a
    # verdict or one ``error:`` line, never a traceback.
    try:
        proof = StateProof.from_dict(payload["proof"])
        value = canonical_loads(payload["value_canonical"])
        root = args.root or payload.get("header", {}).get("state_root") or proof.root
        ok = verify_state_proof(root, proof, value=value)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"--proof: malformed proof document {args.proof!r}: {type(exc).__name__}: {exc}"
        ) from exc
    source = "--root" if args.root else "proof file header"
    print(f"entry:  {proof.namespace}/{proof.key}")
    print(f"root:   {root} ({source})")
    print(f"result: {'VERIFIED' if ok else 'FAILED'} — the entry "
          f"{'is' if ok else 'is NOT'} committed by that state root")
    return 0 if ok else 1


def _command_info(_args: argparse.Namespace) -> int:
    defaults = ProtocolConfig()
    print(f"repro {__version__}")
    rows = [[field, getattr(defaults, field)] for field in (
        "n_owners", "n_groups", "n_rounds", "permutation_seed", "local_epochs",
        "learning_rate", "precision_bits", "field_bits", "reward_pool",
        "sv_assembly_version", "state_root_version",
    )]
    print(render_table(["protocol default", "value"], rows))
    return 0


_COMMANDS = {
    "run": _command_run,
    "swarm": _command_swarm,
    "cross-device": _command_cross_device,
    "resume": _command_resume,
    "audit": _command_audit,
    "prune": _command_prune,
    "sweep-groups": _command_sweep_groups,
    "ground-truth": _command_ground_truth,
    "prove": _command_prove,
    "verify-proof": _command_verify_proof,
    "info": _command_info,
}


#: What bad input raises (a value out of range, a game the exact engine refuses,
#: a store that cannot be opened): one ``error:`` line and exit 2, no traceback.
_INPUT_ERRORS = (ConfigurationError, ValidationError, ShapleyError, StorageError)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            code = _COMMANDS[args.command](args)
        except _INPUT_ERRORS as exc:
            print(f"error: {exc}")
            code = 2
        sys.stdout.flush()  # a closed pipe must fail here, inside the handler
        return code
    except BrokenPipeError:
        # The reader went away (``repro … | head -1``).  The interpreter
        # flushes stdout again at exit: point it at devnull so that flush
        # cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
