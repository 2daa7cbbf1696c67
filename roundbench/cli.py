"""Command line of the benchmark.

Four entry forms, all ``python -m roundbench ...`` from the repo root:

* ``--workload W --seed N --seconds S --trace 0|1`` — one run of one workload,
  the form ``BENCHMARK.json``'s ``command`` is invoked in; the last stdout line
  is the result object.
* ``run [--seed 7] [--repeats 3] [--smoke] [--out FILE]`` — a *set*: every
  workload at ``BENCHMARK.json``'s ``run_seconds``, ``--repeats`` untraced runs
  plus one traced run each.
* ``compare A.json B.json`` — judge two sets by the bounds in ``BENCHMARK.json``.
* ``worker ...`` — internal: the fresh subprocess one run executes in.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any

from roundbench.measure import Yardstick, median, peak_rss_mib
from roundbench.spec import ROOT, WORKLOADS, Contract, load_contract

#: Hard ceiling for one worker process; the contract allows a run 180 s.
WORKER_TIMEOUT_S = 150
WORK_ROOT = os.path.join("roundbench", ".work")
#: Seconds between two yardstick kernels (~6 ms each) in an untraced run.
YARDSTICK_PERIOD_S = 0.1
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_work_ids = itertools.count()


class BenchError(RuntimeError):
    """A worker failed, timed out, or printed something that is not a result."""


# ----------------------------------------------------------------------
# worker: one workload, once, in this (fresh) process
# ----------------------------------------------------------------------

def _command_worker(args: argparse.Namespace) -> int:
    entry = time.perf_counter()
    workload = WORKLOADS[args.workload]
    size = workload.size(args.seconds, args.smoke)
    deployment = importlib.import_module(f"roundbench.{workload.deployment}")
    os.makedirs(args.workdir)
    # End-to-end times are steadied by the host's pace; the traced pass leaves
    # the yardstick off, so its per-layer numbers are plain wall time.
    yardstick = Yardstick(YARDSTICK_PERIOD_S, enabled=not args.trace)
    yardstick.start()
    try:
        out = deployment.run(size, args.seed, bool(args.trace), args.workdir, entry, yardstick)
    finally:
        yardstick.stop()
        shutil.rmtree(args.workdir, ignore_errors=True)
    ops = out.pop("ops")
    ops.check("no_leaked_children", not multiprocessing.active_children())
    out["e2e"]["peak_rss_mb"] = peak_rss_mib()
    out.update(size=size, attempted=ops.attempted, failed=ops.failed, checks=ops.checks,
               host_pace=yardstick.pace(entry, time.perf_counter()) if yardstick.enabled else None)
    print(json.dumps(out))
    return 0


def _spawn_worker(workload: str, seed: int, seconds: float, trace: bool,
                  smoke: bool) -> dict[str, Any]:
    """Run one worker subprocess to completion and return what it printed."""
    workdir = os.path.join(WORK_ROOT, f"{os.getpid()}-{next(_work_ids)}")
    command = [
        sys.executable, "-m", "roundbench", "worker", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        "--workdir", workdir,
    ]
    command += ["--smoke"] * smoke
    paths = [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(p for p in paths if p),
        "TMPDIR": str(ROOT / WORK_ROOT),
        # One compute thread per process: a second BLAS thread buys nothing at
        # these matrix sizes and spins on the core the swarm's peers need.
        **{name: "1" for name in BLAS_THREAD_VARIABLES},
    }
    os.makedirs(ROOT / WORK_ROOT, exist_ok=True)
    # Its own session, so a timeout can take the swarm's peer processes with it.
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s") from None
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
        shutil.rmtree(ROOT / workdir, ignore_errors=True)
        try:
            os.rmdir(ROOT / WORK_ROOT)
        except OSError:
            pass  # another run's worker still has its directory there
    if process.returncode != 0:
        raise BenchError(f"{workload}: worker exited with code {process.returncode}")
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{workload}: worker printed no result ({exc})") from exc


# ----------------------------------------------------------------------
# one run: one worker, shaped into the contract's result
# ----------------------------------------------------------------------

def bench_once(contract: Contract, workload: str, seed: int, seconds: float,
               trace: bool, smoke: bool = False) -> dict[str, Any]:
    """One run of one workload: the metrics it measured plus digest/checks/size.

    Untraced: every end-to-end metric.  Traced: the per-layer metrics of the
    layers on this workload's path.
    """
    raw = _spawn_worker(workload, seed, seconds, trace, smoke)
    values = raw["layers"] if trace else raw["e2e"]
    declared = contract.per_layer if trace else contract.end_to_end
    stray = set(values) - set(declared) if trace else set(values) ^ set(declared)
    if stray:
        raise BenchError(f"{workload}: metrics differ from BENCHMARK.json: {sorted(stray)}")
    return {
        "correct": all(raw["checks"].values()),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {
            name: {"value": float(values[name]), "unit": contract.unit(name)}
            for name in declared if name in values
        },
        "digest": raw["digest"],
        "checks": raw["checks"],
        "size": raw["size"],
        "host_pace": raw["host_pace"],
    }


def _print_run(workload: str, result: dict[str, Any], declared: dict[str, Any]) -> None:
    for name, entry in declared.items():
        metric = result["metrics"].get(name)
        value = f"{metric['value']:.6g}" if metric else "n/a"
        print(f"{workload:12s} {name:34s} {value} {entry['unit']}")
    failed_checks = [name for name, ok in result["checks"].items() if not ok]
    pace = "n/a (traced)" if result["host_pace"] is None else f"{result['host_pace']:.2f}"
    print(f"{workload:12s} operations attempted {result['attempted']} failed {result['failed']}"
          f"  checks {'ok' if not failed_checks else 'FAILED: ' + ', '.join(failed_checks)}"
          f"  digest {result['digest'][:16]}  host pace {pace}")


def _command_bench(args: argparse.Namespace) -> int:
    contract = load_contract()
    result = bench_once(contract, args.workload, args.seed, args.seconds, bool(args.trace))
    declared = contract.per_layer if args.trace else contract.end_to_end
    _print_run(args.workload, result, declared)
    # The driver's result schema wants every declared metric in every result,
    # so a layer that is not on this workload's path reads 0 here (and only here).
    metrics = {
        name: result["metrics"].get(name, {"value": 0.0, "unit": entry["unit"]})
        for name, entry in declared.items()
    }
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# run: a set of runs, summarised
# ----------------------------------------------------------------------

def _environment(args: argparse.Namespace, contract: Contract) -> dict[str, Any]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "seed": args.seed, "seconds": contract.run_seconds, "repeats": args.repeats,
        "smoke": args.smoke, "commit": commit, "nproc": os.cpu_count(),
        "blas_threads": 1,  # what ``_spawn_worker`` sets for every worker
        "python": platform.python_version(), "numpy": numpy.__version__,
    }


def _summary(samples: list[float], unit: str) -> dict[str, Any]:
    quartiles = statistics.quantiles(samples, n=4) if len(samples) > 1 else [samples[0]] * 3
    return {"unit": unit, "value": median(samples), "q1": quartiles[0], "q3": quartiles[2],
            "n": len(samples), "samples": samples}


def _command_run(args: argparse.Namespace) -> int:
    contract = load_contract()
    if args.smoke:
        args.repeats = 1
    document: dict[str, Any] = {"meta": _environment(args, contract), "workloads": {}}
    all_correct = True
    for workload in contract.workloads:
        every = [
            bench_once(contract, workload, args.seed, contract.run_seconds, trace, args.smoke)
            for trace in [False] * args.repeats + [True]
        ]
        *runs, traced = every
        checks = {name: all(run["checks"][name] for run in every) for name in traced["checks"]}
        checks["one_digest_per_seed"] = len({run["digest"] for run in every}) == 1
        entry = {
            "digest": traced["digest"], "size": traced["size"], "checks": checks,
            "host_pace": [run["host_pace"] for run in runs],
            "attempted": sum(run["attempted"] for run in every),
            "failed": sum(run["failed"] for run in every),
            "end_to_end": {
                name: _summary([run["metrics"][name]["value"] for run in runs], contract.unit(name))
                for name in contract.end_to_end
            },
            "per_layer": traced["metrics"],
        }
        document["workloads"][workload] = entry
        for name, metric in entry["end_to_end"].items():
            print(f"{workload:12s} {name:34s} {metric['value']:.6g} {metric['unit']}"
                  f"  (q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, n={metric['n']})")
        _print_run(workload, {**traced, "attempted": entry["attempted"], "failed": entry["failed"],
                              "checks": checks, "host_pace": median(entry["host_pace"])},
                   contract.per_layer)
        all_correct &= all(checks.values())
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print("all output checks passed" if all_correct else "OUTPUT CHECKS FAILED")
    return 0 if all_correct else 1


def _command_compare(args: argparse.Namespace) -> int:
    from roundbench.compare import compare_files

    return compare_files(args.a, args.b, load_contract())


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"roundbench: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(prog="python -m roundbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)

    def add_one_run_arguments(one_run: argparse.ArgumentParser) -> None:
        one_run.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        one_run.add_argument("--seed", type=int, required=True)
        one_run.add_argument("--seconds", type=float, required=True)
        one_run.add_argument("--trace", type=int, choices=(0, 1), required=True)

    if argv and argv[0] in ("run", "compare", "worker"):
        commands = parser.add_subparsers(dest="command", required=True)
        run = commands.add_parser("run", help="a set: every workload, repeats + one traced run")
        run.add_argument("--seed", type=int, default=7)
        run.add_argument("--repeats", type=int, default=3)
        run.add_argument("--smoke", action="store_true", help="~1/20 size, one repeat")
        run.add_argument("--out", help="write the set's result file here")
        run.set_defaults(handler=_command_run)
        compare = commands.add_parser("compare", help="judge two result files")
        compare.add_argument("a")
        compare.add_argument("b")
        compare.set_defaults(handler=_command_compare)
        worker = commands.add_parser("worker")
        add_one_run_arguments(worker)
        worker.add_argument("--workdir", required=True)
        worker.add_argument("--smoke", action="store_true")
        worker.set_defaults(handler=_command_worker)
    else:
        add_one_run_arguments(parser)
        parser.set_defaults(handler=_command_bench)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BenchError as exc:
        print(f"roundbench: {exc}", file=sys.stderr)
        return 1
