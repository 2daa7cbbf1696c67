#!/usr/bin/env python3
"""List every ``src/repro`` function that no entry point reaches.

Runs every entry point of the repository under a call collector and prints
one row per function defined in ``src/repro``: how often it was entered,
its length in lines, where it starts, and its qualified name.

The entry points mirror the CI workflow: the scenario matrix, one chaos run
per fault scenario, the cross-device, swarm, CLI and persistence smokes, the
five examples and the doctests; plus ``run --sv-estimator sampled``,
``run --fault-plan`` with per-link overrides and a
partition, ``audit``, ``sweep-groups``, ``info``, every
``benchmarks/bench_*.py`` and ``roundbench run --smoke``.  Sizes are CI's reduced ones (the swarm runs 4
peers instead of 16: the same code at a quarter of the memory).  With
``--tier1`` the collector runs the tier-1 suite instead, which shows what the
entry points reach but no test does.

The collector is stdlib only.  A generated ``sitecustomize`` module, put first
on ``PYTHONPATH``, installs a ``sys.settrace`` / ``threading.settrace``
function that counts ``call`` events per code object (it returns ``None``, so
no line is traced) and dumps the counts for ``src/repro`` when the process
exits.  An AST walk of ``src/repro`` matches each function to its counts by
file and first line.  Three traps, each handled here:

* ``pytest-benchmark`` calls ``sys.settrace(None)`` inside
  ``benchmark.pedantic``, so the benches run with ``--benchmark-disable``
  (the benched body then runs once, untimed, with the collector live);
* forked ``ProcessPoolExecutor`` workers leave through ``os._exit``, which
  skips ``atexit``: without the hook's own ``os._exit`` wrapper, which dumps
  the child's counts first, ``_worker_retrain_scores`` reads 0 hits;
* a decorated function's ``co_firstlineno`` is the line of its first
  decorator, not of its ``def``, so the AST side keys on that line too.

A process killed with SIGKILL (the swarm drill's victims) dumps nothing;
the peers restarted in its place do.  Under ``--tier1``, a test that starts a
child with a ``PYTHONPATH`` of its own runs that child untraced.

A traced run of every entry point takes several minutes, so no CI job runs
it.  Usage::

    python scripts/find_unreached.py              # every entry point
    python scripts/find_unreached.py --unreached  # only the zero-hit rows
    python scripts/find_unreached.py --tier1      # the tier-1 suite instead

Exit code 1 if an entry point ended with an unexpected exit code (its counts
are still merged, but the table may under-count).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

HOOK = '''\
import atexit, json, os, sys, tempfile, threading

_OUT = os.environ["FIND_UNREACHED_OUT"]
_SRC = os.environ["FIND_UNREACHED_SRC"]
_hits = {}


def _count(frame, event, arg):
    code = frame.f_code  # a global trace function only sees "call" events
    _hits[code] = _hits.get(code, 0) + 1


def _dump():
    rows = [[c.co_filename, c.co_firstlineno, n] for c, n in list(_hits.items())
            if c.co_filename.startswith(_SRC)]
    fd, path = tempfile.mkstemp(dir=_OUT, suffix=".part")
    with os.fdopen(fd, "w") as handle:
        json.dump(rows, handle)
    os.replace(path, path[:-len(".part")] + ".json")  # a killed writer leaves no half file


_real_exit = os._exit


def _exit(code):
    _dump()
    _real_exit(code)


os._exit = _exit
os.register_at_fork(after_in_child=_hits.clear)
atexit.register(_dump)
threading.settrace(_count)
sys.settrace(_count)
'''

RUN = ["--owners", "4", "--groups", "2", "--samples", "400", "--local-epochs", "2"]
SCENARIOS = ("dropout", "straggler", "adversarial-claim", "late-join", "adversary-window",
             "join", "leave", "churn", "leader-dropout", "partition-heal", "eclipse",
             "lossy-gossip", "duplicate-storm")
FAULT_SCENARIOS = ("partition-heal", "eclipse", "lossy-gossip", "duplicate-storm")
STORE = ["--store", "sqlite:chain.db"]
CHURN = RUN + ["--rounds", "2", "--scenario", "churn"]
PROOF = RUN + ["--rounds", "1", "--namespace", "reward", "--key", "distribution/final",
               "--out", "proof.json"]
# Per-link overrides and a scheduled partition: the parts of a plan no
# scenario builds (the partition starts after the run, so it never cuts).
FAULT_PLAN = json.dumps({
    "seed": 1, "links": {"owner-0->*": {"duplicate_probability": 0.5, "topics": ["tx"]}},
    "partitions": [{"name": "late", "cells": [["owner-3"]], "start_tick": 1000}],
})
BENCH_ENV = {
    "REPRO_BENCH_ASSEMBLY_SIZES": "9,10,11", "REPRO_BENCH_SCORING_GROUPS": "8",
    "REPRO_BENCH_OWNER_COUNTS": "6,8", "REPRO_BENCH_SAMPLES": "400",
    "REPRO_BENCH_RETRAIN_EPOCHS": "2", "REPRO_BENCH_STATE_KEYS": "1000,10000",
    "REPRO_BENCH_STATE_BLOCKS": "8", "REPRO_BENCH_STATE_WRITES": "100",
    "REPRO_BENCH_COHORT_SIZES": "200", "REPRO_BENCH_SHARD_SIZES": "8,16,32",
    "REPRO_BENCH_SV_GROUPS": "128", "REPRO_BENCH_SV_SAMPLES": "32",
}


def _repro(*args: str, code: int = 0) -> tuple[list[str], int]:
    return [sys.executable, "-m", "repro", *args], code


def entry_points() -> list[tuple[str, list[str], int]]:
    """(label, argv, expected exit code) for every entry point, in run order."""
    runs: list[tuple[str, tuple[list[str], int]]] = []
    runs += [(f"scenario {s}", _repro("run", *RUN, "--rounds", "2", "--scenario", s))
             for s in SCENARIOS]
    runs += [(f"chaos {s}", _repro("run", *RUN[:4], "--samples", "320", "--local-epochs", "2",
                                   "--rounds", "2", "--scenario", s, "--fault-seed", "1",
                                   "--delivery-report-out", "delivery-report.json"))
             for s in FAULT_SCENARIOS]
    runs += [(f"cross-device {d}", _repro("cross-device", "--distribution", d,
                                          "--owners", "4", "--rounds", "2"))
             for d in ("uniform", "linear", "quadratic")]
    runs += [(f"cross-device {n}x{m}", _repro("cross-device", "--distribution", "linear",
                                             "--owners", n, "--shard-size", m,
                                             "--sv-estimator", "sampled", "--sv-samples", k,
                                             "--rounds", "1"))
             for n, m, k in (("1000", "32", "32"), ("800", "4", "200"), ("10000", "32", "32"))]
    runs += [
        ("swarm", _repro("swarm", "--peers", "4", "--rounds", "2")),
        ("swarm restart", _repro("swarm", "--peers", "4", "--rounds", "3", "--swarm-restart", "1")),
        ("run sampled", _repro("run", *RUN, "--rounds", "1", "--sv-estimator", "sampled")),
        ("run fault plan", _repro("run", *RUN, "--rounds", "1", "--fault-plan", FAULT_PLAN)),
        ("ground-truth", _repro("ground-truth", "--owners", "4", "--samples", "400",
                                "--epochs", "3", "--workers", "2")),
        ("run incremental", _repro("run", *RUN, "--rounds", "1", "--audit-mode", "incremental")),
        ("prove", _repro("prove", *PROOF)),
        ("verify-proof", _repro("verify-proof", "--proof", "proof.json")),
        ("verify-proof forged", _repro("verify-proof", "--proof", "proof.json",
                                       "--root", "0" * 64, code=1)),
        ("bad fault plan", _repro("run", "--owners", "3", "--groups", "2", "--rounds", "1",
                                  "--samples", "240", "--local-epochs", "1",
                                  "--fault-plan", '{"drop_probabilty": 0.9}', code=2)),
        ("store run", _repro("run", *CHURN, *STORE, "--stop-after", "1")),
        ("resume", _repro("resume", *STORE, *CHURN, "--audit-mode", "incremental")),
        ("re-resume", _repro("resume", *STORE, *CHURN, "--skip-audit")),
        ("prune", _repro("prune", *STORE, "--keep", "2")),
        ("post-prune resume", _repro("resume", *STORE, *CHURN, "--audit-mode", "incremental")),
        ("audit", _repro("audit", *STORE, "--samples", "400", "--audit-mode", "incremental")),
        ("sweep-groups", _repro("sweep-groups", "--owners", "5", "--samples", "400")),
        ("info", _repro("info")),
        ("doctest", ([sys.executable, "-m", "doctest", str(SRC / "blockchain" / "consensus.py")], 0)),
    ]
    runs += [(f"example {p.stem}", ([sys.executable, str(p)], 0))
             for p in sorted((ROOT / "examples").glob("*.py"))]
    runs += [(f"bench {p.stem}", ([sys.executable, "-m", "pytest", str(p), "-q", "-p",
                                   "no:cacheprovider", "--benchmark-disable",
                                   "-o", "python_files=bench_*.py",
                                   "-o", "python_functions=bench_*"], 0))
             for p in sorted((ROOT / "benchmarks").glob("bench_*.py"))]
    runs += [("roundbench smoke", ([sys.executable, "-m", "roundbench", "run", "--smoke",
                                    "--out", "roundbench.json"], 0))]
    return [(label, argv, code) for label, (argv, code) in runs]


def tier1() -> list[tuple[str, list[str], int]]:
    return [("tier-1", [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        str(ROOT / "tests")], 0)]


def collect(runs: list[tuple[str, list[str], int]]) -> tuple[Counter, list[str]]:
    """Run each entry point under the hook; merged counts and the failures."""
    hits: Counter = Counter()
    failures = []
    with tempfile.TemporaryDirectory(prefix="find-unreached-") as scratch:
        hook_dir, out_dir, work_dir = (Path(scratch) / n for n in ("hook", "out", "work"))
        for directory in (hook_dir, out_dir, work_dir):
            directory.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        env = {
            **os.environ, "FIND_UNREACHED_OUT": str(out_dir), "FIND_UNREACHED_SRC": str(SRC),
            "PYTHONPATH": os.pathsep.join([str(hook_dir), str(ROOT / "src"), str(ROOT)]),
            **BENCH_ENV,
        }
        for label, argv, expected in runs:
            start = time.perf_counter()
            done = subprocess.run(argv, cwd=work_dir, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            status = "ok" if done.returncode == expected else f"exit {done.returncode}"
            print(f"# {label}: {status} ({time.perf_counter() - start:.0f} s)", file=sys.stderr)
            if done.returncode != expected:
                failures.append(label)
                print(done.stderr[-2000:], file=sys.stderr)
        for dump in out_dir.glob("*.json"):
            for filename, line, count in json.loads(dump.read_text()):
                hits[(str(Path(filename).resolve().relative_to(ROOT)), line)] += count
    return hits, failures


def functions() -> list[tuple[str, int, int, str]]:
    """(path, first line, lines, qualified name) of every function in src/repro."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = str(path.relative_to(ROOT))

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = prefix + child.name
                    found.append((relative, first, child.end_lineno - first + 1, name))
                    walk(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")

        walk(ast.parse(path.read_text()), "")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tier1", action="store_true", help="trace the tier-1 suite instead")
    parser.add_argument("--unreached", action="store_true", help="print only zero-hit rows")
    args = parser.parse_args(argv)
    hits, failures = collect(tier1() if args.tier1 else entry_points())
    rows = functions()
    zero = [row for row in rows if not hits[row[:2]]]
    print("hits\tlines\tlocation\tfunction")
    for path, first, lines, name in rows:
        if not (args.unreached and hits[(path, first)]):
            print(f"{hits[(path, first)]}\t{lines}\t{path}:{first}\t{name}")
    print(f"# {len(zero)} of {len(rows)} functions ({sum(r[2] for r in zero)} lines) have zero hits")
    for label in failures:
        print(f"# entry point failed: {label}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
