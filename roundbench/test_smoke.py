"""Smoke test of the benchmark itself: ``pytest roundbench`` (outside tier-1 ``testpaths``).

Runs every workload at ~1/20 size through the real ``run`` command and checks
that what it prints and what ``BENCHMARK.json`` declares are the same set of
names — the contract later issues quote from.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_smoke_run_prints_exactly_the_contract(tmp_path):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in contract["workloads"]]
    end_to_end = [entry["name"] for entry in contract["end_to_end"]]
    per_layer = [entry["name"] for entry in contract["per_layer"]]
    declared = end_to_end + per_layer

    assert len(workloads) == 4
    assert 1 <= len(end_to_end) <= 16 and "setup_s" in end_to_end
    assert 1 <= len(per_layer) <= 128
    assert len(set(declared)) == len(declared), "a metric name is declared twice"
    assert all(NAME.fullmatch(name) for name in workloads + declared)

    out = tmp_path / "smoke.json"
    completed = subprocess.run(
        [sys.executable, "-m", "roundbench", "run", "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]

    printed: dict[str, set[str]] = {name: set() for name in workloads}
    for line in completed.stdout.splitlines():
        tokens = line.split()
        if len(tokens) >= 4 and tokens[0] in printed and tokens[1] != "operations":
            printed[tokens[0]].add(tokens[1])
    for workload in workloads:
        assert printed[workload] == set(declared), (
            workload, printed[workload] ^ set(declared)
        )

    document = json.loads(out.read_text())
    assert {"seed", "commit", "nproc", "blas_threads", "python", "numpy"} <= set(document["meta"])
    for workload in workloads:
        entry = document["workloads"][workload]
        assert entry["failed"] == 0 and all(entry["checks"].values()), entry["checks"]
        assert re.fullmatch(r"[0-9a-f]{64}", entry["digest"])
        assert set(entry["end_to_end"]) == set(end_to_end)
        assert set(entry["per_layer"]) <= set(per_layer)
        assert all(metric["value"] > 0 for metric in entry["end_to_end"].values())
    measured = set().union(*(document["workloads"][w]["per_layer"] for w in workloads))
    assert measured == set(per_layer), "a declared layer metric is on no workload's path"
