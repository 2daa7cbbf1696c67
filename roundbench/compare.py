"""``compare A.json B.json``: do two sets of runs agree?

For every (end-to-end metric, workload) the verdict is ``same``, ``worse`` or
``unresolved`` by the bound ``BENCHMARK.json`` fixes for the metric; every
exact count and every determinism digest must be equal.  Exit code 0 only when
all verdicts are ``same`` and nothing differs; 1 on ``worse`` or a mismatch; 2
when the only blemish is ``unresolved``.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from roundbench.measure import median, spread
from roundbench.spec import EXACT, Contract


def judge(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    """Verdict for B against A on one metric.

    A spread (interquartile distance over median) wider than the bound on
    either side cannot resolve a bound-sized move, so the verdict is
    ``unresolved`` — unless every run of B reads better than every run of A.
    """
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "same"
        return "unresolved"
    worsening = sign * (median(b) - median(a)) / abs(median(a))
    return "worse" if worsening > bound else "same"


def compare_files(path_a: str, path_b: str, contract: Contract) -> int:
    with open(path_a) as handle:
        a: dict[str, Any] = json.load(handle)
    with open(path_b) as handle:
        b: dict[str, Any] = json.load(handle)
    verdicts: list[str] = []
    mismatches: list[str] = []
    for workload in contract.workloads:
        if workload not in a["workloads"] or workload not in b["workloads"]:
            mismatches.append(f"{workload}: missing from one file")
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for name, declared in contract.end_to_end.items():
            ma, mb = wa["end_to_end"][name], wb["end_to_end"][name]
            verdict = judge(ma["samples"], mb["samples"], declared["better"], declared["bound"])
            verdicts.append(verdict)
            print(f"{workload:12s} {name:16s} {verdict:10s} A {ma['value']:.6g}  B {mb['value']:.6g} "
                  f"{ma['unit']}  (spread A {spread(ma['samples']):.3f}, "
                  f"B {spread(mb['samples']):.3f}, bound {declared['bound']})")
        # A result file holds only the layers on the workload's path.
        for name in sorted(EXACT & (wa["per_layer"].keys() | wb["per_layer"].keys())):
            va, vb = (w["per_layer"].get(name, {}).get("value") for w in (wa, wb))
            if va != vb:
                mismatches.append(f"{workload}: exact count {name} differs ({va} != {vb})")
        if wa["digest"] != wb["digest"]:
            mismatches.append(f"{workload}: digest differs ({wa['digest'][:16]} != {wb['digest'][:16]})")
    for line in mismatches:
        print(f"MISMATCH {line}")
    counts = {verdict: verdicts.count(verdict) for verdict in ("same", "worse", "unresolved")}
    print(f"{counts['same']} same, {counts['worse']} worse, {counts['unresolved']} unresolved; "
          f"{len(mismatches)} exact-count/digest mismatches")
    if counts["worse"] or mismatches:
        return 1
    return 2 if counts["unresolved"] else 0
