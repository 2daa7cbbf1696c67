"""Analysis tools for the paper's discussion points and future-work items.

* :mod:`repro.analysis.privacy` — the (n/m)-anonymity style privacy/resolution
  trade-off discussed at the end of Section IV.B.
* :mod:`repro.analysis.throughput` — blockchain overhead and bottleneck
  modelling (future work §VI item 1).
* :mod:`repro.analysis.tradeoff` — joint privacy / accuracy / runtime sweeps
  over the group count m (future work §VI item 3).
"""

from repro.analysis.privacy import PrivacyAssessment, anonymity_set_sizes, assess_privacy, sv_resolution
from repro.analysis.reporting import render_bar_chart, render_table
from repro.analysis.throughput import ThroughputModel, ThroughputReport, measure_chain_overhead
from repro.analysis.tradeoff import TradeoffPoint, sweep_group_counts

__all__ = [
    "PrivacyAssessment",
    "anonymity_set_sizes",
    "assess_privacy",
    "sv_resolution",
    "render_bar_chart",
    "render_table",
    "ThroughputModel",
    "ThroughputReport",
    "measure_chain_overhead",
    "TradeoffPoint",
    "sweep_group_counts",
]
