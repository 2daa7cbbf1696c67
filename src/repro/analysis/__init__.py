"""Analysis tools for the paper's discussion points and future-work items.

* :mod:`repro.analysis.privacy` — the (n/m)-anonymity style privacy/resolution
  trade-off discussed at the end of Section IV.B.
* :mod:`repro.analysis.throughput` — blockchain overhead and bottleneck
  modelling (future work §VI item 1).
* :mod:`repro.analysis.tradeoff` — joint privacy / accuracy / runtime sweeps
  over the group count m (future work §VI item 3).
"""
