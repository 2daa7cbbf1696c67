"""roundbench: one seeded round benchmark over the repo's three deployments.

Four closed-loop workloads (``silo9``, ``xdev-wide``, ``xdev-narrow``,
``swarm4``) drive the on-chain pipeline, the cross-device harness and the
process swarm through their public entry points only.  End-to-end numbers come
from an untraced pass, per-layer numbers from a traced pass that times calls
into each layer from this package's own files.  ``BENCHMARK.json`` at the repo
root is the contract: every metric name, unit, direction and regression bound
lives there and nowhere else.  See ``README.md`` in this directory.
"""
