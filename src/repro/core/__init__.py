"""Protocol core: the end-to-end blockchain federated-learning system.

* :mod:`repro.core.config` — the protocol configuration agreed at setup.
* :mod:`repro.core.participant` — a data owner acting as both FL trainer and
  blockchain miner.
* :mod:`repro.core.protocol` — :class:`BlockchainFLProtocol`, the wiring of
  participants, network, and contracts.
* :mod:`repro.core.pipeline` — the staged round pipeline (Setup →
  LocalTraining → Masking/Submission → SecureAggregation → Evaluation →
  Membership → BlockProposal → Settlement) with :class:`RoundScheduler`,
  :class:`RoundContext`, and the :class:`Scenario` hook interface (dropout,
  stragglers, adversary injection, and on-chain cohort joins/leaves/churn).
* :mod:`repro.core.audit` — transparency audits that re-derive every published
  result from raw chain data.
* :mod:`repro.core.adversary` — adversarial participant behaviours (future-work
  §VI item 2) used by the robustness experiments.
"""
