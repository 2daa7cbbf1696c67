"""Shared fixtures for the test suite.

Expensive artefacts (datasets, trained local models, a full protocol run) are
session scoped so the suite stays fast while many tests can assert against the
same realistic objects.

Also provides a hard per-test timeout: when the ``pytest-timeout`` plugin is
installed (CI) it owns the ``timeout`` marker and ini option; otherwise a
SIGALRM-based fallback enforces the same contract, so a wedged swarm process
fails the test loudly instead of hanging the whole suite.
"""

from __future__ import annotations

import importlib.util
import multiprocessing
import signal
import tempfile

import numpy as np
import pytest

from repro.core.config import ProtocolConfig

_HAVE_PYTEST_TIMEOUT = importlib.util.find_spec("pytest_timeout") is not None


def pytest_addoption(parser):
    if not _HAVE_PYTEST_TIMEOUT:
        parser.addini(
            "timeout",
            "default hard per-test timeout in seconds (SIGALRM fallback; 0 disables)",
            default="0",
        )


def pytest_configure(config):
    if not _HAVE_PYTEST_TIMEOUT:
        config.addinivalue_line(
            "markers",
            "timeout(seconds): hard wall-clock limit for one test "
            "(pytest-timeout when installed, SIGALRM fallback otherwise)",
        )


if not _HAVE_PYTEST_TIMEOUT and hasattr(signal, "SIGALRM"):

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        marker = item.get_closest_marker("timeout")
        if marker is not None and marker.args:
            seconds = float(marker.args[0])
        else:
            try:
                seconds = float(item.config.getini("timeout") or 0)
            except (TypeError, ValueError):
                seconds = 0.0
        if seconds <= 0:
            yield
            return

        def _on_alarm(signum, frame):  # noqa: ARG001 - signal handler signature
            raise TimeoutError(f"test exceeded its {seconds:.0f}s hard timeout")

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
from repro.core.protocol import BlockchainFLProtocol
from repro.datasets.loader import make_owner_datasets
from repro.fl.client import DataOwner
from repro.fl.trainer import FederatedTrainer, TrainingConfig
from repro.shapley.utility import AccuracyUtility


@pytest.fixture(scope="session", autouse=True)
def no_leaked_processes_or_swarm_dirs(tmp_path_factory):
    """At session end no child process is alive and no swarm workdir remains.

    A swarm test that dies mid-run must not leak miner peers (or an
    evaluation pool its workers) silently: ``SwarmSupervisor.stop`` and
    ``ProcessPoolEvaluationBackend.close`` are what reap them, and this is
    the check that they ran.  Swarm workdirs are ``swarm-*`` temporary
    directories under the temp root; the session gets a temp root of its own
    so another session's swarm on the same host is never mistaken for a leak.
    """
    root = tmp_path_factory.mktemp("tmproot")
    previous, tempfile.tempdir = tempfile.tempdir, str(root)
    yield
    tempfile.tempdir = previous
    leaked = [f"{child.name} (pid {child.pid})" for child in multiprocessing.active_children()]
    assert not leaked, f"child processes still alive at session end: {leaked}"
    leftover = sorted(path.name for path in root.glob("swarm-*"))
    assert not leftover, f"swarm workdirs left behind under {root}: {leftover}"


@pytest.fixture(scope="session")
def small_setup():
    """A 4-owner, 320-sample instance of the paper's experimental setup."""
    dataset, owners = make_owner_datasets(n_owners=4, sigma=0.2, n_samples=320, seed=11)
    return dataset, owners


@pytest.fixture(scope="session")
def dataset(small_setup):
    """The global train/test split of the small setup."""
    return small_setup[0]


@pytest.fixture(scope="session")
def owners(small_setup):
    """The per-owner (quality-degraded) training subsets of the small setup."""
    return small_setup[1]


@pytest.fixture(scope="session")
def scorer(dataset):
    """The shared accuracy utility scorer over the held-out test set."""
    return AccuracyUtility(dataset.test_features, dataset.test_labels, dataset.n_classes)


@pytest.fixture(scope="session")
def local_models(dataset, owners):
    """One round of local models (owner id -> ModelParameters), trained plainly."""
    clients = [
        DataOwner(o.owner_id, o.features, o.labels, dataset.n_classes, local_epochs=8, learning_rate=2.0)
        for o in owners
    ]
    trainer = FederatedTrainer(
        clients,
        dataset.n_features,
        dataset.n_classes,
        TrainingConfig(n_rounds=1, local_epochs=8, learning_rate=2.0),
    )
    record = trainer.run_round(trainer.initial_parameters(), 0)
    return {update.owner_id: update.parameters for update in record.updates}


@pytest.fixture(scope="session")
def protocol_run(dataset, owners):
    """A completed small blockchain protocol run (protocol object + result)."""
    config = ProtocolConfig(
        n_owners=len(owners),
        n_groups=2,
        n_rounds=2,
        local_epochs=5,
        learning_rate=2.0,
        permutation_seed=13,
    )
    protocol = BlockchainFLProtocol(
        owners, dataset.test_features, dataset.test_labels, dataset.n_classes, config
    )
    result = protocol.run()
    return protocol, result


@pytest.fixture()
def rng():
    """A fresh deterministic NumPy generator for per-test randomness."""
    return np.random.default_rng(1234)
