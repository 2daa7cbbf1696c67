"""Tests for the top-level public API surface and the auditor's trusted base.

Every name has one import path: the module that defines it.  The package
``__init__`` files hold only their docstrings (the root also ``__version__``),
so importing one module loads what that module needs and nothing more.  The
auditor's closure — what ``import repro.core.audit`` loads — is stated in
``docs/architecture.md`` and ratcheted in CI; these tests keep both honest.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import repro

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Prints the number of ``src/`` lines ``import repro.core.audit`` loads.  The
#: ``docs`` CI job runs this very command as its audit-closure ratchet.
AUDIT_CLOSURE_LINES = (
    "import sys, repro.core.audit; "
    "print(sum(len(open(m.__file__).readlines()) "
    "for n, m in sys.modules.items() if n.split('.')[0] == 'repro'))"
)


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout


def _loaded_after(module: str) -> set[str]:
    """Every module a fresh interpreter holds after ``import module``."""
    return set(_run(f"import sys, {module}; print(*sorted(sys.modules))").split())


def _repro_modules(loaded: set[str]) -> set[str]:
    return {name for name in loaded if name.split(".")[0] == "repro"}


class TestPublicApi:
    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_subpackages_import_cleanly(self):
        import repro.analysis
        import repro.blockchain
        import repro.blockchain.contracts
        import repro.core
        import repro.crypto
        import repro.datasets
        import repro.fl
        import repro.shapley
        import repro.utils

        for module in (repro.analysis, repro.blockchain, repro.blockchain.contracts, repro.core,
                       repro.crypto, repro.datasets, repro.fl, repro.shapley, repro.utils):
            assert module.__doc__, f"{module.__name__} is missing a module docstring"


class TestOneImportPath:
    def test_every_package_init_is_its_docstring_only(self):
        for init in sorted((SRC / "repro").rglob("__init__.py")):
            body = ast.parse(init.read_text()).body
            assert body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant), \
                f"{init.relative_to(REPO)} has no docstring"
            rest = [ast.unparse(node) for node in body[1:]]
            expected = ["__version__ = '1.0.0'"] if init.parent.name == "repro" else []
            assert rest == expected, f"{init.relative_to(REPO)} holds more than its docstring: {rest}"

    def test_no_module_declares_all_or_a_module_getattr(self):
        for path in sorted((SRC / "repro").rglob("*.py")):
            for node in ast.parse(path.read_text()).body:
                assert not (isinstance(node, ast.FunctionDef) and node.name == "__getattr__"), path
                targets = node.targets if isinstance(node, ast.Assign) else []
                assert not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets), path


class TestTrustedBase:
    def test_the_audit_loads_no_producer_module(self):
        loaded = _loaded_after("repro.core.audit")
        producer = {
            *(f"repro.blockchain.{name}" for name in
              ("network", "node", "transport", "swarm", "storage", "mempool")),
            *(f"repro.core.{name}" for name in ("pipeline", "protocol", "participant", "crossdevice")),
            "repro.crypto.ldp",
            *(f"repro.fl.{name}" for name in ("trainer", "client", "server")),
            *(f"repro.shapley.{name}" for name in ("backend", "montecarlo", "native")),
            "multiprocessing", "sqlite3", "socket",
        }
        assert not loaded & producer
        assert not {name for name in loaded if name.startswith("repro.datasets")}

    def test_a_swarm_peer_loads_no_fl_or_evaluation_code(self):
        loaded = _repro_modules(_loaded_after("repro.blockchain.swarm"))
        assert "repro.blockchain.swarm" in loaded
        assert not {name for name in loaded
                    if name.split(".")[1:2] in (["core"], ["shapley"], ["datasets"], ["fl"])}

    def test_the_closure_is_the_one_the_architecture_doc_states(self):
        text = (REPO / "docs" / "architecture.md").read_text(encoding="utf-8")
        section = text.split("## The auditor's trusted base", 1)[1].split("\n## ", 1)[0]
        stated = re.search(r"(\d+) modules and (\d+) lines", section)
        assert stated, "docs/architecture.md no longer states the closure's size"
        table = [line.split("|")[2] for line in section.splitlines() if line.startswith("| `repro")]
        listed = set(re.findall(r"`(repro[\w.]*)`", "".join(table)))
        loaded = _repro_modules(_loaded_after("repro.core.audit"))
        assert listed == loaded
        assert len(loaded) == int(stated.group(1))
        assert int(_run(AUDIT_CLOSURE_LINES)) <= int(stated.group(2))

    def test_ci_ratchets_the_closure_at_the_stated_count(self):
        doc = (REPO / "docs" / "architecture.md").read_text(encoding="utf-8")
        stated = re.search(r"(\d+) modules and (\d+) lines", doc).group(2)
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
        assert f'python -c "{AUDIT_CLOSURE_LINES}")" -le {stated}' in ci
