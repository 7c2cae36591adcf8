"""Every demo runs as its own process, cleanly, with frozen output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# first 16 hex digits of the sha256 of each demo's stdout
FROZEN = {
    "01_identities_and_graphs.py": "7bc7476db2069b52",
    "02_classification.py": "787d276c13afa851",
    "03_implication_chains.py": "9b7492f68a0dc2af",
    "04_gadget_evaluation.py": "3b3610d5ae081b9a",
    "05_reduction_reports.py": "f33d741252ce1672",
    "06_deciding_algebras.py": "1e4e71e5c6deb0a8",
}


def test_every_demo_is_frozen() -> None:
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(FROZEN)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_demo_output(name: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                          env=env, capture_output=True, timeout=60)
    assert done.returncode == 0
    assert done.stderr == b""
    assert hashlib.sha256(done.stdout).hexdigest()[:16] == FROZEN[name]
