"""Every ``repro`` subpackage imports on its own, in a fresh interpreter.

An import cycle between subpackages only breaks when a module on the
cycle is the first one imported.  The test session cannot show that
in-process (conftest imports several subpackages up front), so each
import runs in its own interpreter.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SUBPACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in (SRC / "repro").rglob("__init__.py")
)


def _fresh_import(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", f"import {name}"],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture(scope="module")
def fresh_imports():
    """Every subpackage's fresh-interpreter import, a few at a time."""
    with ThreadPoolExecutor(max_workers=4) as pool:
        return dict(zip(SUBPACKAGES, pool.map(_fresh_import, SUBPACKAGES)))


def test_every_subpackage_is_listed():
    assert {"repro", "repro.cluster", "repro.energy", "repro.workloads"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_imports_in_fresh_interpreter(name, fresh_imports):
    out = fresh_imports[name]
    assert out.returncode == 0, out.stderr
