import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oproj.linalg as linalg
from oproj.linalg import blas_threads

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def fixtures_dir():
    return FIXTURES


def fixture_command(script: str) -> str:
    """Command string for a bundled subprocess model."""
    return f"{sys.executable} {FIXTURES / script}"


def process_gone(pid: int, within: float = 5.0) -> bool:
    """Whether process ``pid`` has exited (a zombie counts) within
    ``within`` seconds, judged from /proc."""
    deadline = time.monotonic() + within
    while True:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return True
        if stat.rpartition(")")[2].split()[0] == "Z":
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)


needs_proc = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads process states from /proc"
)


needs_openblas = pytest.mark.skipif(
    blas_threads() is None, reason="numpy's OpenBLAS was not found in this process"
)


@pytest.fixture
def two_blas_threads():
    """OpenBLAS set to two threads for the test, then back to its count."""
    set_threads = linalg._openblas()[0]
    before = blas_threads()
    set_threads(2)
    yield
    set_threads(before)
