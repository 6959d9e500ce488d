import multiprocessing
import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from alleekit.model import KineticParams

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


@pytest.fixture(autouse=True)
def no_process_left():
    """Fail a test after which a child process of this one still runs: a
    pool worker that outlives its call."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes left running: {left}"


@pytest.fixture
def p_main() -> KineticParams:
    """The workhorse parameter set used throughout: alpha=0.07, beta=0.2,
    gamma=1.2, eta=0.1, sigma=2.7 (sigma swept where noted)."""
    return KineticParams(alpha=0.07, beta=0.2, gamma=1.2, sigma=2.7, eta=0.1)


@pytest.fixture
def p_ratio() -> KineticParams:
    """Ratio-dependent limit (alpha=0) of the same set, sigma near the
    coexistence fold."""
    return KineticParams(alpha=0.0, beta=0.2, gamma=1.2, sigma=3.95, eta=0.1)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260815)


def pytest_configure(config):
    """Hypothesis caches the literals of the code under test in its storage
    directory while collecting, even with database=None; a temporary one
    keeps .hypothesis/ out of the checkout."""
    config.stash[_HYPOTHESIS_HOME] = home = tempfile.TemporaryDirectory()
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    config.stash[_HYPOTHESIS_HOME].cleanup()
