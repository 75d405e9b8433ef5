import sys

import numpy as np
import pytest
from hypothesis import settings

from audioinr import set_default_dtype

# Fuzz tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic and its run time bounded.
settings.register_profile("audioinr", derandomize=True, deadline=None, max_examples=150,
                          database=None)
settings.load_profile("audioinr")


@pytest.fixture(autouse=True)
def _reset_dtype():
    set_default_dtype(np.float64)
    yield
    set_default_dtype(np.float64)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-check result lines even when capture is on."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULT_LINES", None)
    if lines:
        terminalreporter.section("acceptance checks")
        for line in lines:
            terminalreporter.write_line(line)
