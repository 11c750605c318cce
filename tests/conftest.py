"""Shared fixtures and the acceptance-summary hook."""

import os
import sys
import warnings

# One BLAS thread, as perfbench/run.py sets: the drift's matrix products
# run under chaos_check's worker threads, and BLAS threads on top of them
# fight for the same cores.  The variables only act before numpy loads.
if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py, so its BLAS "
                  "may run several threads under chaos_check's workers")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import torusmf as tm  # noqa: E402

# criterion label -> (passed, detail); filled by tests/test_acceptance.py
ACCEPTANCE_RESULTS: dict[str, tuple[bool, str]] = {}


def record_criterion(label: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS[label] = (passed, detail)
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {label}: {status} {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[label]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{label}: {status} {detail}")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def do_kernel():
    return tm.doi_onsager()


@pytest.fixture(scope="session")
def do_normalized():
    return tm.normalize(tm.doi_onsager())
