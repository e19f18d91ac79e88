"""Suite-wide fixtures."""

import pytest

from repro.experiments.parallel import clear_result_memo


@pytest.fixture(autouse=True)
def _isolated_result_memo():
    """Every test starts and ends with an empty in-process result memo, so a
    cell simulated by one test is never served to another."""
    clear_result_memo()
    yield
    clear_result_memo()
