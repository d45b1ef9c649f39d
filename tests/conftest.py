"""Shared test configuration (see :mod:`tests.testing` for the helpers
this suite uses)."""

import pytest

from tests.testing import register_hypothesis_profile

register_hypothesis_profile()


@pytest.fixture(autouse=True)
def postmortem_dir(tmp_path, monkeypatch):
    """Send flight-recorder dumps to the test's tmpdir: tests that
    provoke a ``ChaosError`` on purpose must not write into the working
    tree's ``postmortems/``."""
    monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(tmp_path))
    return tmp_path
