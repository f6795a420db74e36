"""Set-up shared by every test module."""

import shutil
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # Even with no example database, hypothesis caches the constants it finds
    # in local source files under `.hypothesis/`; keep that cache out of the
    # working tree and drop it when the test run ends.
    config.stash[HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="scanloc-hypothesis-")
    set_hypothesis_home_dir(config.stash[HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[HYPOTHESIS_HOME], ignore_errors=True)
