import os
import sys

import pytest

from cancelkit.cache import active_store

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def no_job_store():
    """Every test starts and ends outside a job: a store left installed
    would turn the library-mode tests after it into in-job ones."""
    assert active_store.get() is None
    yield
    assert active_store.get() is None
