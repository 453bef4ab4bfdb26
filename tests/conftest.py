import sys
from pathlib import Path

import pytest
from hypothesis import settings

# allow running the suite from a fresh checkout without installing
try:
    import genbounds  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# one profile for every property test: the same examples on every run, no
# example database carried between runs, and no per-example deadline
settings.register_profile("genbounds", derandomize=True, database=None, deadline=None)
settings.load_profile("genbounds")


@pytest.fixture
def helper_points(monkeypatch):
    """The points that `info.gdelta_sup` sends its forked helper, which it starts as on two CPUs."""
    import numpy as np

    from genbounds import info

    sent = []

    class Spy(info._Helper):
        def send(self, points):
            sent.extend(np.array(x) for x in points)
            super().send(points)

    monkeypatch.setattr(info, "_Helper", Spy)
    monkeypatch.setattr(info, "_cpus", lambda: 2)
    return sent
