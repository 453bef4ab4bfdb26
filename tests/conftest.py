import sys
from pathlib import Path

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
