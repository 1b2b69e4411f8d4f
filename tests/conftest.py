import sys
from pathlib import Path

import pytest

from sumset_census import verifier

# tests import the shared oracles module by plain name
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def cold_verifier():
    """Every test starts and ends with no classification or candidate walk
    held, so a patched _profile or _sizes is never answered from the memo
    and leaves none of its profiles behind."""
    verifier._classes.clear()
    verifier._candidates.cache_clear()
    yield
    verifier._classes.clear()
    verifier._candidates.cache_clear()
