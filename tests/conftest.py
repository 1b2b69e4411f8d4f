import sys
from pathlib import Path

import pytest

from sumset_census import census, engine

# tests import the shared oracles module by plain name
sys.path.insert(0, str(Path(__file__).parent))


# how to clear each cache a sweep or census reads
CACHES = (
    engine._plane_classes.cache_clear,
    census._order_tally.cache_clear,
    census._class_profiles.clear,
)


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts and ends with no class table, order tally or class
    profile held, so a patched engine, census or verifier binding is never
    answered from a cache and leaves none of its results behind."""
    for clear in CACHES:
        clear()
    yield
    for clear in CACHES:
        clear()
