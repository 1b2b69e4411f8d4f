import sys
from pathlib import Path

import pytest

from sumset_census import census, engine

# tests import the shared oracles module by plain name
sys.path.insert(0, str(Path(__file__).parent))


CACHES = (
    engine._plane_classes,
    census._order_tally,
)


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts and ends with no class table or order tally held,
    so a patched engine, census or verifier binding is never answered from
    a cache and leaves none of its results behind."""
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()
