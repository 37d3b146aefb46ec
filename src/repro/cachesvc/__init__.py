"""``repro.cachesvc``: the shared compile-cache service.

One cache-manager daemon (:class:`CacheServer`, stdlib HTTP — start it
with ``repro cachesvc serve``) owns a warm in-memory LRU tier and
cross-process single-flight leases over an existing
:class:`~repro.analysis.diskcache.DiskCache` root; the thin
:class:`RemoteCache` client slots in wherever a ``DiskCache`` went,
selected via ``Session(cache_url=...)`` / ``--cache-url`` /
``$REPRO_CACHE_URL``::

    from repro.cachesvc import create_cache_server
    from repro.flow import Session

    server = create_cache_server(port=0, root=".repro_cache")
    session = Session(cache_url=server.url)
    session.run_matrix(parallel=4)      # zero duplicate compiles
    server.close()

See ``examples/cachefarm.py`` for the full tour.
"""

from .client import RemoteCache
from .service import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MEMORY_BYTES,
    DEFAULT_PORT,
    CacheServer,
    MemoryTier,
    create_cache_server,
)

__all__ = [
    "CacheServer",
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_MEMORY_BYTES",
    "DEFAULT_PORT",
    "MemoryTier",
    "RemoteCache",
    "create_cache_server",
]
