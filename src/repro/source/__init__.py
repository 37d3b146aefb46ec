"""One source layer: registry benchmarks, netlists, frontend functions.

See :mod:`repro.source.base` for the :class:`Source` abstraction and
:mod:`repro.source.registry` for named registration and the
``explicit > $REPRO_SOURCE`` resolution everything routes through.
"""

from .base import (
    FileSource,
    FrontendSource,
    MigSource,
    RegistrySource,
    Source,
)
from .registry import (
    SourceLike,
    available_sources,
    get_source,
    register_source,
    resolve_source,
)

__all__ = [
    "FileSource",
    "FrontendSource",
    "MigSource",
    "RegistrySource",
    "Source",
    "SourceLike",
    "available_sources",
    "get_source",
    "register_source",
    "resolve_source",
]
