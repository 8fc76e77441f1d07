"""Cache models: generic set-associative, CPU hierarchy, metadata cache."""

from repro.cache.cache import CacheStats, SetAssociativeCache
from repro.cache.hierarchy import TABLE3_LEVELS, CacheHierarchy, LevelConfig
from repro.cache.metadata_cache import (
    MetadataCache,
    MetadataCacheStats,
    MetadataEviction,
)

__all__ = [
    "CacheHierarchy",
    "CacheStats",
    "LevelConfig",
    "MetadataCache",
    "MetadataCacheStats",
    "MetadataEviction",
    "SetAssociativeCache",
    "TABLE3_LEVELS",
]
