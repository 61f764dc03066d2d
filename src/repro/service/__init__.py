"""Cached design-query service: content-addressed artifact store,
query handlers, and a stdlib HTTP front end.

The five engines answer design queries ("layout for ISN(l; k1..k3)",
"optimal packaging under a pin limit", "saturation rate at n") in
seconds; this package makes repeated parameter points O(1): results are
stored content-addressed on disk (:mod:`~repro.service.store`), computed
on miss through one shared handler layer (:mod:`~repro.service.handlers`)
that the CLI subcommands also use, and served over HTTP by ``repro
serve`` (:mod:`~repro.service.server`).  The cache doubles as a
regression corpus: ``repro cache verify`` re-hashes every stored
artifact and quarantines anything corrupt."""

from .handlers import QUERY_KINDS, QueryError, compute, normalize_params, query
from .store import (
    SCHEMA_VERSION,
    ArtifactStore,
    CacheEntry,
    cache_key,
    canonical_json,
    default_cache_dir,
)
from .server import ServiceHTTPHandler, make_server

__all__ = [
    "ArtifactStore",
    "CacheEntry",
    "SCHEMA_VERSION",
    "cache_key",
    "canonical_json",
    "default_cache_dir",
    "QUERY_KINDS",
    "QueryError",
    "normalize_params",
    "compute",
    "query",
    "ServiceHTTPHandler",
    "make_server",
]
