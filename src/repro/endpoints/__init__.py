"""repro.endpoints — whole-corpus static endpoint reconstruction.

Reconstructs the URLs each app's bytecode can contact via
interprocedural string/constant propagation (§DESIGN.md 17), flags
cleartext and credential-embedding endpoints, attributes each to its
owning SDK, and cross-validates the reconstruction against the dynamic
crawl's NetLog on the top-install overlap.

Perf core: per-class propagation summaries memoized corpus-wide by
content digest (second fact kind in the shared class-facts cache), an
outcome tier for whole-app reconstructions, and streaming execution
with a bounded in-flight window.
"""

from repro.endpoints.summaries import (
    ClassStringSummary,
    URL_SCHEMES,
    compute_class_summary,
    summary_for_class,
)
from repro.endpoints.census import (
    AppEndpoints,
    CLEARTEXT_SCHEMES,
    ENDPOINT_SCHEMA,
    EndpointCensus,
    EndpointRecord,
    EndpointResult,
    analyze_endpoint_bytes,
    endpoint_fingerprint,
    lazy_sha256,
    reconstruct_endpoints,
)
from repro.endpoints.crossval import (
    DEFAULT_OVERLAP,
    SdkValidation,
    ValidationResult,
    cross_validate,
    session_netlog,
    strip_query,
    validation_table,
)

__all__ = [
    "AppEndpoints",
    "CLEARTEXT_SCHEMES",
    "ClassStringSummary",
    "DEFAULT_OVERLAP",
    "ENDPOINT_SCHEMA",
    "EndpointCensus",
    "EndpointRecord",
    "EndpointResult",
    "SdkValidation",
    "URL_SCHEMES",
    "ValidationResult",
    "analyze_endpoint_bytes",
    "compute_class_summary",
    "cross_validate",
    "endpoint_fingerprint",
    "lazy_sha256",
    "reconstruct_endpoints",
    "session_netlog",
    "strip_query",
    "summary_for_class",
    "validation_table",
]
