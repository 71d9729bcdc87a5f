"""Exception hierarchy for the repro library.

Every subsystem raises exceptions derived from :class:`ReproError` so callers
can catch library failures with a single handler while still being able to
distinguish the failing layer.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class DexError(ReproError):
    """Raised for malformed DEX bytecode or serialization failures."""


class ApkError(ReproError):
    """Raised for malformed APK containers."""


class BrokenApkError(ApkError):
    """Raised when an APK is corrupted beyond analysis (paper: 242 APKs)."""


class ManifestError(ReproError):
    """Raised for malformed Android manifests (text or binary XML)."""


class JavaSyntaxError(ReproError):
    """Raised when Java source cannot be parsed.

    Mirrors ``javalang.parser.JavaSyntaxError`` which the paper's pipeline
    had to handle when parsing decompiled sources.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class DecompilationError(ReproError):
    """Raised when the decompiler fails on an APK (JADX failure analogue)."""


class CallGraphError(ReproError):
    """Raised for call-graph construction failures."""


class EndpointError(ReproError):
    """Raised when static endpoint reconstruction fails for one app."""


class StoreError(ReproError):
    """Raised by the Play Store catalog / scraper client."""


class AppNotFoundError(StoreError):
    """Raised when an app is not present on the store (delisted apps)."""


class RepositoryError(ReproError):
    """Raised by the AndroZoo-like APK repository."""


class JsError(ReproError):
    """Base class for JavaScript substrate errors."""


class JsSyntaxError(JsError):
    """Raised when injected JavaScript cannot be parsed."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class JsRuntimeError(JsError):
    """Raised when injected JavaScript fails at runtime."""


class HtmlError(ReproError):
    """Raised for malformed HTML handed to the mini HTML parser."""


class NetworkError(ReproError):
    """Raised by the simulated network stack."""


class DnsError(NetworkError):
    """Raised when a simulated hostname cannot be resolved."""


class DeviceError(ReproError):
    """Raised by the simulated Android device."""


class HookError(ReproError):
    """Raised by the Frida-like instrumentation engine."""


class CrawlError(ReproError):
    """Raised by the ADB-style crawler."""


class CorpusError(ReproError):
    """Raised by the corpus generator for inconsistent configurations."""


class WorkerLostError(ReproError):
    """Raised when a shard's worker died and the retry budget ran out.

    The process pool (:mod:`repro.exec.pool`) re-queues chunks lost to
    worker death; a task still failing after
    ``ExecConfig.max_attempts`` is quarantined with this error so the
    study finishes with a ``worker_lost`` drop-taxonomy entry instead of
    aborting.
    """


# -- drop-reason taxonomy for the metrics layer -------------------------------
#
# The observability layer (repro.obs) counts pipeline drops per reason; the
# reason slugs are derived 1:1 from this module's exception classes so the
# metric vocabulary and the error taxonomy can never drift apart. Slugs are
# part of the public metric surface — renaming an exception class is a
# breaking change for dashboards (tests/test_errors_taxonomy.py pins them).

def error_classes():
    """Every public :class:`ReproError` subclass defined in this module."""
    classes = []
    for name, value in sorted(globals().items()):
        if name.startswith("_"):
            continue
        if isinstance(value, type) and issubclass(value, ReproError):
            classes.append(value)
    return classes


def leaf_error_classes():
    """Taxonomy leaves: error classes with no subclasses in this module."""
    classes = error_classes()
    return [
        cls for cls in classes
        if not any(other is not cls and issubclass(other, cls)
                   for other in classes)
    ]


def error_slug(exc_or_class):
    """Stable snake_case drop-reason slug for an error class or instance.

    ``BrokenApkError`` -> ``broken_apk``, ``AppNotFoundError`` ->
    ``app_not_found``, ``DnsError`` -> ``dns``.
    """
    cls = exc_or_class if isinstance(exc_or_class, type) else type(exc_or_class)
    name = cls.__name__
    if name.endswith("Error") and name != "Error":
        name = name[: -len("Error")]
    parts = []
    for char in name:
        if char.isupper() and parts:
            parts.append("_")
        parts.append(char.lower())
    return "".join(parts)


def drop_reason_slugs():
    """``{slug: leaf class}`` for every taxonomy leaf (the counter keys)."""
    return {error_slug(cls): cls for cls in leaf_error_classes()}
