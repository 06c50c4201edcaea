"""The shared invalidation vocabulary: why a cached artifact was rejected.

Before this module, three layers described "we could not serve the cached
thing" in three private dialects: the store's quarantine ``reason.json``
carried free-form exception text, :class:`~repro.api.session.SessionStats`
counted ``store_invalidations`` with no reason at all, and
``diagnostics.resilience`` events stringified whatever the helper had on
hand.  :class:`InvalidationReason` is the one enum all of them now speak —
``(str, Enum)``, so members JSON-serialise as their string value and
compare equal to it, which keeps every existing ``reason == "..."``
consumer working.  Every raise site names its member explicitly; the
constructor (``InvalidationReason("corrupt_columns")``) is the only
coercion, so a reason is never inferred from message text.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["InvalidationReason"]


class InvalidationReason(str, Enum):
    """Why a cached pool (in memory or on disk) could not be served as-is."""

    #: entry was sampled from a different graph (fingerprint mismatch).
    FINGERPRINT_MISMATCH = "fingerprint_mismatch"
    #: entry's manifest describes a different :class:`~repro.store.PoolKey`.
    KEY_MISMATCH = "key_mismatch"
    #: entry was written by an incompatible on-disk format version.
    FORMAT_VERSION = "format_version"
    #: column files fail their shape or CRC-32 checks (on-disk corruption).
    CORRUPT_COLUMNS = "corrupt_columns"
    #: manifest is unreadable, unparsable, or not a pool-store manifest.
    MALFORMED_MANIFEST = "malformed_manifest"
    #: graph delta churn exceeded ``EngineConfig.delta_churn_threshold`` —
    #: the pool was regenerated rather than repaired.
    DELTA_CHURN = "delta_churn"
    #: pool lacks the root / touch columns incremental repair needs.
    TOUCH_ABSENT = "touch_absent"

    def __str__(self) -> str:  # "fingerprint_mismatch", not the repr
        return self.value

