"""Staged, move-aside installs of entry directories.

Both on-disk caches — the pool store (:mod:`repro.store.pool_store`) and
the pipeline's stage cache (:mod:`repro.pipeline.cache`) — publish an
entry directory the same way: build it in full in a private staging
directory beside it, atomically move the previous entry aside,
atomically rename the staging directory into place, and put the old
entry back if that rename genuinely fails.  A reader never observes a
half-written entry, and a crash leaves the old entry, the new entry, or
(only within the window between the two renames) a plain miss.

Concurrent writers of one entry race on the final rename: exactly one
installs, and the losers discard their staging quietly and leave the
winner's entry standing — the right semantics when entries are identical
recomputations.  Staging (``.staging.<name>.<token>``) and retired
(``.trash.<name>.<token>``) names carry a pid, thread and counter token,
so no two writers — threads of one process included — ever share one.
"""

from __future__ import annotations

import errno
import itertools
import os
import shutil
import threading
from pathlib import Path
from typing import Callable

from repro import faults
from repro.errors import StoreError

#: name prefixes of in-flight (or crash-orphaned) temp directories.
STAGING_PREFIX = ".staging."
TRASH_PREFIX = ".trash."

#: monotonic disambiguator for staging/trash names within one thread.
_TEMP_COUNTER = itertools.count()


def staged_install(entry: Path, write: Callable[[Path], None]) -> bool:
    """Build ``entry`` with ``write(staging_dir)`` and install it atomically.

    Returns ``True`` when this call's entry was installed and ``False``
    when a concurrent writer's entry won the race (theirs stands).
    Raises :class:`~repro.errors.StoreError` when the previous entry
    cannot be moved aside or the new one cannot be renamed into place
    (the previous entry is restored first).  Whatever ``write`` raises
    propagates after the staging directory is removed — except an
    injected writer ``crash`` (:mod:`repro.faults`), which leaves its
    staging behind exactly as a killed process would, for the store's
    open-time GC to find.
    """
    token = f"{os.getpid()}.{threading.get_ident()}.{next(_TEMP_COUNTER)}"
    staging = entry.parent / f"{STAGING_PREFIX}{entry.name}.{token}"
    retired = entry.parent / f"{TRASH_PREFIX}{entry.name}.{token}"
    staging.mkdir(parents=True)
    try:
        write(staging)
        moved_aside = False
        if entry.exists():
            try:
                os.replace(entry, retired)  # atomic move-aside
            except FileNotFoundError:
                # Same-entry race: another writer retired the entry
                # between our check and the rename — it no longer blocks
                # our install.
                pass
            except OSError as exc:
                # Any other retire failure is a genuine error (EACCES,
                # EIO, ...) — do not mask it as success with the stale
                # entry in place.
                shutil.rmtree(staging, ignore_errors=True)
                raise StoreError(
                    f"failed to retire previous entry {entry}: {exc}"
                ) from exc
            else:
                moved_aside = True
        try:
            os.replace(staging, entry)
        except OSError as exc:
            shutil.rmtree(staging, ignore_errors=True)
            if entry.exists() or exc.errno in (errno.ENOTEMPTY, errno.EEXIST):
                # Benign same-entry race: another writer installed an
                # (equivalent) entry between our renames (ENOTEMPTY /
                # EEXIST means their entry blocked ours even if they are
                # mid-replace right now); theirs stands, our old copy can
                # retire.
                shutil.rmtree(retired, ignore_errors=True)
                return False
            if moved_aside:
                # Genuine failure (EIO, EACCES, ...): put the old — still
                # valid — entry back rather than losing it.
                try:
                    os.replace(retired, entry)
                except OSError:  # pragma: no cover - double fault
                    pass
            raise StoreError(f"failed to install entry {entry}: {exc}") from exc
    except BaseException as exc:
        if not (isinstance(exc, faults.InjectedFault) and exc.kind == "crash"):
            shutil.rmtree(staging, ignore_errors=True)
        raise
    shutil.rmtree(retired, ignore_errors=True)
    return True
