"""One SQLite connection discipline for the package's small databases.

The pool catalog (:mod:`repro.service.catalog`) and the pipeline debug
record (:mod:`repro.pipeline.db`) are both SQLite files shared by the
threads of one process and by concurrent processes.  :class:`SQLiteDB`
is their common base: one connection per thread, opened with the pragma
table of SNIPPETS §1 —

==================  ========  =========================================
``journal_mode``    WAL       one writer coexists with readers
``foreign_keys``    ON        referential integrity
``synchronous``     NORMAL    durable enough for indexes and debug rows
``busy_timeout``    30000 ms  writers queue instead of erroring
==================  ========  =========================================

— followed by the subclass's idempotent schema script and its
schema-version row.  Timestamps are ISO-8601 UTC (:func:`utc_now_iso`).
"""

from __future__ import annotations

import datetime
import sqlite3
import threading

from repro.store.pool_store import PathLike

#: how long a connection waits on another writer's lock before erroring.
BUSY_TIMEOUT_MS = 30_000


def utc_now_iso() -> str:
    """Current UTC time as an ISO-8601 string (``...Z``, microseconds)."""
    now = datetime.datetime.now(datetime.timezone.utc)
    return now.isoformat(timespec="microseconds").replace("+00:00", "Z")


class SQLiteDB:
    """Thread-local connections to one SQLite file with a pinned schema.

    Subclasses set :attr:`SCHEMA` (``CREATE ... IF NOT EXISTS`` DDL run on
    every new connection), :attr:`META_TABLE` (the key/value table that
    records ``schema_version``) and :attr:`SCHEMA_VERSION`.
    """

    SCHEMA = ""
    META_TABLE = ""
    SCHEMA_VERSION = 1

    def __init__(self, path: PathLike) -> None:
        self._path = str(path)
        self._local = threading.local()

    @property
    def path(self) -> str:
        """The database file path."""
        return self._path

    def _conn(self) -> sqlite3.Connection:
        """This thread's connection, opened and initialised on first use."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(self._path, timeout=BUSY_TIMEOUT_MS / 1000.0)
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA foreign_keys=ON")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            conn.executescript(self.SCHEMA)
            conn.execute(
                f"INSERT OR IGNORE INTO {self.META_TABLE}(key, value) VALUES(?, ?)",
                ("schema_version", str(self.SCHEMA_VERSION)),
            )
            conn.commit()
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Close this thread's connection (others close with their threads)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def schema_version(self) -> int:
        """The schema version pinned in the meta table."""
        row = self._conn().execute(
            f"SELECT value FROM {self.META_TABLE} WHERE key = 'schema_version'"
        ).fetchone()
        return int(row["value"])
