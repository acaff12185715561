"""Crash-safe append-only JSONL journal (write-ahead log for long runs).

Every retired unit of work — an engine decision inside a
:class:`~repro.resolve.incremental.ResolutionStore` ingestion, a per-pair
prediction inside :func:`repro.eval.evaluator.evaluate_model` — is
appended as one JSON line and fsync'd before the run moves on.  A run
killed at any point can then be replayed from the journal and continued,
producing output byte-identical to an uninterrupted run (the continuing
engine is deterministic, and already-journaled work is never re-decided).

File format::

    {"type": "header", "version": 1, "kind": "resolve", ...}\n
    {"type": "record", "record_id": "a", ...}\n
    {"type": "decision", "left": "a", "right": "b", "match": true, ...}\n
    {"type": "commit", "record_id": "a"}\n

Torn writes: a crash mid-append leaves a final line without a trailing
newline (or with truncated JSON).  :func:`read_journal` detects exactly
that case and drops the torn line — the unit of work it described was
never acknowledged, so the resumed run simply redoes it.  A malformed
line *before* the final one is not a crash artifact and raises
:class:`JournalError` (the file was corrupted, not torn).  A resume
parses the journal once and calls :func:`repair` only when that parse
reported a torn tail, so a clean restart reads the file once.

A special case of the torn tail is a **torn header**: the process died
between creating the file and fsyncing the header line, leaving an empty
file or a single truncated line.  No work was ever acknowledged through
such a journal, so recovery callers pass ``allow_blank=True`` and treat
it as an empty journal (start fresh) rather than a corrupt one.

Durability of the *file itself*: creating a journal (and truncating one
in :func:`repair`) also fsyncs the parent directory — without that, a
crash after the header fsync could still lose the directory entry, i.e.
the file's contents would be durable but the file would not exist.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

__all__ = [
    "JOURNAL_VERSION",
    "JournalError",
    "JournalWriter",
    "fsync_dir",
    "journal_header",
    "read_journal",
    "repair",
]

JOURNAL_VERSION = 1


class JournalError(ValueError):
    """The journal file is corrupt or does not match the resuming run.

    Structured: ``path`` is the offending journal file and ``lineno`` the
    1-based line the problem was detected on (``None`` when the error is
    about the file as a whole), so callers — and the CLI — can point at
    the exact line instead of printing a bare traceback.
    """

    def __init__(
        self,
        message: str,
        path: "str | Path | None" = None,
        lineno: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.path = None if path is None else Path(path)
        self.lineno = lineno


def fsync_dir(directory: str | Path) -> None:
    """Flush a directory entry to disk (file create/rename/truncate).

    File-content fsync does not cover the directory that names the file;
    a crash can durably persist bytes into a file that no longer has a
    directory entry.  No-op on platforms without ``os.O_DIRECTORY``.
    """
    flag = getattr(os, "O_DIRECTORY", None)
    if flag is None:  # pragma: no cover — non-POSIX
        return
    fd = os.open(str(directory), os.O_RDONLY | flag)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class JournalWriter:
    """Append-only, fsync'd JSONL writer (thread-safe).

    Opening a path that does not exist (or is empty) writes a header
    line first — and fsyncs the parent directory so the freshly created
    file survives a crash; reopening an existing journal appends after
    its current end, which is how a resumed run continues the same file.
    """

    def __init__(self, path: str | Path, header: dict | None = None) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        #: entries acknowledged through *this writer* (header excluded);
        #: incremented under the writer lock, so it is exact even with
        #: concurrent appenders — snapshot sequence numbers build on it.
        self.entries = 0
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._handle = open(self.path, "a", encoding="utf-8")
        if fresh:
            fsync_dir(self.path.parent)
            self.append(
                {"type": "header", "version": JOURNAL_VERSION, **(header or {})}
            )
            self.entries = 0  # the header is not an entry.

    def append(self, record: dict) -> None:
        """Write one record and force it to disk before returning."""
        line = json.dumps(record, sort_keys=True, ensure_ascii=True)
        if "\n" in line:  # pragma: no cover — json never emits raw newlines
            raise JournalError("journal records must be single-line JSON")
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self.entries += 1

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _is_blank(raw: bytes) -> bool:
    """True when *raw* is a torn-header artifact (no acknowledged line).

    Covers both crash windows of journal creation: nothing written yet
    (empty file), and a single header line whose trailing newline never
    landed (torn, regardless of whether the JSON happens to parse).
    """
    if not raw:
        return True
    return b"\n" not in raw


def read_journal(
    path: str | Path,
    expect: dict | None = None,
    allow_blank: bool = False,
) -> tuple[list[dict], bool]:
    """Parse a journal; returns ``(records, torn)``.

    ``records`` excludes the header line.  ``torn`` is True when the
    final line was a torn write (no trailing newline or truncated JSON)
    and was dropped.  ``expect`` entries are checked against the header
    (e.g. ``{"kind": "resolve"}``) so a journal from a different run
    cannot be replayed into the wrong consumer.

    With ``allow_blank=True`` a journal with no acknowledged header —
    empty file, or a single line with no trailing newline (the crash
    windows between ``open()`` and the header fsync) — parses as
    ``([], True)`` instead of raising: it is an *empty* journal, not a
    corrupt one.
    """
    path = Path(path)
    raw = path.read_bytes()
    if _is_blank(raw):
        if allow_blank:
            return [], bool(raw)
        raise JournalError(f"{path}: empty journal (missing header)", path=path)
    lines = raw.decode("utf-8", errors="replace").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    complete = raw.endswith(b"\n")
    torn = False
    parsed: list[dict] = []
    for lineno, line in enumerate(lines, start=1):
        final = lineno == len(lines)
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("journal line is not an object")
        except ValueError:
            if final:
                torn = True
                break
            raise JournalError(
                f"{path}:{lineno}: corrupt journal line (not valid JSON)",
                path=path,
                lineno=lineno,
            ) from None
        if final and not complete:
            # Parseable JSON but no trailing newline: the fsync that
            # acknowledged this line never completed — still a torn write.
            torn = True
            break
        parsed.append(record)
    if not parsed or parsed[0].get("type") != "header":
        raise JournalError(
            f"{path}: first journal line is not a header", path=path, lineno=1
        )
    header = parsed[0]
    version = header.get("version")
    if version != JOURNAL_VERSION:
        raise JournalError(
            f"{path}: unsupported journal version {version!r} "
            f"(expected {JOURNAL_VERSION})",
            path=path,
            lineno=1,
        )
    for key, value in (expect or {}).items():
        if header.get(key) != value:
            raise JournalError(
                f"{path}: journal header {key}={header.get(key)!r} does not "
                f"match the resuming run ({key}={value!r})",
                path=path,
                lineno=1,
            )
    return parsed[1:], torn


def journal_header(path: str | Path) -> dict:
    """The parsed header line of a journal (validated for shape only).

    Lets recovery consumers inspect optional header fields —
    ``basis`` (compaction bookkeeping), configuration fingerprints —
    without re-reading the whole file.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        first = handle.readline()
    if not first.endswith(b"\n"):
        raise JournalError(
            f"{path}: first journal line is not a header", path=path, lineno=1
        )
    try:
        header = json.loads(first)
        if not isinstance(header, dict):
            raise ValueError("journal line is not an object")
    except ValueError:
        raise JournalError(
            f"{path}: first journal line is not a header", path=path, lineno=1
        ) from None
    if header.get("type") != "header":
        raise JournalError(
            f"{path}: first journal line is not a header", path=path, lineno=1
        )
    return header


def repair(path: str | Path) -> bool:
    """Truncate a torn final line in place; True when bytes were dropped.

    Appending after a torn tail would concatenate the new record onto the
    crash fragment and corrupt *both* lines, so a resume whose
    :func:`read_journal` parse reported ``torn`` must repair before
    reopening the journal for writing.  This parses the file again, so a
    resume that already parsed an untorn journal skips the call.  A torn
    *header* (a file whose only line never got its newline) truncates to
    an empty file, which :class:`JournalWriter` then re-initialises.  A
    journal with no torn tail is left untouched.  The truncation is
    fsync'd (file and directory) before returning.
    """
    path = Path(path)
    _, torn = read_journal(path, allow_blank=True)
    if not torn:
        return False
    raw = path.read_bytes()
    if not raw:
        return False
    body = raw[:-1] if raw.endswith(b"\n") else raw
    keep = body.rfind(b"\n") + 1
    with open(path, "r+b") as handle:
        handle.truncate(keep)
        handle.flush()
        os.fsync(handle.fileno())
    fsync_dir(path.parent)
    return True
