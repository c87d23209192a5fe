"""Stable binary serialization of datasets (and other cache values).

The engine's disk cache persists executed node outputs — almost always
:class:`~repro.datamodel.dataset.Dataset` objects — as files that outlive the
process and are shared by concurrent workers.  That demands a format with
properties plain ``pickle.dumps`` does not give on its own:

* **framing** — a magic number and format version up front, so a file from a
  different (or future) format is rejected instead of misinterpreted;
* **integrity** — a SHA-1 digest over the payload, so a truncated or
  bit-flipped file is detected *before* unpickling (unpickling corrupt data
  can raise almost anything, or worse, succeed with garbage);
* **stability** — datasets drop their memoized fingerprint on serialization
  (see :meth:`Dataset.__getstate__`), so two equal-content datasets produce
  equal payloads regardless of which of them was fingerprinted first.

Layout of a payload::

    | MAGIC (4 bytes) | version (1 byte) | sha1(payload) (20 bytes) | payload |

Corrupt input of any shape raises :class:`CachePayloadError` — never a bare
``UnpicklingError``/``EOFError`` — so callers can treat "bad file" as one
condition and discard the entry.
"""

from __future__ import annotations

import hashlib
import io
import pickle
from typing import Any

__all__ = ["CachePayloadError", "dumps_payload", "loads_payload", "read_payload_file"]

#: magic number identifying a repro cache payload
MAGIC = b"RPRC"

#: bump when the payload encoding changes incompatibly
VERSION = 2

_HEADER_LEN = len(MAGIC) + 1 + hashlib.sha1().digest_size


class CachePayloadError(ValueError):
    """The bytes are not a valid cache payload (truncated, corrupt, foreign)."""


def dumps_payload(value: Any) -> bytes:
    """Serialize ``value`` into a framed, checksummed, self-describing blob.

    Raises whatever ``pickle`` raises for unpicklable values — the disk cache
    treats that as "value not cacheable" and skips the write.
    """
    payload = pickle.dumps(value, protocol=4)
    digest = hashlib.sha1(payload).digest()
    return MAGIC + bytes([VERSION]) + digest + payload


def loads_payload(data: bytes) -> Any:
    """Decode a blob produced by :func:`dumps_payload`.

    Raises :class:`CachePayloadError` for anything that is not a complete,
    intact, current-version payload.
    """
    if len(data) < _HEADER_LEN:
        raise CachePayloadError(f"payload truncated: {len(data)} bytes < header")
    if data[: len(MAGIC)] != MAGIC:
        raise CachePayloadError("bad magic number (not a repro cache payload)")
    version = data[len(MAGIC)]
    if version != VERSION:
        raise CachePayloadError(f"unsupported payload version {version} (expected {VERSION})")
    digest_start = len(MAGIC) + 1
    digest = data[digest_start:_HEADER_LEN]
    payload = data[_HEADER_LEN:]
    if hashlib.sha1(payload).digest() != digest:
        raise CachePayloadError("payload checksum mismatch (corrupt or truncated entry)")
    try:
        return pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - any unpickling failure means corrupt
        raise CachePayloadError(f"payload failed to unpickle: {exc}") from exc


def read_payload_file(path) -> Any:
    """Read and decode one payload file (:class:`CachePayloadError` on corruption).

    A missing file raises ``FileNotFoundError`` untouched — "entry evicted by
    a concurrent process" is a plain miss, not corruption.
    """
    try:
        with io.open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise CachePayloadError(f"payload unreadable: {exc}") from exc
    return loads_payload(data)
