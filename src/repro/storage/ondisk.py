"""A real on-disk backing store for dense sequential files.

The simulator's :class:`~repro.storage.pagefile.PageFile` meters
hypothetical disk accesses.  This module adds the real thing: a single
OS file laid out as a fixed header followed by ``M`` variable-length
page slots in a slotted region.  :class:`DiskPagedStore` is pure
physical I/O (seek, frame, checksum, read, write); the
:class:`~repro.storage.backend.DiskStore` backend mounts it under any
engine through the ``PageStore`` protocol.

File layout (all integers little-endian):

=======  ========================================================
offset   contents
=======  ========================================================
0        magic ``b"DSF1"``
4        format version (u32)
8        ``M`` — number of pages (u32)
12       ``d`` (u32), 16: ``D`` (u32), 20: ``J`` (u32, 0 = default)
24       page-slot capacity in bytes (u32)
28       reserved (u32)
32       page slot 1, 32 + slot:  page slot 2, ...
=======  ========================================================

Each page slot holds: payload length (u32), CRC32 of the payload
(u32), then the payload (see :mod:`repro.storage.codec`), padded to the
fixed slot capacity.  A payload whose frame outgrows its slot raises
:class:`PageOverflowError` — callers size slots from ``D`` and the
maximum record size they intend to store.

Corruption is detected on read: a slot whose CRC does not match raises
:class:`CorruptPageError` naming the page, which the recovery tests
exercise by flipping bytes on disk.
"""

from __future__ import annotations

import os
import struct
import zlib
from itertools import repeat
from typing import TYPE_CHECKING, Any, List, Optional

from ..core.errors import ReproError
from ..records import Record
from .codec import decode_page, encode_page
from .packed import (
    decode_page_image,
    encode_page_image,
    encode_records_image,
)
from .page import Page

if TYPE_CHECKING:  # pragma: no cover - faults imports this module
    from .faults import FaultInjector

MAGIC = b"DSF1"
#: Default format for newly created files.  Version 1 slots hold the
#: generic tag-codec page body verbatim; version 2 slots hold the
#: self-describing format-byte images of :mod:`repro.storage.packed`
#: (packed binary for homogeneous pages, the same tag codec behind
#: format byte 0 otherwise).  Both versions open and verify; a store
#: keeps serializing in the version its file was created with, so old
#: files stay readable *and* writable.
FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)
HEADER = struct.Struct("<4sIIIIIII")  # magic, ver, M, d, D, J, slot, reserved
SLOT_HEADER = struct.Struct("<II")  # payload length, crc32


class StorageError(ReproError):
    """Base class for on-disk storage failures."""


class CorruptPageError(StorageError):
    """A page slot failed its checksum (or the header is malformed)."""


class PageOverflowError(StorageError):
    """A page's frame (encoded payload plus slot header) no longer fits
    its fixed slot."""


class DiskPagedStore:
    """Fixed-geometry slotted page store over one OS file."""

    def __init__(self, path: str, file_object: Any, num_pages: int, d: int,
                 D: int, j: int, slot_capacity: int,
                 version: int = FORMAT_VERSION):
        if version not in SUPPORTED_VERSIONS:
            raise StorageError(f"unsupported format version {version}")
        self.path = path
        self._file = file_object
        self.num_pages = num_pages
        self.d = d
        self.D = D
        self.j = j
        self.slot_capacity = slot_capacity
        #: On-disk format version; fixed at creation and honoured by
        #: every read *and* write for the life of the file.
        self.version = version
        #: Optional :class:`~repro.storage.faults.FaultInjector` (or full
        #: :class:`~repro.storage.faults.FaultPlan`) consulted before and
        #: during every physical page write: ``check()`` may crash,
        #: ``filter_frame()`` may tear or bit-flip the frame.
        self.fault_injector: Optional[FaultInjector] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str,
        num_pages: int,
        d: int,
        D: int,
        j: int = 0,
        slot_capacity: int = 0,
        overwrite: bool = False,
        version: int = 0,
    ) -> "DiskPagedStore":
        """Create a fresh store with empty pages.

        ``slot_capacity`` of 0 sizes slots for ``D`` integer-keyed
        records with small payloads (64 bytes per record plus framing);
        pass a larger value for bigger values or exotic keys.
        ``version`` of 0 means the current :data:`FORMAT_VERSION`; pass
        1 explicitly to author a legacy object-codec file.
        """
        if num_pages < 1:
            raise StorageError("num_pages must be positive")
        if version == 0:
            version = FORMAT_VERSION
        if version not in SUPPORTED_VERSIONS:
            raise StorageError(f"unsupported format version {version}")
        if slot_capacity <= 0:
            slot_capacity = SLOT_HEADER.size + 4 + 64 * max(1, D)
        if os.path.exists(path) and not overwrite:
            raise StorageError(f"{path} already exists (pass overwrite=True)")
        file_object = open(path, "w+b")
        file_object.write(
            HEADER.pack(
                MAGIC, version, num_pages, d, D, j, slot_capacity, 0
            )
        )
        empty = encode_page([])
        if version >= 2:
            empty = bytes([0]) + empty  # object format byte 0
        # Every slot starts as the same framed empty page: frame it once
        # and write the whole slot region in one call.
        slot = cls._frame(empty, slot_capacity).ljust(slot_capacity, b"\x00")
        file_object.writelines(repeat(slot, num_pages))
        file_object.flush()
        return cls(
            path, file_object, num_pages, d, D, j, slot_capacity, version
        )

    @classmethod
    def open(cls, path: str) -> "DiskPagedStore":
        """Open an existing store, verifying the header."""
        file_object = open(path, "r+b")
        raw = file_object.read(HEADER.size)
        if len(raw) != HEADER.size:
            file_object.close()
            raise CorruptPageError(f"{path}: truncated header")
        magic, version, num_pages, d, D, j, slot, _ = HEADER.unpack(raw)
        if magic != MAGIC:
            file_object.close()
            raise CorruptPageError(f"{path}: bad magic {magic!r}")
        if version not in SUPPORTED_VERSIONS:
            file_object.close()
            raise StorageError(
                f"{path}: unsupported format version {version}"
            )
        return cls(path, file_object, num_pages, d, D, j, slot, version)

    def close(self) -> None:
        """Flush and close the backing OS file (idempotent)."""
        if self._file is not None:
            self._file.flush()
            self._file.close()
            self._file = None

    @property
    def closed(self) -> bool:
        return self._file is None

    def __enter__(self) -> "DiskPagedStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # slot I/O
    # ------------------------------------------------------------------

    def _slot_offset(self, page_number: int) -> int:
        if not 1 <= page_number <= self.num_pages:
            raise IndexError(
                f"page {page_number} out of range [1, {self.num_pages}]"
            )
        return HEADER.size + (page_number - 1) * self.slot_capacity

    @staticmethod
    def _frame(payload: bytes, slot_capacity: int) -> bytes:
        """``payload`` behind its length and CRC-32, checked to fit a slot."""
        frame = SLOT_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        if len(frame) > slot_capacity:
            raise PageOverflowError(
                f"page frame of {len(frame)} bytes ({len(payload)}-byte "
                f"payload plus its {SLOT_HEADER.size}-byte slot header) "
                f"exceeds the {slot_capacity}-byte slot"
            )
        return frame

    def _write_slot(self, page_number: int, payload: bytes) -> None:
        """Frame, (possibly) corrupt, and write one slot image.

        The fault hook is consulted twice: ``check()`` may raise a
        simulated crash *before* anything is written, and
        ``filter_frame()`` may hand back a torn or bit-flipped frame —
        always after the CRC was computed over the intended payload, so
        any corruption is caught by the next read's checksum.
        """
        if self.closed:
            raise StorageError("store is closed")
        hook = self.fault_injector
        if hook is not None:
            hook.check()
        frame = self._frame(payload, self.slot_capacity)
        if hook is not None:
            filter_frame = getattr(hook, "filter_frame", None)
            if filter_frame is not None:
                frame = filter_frame(page_number, frame)
        self._file.seek(self._slot_offset(page_number))
        self._file.write(frame.ljust(self.slot_capacity, b"\x00"))

    def encode_page_image(self, page: Page) -> bytes:
        """Serialize one materialized page in this file's format version.

        Version 2 emits the self-describing format-byte image (one
        buffer copy for packed-eligible pages); version 1 emits the
        legacy tag-codec body so old files keep their encoding on
        rewrite.
        """
        if self.version >= 2:
            return encode_page_image(page)
        return encode_page(page.records())

    def encode_records_image(self, records: List[Record]) -> bytes:
        """:meth:`encode_page_image` over a plain record list."""
        if self.version >= 2:
            return encode_records_image(records)
        return encode_page(records)

    def write_page(self, page_number: int, records: List[Record]) -> None:
        """Serialize and write-through one page."""
        self._write_slot(page_number, self.encode_records_image(records))

    def write_page_image(self, page_number: int, page: Page) -> None:
        """Serialize and write-through a materialized page (no copy)."""
        self._write_slot(page_number, self.encode_page_image(page))

    def write_page_payload(self, page_number: int, payload: bytes) -> None:
        """Write an already-encoded page image (journal redo path)."""
        self._write_slot(page_number, payload)

    def read_page(self, page_number: int) -> List[Record]:
        """Read and verify one page; raises :class:`CorruptPageError`."""
        if self.closed:
            raise StorageError("store is closed")
        self._file.seek(self._slot_offset(page_number))
        raw = self._file.read(self.slot_capacity)
        if len(raw) < SLOT_HEADER.size:
            raise CorruptPageError(f"page {page_number}: truncated slot")
        length, checksum = SLOT_HEADER.unpack_from(raw, 0)
        payload = raw[SLOT_HEADER.size : SLOT_HEADER.size + length]
        if len(payload) != length:
            raise CorruptPageError(f"page {page_number}: truncated payload")
        if zlib.crc32(payload) != checksum:
            raise CorruptPageError(f"page {page_number}: checksum mismatch")
        if self.version >= 2:
            return decode_page_image(payload)
        return decode_page(payload)

    def flush(self) -> None:
        """Flush and fsync the backing OS file."""
        if not self.closed:
            self._file.flush()
            os.fsync(self._file.fileno())

    def verify_all(self) -> List[int]:
        """Checksum every page; return the list of corrupt page numbers."""
        corrupt = []
        for page_number in range(1, self.num_pages + 1):
            try:
                self.read_page(page_number)
            except Exception:  # lint: allow[errors] -- any decode wreckage means corrupt
                corrupt.append(page_number)
        return corrupt
