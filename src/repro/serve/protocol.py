"""Length-prefixed binary framing for the serving wire protocol.

One frame is::

    +-----+------------+-------------+--------------+---------------+
    | tag | header len | payload len | header bytes | payload bytes |
    | 1 B | 4 B (BE)   | 4 B (BE)    | JSON         | raw array     |
    +-----+------------+-------------+--------------+---------------+

The **tag** byte names the header encoding — ``J`` for JSON, the one
encoding spoken — so a reader refuses anything else instead of
guessing; the two length fields bound the reads
(:data:`MAX_HEADER_BYTES` / :data:`MAX_PAYLOAD_BYTES` cap them against
hostile or corrupt peers).  The *header* is a small mapping (operation,
request id, algorithm, alpha, dtype, shape, ...); the *payload* is raw
little-endian array bytes appended verbatim — matrices never pass
through the JSON encoder, so a request's operand and a response's
result round-trip **bit-identically**.

The handshake is versioned: the first frame on a connection must be a
``hello`` carrying :data:`PROTOCOL_VERSION` (and, optionally, the
``encodings`` it offers, which must include ``"json"``); a mismatch is
answered with an ``error`` frame and the connection closes.  Remote
errors travel as ``error`` frames naming the exception class;
:func:`raise_remote` rehydrates them from :data:`ERROR_TYPES` on the
client so :class:`~repro.errors.QueueFullError` backpressure (and its
:class:`~repro.errors.FairnessError` subclass) stays retryable through
:func:`repro.serve.retry` across the wire.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..errors import (
    BudgetError,
    ConfigurationError,
    DeadlineError,
    DTypeError,
    FairnessError,
    FaultInjected,
    ProtocolError,
    QueueFullError,
    ReproError,
    ServerClosedError,
    ShapeError,
    WorkspaceError,
)

try:  # optional; CSR payloads need it, everything else does not
    from scipy import sparse as _sps
except Exception:  # pragma: no cover - environment-dependent
    _sps = None

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_HEADER_BYTES",
    "MAX_PAYLOAD_BYTES",
    "ERROR_TYPES",
    "encode_frame",
    "read_frame",
    "write_frame",
    "pack_array",
    "unpack_array",
    "pack_csr",
    "unpack_csr",
    "csr_payload_nbytes",
    "error_header",
    "raise_remote",
]

#: bumped on incompatible frame or handshake changes; both sides assert
#: equality during hello
PROTOCOL_VERSION = 1

#: tag byte, header length, payload length — all big-endian
_PREFIX = struct.Struct(">BII")

_TAG_JSON = ord("J")

#: sanity bounds enforced on every read; violations raise
#: :class:`ProtocolError` before any allocation happens
MAX_HEADER_BYTES = 1 << 20
MAX_PAYLOAD_BYTES = 1 << 31

#: exception classes an ``error`` frame may rehydrate into, by name.
#: Anything unrecognised falls back to :class:`ProtocolError` — the
#: client still fails loudly, just less specifically.
ERROR_TYPES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (
        BudgetError,
        ConfigurationError,
        DeadlineError,
        DTypeError,
        FairnessError,
        FaultInjected,
        ProtocolError,
        QueueFullError,
        ReproError,
        ServerClosedError,
        ShapeError,
        WorkspaceError,
    )
}


def _encode_header(header: Dict[str, Any]) -> Tuple[int, bytes]:
    return _TAG_JSON, json.dumps(header, separators=(",", ":")).encode()


def _decode_header(tag: int, raw: bytes) -> Dict[str, Any]:
    if tag != _TAG_JSON:
        raise ProtocolError(
            f"unknown frame tag byte {tag!r}; expected {_TAG_JSON} ('J')")
    try:
        header = json.loads(raw.decode())
    except Exception as exc:
        raise ProtocolError(f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict) or "op" not in header:
        raise ProtocolError(
            "frame header must be a mapping with an 'op' key, got "
            f"{type(header).__name__}")
    return header


def _frame_prefix(header: Dict[str, Any], size: int) -> bytes:
    """Prefix plus encoded header of a frame carrying ``size`` payload
    bytes, after the send-side bound checks."""
    tag, raw = _encode_header(header)
    if len(raw) > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"frame header of {len(raw)} bytes exceeds the "
            f"{MAX_HEADER_BYTES}-byte bound")
    if size > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"frame payload of {size} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte bound")
    return _PREFIX.pack(tag, len(raw), size) + raw


def encode_frame(header: Dict[str, Any], payload: bytes = b"") -> bytes:
    """Render one complete frame as a single ``bytes``."""
    return _frame_prefix(header, len(payload)) + bytes(payload)


async def write_frame(writer, header: Dict[str, Any],
                      payload: bytes = b"") -> None:
    """Write one frame and drain.

    The prefix+header and the payload go out as two ``write`` calls (no
    concatenation copy of a possibly-large payload); callers that share
    a writer across tasks must hold their write lock around this.
    """
    size = len(payload) if not isinstance(payload, np.ndarray) else payload.nbytes
    writer.write(_frame_prefix(header, size))
    if size:
        writer.write(payload if isinstance(payload, (bytes, bytearray,
                                                     memoryview))
                     else memoryview(payload))
    await writer.drain()


async def read_frame(reader) -> Tuple[Dict[str, Any], bytes]:
    """Read one frame; returns ``(header, payload bytes)``.

    Raises :class:`asyncio.IncompleteReadError` on EOF (``.partial ==
    b""`` at a frame boundary means a clean disconnect) and
    :class:`ProtocolError` on bound violations or undecodable headers.
    """
    prefix = await reader.readexactly(_PREFIX.size)
    tag, header_len, payload_len = _PREFIX.unpack(prefix)
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"peer announced a {header_len}-byte frame header; the bound "
            f"is {MAX_HEADER_BYTES}")
    if payload_len > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"peer announced a {payload_len}-byte frame payload; the "
            f"bound is {MAX_PAYLOAD_BYTES}")
    raw = await reader.readexactly(header_len)
    payload = await reader.readexactly(payload_len) if payload_len else b""
    return _decode_header(tag, raw), payload


# ---------------------------------------------------------------------------
# array <-> (header fragment, payload bytes)
# ---------------------------------------------------------------------------

def pack_array(a: np.ndarray, prefix: str = "") -> Tuple[Dict[str, Any],
                                                         bytes]:
    """``(header fragment, raw bytes)`` describing ``a``.

    The fragment carries ``{prefix}dtype`` (numpy's unambiguous
    byte-order-qualified string, e.g. ``"<f8"``) and ``{prefix}shape``;
    the bytes are the C-contiguous buffer, copied only if ``a`` is not
    already contiguous.
    """
    contiguous = np.ascontiguousarray(a)
    meta = {f"{prefix}dtype": contiguous.dtype.str,
            f"{prefix}shape": list(contiguous.shape)}
    return meta, memoryview(contiguous).cast("B")


def unpack_array(header: Dict[str, Any], payload: bytes, prefix: str = "",
                 offset: int = 0) -> np.ndarray:
    """Rebuild the array a :func:`pack_array` fragment describes.

    Reads ``header[f"{prefix}dtype"]`` / ``[f"{prefix}shape"]`` and
    slices ``payload`` from ``offset``; a size mismatch, a negative
    dimension or a shape numpy cannot index raises
    :class:`ProtocolError` (never a silent short array).  The result
    is a fresh writable array — it does not alias ``payload``.
    """
    try:
        dtype = np.dtype(header[f"{prefix}dtype"])
        shape = tuple(int(n) for n in header[f"{prefix}shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            f"frame header carries no decodable {prefix or 'array '}"
            f"dtype/shape: {exc}") from exc
    if any(n < 0 for n in shape):
        raise ProtocolError(
            f"frame header declares a negative dimension: shape {shape}")
    count = math.prod(shape)  # exact: an int64 product would wrap
    nbytes = count * dtype.itemsize
    if offset + nbytes > len(payload):
        raise ProtocolError(
            f"frame payload holds {len(payload) - offset} bytes from "
            f"offset {offset}; shape {shape} of {dtype} needs {nbytes}")
    flat = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
    try:
        return flat.reshape(shape).copy()
    except ValueError as exc:  # an empty shape with a dimension >= 2**63
        raise ProtocolError(
            f"frame header shape {shape} is not an array shape: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# CSR sparse matrix <-> (header fragment, payload bytes)
# ---------------------------------------------------------------------------

def pack_csr(a, prefix: str = "") -> Tuple[Dict[str, Any], bytes]:
    """``(header fragment, raw bytes)`` describing a scipy sparse matrix.

    The operand is normalised to canonical CSR (duplicates summed,
    indices sorted) and its three component arrays — ``indptr``,
    ``indices``, ``data`` — are appended **raw**, in that order, exactly
    as :func:`pack_array` appends a dense buffer; the fragment carries
    ``{prefix}sparse = "csr"`` plus the dtypes/counts needed to slice
    them back out.  Canonical CSR has one byte representation per
    matrix value, so round trips are bit-identical component-wise, and
    a sparse operand ships ``nnz``-proportional bytes instead of the
    ``m*n`` a densified payload would.
    """
    if _sps is None:
        raise ProtocolError(
            "packing a sparse payload requires scipy, which is not "
            "importable in this process")
    if not _sps.issparse(a):
        raise ProtocolError(
            "pack_csr expects a scipy sparse matrix, got "
            f"{type(a).__name__}")
    csr = a.tocsr()
    if csr is a:  # tocsr() may return the operand itself; never mutate it
        csr = csr.copy()
    csr.sum_duplicates()
    csr.sort_indices()
    indptr = np.ascontiguousarray(csr.indptr)
    indices = np.ascontiguousarray(csr.indices)
    data = np.ascontiguousarray(csr.data)
    meta = {f"{prefix}sparse": "csr",
            f"{prefix}dtype": data.dtype.str,
            f"{prefix}shape": [int(d) for d in csr.shape],
            f"{prefix}index_dtype": indices.dtype.str,
            f"{prefix}nnz": int(csr.nnz)}
    payload = (bytes(memoryview(indptr).cast("B"))
               + bytes(memoryview(indices).cast("B"))
               + bytes(memoryview(data).cast("B")))
    return meta, payload


def csr_payload_nbytes(header: Dict[str, Any], prefix: str = "") -> int:
    """Byte length of the CSR payload section a :func:`pack_csr` fragment
    describes — what a reader skips to find the next payload section."""
    try:
        dtype = np.dtype(header[f"{prefix}dtype"])
        index_dtype = np.dtype(header[f"{prefix}index_dtype"])
        m = int(header[f"{prefix}shape"][0])
        nnz = int(header[f"{prefix}nnz"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ProtocolError(
            f"frame header carries no decodable {prefix or 'csr '}"
            f"metadata: {exc}") from exc
    if m < 0 or nnz < 0:
        raise ProtocolError(
            f"csr header declares negative sizes (rows={m}, nnz={nnz})")
    return (m + 1) * index_dtype.itemsize + nnz * (index_dtype.itemsize
                                                   + dtype.itemsize)


def unpack_csr(header: Dict[str, Any], payload: bytes, prefix: str = "",
               offset: int = 0):
    """Rebuild the CSR matrix a :func:`pack_csr` fragment describes.

    Slices ``indptr`` / ``indices`` / ``data`` out of ``payload`` from
    ``offset`` and validates their structure (monotone ``indptr`` ending
    at ``nnz``, column indices in range) before constructing the matrix,
    so a corrupt or hostile frame raises :class:`ProtocolError` instead
    of a segfault deep inside scipy.  The result owns fresh writable
    buffers — it does not alias ``payload``.
    """
    if _sps is None:
        raise ProtocolError(
            "unpacking a sparse payload requires scipy, which is not "
            "importable in this process")
    if header.get(f"{prefix}sparse") != "csr":
        raise ProtocolError(
            "frame header does not describe a csr payload "
            f"(got {header.get(f'{prefix}sparse')!r})")
    try:
        dtype = np.dtype(header[f"{prefix}dtype"])
        index_dtype = np.dtype(header[f"{prefix}index_dtype"])
        m, n = (int(d) for d in header[f"{prefix}shape"])
        nnz = int(header[f"{prefix}nnz"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            f"frame header carries no decodable {prefix or 'csr '}"
            f"metadata: {exc}") from exc
    if m < 0 or n < 0 or nnz < 0:
        raise ProtocolError(
            f"csr header declares negative sizes (shape=({m}, {n}), "
            f"nnz={nnz})")
    total = csr_payload_nbytes(header, prefix)
    if offset + total > len(payload):
        raise ProtocolError(
            f"frame payload holds {len(payload) - offset} bytes from "
            f"offset {offset}; a ({m}, {n}) csr with {nnz} stored "
            f"entries needs {total}")
    idx_size = index_dtype.itemsize
    indptr = np.frombuffer(payload, dtype=index_dtype, count=m + 1,
                           offset=offset).copy()
    offset += (m + 1) * idx_size
    indices = np.frombuffer(payload, dtype=index_dtype, count=nnz,
                            offset=offset).copy()
    offset += nnz * idx_size
    data = np.frombuffer(payload, dtype=dtype, count=nnz,
                         offset=offset).copy()
    if m and (indptr[0] != 0 or indptr[-1] != nnz
              or np.any(np.diff(indptr) < 0)):
        raise ProtocolError(
            "csr payload carries an inconsistent indptr (must start at 0, "
            f"end at nnz={nnz}, and be non-decreasing)")
    if nnz and (indices.min() < 0 or indices.max() >= n):
        raise ProtocolError(
            f"csr payload carries column indices outside [0, {n})")
    return _sps.csr_matrix((data, indices, indptr), shape=(m, n))


# ---------------------------------------------------------------------------
# remote errors
# ---------------------------------------------------------------------------

def error_header(request_id: Optional[int], exc: BaseException) -> Dict[str, Any]:
    """The ``error`` frame header reporting ``exc`` for ``request_id``."""
    return {"op": "error", "id": request_id,
            "error": type(exc).__name__, "message": str(exc)}


def raise_remote(header: Dict[str, Any]) -> None:
    """Rehydrate and raise the exception an ``error`` frame carries.

    Known class names (see :data:`ERROR_TYPES`) come back as themselves —
    preserving, e.g., the retryability of :class:`QueueFullError` —
    anything else as :class:`ProtocolError` naming the original type.
    """
    name = header.get("error", "ProtocolError")
    message = header.get("message", "remote error")
    cls = ERROR_TYPES.get(name)
    if cls is None:
        raise ProtocolError(f"remote {name}: {message}")
    raise cls(message)
