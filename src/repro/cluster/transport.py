"""Client transports: how framed requests reach the cluster server.

Two interchangeable channels implement the same tiny contract —
``request(frame, timeout) -> response frame`` over a persistent
connection:

:class:`SocketChannel`
    A real TCP connection (used by ``repro serve`` deployments and the
    networked benchmark cell).  A response normally arrives in one
    ``recv``.  The socket is a plain blocking one whose timeouts live
    in the kernel (``SO_RCVTIMEO``/``SO_SNDTIMEO``), armed only when
    the budget's 10 ms step changes, so an exchange is one ``send``
    and one ``recv`` with no ``poll`` beside them.  A stalled peer
    makes the call fail with ``BlockingIOError`` (``EAGAIN``), which
    is wrapped as :class:`~repro.core.errors.TransientNetworkError`
    rather than left to hang.
:class:`LocalChannel`
    Calls the server's dispatcher in-process, byte-for-byte through the
    same encode/decode path.  The chaos harness wraps this one in a
    :class:`~repro.cluster.netfaults.ChaosChannel` so fault schedules
    are deterministic and wall-clock-free.

Failures that mean *the connection is gone* (reset, refused, truncated
stream, a kernel timeout) raise
:class:`~repro.core.errors.TransientNetworkError`; the client's retry
loop reconnects and retries those while the deadline budget lasts.

A kernel timeout is a ``struct timeval``, packed natively as two C
``long`` values (seconds, microseconds).  That is its layout on Linux and
the BSDs, and on 64-bit little-endian macOS, whose 4-byte
``tv_usec`` is the low half of the second ``long``.  Windows takes a
``DWORD`` of milliseconds instead, so there :func:`arm_timeouts`,
:class:`SocketChannel` and the server refuse to start with
:class:`~repro.core.errors.ConfigurationError` rather than arm a
wrong timeout.
"""

from __future__ import annotations

import socket
import struct
import sys
import threading
import time
from typing import Callable, List, Optional, Protocol, Tuple

from ..core.errors import (
    ConfigurationError,
    TransientNetworkError,
    WireProtocolError,
)
from .wire import HEADER, frame_size

#: Bytes asked of the kernel per read: any request or response the
#: cluster makes in steady state fits, so one frame costs one read.
RECV_SIZE = 65536

#: Kernel timeouts are armed in whole steps of this many microseconds
#: (10 ms): a budget is rounded down to its step, and the socket is
#: re-armed only when the step changes.
TIMEOUT_STEP_US = 10_000
#: :data:`TIMEOUT_STEP_US` in seconds.
_STEP_S = TIMEOUT_STEP_US / 1_000_000
#: ``struct timeval`` as two native C longs (see the module docstring).
_TIMEVAL = struct.Struct("@ll")


def require_timeval() -> None:
    """Refuse a platform whose socket timeouts are not a ``struct
    timeval`` (Windows) with :class:`ConfigurationError`."""
    if sys.platform == "win32":
        raise ConfigurationError(
            "kernel socket timeouts are packed as a struct timeval, "
            "which Windows does not take"
        )


def kernel_timeout_us(timeout: Optional[float]) -> int:
    """The receive/send timeout to arm for a ``timeout``-second budget.

    In microseconds, rounded down to a whole :data:`TIMEOUT_STEP_US`;
    a budget under one step is kept exact.  ``None`` is 0, the
    kernel's "no timeout"; a budget is never 0, or it would mean the
    same, so the least one is 1 µs.
    """
    if timeout is None:
        return 0
    micros = int(timeout * 1_000_000)
    if micros >= TIMEOUT_STEP_US:
        return micros - micros % TIMEOUT_STEP_US
    return max(micros, 1)


def arm_timeouts(sock: socket.socket, micros: int) -> None:
    """Set ``sock``'s kernel receive and send timeouts to ``micros``
    (0 = none).  The socket must be blocking (``settimeout(None)``)."""
    require_timeval()
    value = _TIMEVAL.pack(*divmod(micros, 1_000_000))
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, value)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, value)


def recv_frames(
    sock: socket.socket, pending: bytes = b""
) -> Tuple[List[bytes], bytes]:
    """Read from ``sock`` until at least one whole frame is buffered.

    ``pending`` is what an earlier call left over.  Returns every
    complete frame in arrival order plus the bytes of the next,
    incomplete one.  A frame normally arrives in one ``recv``; a short
    read is finished with reads of exactly the missing length.  A bad
    header raises :class:`WireProtocolError`, and a peer that closes
    first raises :class:`TransientNetworkError`.
    """
    data = pending
    while len(data) < HEADER.size:
        data += _recv_some(sock, RECV_SIZE, len(data))
    end = frame_size(data)
    if len(data) < end:
        parts = [data]
        have = len(data)
        while have < end:
            chunk = _recv_some(sock, min(end - have, RECV_SIZE), have)
            parts.append(chunk)
            have += len(chunk)
        data = b"".join(parts)
    frames = [data if len(data) == end else data[:end]]
    # Frames sent back to back may share a read: split off every
    # complete one, keep the partial tail.  A bad header stays in the
    # tail, so the frames before it are still served and the next call
    # refuses it.
    while len(data) - end >= HEADER.size:
        try:
            next_end = end + frame_size(data, end)
        except WireProtocolError:
            break
        if next_end > len(data):
            break
        frames.append(data[end:next_end])
        end = next_end
    return frames, data[end:]


def _recv_some(sock: socket.socket, count: int, have: int) -> bytes:
    chunk = sock.recv(count)
    if not chunk:
        raise TransientNetworkError(
            f"peer closed the connection with {have} bytes of a frame read"
        )
    return chunk


class Channel(Protocol):
    """One request/response exchange over a persistent connection."""

    def request(self, frame: bytes, timeout: Optional[float] = None) -> bytes:
        """Send ``frame`` and return the complete response frame."""
        ...

    def close(self) -> None:
        """Release the underlying connection (idempotent)."""
        ...


class SocketChannel:
    """A framed exchange over one TCP connection.

    Connects lazily on the first request and reconnects after any
    failure was surfaced — the caller decides whether to retry.  All
    socket-level errors are wrapped in :class:`TransientNetworkError`
    so the client's retry predicate stays a single isinstance check.
    ``connects`` counts connections made and ``arms`` the times a
    kernel timeout was set on one.
    """

    def __init__(self, host: str, port: int, connect_timeout: float = 5.0):
        require_timeval()
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self._mutex = threading.Lock()
        self._sock: Optional[socket.socket] = None
        #: The kernel timeout (receive and send alike) armed on
        #: ``_sock``, in microseconds.
        self._armed = 0
        self.connects = 0
        self.arms = 0

    def _connect(self) -> socket.socket:
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
        except OSError as error:
            raise TransientNetworkError(
                f"connect to {self.host}:{self.port} failed: {error}"
            ) from error
        try:
            # Blocking from here on: the kernel holds the timeouts.
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as error:
            sock.close()
            raise TransientNetworkError(
                f"setting up {self.host}:{self.port} failed: {error}"
            ) from error
        self._armed = 0
        self.connects += 1
        return sock

    def request(self, frame: bytes, timeout: Optional[float] = None) -> bytes:
        """Send one frame, read one framed response, return its bytes.

        ``timeout`` bounds the whole exchange.  It is armed in the
        kernel, rounded down to a 10 ms step (:func:`kernel_timeout_us`),
        and the socket is re-armed only when the step changes, so a
        stream of requests on the same budget arms once.  A call after
        the first (the rest of a partial send, a read after a send that
        took more than one step, or the rest of a short read) is first
        armed with what is left of ``timeout``, so no call waits longer
        than the budget left (within one step) and a peer that stops
        reading or trickles its answer cannot stretch the exchange.
        ``None`` waits without limit.  Expiry fails the call with
        ``BlockingIOError`` (``TimeoutError`` when the budget runs out
        between two calls), which is wrapped as
        :class:`TransientNetworkError` after the connection is torn
        down, so the next attempt starts clean.  Only one request is
        ever in flight, so bytes past the end of the response frame
        are a :class:`WireProtocolError`.
        """
        with self._mutex:
            if self._sock is None:
                self._sock = self._connect()
            sock = self._sock
            try:
                self._arm(sock, kernel_timeout_us(timeout))
                if timeout is None:
                    sock.sendall(frame)
                    return self._read_response(sock, None)
                started = time.monotonic()
                deadline = started + timeout
                sent = sock.send(frame)
                if sent < len(frame):
                    view = memoryview(frame)
                    while sent < len(view):
                        self._arm_left(sock, deadline)
                        sent += sock.send(view[sent:])
                if time.monotonic() - started > _STEP_S:
                    self._arm_left(sock, deadline)
                return self._read_response(sock, deadline)
            except (TransientNetworkError, WireProtocolError):
                self._teardown()
                raise
            except OSError as error:
                # Kernel timeouts and resets alike: the connection
                # state is unknown, so drop it and let the retry path
                # reconnect instead of reading a stale stream.
                self._teardown()
                raise TransientNetworkError(
                    f"exchange with {self.host}:{self.port} failed: {error}"
                ) from error
            except BaseException:
                self._teardown()
                raise

    def _arm(self, sock: socket.socket, micros: int) -> None:
        if micros != self._armed:
            arm_timeouts(sock, micros)
            self._armed = micros
            self.arms += 1

    def _arm_left(self, sock: socket.socket, deadline: Optional[float]) -> None:
        """Arm the timeouts with what is left before ``deadline``
        (``None``: no limit, nothing to do)."""
        if deadline is None:
            return
        left = deadline - time.monotonic()
        if left <= 0.0:
            raise TimeoutError("the exchange's budget ran out")
        self._arm(sock, kernel_timeout_us(left))

    def _read_response(
        self, sock: socket.socket, deadline: Optional[float]
    ) -> bytes:
        """Read exactly one response frame; each read after the first
        is armed with what is left before ``deadline``."""
        data = _recv_some(sock, RECV_SIZE, 0)
        while len(data) < HEADER.size:
            self._arm_left(sock, deadline)
            data += _recv_some(sock, RECV_SIZE, len(data))
        end = frame_size(data)
        if len(data) < end:
            parts = [data]
            have = len(data)
            while have < end:
                self._arm_left(sock, deadline)
                chunk = _recv_some(sock, min(end - have, RECV_SIZE), have)
                parts.append(chunk)
                have += len(chunk)
            data = b"".join(parts)
        if len(data) > end:
            raise WireProtocolError(
                f"{len(data) - end} bytes past the end of the response frame"
            )
        return data

    def _teardown(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        """Close the connection (safe to call repeatedly)."""
        with self._mutex:
            self._teardown()


class LocalChannel:
    """In-process channel: hand the frame straight to a dispatcher.

    The dispatcher is the server's ``handle_frame`` — the exact same
    bytes-in/bytes-out function the TCP handler uses, so everything
    above the socket (framing, CRC, correlation, idempotency) is
    exercised identically with zero network nondeterminism.
    """

    def __init__(self, dispatcher: Callable[[bytes], bytes]):
        self._dispatcher = dispatcher
        self.requests = 0
        self._closed = False

    def request(self, frame: bytes, timeout: Optional[float] = None) -> bytes:
        """Dispatch one frame (``timeout`` is accepted for symmetry)."""
        if self._closed:
            raise TransientNetworkError("channel is closed")
        self.requests += 1
        return self._dispatcher(frame)

    def close(self) -> None:
        """Mark the channel closed; later requests fail transiently."""
        self._closed = True
