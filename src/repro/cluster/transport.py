"""Client transports: how framed requests reach the cluster server.

Two interchangeable channels implement the same tiny contract —
``request(frame, timeout) -> response frame`` over a persistent
connection:

:class:`SocketChannel`
    A real TCP connection (used by ``repro serve`` deployments and the
    networked benchmark cell).  A response normally arrives in one
    ``recv``; reads carry a socket timeout, so a stalled peer surfaces
    as :class:`~repro.core.errors.OperationTimeout` raw material
    (``socket.timeout``) rather than a hang.
:class:`LocalChannel`
    Calls the server's dispatcher in-process, byte-for-byte through the
    same encode/decode path.  The chaos harness wraps this one in a
    :class:`~repro.cluster.netfaults.ChaosChannel` so fault schedules
    are deterministic and wall-clock-free.

Failures that mean *the connection is gone* (reset, refused, truncated
stream) raise :class:`~repro.core.errors.TransientNetworkError`; the
client's retry loop reconnects and retries those while the deadline
budget lasts.
"""

from __future__ import annotations

import socket
import threading
from typing import Callable, List, Optional, Protocol, Tuple

from ..core.errors import TransientNetworkError, WireProtocolError
from .wire import HEADER, frame_size

#: Bytes asked of the kernel per read: any request or response the
#: cluster makes in steady state fits, so one frame costs one read.
RECV_SIZE = 65536


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
    """

    def __init__(self, host: str, port: int, connect_timeout: float = 5.0):
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self._mutex = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self.connects = 0

    def _connect(self) -> socket.socket:
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
        except OSError as error:
            raise TransientNetworkError(
                f"connect to {self.host}:{self.port} failed: {error}"
            ) from error
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.connects += 1
        return sock

    def request(self, frame: bytes, timeout: Optional[float] = None) -> bytes:
        """Send one frame, read one framed response, return its bytes.

        ``timeout`` bounds every blocking socket call for this
        exchange; expiry raises ``socket.timeout`` (an ``OSError``)
        wrapped as :class:`TransientNetworkError` after the connection
        is torn down, so the next attempt starts clean.  Only one
        request is ever in flight, so bytes past the end of the
        response frame are a :class:`WireProtocolError`.
        """
        with self._mutex:
            if self._sock is None:
                self._sock = self._connect()
            sock = self._sock
            try:
                sock.settimeout(timeout)
                sock.sendall(frame)
                frames, rest = recv_frames(sock)
                if len(frames) > 1 or rest:
                    extra = sum(map(len, frames[1:])) + len(rest)
                    raise WireProtocolError(
                        f"{extra} bytes past the end of the response frame"
                    )
                return frames[0]
            except (TransientNetworkError, WireProtocolError):
                self._teardown()
                raise
            except OSError as error:
                # Socket timeouts and resets alike: the connection
                # state is unknown, so drop it and let the retry path
                # reconnect instead of reading a stale stream.
                self._teardown()
                raise TransientNetworkError(
                    f"exchange with {self.host}:{self.port} failed: {error}"
                ) from error
            except BaseException:
                self._teardown()
                raise

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
