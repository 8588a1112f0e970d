"""Message transports between ranks.

Two implementations of one interface: an in-process channel set (default;
ranks are threads of one process) and a TCP socket transport for running
ranks as separate processes.

Wire format (socket mode, version 1): every message is a little-endian
header ``{u32 tag, u32 source, u32 dest, u64 byteLen}`` (struct ``<IIIQ``)
followed by ``byteLen`` bytes of float64 payload.  A connection opens with
the 8-byte magic ``b"WCNSFL01"`` plus the connecting rank as ``<I``.
A peer whose connection drops is recorded, and a receive from it that has
no message already filed raises ``TransportError`` naming that rank.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from dataclasses import dataclass

import numpy as np

from .errors import TransportError

HEADER = struct.Struct("<IIIQ")
MAGIC = b"WCNSFL01"
DEFAULT_TIMEOUT = 60.0
CONNECT_BACKOFF = 0.01        # first retry delay of a refused dial, seconds
CONNECT_BACKOFF_MAX = 0.25


@dataclass
class Message:
    tag: int
    source: int
    dest: int
    payload: np.ndarray  # 1D float64

    @property
    def nbytes(self) -> int:
        return int(self.payload.nbytes)


class InProcessTransport:
    """Shared mailbox for rank threads of one process.

    Each (tag, source, dest) triple identifies one message of an epoch, so
    receivers wait for exactly the messages they expect and arrival order
    never influences results.
    """

    def __init__(self, ranks: int):
        self.ranks = ranks
        self._cond = threading.Condition()
        self._box: dict[tuple[int, int, int], list[Message]] = {}

    def send(self, msg: Message) -> None:
        if not (0 <= msg.dest < self.ranks):
            raise TransportError(f"dest rank {msg.dest} out of range", tag=msg.tag)
        with self._cond:
            self._box.setdefault((msg.tag, msg.source, msg.dest), []).append(msg)
            self._cond.notify_all()

    def recv(self, tag: int, source: int, dest: int, timeout: float = DEFAULT_TIMEOUT) -> Message:
        key = (tag, source, dest)
        with self._cond:
            ok = self._cond.wait_for(lambda: bool(self._box.get(key)), timeout=timeout)
            if not ok:
                raise TransportError(
                    f"timed out after {timeout:g}s waiting for message "
                    f"tag={tag} {source}->{dest}",
                    tag=tag,
                )
            msg = self._box[key].pop(0)
            if not self._box[key]:
                del self._box[key]
        return msg

    def close(self) -> None:
        with self._cond:
            self._box.clear()


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:], n - got)
        if k == 0:
            raise ConnectionError("peer closed the connection")
        got += k
    return bytes(buf)


class SocketTransport:
    """TCP transport; one instance per rank process.

    ``addresses`` maps every rank to its ``(host, port)`` listen endpoint.
    Connections are established lazily (the higher rank dials the lower) and
    a reader thread per connection feeds the same mailbox discipline as the
    in-process transport.
    """

    def __init__(self, rank: int, addresses: dict[int, tuple[str, int]],
                 timeout: float = DEFAULT_TIMEOUT):
        self.rank = rank
        self.ranks = len(addresses)
        self.addresses = dict(addresses)
        self.timeout = timeout
        self._cond = threading.Condition()
        self._box: dict[tuple[int, int, int], list[Message]] = {}
        self._peers: dict[int, socket.socket] = {}
        self._peer_locks: dict[int, threading.Lock] = {}
        self._lost: dict[int, str] = {}      # peer -> why its reader stopped

        host, port = self.addresses[rank]
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(timeout)
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    # -- connection management -------------------------------------------

    def _accept_loop(self) -> None:
        expected = self.ranks - 1 - self.rank  # higher ranks dial in
        for _ in range(expected):
            try:
                conn, _ = self._listener.accept()
            except (OSError, socket.timeout):
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            head = _recv_exact(conn, len(MAGIC) + 4)
            if head[: len(MAGIC)] != MAGIC:
                conn.close()
                continue
            peer = struct.unpack("<I", head[len(MAGIC):])[0]
            with self._cond:
                self._peers[peer] = conn
                self._peer_locks[peer] = threading.Lock()
                self._cond.notify_all()
            self._start_reader(peer, conn)

    def _connect(self, peer: int) -> socket.socket:
        """Dial a lower rank, retrying while it is not listening yet: ranks
        start in any order, so the first dial can come before its listener."""
        host, port = self.addresses[peer]
        deadline = time.monotonic() + self.timeout
        backoff = CONNECT_BACKOFF
        while True:
            try:
                sock = socket.create_connection((host, port),
                                                timeout=self.timeout)
                break
            except ConnectionRefusedError as e:
                left = deadline - time.monotonic()
                if left <= 0.0:
                    raise TransportError(
                        f"rank {self.rank} could not connect to rank {peer} "
                        f"at {host}:{port}: refused for {self.timeout:g}s"
                    ) from e
                time.sleep(min(backoff, left))
                backoff = min(2.0 * backoff, CONNECT_BACKOFF_MAX)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(MAGIC + struct.pack("<I", self.rank))
        with self._cond:
            self._peers[peer] = sock
            self._peer_locks[peer] = threading.Lock()
        self._start_reader(peer, sock)
        return sock

    def _peer_socket(self, peer: int) -> socket.socket:
        with self._cond:
            sock = self._peers.get(peer)
        if sock is not None:
            return sock
        if peer < self.rank:
            return self._connect(peer)
        # Higher-ranked peers dial us; wait for the accept loop to file them.
        with self._cond:
            ok = self._cond.wait_for(lambda: peer in self._peers, timeout=self.timeout)
            if not ok:
                raise TransportError(f"rank {peer} never connected")
            return self._peers[peer]

    def _start_reader(self, peer: int, sock: socket.socket) -> None:
        threading.Thread(target=self._read_loop, args=(peer, sock),
                         daemon=True).start()

    def _read_loop(self, peer: int, sock: socket.socket) -> None:
        try:
            while True:
                head = _recv_exact(sock, HEADER.size)
                tag, source, dest, nbytes = HEADER.unpack(head)
                raw = _recv_exact(sock, nbytes) if nbytes else b""
                payload = np.frombuffer(raw, dtype="<f8").astype(np.float64, copy=False)
                msg = Message(tag=tag, source=source, dest=dest, payload=payload)
                with self._cond:
                    self._box.setdefault((tag, source, dest), []).append(msg)
                    self._cond.notify_all()
        except (ConnectionError, OSError) as e:
            # Messages read before the drop stay filed; waiters wake to
            # take them or to report the lost peer.
            with self._cond:
                self._lost[peer] = str(e) or type(e).__name__
                self._cond.notify_all()

    # -- messaging --------------------------------------------------------

    def send(self, msg: Message) -> None:
        if msg.dest == self.rank:
            with self._cond:
                self._box.setdefault((msg.tag, msg.source, msg.dest), []).append(msg)
                self._cond.notify_all()
            return
        sock = self._peer_socket(msg.dest)
        raw = np.ascontiguousarray(msg.payload, dtype="<f8").tobytes()
        head = HEADER.pack(msg.tag, msg.source, msg.dest, len(raw))
        with self._peer_locks[msg.dest]:
            try:
                sock.sendall(head + raw)
            except OSError as e:
                raise TransportError(f"send to rank {msg.dest} failed: {e}", tag=msg.tag) from e

    def recv(self, tag: int, source: int, dest: int, timeout: float | None = None) -> Message:
        if dest != self.rank:
            raise TransportError(f"rank {self.rank} cannot receive for rank {dest}", tag=tag)
        timeout = self.timeout if timeout is None else timeout
        key = (tag, source, dest)
        if source != self.rank:
            self._peer_socket(source)  # make sure the reader exists
        with self._cond:
            self._cond.wait_for(
                lambda: bool(self._box.get(key)) or source in self._lost,
                timeout=timeout)
            if not self._box.get(key):
                if source in self._lost:
                    raise TransportError(
                        f"rank {self.rank} lost its connection to rank "
                        f"{source} ({self._lost[source]}) while waiting for "
                        f"message tag={tag} {source}->{dest}",
                        tag=tag,
                    )
                raise TransportError(
                    f"timed out after {timeout:g}s waiting for message "
                    f"tag={tag} {source}->{dest}",
                    tag=tag,
                )
            msg = self._box[key].pop(0)
            if not self._box[key]:
                del self._box[key]
        return msg

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass
        with self._cond:
            peers = list(self._peers.values())
            self._peers.clear()
        for sock in peers:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


def free_port(host: str = "127.0.0.1") -> int:
    with socket.socket() as s:
        s.bind((host, 0))
        return s.getsockname()[1]
