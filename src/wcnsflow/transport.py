"""Message transports between ranks.

One mailbox, ``InProcessTransport``, holds every message a rank has been
sent and not yet received, filed under its (tag, source, dest) triple.
Ranks that are threads of one process share one; ``SocketTransport``, for
ranks that are separate processes, holds one per rank and files into it
what its reader threads take off the wire.  A source marked lost (a rank
thread that failed, or a peer whose connection dropped) fails every
receive from it that finds no message filed, at once, naming both ranks.

Wire format (socket mode, version 1): every message is a little-endian
header ``{u32 tag, u32 source, u32 dest, u64 byteLen}`` (struct ``<IIIQ``)
followed by ``byteLen`` bytes of float64 payload.  A connection opens with
the 8-byte magic ``b"WCNSFL01"`` plus the connecting rank as ``<I``.
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


class InProcessTransport:
    """The mailbox: a FIFO of messages per (tag, source, dest).

    Each triple identifies one message of an epoch, so receivers wait for
    exactly the messages they expect and arrival order never influences
    results.  Rank threads of one process share one as their transport.
    """

    def __init__(self, ranks: int):
        self.ranks = ranks
        self._cond = threading.Condition()
        self._box: dict[tuple[int, int, int], list[Message]] = {}
        self._lost: dict[int, str] = {}      # source -> why it was lost

    def send(self, msg: Message) -> None:
        if not (0 <= msg.dest < self.ranks):
            raise TransportError(f"dest rank {msg.dest} out of range", tag=msg.tag)
        with self._cond:
            self._box.setdefault((msg.tag, msg.source, msg.dest), []).append(msg)
            self._cond.notify_all()

    def lose(self, source: int, why: str) -> None:
        """Mark ``source`` lost: messages it filed stay deliverable, and a
        receive from it that finds none raises at once."""
        with self._cond:
            self._lost.setdefault(source, why)
            self._cond.notify_all()

    def recv(self, tag: int, source: int, dest: int, timeout: float = DEFAULT_TIMEOUT) -> Message:
        key = (tag, source, dest)
        with self._cond:
            self._cond.wait_for(
                lambda: key in self._box or source in self._lost,
                timeout=timeout)
            if key not in self._box:
                if source in self._lost:
                    raise TransportError(
                        f"rank {source} is lost ({self._lost[source]}); rank "
                        f"{dest} was waiting for message tag={tag} "
                        f"{source}->{dest}",
                        tag=tag,
                    )
                raise TransportError(
                    f"timed out after {timeout:g}s waiting for message "
                    f"tag={tag} {source}->{dest}",
                    tag=tag,
                )
            queue = self._box[key]
            msg = queue.pop(0)
            if not queue:
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
    Connections are established lazily (the higher rank dials the lower),
    and a reader thread per connection files what arrives into the rank's
    mailbox, where self-sends go too; a dropped connection marks its peer
    lost there.  ``_cond`` guards the peer sockets.
    """

    def __init__(self, rank: int, addresses: dict[int, tuple[str, int]],
                 timeout: float = DEFAULT_TIMEOUT):
        self.rank = rank
        self.ranks = len(addresses)
        self.addresses = dict(addresses)
        self.timeout = timeout
        self._mailbox = InProcessTransport(self.ranks)
        self._cond = threading.Condition()
        self._peers: dict[int, socket.socket] = {}
        self._peer_locks: dict[int, threading.Lock] = {}

        host, port = self.addresses[rank]
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(timeout)
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    # -- connection management -------------------------------------------

    def _accept_loop(self) -> None:
        """File the higher ranks as they dial in.  A connection that closes
        or stalls (past the timeout) before its handshake, or that names no
        higher rank still to come, is dropped and takes no rank's place."""
        waiting = set(range(self.rank + 1, self.ranks))
        while waiting:
            try:
                conn, _ = self._listener.accept()
            except OSError:          # closed, or no dial within the timeout
                return
            conn.settimeout(self.timeout)
            try:
                head = _recv_exact(conn, len(MAGIC) + 4)
            except OSError:          # closed or stalled before its handshake
                conn.close()
                continue
            peer = struct.unpack("<I", head[len(MAGIC):])[0]
            if head[:len(MAGIC)] != MAGIC or peer not in waiting:
                conn.close()
                continue
            waiting.remove(peer)
            conn.settimeout(None)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
                self._mailbox.send(Message(tag=tag, source=source, dest=dest,
                                           payload=payload))
        except (ConnectionError, OSError, TransportError) as e:
            # Messages read before the drop stay filed; waiters wake to
            # take them or to report the lost peer.
            self._mailbox.lose(peer, f"{type(e).__name__}: {e}")

    # -- messaging --------------------------------------------------------

    def send(self, msg: Message) -> None:
        if msg.dest == self.rank:
            self._mailbox.send(msg)
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
        if source != self.rank:
            self._peer_socket(source)  # make sure the reader exists
        return self._mailbox.recv(tag, source, dest,
                                  self.timeout if timeout is None else timeout)

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


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]
