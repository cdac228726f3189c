"""A request-shaped round trip through two helper processes, none of them the program.

The daemon answers a request in a few process hops: the client writes a
JSON line to the server over TCP, the server hands the job to a worker
over a pipe, and the answer comes back the same way.  On a shared host
its latencies drift with the host's load far more than a pure-Python
probe in one process does.  :class:`EchoChain` times work of that shape
with none of the program's code: a *front* process reads a JSON line
from TCP and passes it to a *back* process over a pipe; the back process
answers, and the front returns the answer.  Both read the pipe one byte
per system call, so a round trip is about 1,400 system calls, two
process wake-ups on either side and a little JSON work.  Of the probes
tried (``README.md``), it is the one whose time best tracked the
daemon's own times from run to run.  ``hostspeed.SpeedProbe`` runs it
while the daemon is idle and rescales the daemon's times by it.

Run as a script, this file is the front (``--back``: the back process).
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

#: A message shaped like a daemon query (id, name, program text, target).
MESSAGE = json.dumps({"op": "query", "id": 0, "name": "zipf-0",
                      "program": "decl g;\n" + "g := *;\n" * 80,
                      "target": "main:target"}).encode() + b"\n"
#: Seconds allowed for the helper processes to start and to end.
TIMEOUT = 30.0


def _read_line(fd: int) -> bytes:
    """One line from ``fd``, one byte per system call (empty at end of file)."""
    line = bytearray()
    while not line.endswith(b"\n"):
        byte = os.read(fd, 1)
        if not byte:
            break
        line += byte
    return bytes(line)


def _back() -> None:
    while True:
        line = _read_line(0)
        if not line:
            return
        message = json.loads(line)
        message["ok"] = True
        os.write(1, json.dumps(message).encode() + b"\n")


def _front() -> None:
    back = subprocess.Popen([sys.executable, __file__, "--back"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
    try:
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            print(listener.getsockname()[1], flush=True)
            connection, _ = listener.accept()
        with connection, connection.makefile("rb") as lines:
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for line in lines:
                back.stdin.write(json.dumps(json.loads(line)).encode() + b"\n")
                answer = json.loads(_read_line(back.stdout.fileno()))
                connection.sendall(json.dumps(answer).encode() + b"\n")
    finally:
        back.stdin.close()
        back.wait(timeout=TIMEOUT)
        back.stdout.close()


class EchoChain:
    """The front and back helper processes and one TCP connection to the front.

    A context manager: leaving it closes the connection and waits for both
    processes to end.
    """

    def __init__(self) -> None:
        self._front = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                       stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                       text=True)
        self._socket = None
        self._lines = None
        try:
            port = int(self._front.stdout.readline())
            self._socket = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT)
            self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._lines = self._socket.makefile("rb")
        except BaseException:
            self.close()
            raise

    def round_trip(self) -> None:
        """One request-shaped round trip through the chain."""
        self._socket.sendall(MESSAGE)
        if not self._lines.readline():
            raise ConnectionError("echo chain closed the connection")

    def close(self) -> None:
        if self._lines is not None:
            self._lines.close()
        if self._socket is not None:
            self._socket.close()
        try:
            self._front.wait(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            self._front.kill()
            self._front.wait()
        self._front.stdout.close()

    def __enter__(self) -> "EchoChain":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


if __name__ == "__main__":
    if sys.argv[1:] == ["--back"]:
        _back()
    else:
        _front()
