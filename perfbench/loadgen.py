"""serve-l2's load generator: one process, one thread, one TCP connection.

It runs in a process of its own so that sending never competes with the
daemon for the interpreter lock: an in-thread sender spread serve-l2's
median latency from 20.7 to 29.0 ms over three runs of identical code.

Protocol over stdin/stdout, one JSON line per message.  The first stdin
line is ``{"port": P}``; the generator connects to ``127.0.0.1:P``.  Each
phase is a header ``{"count": n, "rate": r, "start": t}`` followed by n
JSONL event lines.  At ``start`` (on ``time.monotonic``, which is the
system-wide monotonic clock, so the parent can compare timestamps) it
sends them: all at once when ``rate`` is 0 (a flood), otherwise line
``i`` at ``start + i / rate`` (an open loop on an absolute schedule).
It then reports ``{"sent": n, "first": t0, "late_p99_ms": x}``, where
lateness is how far behind its schedule each send started.  A header
with ``count`` -1 ends the process.
"""

from __future__ import annotations

import json
import socket
import sys
import time


def send_phase(sock: socket.socket, lines, rate: float, start: float) -> dict:
    now = time.monotonic()
    if now < start:
        time.sleep(start - now)
    first = time.monotonic()
    lateness = []
    if rate <= 0:
        sock.sendall(b"".join(lines))
    else:
        for index, line in enumerate(lines):
            due = start + index / rate
            now = time.monotonic()
            if now < due:
                time.sleep(due - now)
                now = time.monotonic()
            lateness.append(now - due)
            sock.sendall(line)
    lateness.sort()
    late_p99 = lateness[int(0.99 * (len(lateness) - 1))] if lateness else 0.0
    return {"sent": len(lines), "first": first, "late_p99_ms": late_p99 * 1e3}


def main() -> int:
    stdin = sys.stdin.buffer
    port = json.loads(stdin.readline())["port"]
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while True:
            header = json.loads(stdin.readline())
            if header["count"] < 0:
                return 0
            lines = [stdin.readline() for _ in range(header["count"])]
            result = send_phase(sock, lines, header["rate"], header["start"])
            sys.stdout.write(json.dumps(result) + "\n")
            sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
