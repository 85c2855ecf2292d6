"""Stand-in chat-completion endpoint for the benchmark's `llm` workload.

    python3 bench/endpoint.py --delay 0.01

Prints the port it listens on (127.0.0.1) as its first line of output, then
serves until its standard input reaches end of file or it is terminated.
Every POST sleeps `--delay` seconds and answers with one fenced JSON object
that carries the keys of all four debate roles, so `parse_verdict` accepts it
for any role. The Judge's verdict is a pure function of the prompt, so
reports stay deterministic.

`GET /stats` returns the counters: requests served, connections that carried
at least one request, and the peak number of requests in flight at once.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_ISSUES = ["reentrancy", "access control", "arithmetic", "unchecked call"]


def answer(prompt: str) -> str:
    digest = hashlib.sha256(prompt.encode("utf-8")).digest()
    vulnerable = digest[0] % 4 == 0
    payload = {
        "findings": [],
        "rebuttals": [],
        "assessment": "no finding survives review",
        "is_vulnerable": vulnerable,
        "vuln_type": _ISSUES[digest[1] % len(_ISSUES)] if vulnerable else "",
        "explanation": "stand-in verdict derived from the prompt digest",
        "confidence": "Medium",
    }
    return "```json\n" + json.dumps(payload, sort_keys=True) + "\n```"


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.in_flight = 0
        self.peak_in_flight = 0


def make_handler(stats: Stats, delay: float):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        counted = False

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def _send(self, body: bytes) -> None:
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            with stats.lock:
                body = json.dumps({"requests": stats.requests,
                                   "connections": stats.connections,
                                   "peak_in_flight": stats.peak_in_flight})
            self.close_connection = True
            self._send(body.encode("utf-8"))

        def do_POST(self):
            length = int(self.headers.get("Content-Length", "0"))
            request = json.loads(self.rfile.read(length))
            with stats.lock:
                stats.requests += 1
                if not self.counted:
                    self.counted = True
                    stats.connections += 1
                stats.in_flight += 1
                stats.peak_in_flight = max(stats.peak_in_flight, stats.in_flight)
            try:
                time.sleep(delay)
                content = answer(request["messages"][-1]["content"])
            finally:
                with stats.lock:
                    stats.in_flight -= 1
            self._send(json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": content}}]}
            ).encode("utf-8"))

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay", type=float, required=True,
                        help="seconds to wait before answering each request")
    args = parser.parse_args()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(Stats(), args.delay))
    server.daemon_threads = True

    def stop_when_parent_goes():
        sys.stdin.buffer.read()
        server.shutdown()

    threading.Thread(target=stop_when_parent_goes, daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
