"""Start, probe and stop ``repro serve`` subprocesses."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional

_BANNER = re.compile(r"listening on http://[^:]+:(\d+)")

#: Seconds a server may take to print its banner.
START_TIMEOUT = 60.0


class ServerProcess:
    """One running server; ``launcher`` selects traced or untraced start.

    The untraced command is ``python -m repro serve``; the traced one
    runs :mod:`pbench.launcher`, which patches span recorders in before
    it calls ``repro.cli.main(["serve", ...])``.
    """

    def __init__(self, root: str, flags: List[str], *, log_path: str,
                 spans_path: Optional[str] = None) -> None:
        self.root = root
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        serve_args = ["serve", "--port", "0"] + list(flags)
        if spans_path is None:
            command = [sys.executable, "-m", "repro"] + serve_args
        else:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    "launcher.py")
            command = [sys.executable, launcher, "--spans-out", spans_path,
                       "--"] + serve_args
        self._log = open(log_path, "ab")
        self.started = time.monotonic()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._log, stdin=subprocess.DEVNULL,
        )
        self.port = self._await_banner()
        self.ready = time.monotonic()

    def _await_banner(self) -> int:
        found: List[int] = []

        def read() -> None:
            for raw in self.process.stdout:
                match = _BANNER.search(raw.decode("utf-8", "replace"))
                if match:
                    found.append(int(match.group(1)))
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(START_TIMEOUT)
        if not found:
            self.stop()
            raise RuntimeError("server did not print its listening banner")
        # Keep draining stdout so the server never blocks on a full pipe.
        threading.Thread(target=self._drain, daemon=True).start()
        return found[0]

    def _drain(self) -> None:
        for _ in self.process.stdout:
            pass

    def connection(self, timeout: float = 60.0) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)

    def metrics(self) -> dict:
        """The JSON ``/metrics`` snapshot (fresh connection)."""
        connection = self.connection()
        try:
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            return json.loads(response.read())
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MB."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self, timeout: float = 30.0) -> int:
        """SIGINT (graceful drain), then SIGKILL; waits for the exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        return self.process.returncode
