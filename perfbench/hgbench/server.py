"""Start and stop the program's HTTP service in its own process.

The service starts through the production entry point,
``python -m repro.experiments.cli serve``, with its default workers,
tenant limit and queue depth, and ``--durable-sync none`` (the WAL is
fsynced only at checkpoints).  A traced run starts the same entry point
through :mod:`hgbench.traced_server`, which wraps the program's public
functions with spans first.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from hgbench.loadgen import Client

BENCH_DIR = Path(__file__).resolve().parent.parent
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """One running service process; :meth:`stop` ends it."""

    def __init__(self, root: Path, *, spans_out: Path | None = None) -> None:
        self.root = root
        self.spans_out = spans_out
        self.port = _free_port()
        self.peak_rss_mb = 0.0
        argv = [
            "serve",
            "--durable-root", str(root),
            "--port", str(self.port),
            "--durable-sync", "none",
        ]
        env = dict(os.environ, PYTHONPATH="src")
        if spans_out is None:
            command = [sys.executable, "-m", "repro.experiments.cli", *argv]
        else:
            command = [sys.executable, str(BENCH_DIR / "hgbench" / "traced_server.py"),
                       str(spans_out), *argv]
        self.log_path = root.parent / f"{root.name}.log"
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, env=env, stdout=subprocess.DEVNULL, stderr=log
            )

    def wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        client = Client(self.port, close_each=True)
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"service exited early: {self._stderr()}")
            status, code, _ = client.call("GET", "/health")
            if code is None and status == 200:
                return
            time.sleep(0.01)
        raise RuntimeError("service did not become ready")

    def sample_rss(self) -> float:
        """Peak resident set of the service process so far (MB)."""
        try:
            status = Path(f"/proc/{self.process.pid}/status").read_text()
        except OSError:
            return self.peak_rss_mb
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                self.peak_rss_mb = max(self.peak_rss_mb, int(line.split()[1]) / 1024.0)
        return self.peak_rss_mb

    def _stderr(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def stop(self) -> None:
        """Interrupt the service (it checkpoints and closes) and wait for it."""
        if self.process.poll() is None:
            self.sample_rss()
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
