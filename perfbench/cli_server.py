"""The program under test as a user runs it: the shipped CLI, as subprocesses.

``python -m repro build`` turns the generated CSV into a snapshot file and
``python -m repro serve --async`` serves it over TCP.  The benchmark
measures the server only from outside: the wire, ``/proc/<pid>`` and the
snapshot file.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time

BANNER = re.compile(r" on ([0-9.]+):(\d+) \(async\)")
CLK_TCK = os.sysconf("SC_CLK_TCK")


def repro_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def build_snapshot(root: str, csv_path: str, out_path: str,
                   n_dims: int) -> float:
    """``repro build``; returns its wall time in seconds."""
    dims = ",".join(f"D{j}" for j in range(n_dims))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", "build", csv_path, "--dims", dims,
         "--measures", "M", "--aggregate", "sum(M)", "--out", out_path],
        check=True, env=repro_env(root), stdout=subprocess.DEVNULL,
        timeout=120,
    )
    return time.perf_counter() - start


class CliServer:
    """``repro serve --async`` on an ephemeral port, ready when it returns.

    ``startup_s`` is the time from spawning the process to its listening
    banner.  Stop it with :meth:`stop` (or a ``with`` block).
    """

    def __init__(self, root: str, tree_path: str, table_path: str,
                 log_path: str, timeout_s: float = 60.0):
        start = time.perf_counter()
        self._log = open(log_path, "w+")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", tree_path,
             "--table", table_path, "--async", "--port", "0"],
            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
            stderr=self._log, env=repro_env(root), text=True,
        )
        try:
            self.host, self.port = self._await_banner(log_path, timeout_s)
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - start

    def _await_banner(self, log_path: str, timeout_s: float):
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            with open(log_path) as fp:
                text = fp.read()
            match = BANNER.search(text)
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited: {text.strip()}")
            time.sleep(0.002)
        raise TimeoutError(f"repro serve printed no banner in {timeout_s}s")

    def cpu_s(self) -> float:
        """User + system CPU seconds of the server process so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fp:
            fields = fp.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        proc = self.proc
        if proc.poll() is None:
            try:
                proc.stdin.write("quit\n")
                proc.stdin.close()
            except (BrokenPipeError, OSError):
                pass
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=20)
        elif proc.stdin is not None and not proc.stdin.closed:
            proc.stdin.close()
        self._log.close()

    def __enter__(self) -> "CliServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc status")
