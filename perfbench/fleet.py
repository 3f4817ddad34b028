"""A hermetic one-worker fleet: in-process experiment service + one
``repro worker --url`` subprocess.

Everything a fleet touches lives in one directory under the benchmark's
run directory: the service's SQLite store and the worker's ``TMPDIR``
(URL-mode workers cache traces in ``$TMPDIR/repro-traces-<sha1(url)>``
and never delete them). :meth:`Fleet.close` removes the directory, so
no run warms a later one and nothing is left behind.

The worker is never signalled. It runs with ``--max-idle`` and exits by
itself once the driver stops handing it work; :meth:`Fleet.finish`
waits for that exit, then reads the worker's heartbeat row and its
closing summary line.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile

TOKEN = "perfbench-token"

#: Seconds without work after which the worker exits. The longest gap
#: between tasks inside a campaign is well under a second on a 2-core
#: host; a gap this long means the campaign is over. A worker that exits
#: before :meth:`Fleet.finish` is reported as a failed check, not
#: replaced.
WORKER_IDLE_S = 2.0

#: Upper bound on waiting for the worker's idle exit.
EXIT_TIMEOUT_S = 60.0

_SUMMARY = re.compile(r"(\d+) claimed, (\d+) completed, (\d+) failed, (\d+) leases lost")


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Fleet:
    """One service + one worker, set up and torn down per campaign.

    Parameters
    ----------
    run_dir:
        Directory the fleet's own directory is created in.
    src:
        The ``src`` directory of the checkout under test (the worker's
        ``PYTHONPATH``).
    launcher:
        Command prefix that runs ``repro``'s CLI in the worker process;
        default ``python -m repro``. The traced run substitutes
        ``perfbench/worker_main.py``, which records layer spans.
    """

    def __init__(self, run_dir: str, src: str, launcher: list = None) -> None:
        self.dir = tempfile.mkdtemp(prefix="fleet-", dir=run_dir)
        self.src = src
        self.launcher = launcher or [sys.executable, "-m", "repro"]
        self.service = None
        self.store = None
        self.proc = None
        self._log = None
        #: Filled by :meth:`finish`.
        self.status: dict = {}
        self.worker: dict = {}

    # ------------------------------------------------------------------
    def start_service(self):
        """Start the service on an ephemeral port; returns the driver's store."""
        from repro.service.server import ExperimentService
        from repro.store import open_store

        self.service = ExperimentService(os.path.join(self.dir, "store.sqlite"),
                                         token=TOKEN, port=0).start()
        self.store = open_store(self.service.url, token=TOKEN)
        return self.store

    def spawn_worker(self) -> None:
        """Start the worker; it exits by itself once idle."""
        self._log = open(os.path.join(self.dir, "worker.log"), "w")
        env = dict(os.environ, PYTHONPATH=self.src, TMPDIR=self.dir,
                   REPRO_TOKEN=TOKEN)
        cmd = [*self.launcher, "worker", "--url", self.service.url,
               "--max-idle", str(WORKER_IDLE_S)]
        self.proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                                     stdout=self._log, stderr=subprocess.STDOUT)

    def worker_cpu_s(self) -> float:
        """CPU seconds the worker has used so far. The worker must still
        be running: a worker that has exited raises ``RuntimeError``
        (its CPU time is gone with it)."""
        try:
            if self.proc.poll() is None:
                return process_cpu_s(self.proc.pid)
        except OSError:
            pass  # reaped between the poll and the read
        raise RuntimeError(f"fleet worker exited early with code {self.proc.returncode}")

    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Let the worker exit on idle; collect its status and summary."""
        from repro.service.client import fetch_status

        if self.proc is not None:
            early = self.proc.poll() is not None
            try:
                self.proc.wait(timeout=EXIT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self._log.close()
            with open(os.path.join(self.dir, "worker.log")) as fh:
                log = fh.read()
            found = _SUMMARY.findall(log)
            claimed, completed, failed, lost = (
                [sum(int(m[i]) for m in found) for i in range(4)]
                if found else [0, 0, 0, 0])
            self.worker = {"exit_code": self.proc.returncode, "exited_early": early,
                           "summaries": len(found), "claimed": claimed,
                           "completed": completed, "failed": failed,
                           "lost_leases": lost}
        if self.service is not None:
            self.status = fetch_status(self.service.url, token=TOKEN)

    def close(self) -> None:
        """Stop the service and remove every file the fleet made."""
        if self.proc is not None and self.proc.poll() is None:
            # Only reached when a campaign raised mid-flight.
            self.proc.kill()
            self.proc.wait()
        if self._log is not None and not self._log.closed:
            self._log.close()
        if self.store is not None:
            self.store.close()
        if self.service is not None:
            self.service.stop()
            self.service.close()
        shutil.rmtree(self.dir, ignore_errors=True)
