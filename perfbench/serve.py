"""The ``served_ingest`` server: its launcher and the handle that owns it.

Run as a script, this file starts ``python -m repro serve`` in-process
with the benchmark's layer timers installed, so the server's layers show
in the traced run::

    python perfbench/serve.py --trace-out PATH -- --port 0

The first control-plane ``ping`` it receives starts the timers and marks
the registry; the second stops them and marks it again.  When the server
is interrupted (SIGINT), the launcher writes the timers, the server-side
``LocalTransport.call`` time, and both registry marks to ``PATH`` as
JSON.  An untraced run starts ``python -m repro serve`` directly.

Imported, it provides :class:`ServerProcess`, which starts either form
with the environment pinned, reads readiness and the port from the
server's banner, and always stops the process.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Environment variables that switch the program into another config.
PINNED_ENV = ("REPRO_PERF", "REPRO_OBS", "REPRO_WORKERS")

BANNER = re.compile(r"serving PolarStore on ([0-9.]+):(\d+)")
START_TIMEOUT_S = 60.0
#: How long to wait after each of two SIGINTs (asyncio turns the second
#: into a KeyboardInterrupt wherever the server is).  A server still
#: running after both gets SIGABRT, which makes faulthandler print every
#: thread's stack to the server log, and then SIGKILL.
STOP_TIMEOUTS_S = (10.0, 20.0)


def pinned_env() -> dict:
    """This process's environment without the config switches, with the
    checkout's ``src`` as the only import path."""
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class ServerProcess:
    """One server subprocess; a context manager that always stops it."""

    def __init__(self, workdir: Path, trace_out: Optional[Path] = None):
        self.trace_out = trace_out
        self.log_path = workdir / f"server-{time.monotonic_ns()}.log"
        self.proc: Optional[subprocess.Popen] = None
        self.addr: Optional[Tuple[str, int]] = None
        self._log = None

    def __enter__(self) -> "ServerProcess":
        cmd = [sys.executable, "-X", "faulthandler"]
        if self.trace_out is not None:
            cmd += [str(HERE / "serve.py"),
                    "--trace-out", str(self.trace_out), "--"]
        else:
            cmd += ["-m", "repro"]
        cmd += ["serve", "--port", "0"]
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        try:
            self.addr = self._await_banner()
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        try:
            self.stop()
        except RuntimeError:
            # Keep the error already propagating; it came first.
            if exc_type is None:
                raise

    def _await_banner(self) -> Tuple[str, int]:
        ready, _, _ = select.select(
            [self.proc.stdout], [], [], START_TIMEOUT_S
        )
        if not ready:
            raise RuntimeError(
                f"server printed no banner within {START_TIMEOUT_S:.0f} s"
                f"{self._log_tail()}"
            )
        line = self.proc.stdout.readline()
        match = BANNER.search(line)
        if match is None:
            raise RuntimeError(
                f"server exited (code {self.proc.poll()}) or printed an "
                f"unexpected banner {line!r}{self._log_tail()}"
            )
        return match.group(1), int(match.group(2))

    def check_alive(self) -> None:
        """Raise if the server has exited without being asked to."""
        code = self.proc.poll()
        if code is not None:
            raise RuntimeError(
                f"server exited early with code {code}{self._log_tail()}"
            )

    def stop(self) -> int:
        """Interrupt the server and wait for it; kill it if it hangs.

        Returns its exit code; raises if it did not exit cleanly.
        """
        proc = self.proc
        if proc is None:
            return 0
        self.proc = None
        try:
            for timeout in STOP_TIMEOUTS_S:
                if proc.poll() is not None:
                    break
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout)
                except subprocess.TimeoutExpired:
                    pass
            if proc.poll() is None:
                proc.send_signal(signal.SIGABRT)
                try:
                    proc.wait(5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        finally:
            proc.stdout.close()
            self._log.close()
        if proc.returncode != 0:
            raise RuntimeError(
                f"server exited with code {proc.returncode}"
                f"{self._log_tail()}"
            )
        return proc.returncode

    def _log_tail(self) -> str:
        try:
            text = self.log_path.read_text()
        except OSError:
            return ""
        return "; server stderr:\n" + text[-2000:] if text else ""


# --------------------------------------------------------------------------
# The launcher (runs in the server process)
# --------------------------------------------------------------------------


def launch(trace_out: Path, serve_args: List[str]) -> int:
    from layers import LayerClock, codec_pages, registry_counts

    clock = LayerClock().install()
    from repro.api.transport import LocalTransport
    from repro.net.server import PolarStoreServer

    state = {"server_s": 0.0, "marks": [], "pages": {}}

    layered_call = LocalTransport.call

    def timed_call(self, op, /, *args, **kwargs):
        if not clock.enabled:
            return layered_call(self, op, *args, **kwargs)
        start = time.perf_counter()
        try:
            return layered_call(self, op, *args, **kwargs)
        finally:
            state["server_s"] += time.perf_counter() - start

    process_control = PolarStoreServer._process_control

    async def marking_control(self, req, writer):
        if req.op == "ping":
            if not state["marks"]:
                state["marks"].append(registry_counts(self.registry))
                clock.start()
            elif len(state["marks"]) == 1:
                clock.stop()
                state["marks"].append(registry_counts(self.registry))
                state["pages"] = codec_pages(self.transport.store)
        await process_control(self, req, writer)

    LocalTransport.call = timed_call
    PolarStoreServer._process_control = marking_control

    from repro.__main__ import main as repro_main

    code = repro_main(serve_args)
    clock.stop()
    if len(state["marks"]) != 2:
        print(f"launcher: expected 2 ping marks, got {len(state['marks'])}",
              file=sys.stderr)
        return 1
    doc = {
        "clock": clock.snapshot(),
        "server_s": state["server_s"],
        "before": state["marks"][0],
        "after": state["marks"][1],
        "pages": state["pages"],
    }
    tmp = trace_out.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc))
    tmp.replace(trace_out)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", type=Path, required=True,
                        help="where to write the server's layer timers")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER,
                        help="arguments of 'python -m repro', after --")
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    return launch(args.trace_out, serve_args)


if __name__ == "__main__":
    sys.exit(main())
