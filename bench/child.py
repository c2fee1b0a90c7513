"""Run one child process to completion and measure it from outside."""

from __future__ import annotations

import os
import selectors
import subprocess
import time
from dataclasses import dataclass

CHILD_TIMEOUT_S = 120.0


@dataclass
class Child:
    wall_s: float  # spawn until the child has exited and its pipes are drained
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int  # the child's own peak resident set size


def run_child(cmd: list[str], env: dict, cwd) -> Child:
    """Spawn, drain stdout and stderr together, and reap with wait4 so the
    resource usage is this child's alone.  A child still running after
    CHILD_TIMEOUT_S is killed and reported with code -9."""
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    deadline = started + CHILD_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                deadline = float("inf")
                continue
            for key, _ in sel.select(min(remaining, 1.0)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, b"".join(chunks[proc.stdout]).decode(),
                 b"".join(chunks[proc.stderr]).decode(), usage.ru_maxrss)
