"""Process helpers: timed children, process-tree CPU/RSS, listening ports."""

import os
import socket
import subprocess
import tempfile
import threading
import time

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def run_child(cmd, env=None, cwd=None, timeout=170):
    """Runs `cmd` to completion.

    Returns a dict with rc, wall_s, cpu_s (user+sys), peak_rss_mb and the
    child's stdout/stderr text. CPU and peak RSS are the child's own rusage
    from wait4.
    """
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        child = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out,
                                 stderr=err, text=True)
        # A blocking wait: polling would take CPU from the measured child.
        killer = threading.Timer(timeout, child.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"rc": child.returncode, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": out.read(), "stderr": err.read()}


def tree_pids(root):
    """`root` and every live descendant process."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents[int(entry)] = int(fields[1])
    pids = {root}
    grew = True
    while grew:
        grew = False
        for pid, parent in parents.items():
            if parent in pids and pid not in pids:
                pids.add(pid)
                grew = True
    return sorted(pids)


def tree_cpu_s(pids):
    """Summed user+sys CPU seconds of live processes."""
    total = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) * _TICK_S
    return total


def tree_peak_rss_mb(pids):
    """Summed peak resident set (VmHWM) of live processes."""
    total = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except OSError:
            continue
    return total


def listening_port(pid):
    """The loopback TCP port process `pid` listens on, or None yet."""
    inodes = set()
    try:
        for fd in os.listdir(f"/proc/{pid}/fd"):
            try:
                target = os.readlink(f"/proc/{pid}/fd/{fd}")
            except OSError:
                continue
            if target.startswith("socket:["):
                inodes.add(target[8:-1])
    except OSError:
        return None
    with open("/proc/net/tcp") as handle:
        next(handle)
        for line in handle:
            fields = line.split()
            if fields[3] == "0A" and fields[9] in inodes:
                return int(fields[1].split(":")[1], 16)
    return None


def request_lines(port, lines, timeout=30.0):
    """Sends request lines over one connection and returns the replies."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall("".join(line + "\n" for line in lines).encode())
        buffer = b""
        while buffer.count(b"\n") < len(lines):
            chunk = s.recv(65536)
            if not chunk:
                break
            buffer += chunk
    return buffer.decode().splitlines()
