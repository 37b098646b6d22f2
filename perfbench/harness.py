"""Process, timing and metric helpers shared by the perfbench workloads.

Every child process is started through `Child`, which reaps it with
wait4() so its peak RSS can be reported, and registers it so that a
timeout or an error kills and reaps whatever is still running.
"""

import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import time

_LIVE = set()  # Child objects not yet reaped


def rng_for(*parts):
    """A random.Random seeded from `parts`; equal parts give equal streams."""
    text = ":".join(str(p) for p in parts).encode()
    return random.Random(int.from_bytes(hashlib.sha256(text).digest()[:8], "little"))


def write_social_graph(path, n, per_node, rng):
    """Writes an undirected heterogeneous preferential-attachment graph.

    Node u attaches to 1 + Exponential(per_node - 1) degree-proportional
    partners: many leaves and a heavy tail, the shape of the SNAP social
    graphs the paper uses. One "u<TAB>v" row per undirected edge.
    """
    endpoints = [0, 1]
    rows = ["# perfbench social graph n=%d per_node=%g" % (n, per_node), "0\t1"]
    mean_extra = per_node - 1.0
    for u in range(2, n):
        want = min(u, 1 + int(-mean_extra * math.log(1.0 - rng.random())))
        picked = []
        while len(picked) < want:
            v = endpoints[rng.randrange(len(endpoints))]
            if v != u and v not in picked:
                picked.append(v)
                rows.append("%d\t%d" % (u, v))
                endpoints += (u, v)
    with open(path, "w") as f:
        f.write("\n".join(rows) + "\n")


class Child:
    """A started child process; `reap()` returns (exit code, peak RSS KiB)
    and records the CPU seconds (user + system) the child used."""

    def __init__(self, argv, **popen_kwargs):
        self.popen = subprocess.Popen(argv, **popen_kwargs)
        self.exit_code = None
        self.peak_rss_kib = 0
        self.cpu_s = 0.0
        _LIVE.add(self)

    def reap(self):
        if self.exit_code is None:
            _, status, usage = os.wait4(self.popen.pid, 0)
            self.exit_code = os.waitstatus_to_exitcode(status)
            self.peak_rss_kib = usage.ru_maxrss
            self.cpu_s = usage.ru_utime + usage.ru_stime
            # Tell Popen the child is gone so it never waits on the pid again.
            self.popen.returncode = self.exit_code
            _LIVE.discard(self)
        return self.exit_code, self.peak_rss_kib


def kill_all():
    """Kills and reaps every child that is still running."""
    for child in list(_LIVE):
        try:
            child.popen.kill()
        except OSError:
            pass
        child.reap()


class CliResult:
    def __init__(self, child, output, start, wall_s):
        self.code = child.exit_code
        self.output = output
        self.start = start
        self.wall_s = wall_s
        self.peak_rss_kib = child.peak_rss_kib
        self.cpu_s = child.cpu_s

    def stats_json(self):
        """The --stats-json line (the last line of output) as a dict."""
        lines = self.output.strip().splitlines()
        try:
            value = json.loads(lines[-1]) if lines else None
        except ValueError:
            return None
        return value if isinstance(value, dict) else None


def run_cli(argv):
    """Runs one command to completion, timing it from spawn to reap."""
    start = time.perf_counter()
    child = Child(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                  stderr=subprocess.STDOUT)
    output = child.popen.stdout.read().decode(errors="replace")
    child.popen.stdout.close()
    child.reap()
    return CliResult(child, output, start, time.perf_counter() - start)


def run_cli_timed_lines(argv):
    """Runs one command on a pseudo-terminal, so its stdio is line buffered,
    and returns (reaped Child, [(arrival time, line)], start time)."""
    master, slave = os.openpty()
    start = time.perf_counter()
    child = Child(argv, stdin=subprocess.DEVNULL, stdout=slave, stderr=slave)
    os.close(slave)
    lines, pending = [], b""
    try:
        while True:
            try:
                chunk = os.read(master, 65536)
            except OSError:  # EIO: the child closed its end
                break
            if not chunk:
                break
            now = time.perf_counter()
            pending += chunk
            *complete, pending = pending.split(b"\n")
            lines += [(now, raw.rstrip(b"\r").decode(errors="replace"))
                      for raw in complete]
    finally:
        os.close(master)
    child.reap()
    return child, lines, start


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values):
    return statistics.median(values) if values else 0.0


class Spans:
    """In-memory trace: one record per layer interval, written out at the end.

    A span is (name, start_s, end_s, parent index or -1). Program-reported
    timings become child spans laid out inside their operation's span.
    """

    def __init__(self):
        self.records = []

    def add(self, name, start, end, parent=-1):
        self.records.append((name, start, end, parent))
        return len(self.records) - 1

    def median_ms(self, name):
        return median([(e - s) * 1e3 for n, s, e, _ in self.records
                       if n == name])

    def write(self, path):
        with open(path, "w") as f:
            for i, (name, start, end, parent) in enumerate(self.records):
                f.write(json.dumps({"id": i, "name": name, "start_s": start,
                                    "end_s": end, "parent": parent}) + "\n")
