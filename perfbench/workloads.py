"""The perfbench workloads.

Each workload makes its inputs from the seed, sets up several times,
drives the built binaries in a closed loop (one outstanding operation, or
a fixed number of them for the server) until the time is up, checks every
answer, and returns an Outcome. run.py turns an Outcome into metrics.

  solve_osim  holim_cli OSIM solves (opinion-aware, the paper's method)
  solve_imm   holim_cli IMM solves (RR-set sampling + coverage select)
  churn_celf  holim_cli --churn: delta batch + warm sketch-CELF re-solve
  serve_zipf  holimd pipe mode under Zipf-skewed multi-tenant traffic
"""

import bisect
import os
import re
import subprocess
import time

from harness import (Child, Spans, median, rng_for, run_cli,
                     run_cli_timed_lines, write_social_graph)

SETUP_REPS = 7  # set-up is timed this many times per run; the median counts
GRAPHS = 6      # input graphs per CLI workload: more topologies, steadier mix


class Outcome:
    def __init__(self):
        self.latencies_s = []  # one per measured operation
        self.window_s = 0.0    # wall time of the measured loop
        self.setup_s = []      # one per set-up repetition
        self.rss_kib = []      # peak RSS of each measured process
        self.cpu_s = 0.0       # CPU seconds of the measured processes
        self.attempted = 0
        self.failed = 0
        self.errors = []       # correctness violations (any => incorrect)
        self.spans = Spans()
        self.layer = {}        # per-layer metrics the workload measured

    def check(self, ok, message):
        if not ok and len(self.errors) < 20:
            self.errors.append(message)
        return ok


class Context:
    def __init__(self, bins, seed, seconds, trace, workdir):
        self.bins = bins
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir


def _graphs(ctx, name, count, n):
    paths = []
    for g in range(count):
        path = os.path.join(ctx.workdir, "%s-g%d.txt" % (name, g))
        write_social_graph(path, n, 3.5, rng_for(name, ctx.seed, "graph", g))
        paths.append(path)
    return paths


def _cli(ctx, graph, args):
    return [ctx.bins["holim_cli"], "--edge_list=" + graph, "--undirected"] + args


def _setup_cli(ctx, out, graphs):
    """Set-up of a holim_cli solve: spawn, parse the edge list, build the
    graph and its stats, answer a trivial query, exit."""
    for rep in range(SETUP_REPS):
        graph = graphs[rep % len(graphs)]
        res = run_cli(_cli(ctx, graph, ["--algo=degree", "--k=1", "--stats-json"]))
        out.check(res.code == 0 and res.stats_json() is not None,
                  "set-up solve failed: " + res.output[-300:])
        out.setup_s.append(res.wall_s)


def _check_seed_set(out, seeds, k, n, what):
    out.check(
        isinstance(seeds, list) and len(seeds) == k and
        len(set(seeds)) == k and all(0 <= s < n for s in seeds),
        "%s: bad seed set %r" % (what, seeds))


def _solve_loop(ctx, out, requests, n):
    """Closed loop over `requests` [(key, argv, k)] until time is up; each
    answer is checked, and repeats of a request must answer identically."""
    answers = {}
    deadline = time.perf_counter() + ctx.seconds
    start = time.perf_counter()
    i = 0
    while time.perf_counter() < deadline:
        key, argv, k = requests[i % len(requests)]
        i += 1
        out.attempted += 1
        res = run_cli(argv)
        stats = res.stats_json()
        if res.code != 0 or stats is None:
            out.failed += 1
            out.check(False, "%s failed (exit %s): %s" % (key, res.code,
                                                        res.output[-300:]))
            continue
        out.latencies_s.append(res.wall_s)
        out.rss_kib.append(res.peak_rss_kib)
        out.cpu_s += res.cpu_s
        _check_seed_set(out, stats["seeds"], k, n, key)
        out.check(stats["tier"] == "full" and not stats["degraded"],
                  "%s: degraded answer" % key)
        first = answers.setdefault(key, stats["seeds"])
        out.check(first == stats["seeds"], "%s: repeat answered differently" % key)
        end = res.start + res.wall_s
        op = out.spans.add("op", res.start, end)
        cursor = end - stats["total_seconds"]
        out.spans.add("outside_engine", res.start, cursor, op)
        out.spans.add("engine_total", cursor, end, op)
        for layer in ("artifact", "select", "spread"):
            seconds = stats[layer + "_seconds"]
            out.spans.add("engine_" + layer, cursor, cursor + seconds, op)
            cursor += seconds
    out.window_s = time.perf_counter() - start
    return answers


def _interleave(rng, classes):
    """Shuffles each (equal-sized) class, then deals them round-robin.

    Every len(classes) consecutive requests hold one of each class, so a
    run that stops mid-cycle still has the full mix, and with classes of
    well-separated cost the median and p90 land inside a class instead of
    in a gap between two.
    """
    for members in classes:
        rng.shuffle(members)
    return [members[i] for i in range(len(classes[0])) for members in classes]


def solve_osim(ctx):
    """OSIM (opinion-aware) seed selection, one holim_cli process per solve.

    Three cost classes, (IC, k=100), (LT, k=25) and (LT, k=50), each over
    six 10k-node graphs x opinions normal|uniform, with seed-drawn lambda
    and RNG seed. Extra check: the full O(l(m+n)) rescore picks the same
    seeds as the default incremental rescore.
    """
    out, n = Outcome(), 10000
    rng = rng_for("solve_osim", ctx.seed)
    graphs = _graphs(ctx, "osim", GRAPHS, n)
    _setup_cli(ctx, out, graphs)
    classes = []
    for model, k in (("IC", 100), ("LT", 25), ("LT", 50)):
        members = []
        for g, graph in enumerate(graphs):
            for opinions in ("normal", "uniform"):
                args = ["--algo=osim", "--model=" + model,
                        "--opinions=" + opinions, "--k=%d" % k, "--l=3",
                        "--lambda=%g" % rng.choice((0.5, 1.0, 2.0)),
                        "--seed=%d" % rng.randrange(1, 1 << 31),
                        "--stats-json"]
                key = "osim g%d %s" % (g, " ".join(args[1:6]))
                members.append((key, _cli(ctx, graph, args), k))
        classes.append(members)
    requests = _interleave(rng, classes)
    answers = _solve_loop(ctx, out, requests, n)
    key, argv, _ = requests[0]
    full = run_cli(argv + ["--rescore=full"]).stats_json()
    out.check(full is not None and full["seeds"] == answers.get(key),
              "%s: --rescore=full disagrees with incremental" % key)
    return out


def solve_imm(ctx):
    """IMM seed selection (k=50, epsilon=0.2), one holim_cli process per
    solve.

    Three cost classes, models LT, WC and IC(p=0.02), each over six
    10k-node graphs with a seed-drawn RNG seed. Extra check: the 2-thread
    RR sampler picks the same seeds as the serial one.
    """
    out, n = Outcome(), 10000
    rng = rng_for("solve_imm", ctx.seed)
    graphs = _graphs(ctx, "imm", GRAPHS, n)
    _setup_cli(ctx, out, graphs)
    classes = []
    for model in ("LT", "WC", "IC"):
        members = []
        for g, graph in enumerate(graphs):
            args = ["--algo=imm", "--model=" + model, "--p=0.02", "--k=50",
                    "--epsilon=0.2", "--seed=%d" % rng.randrange(1, 1 << 31),
                    "--stats-json"]
            members.append(("imm g%d %s" % (g, args[1]),
                            _cli(ctx, graph, args), 50))
        classes.append(members)
    requests = _interleave(rng, classes)
    answers = _solve_loop(ctx, out, requests, n)
    key, argv, _ = requests[0]
    threaded = run_cli(argv + ["--threads=2"]).stats_json()
    out.check(threaded is not None and threaded["seeds"] == answers.get(key),
              "%s: --threads=2 disagrees with serial" % key)
    return out


_CHURN_LINE = re.compile(
    r"churn\[(\d+)\]: epoch=(\d+) \+(\d+)/-(\d+)/~(\d+) patched=(\d+) "
    r"evicted=(\d+) n=(\d+) m=(\d+) seed0=(\d+) spread=([0-9.]+)$")
_GRAPH_LINE = re.compile(r"graph: n=(\d+) m=(\d+) ")
CHURN_STEPS = 12


def _check_churn(out, key, lines, k):
    """Checks one --churn transcript; returns its churn lines."""
    text = [line for _, line in lines]
    graph = [_GRAPH_LINE.match(t) for t in text if t.startswith("graph:")]
    steps = [_CHURN_LINE.match(t) for t in text if t.startswith("churn[")]
    if not out.check(len(graph) == 1 and graph[0] and len(steps) == CHURN_STEPS
                     and all(steps), "%s: malformed transcript" % key):
        return []
    n, m = int(graph[0].group(1)), int(graph[0].group(2))
    for i, step in enumerate(steps):
        (index, epoch, ins, rem, rew, patched, _, n_after, m_after, seed0,
         spread) = step.groups()
        m += int(ins) - int(rem)
        out.check(int(index) == i and int(epoch) == i + 1 and
                  int(ins) + int(rem) + int(rew) <= 64 and int(patched) >= 1
                  and int(n_after) >= n and int(m_after) == m and
                  int(seed0) < int(n_after) and
                  k <= float(spread) <= int(n_after),
                  "%s: inconsistent step %s" % (key, step.group(0)))
    return [s.group(0) for s in steps]


def churn_celf(ctx):
    """Streaming churn: a 64-op random delta batch, then a warm sketch-CELF
    re-solve (R=64), repeated CHURN_STEPS times per holim_cli process.

    Three classes, (WC, k=5), (LT, k=5) and (WC, k=10), each over six
    2k-node graphs with a seed-drawn RNG seed, one process per pair. A
    step's latency is the gap between its output line and the previous
    one (stdout is a pty, so lines arrive as they are printed). Set-up is
    a process's time to its first delta: spawn, load, sketch build, cold
    solve. Each transcript is checked for epoch and edge-count
    consistency; repeats must be identical.
    """
    out, n = Outcome(), 2000
    rng = rng_for("churn_celf", ctx.seed)
    graphs = _graphs(ctx, "churn", GRAPHS, n)
    classes = []
    for model, k in (("WC", 5), ("LT", 5), ("WC", 10)):
        members = []
        for g, graph in enumerate(graphs):
            args = ["--algo=celf", "--oracle=sketch", "--sketches=64",
                    "--model=" + model, "--k=%d" % k, "--mc=10",
                    "--seed=%d" % rng.randrange(1, 1 << 31)]
            members.append(("celf g%d %s k=%d" % (g, model, k), graph, args, k))
        classes.append(members)
    configs = _interleave(rng, classes)

    transcripts = {}
    deadline = time.perf_counter() + ctx.seconds
    start = time.perf_counter()
    i = 0
    while time.perf_counter() < deadline:
        key, graph, args, k = configs[i % len(configs)]
        i += 1
        child, lines, spawned = run_cli_timed_lines(
            _cli(ctx, graph, args + ["--churn=%d" % CHURN_STEPS]))
        out.attempted += CHURN_STEPS
        if not out.check(child.exit_code == 0,
                         "%s exited %d" % (key, child.exit_code)):
            out.failed += CHURN_STEPS
            continue
        out.rss_kib.append(child.peak_rss_kib)
        out.cpu_s += child.cpu_s
        prev = next((t for t, line in lines if line.startswith("churn replay")),
                    None)
        if not out.check(prev is not None, "%s: no churn header" % key):
            continue
        out.setup_s.append(prev - spawned)
        for t, line in lines:
            if line.startswith("churn["):
                out.latencies_s.append(t - prev)
                out.spans.add("churn_step", prev, t)
                prev = t
        steps = _check_churn(out, key, lines, k)
        first = transcripts.setdefault(key, steps)
        out.check(first == steps, "%s: repeat transcript differs" % key)
    out.window_s = time.perf_counter() - start

    if ctx.trace:
        # A cold --stats-json solve of each configuration: the select and
        # spread time a post-delta re-solve pays again (its selector is
        # evicted by the delta), so the rest of a step is delta apply.
        engine_ms = []
        for key, graph, args, _ in configs:
            res = run_cli(_cli(ctx, graph, args + ["--stats-json"]))
            stats = res.stats_json()
            if out.check(stats is not None, "%s: stats-json solve failed" % key):
                for layer in ("total", "artifact", "select", "spread"):
                    out.spans.add("engine_" + layer, res.start,
                                  res.start + stats[layer + "_seconds"])
                engine_ms.append(1e3 * (stats["select_seconds"] +
                                        stats["spread_seconds"]))
                out.layer["sketch_arena_kib"] = stats["sketch_arena_bytes"] / 1024
        out.layer["outside_engine_ms"] = max(
            0.0, out.spans.median_ms("churn_step") - median(engine_ms))
    return out


class _Zipf:
    """Rank sampler with P(i) proportional to 1/(i+1)^exponent."""

    def __init__(self, items, exponent):
        self.items = items
        self.cdf, total = [], 0.0
        for i in range(len(items)):
            total += 1.0 / (i + 1) ** exponent
            self.cdf.append(total)

    def draw(self, rng):
        i = bisect.bisect_right(self.cdf, rng.random() * self.cdf[-1])
        return self.items[min(i, len(self.items) - 1)]


SERVE_TENANTS = 4
SERVE_QUEUE_DEPTH = 8
# The tenant graphs and sketch samples stay fixed; the seed drives the
# traffic. Arena bytes vary with the graph, and against a fixed cache
# budget that would turn the seed into a cache-size knob.
SERVE_SERVER_SEED = 42


def _holimd(ctx):
    argv = [ctx.bins["holimd_cli"], "--mode=pipe",
            "--tenants=%d" % SERVE_TENANTS, "--tenant-nodes=3000",
            "--sketches=64", "--queue-depth=%d" % SERVE_QUEUE_DEPTH,
            "--max-cache-mib=2", "--seed=%d" % SERVE_SERVER_SEED,
            "--echo-timings=" + ("true" if ctx.trace else "false")]
    return Child(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                 stderr=subprocess.DEVNULL, text=True, bufsize=1)


def _ask(child, line, until):
    """Sends one line, returns response lines up to one starting `until`."""
    child.popen.stdin.write(line + "\n")
    child.popen.stdin.flush()
    lines = []
    while not (lines and lines[-1].startswith(until)):
        reply = child.popen.stdout.readline()
        if not reply:
            raise RuntimeError("holimd closed its output")
        lines.append(reply.rstrip("\n"))
    return lines


def _finish(child):
    child.popen.stdin.close()
    child.popen.stdout.close()
    return child.reap()


def serve_zipf(ctx):
    """holimd pipe mode under skewed multi-tenant traffic.

    Requests are Zipf-skewed over 4 tenants, models WC|LT|IC and
    algorithms easyim|degreediscount, with k uniform over 5|10|20; the
    per-tenant cache holds about one sketch arena, so dispatch order and
    eviction decide how often arenas are rebuilt. Closed loop with 8
    requests outstanding (the admission queue depth): each new request
    dispatches one queued request. Latency is from writing a request to
    reading its response. Answers must not depend on cache state: every
    repeat of (tenant, model, algorithm, k) must return the same seeds
    and spread.
    """
    out = Outcome()
    rng = rng_for("serve_zipf", ctx.seed)
    tenants = _Zipf(list(range(SERVE_TENANTS)), 1.1)
    models = _Zipf(["WC", "LT", "IC"], 0.8)
    algos = _Zipf(["easyim", "degreediscount"], 0.5)

    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        child = _holimd(ctx)
        _ask(child, "ping", "pong")
        out.setup_s.append(time.perf_counter() - start)
        _ask(child, "quit", "bye")
        out.check(_finish(child)[0] == 0, "holimd set-up run failed")

    child = _holimd(ctx)
    _ask(child, "ping", "pong")
    sent, answers = {}, {}
    stats_line = ""

    def take(line, now):
        fields = dict(f.split("=", 1) for f in line.split()[1:] if "=" in f)
        rid = int(fields.get("id", -1))
        if rid not in sent:
            out.check(False, "response for unknown id: " + line)
            return
        t_sent, request = sent.pop(rid)
        if not line.startswith("ok "):
            out.failed += 1
            out.check(False, "request failed: " + line)
            return
        latency = now - t_sent
        out.latencies_s.append(latency)
        op = out.spans.add("op", t_sent, now)
        if ctx.trace:
            wait, solve = (float(fields["wait_ms"]) / 1e3,
                           float(fields["solve_ms"]) / 1e3)
            out.spans.add("queue_wait", t_sent, t_sent + wait, op)
            out.spans.add("engine_total", now - solve, now, op)
            # Pipe transfer, parsing and rendering: the op minus both.
            out.spans.add("outside_engine", t_sent + wait, now - solve, op)
        answer = (fields["seeds"], fields["spread"])
        out.check(len(set(fields["seeds"].split(","))) == request[3],
                  "bad seed set: " + line)
        first = answers.setdefault(request, answer)
        out.check(first == answer, "cache state changed an answer: " + line)

    def send():
        rid = out.attempted
        request = (tenants.draw(rng), models.draw(rng), algos.draw(rng),
                   rng.choice((5, 10, 20)))
        line = "solve id=%d tenant=%d model=%s algo=%s k=%d" % ((rid,) + request)
        sent[rid] = (time.perf_counter(), request)
        out.attempted += 1
        child.popen.stdin.write(line + "\n")
        child.popen.stdin.flush()

    try:
        start = time.perf_counter()
        deadline = start + ctx.seconds
        for _ in range(SERVE_QUEUE_DEPTH):
            send()  # fills the queue; nothing is dispatched yet
        while time.perf_counter() < deadline:
            send()  # a full queue dispatches one request per new one
            reply = child.popen.stdout.readline()
            take(reply.rstrip("\n"), time.perf_counter())
        child.popen.stdin.write("stats\n")  # drains the queue
        child.popen.stdin.flush()
        while True:
            reply = child.popen.stdout.readline().rstrip("\n")
            now = time.perf_counter()
            if reply.startswith("stats "):
                stats_line = reply
                break
            if not reply:
                raise RuntimeError("holimd closed its output")
            take(reply, now)
        out.window_s = time.perf_counter() - start
        _ask(child, "quit", "bye")
    finally:
        code, rss = _finish(child)
    out.check(code == 0 and not sent, "holimd exited %d, %d unanswered" %
              (code, len(sent)))
    out.rss_kib.append(rss)
    out.cpu_s += child.cpu_s

    stats = dict(f.split("=", 1) for f in stats_line.split()[1:])
    served = int(stats.get("served", 0))
    out.check(served == len(out.latencies_s) and stats.get("failed") == "0" and
              stats.get("rejected") == "0",
              "server counters disagree with the client: " + stats_line)
    if served:
        out.layer["warm_hit_rate"] = int(stats["warm_sketch_hits"]) / served
        out.layer["sketch_builds_per_100"] = 100 * int(stats["builds"]) / served
        out.layer["coalesced_per_100"] = 100 * int(stats["coalesced"]) / served
    return out


WORKLOADS = {
    "serve_zipf": serve_zipf,
    "solve_osim": solve_osim,
    "churn_celf": churn_celf,
    "solve_imm": solve_imm,
}
