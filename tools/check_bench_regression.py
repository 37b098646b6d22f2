#!/usr/bin/env python3
"""CI bench-regression gate for the committed BENCH_*.json baselines.

Dispatches on the baseline's "bench" field:

  * "rr_engine" (BENCH_rr_engine.json, from bench_micro_rr_engine):
      - bytes_per_set, per engine row — deterministic given the build (same
        seeds, same growth policy), so every run must stay within threshold
        of the baseline, and runs must agree with each other almost exactly.
      - incremental_select.select_speedup — a timing *ratio* (rebuild path
        vs incremental index on the same machine), so it transfers across
        runner hardware where raw seconds would not.

  * "scoring" (BENCH_scoring.json, from bench_micro_scoring):
      - incremental_rescore.<scorer>.work_ratio — node-level Delta
        evaluations full-path / incremental-path. Deterministic given the
        graph seed and config: every run must stay within threshold and
        runs must agree exactly.
      - incremental_rescore.<scorer>.rescore_speedup — a timing ratio,
        gated like select_speedup.

  * "engine" (BENCH_engine.json, from bench_micro_engine):
      - warm.workspace_bytes — capacity-based footprint of the warm
        Workspace after the batch (arena + selector state); deterministic
        given the fixed sampling seeds, gated like bytes_per_set.
      - batch.batch_speedup — warm-vs-cold wall time of the 8-query
        algorithm-comparison batch (the N-query amortization the engine
        exists for); a timing ratio, gated like select_speedup.
      - batch.cold_sketch_builds / warm_sketch_builds — exact artifact
        build counts (8 vs 1); any drift means the Workspace keying broke.

  * "spread_oracle" (BENCH_spread.json, from bench_micro_spread_oracle):
      - arena.bytes_per_snapshot — deterministic (fixed sampling seeds and
        exact capacity accounting): gated like bytes_per_set.
      - session.session_work_ratio — nodes touched evaluating the growing
        seed prefixes one-shot vs the activate-once incremental session;
        derived from integer reach counts, so deterministic.
      - celf.spread_parity_vs_mc — MC-estimated spread of the
        sketch-selected seeds over that of the MC-selected seeds, both
        under the same fixed-seed estimator; deterministic, and ~1.0 means
        the sketch oracle picks seeds as good as MC-driven greedy.
      - celf.celf_speedup_vs_mc and celf.incremental_vs_oneshot_speedup —
        timing ratios (single-thread CELF runs on the same machine), gated
        like select_speedup.

  * "query_family" (BENCH_query.json, from bench_micro_query_family):
      - budgeted.uniform_parity / budgeted.lazy_eager_seed_match /
        targeted.allones_parity / explain.contribution_sum_parity — the
        query-vocabulary contracts (uniform-cost budgeted == top-k,
        lazy == eager budgeted seeds, all-ones targeted == untargeted,
        explain contributions telescope to the evaluate spread). All are
        exactly 1.0 by construction; any drift means a weighted kernel or
        the budget heap discipline broke.
      - targeted.topic_gain_ratio — weighted spread of the targeted solve
        over the untargeted winner rescored on the same Twitter-topic
        weights; deterministic (fixed sampling seeds), must not fall.
      - budgeted.lazy_speedup and explain.explain_speedup_vs_solve —
        timing ratios (eager-vs-lazy budgeted selection; solve-vs-explain
        attribution), gated like select_speedup.

  * "streaming" (BENCH_streaming.json, from bench_micro_streaming):
      - solve.parity — a boolean the bench itself HOLIM_CHECKs per churn
        step (warm post-delta solve bitwise equal to a cold rebuild). The
        binary aborts on violation, so a written JSON always carries
        true; the gate re-asserts it as an exact contract anyway.
      - solve.speedup — incremental (HolimEngine::ApplyDelta patching the
        sketch arena + warm re-solve) vs full-rebuild wall time over the
        churn sequence; a timing ratio, gated like select_speedup PLUS an
        absolute floor of 3.0x (the streaming layer's reason to exist;
        below that, rebuilding wins once noise is accounted for).
      - artifacts.patched / artifacts.evicted — exact per-sequence
        artifact migration counts; any drift means Workspace delta
        patching or the engine's eviction protocol changed.

Timing ratios take the best value across the supplied runs: CI runs each
bench twice and a regression is only real if neither run reaches the bar.
Run-to-run jitter of a timing ratio is reported; if it exceeds
--jitter-limit the environment is too noisy for the timing gate to mean
anything, and the gate fails with a distinct message (rerun the job) rather
than letting a lucky pair of runs mask a real regression.

Usage:
  tools/check_bench_regression.py --baseline BENCH_rr_engine.json \
      --run run1.json --run run2.json [--threshold 0.15] [--jitter-limit 0.5]
  tools/check_bench_regression.py --baseline BENCH_scoring.json \
      --run run1.json --run run2.json
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"error: cannot load {path}: {e}")
    if not isinstance(data, dict):
        sys.exit(f"error: {path}: top level is {type(data).__name__}, "
                 "expected a JSON object (corrupt bench JSON)")
    return data


def field(obj, key, context):
    """obj[key], but a missing/mis-typed field dies with the field and file
    named instead of a bare KeyError traceback."""
    if not isinstance(obj, dict):
        sys.exit(f"error: {context}: expected a JSON object holding "
                 f"'{key}', got {type(obj).__name__} (corrupt bench JSON)")
    if key not in obj:
        sys.exit(f"error: {context}: required field '{key}' is missing "
                 "(corrupt or outdated bench JSON; regenerate it with the "
                 "current bench binary)")
    return obj[key]


def check_geometry(baseline, runs, keys):
    """The comparison only makes sense on identical workload geometry."""
    for key in keys:
        for path, run in runs:
            if run.get(key) != baseline.get(key):
                sys.exit(f"error: {path} ran with {key}={run.get(key)} but "
                         f"baseline has {key}={baseline.get(key)}; "
                         "regenerate the baseline or fix the CI invocation")


def gate_deterministic(name, base_value, values, threshold, failures,
                       larger_is_better):
    """Every run must be within threshold of the baseline AND runs must
    agree with each other (the metric is deterministic by construction)."""
    if larger_is_better:
        limit = base_value * (1.0 - threshold)
        bad = [v for v in values if v < limit]
        direction = "<"
    else:
        limit = base_value * (1.0 + threshold)
        bad = [v for v in values if v > limit]
        direction = ">"
    for v in bad:
        failures.append(f"{name}: {v:.2f} {direction} {limit:.2f} "
                        f"(baseline {base_value:.2f} ±{threshold:.0%})")
    if values and max(values) - min(values) > 0.001 * max(abs(v) for v in values):
        failures.append(
            f"{name}: differs across runs {values} — it is deterministic; "
            "the binary or config changed between runs")
    status = "ok" if not any(name in f for f in failures) else "FAIL"
    print(f"{name:<40} baseline {base_value:9.2f}  runs {values}  [{status}]")


def gate_timing_ratio(name, base_value, values, threshold, jitter_limit,
                      failures):
    """Best-of-runs must reach baseline * (1 - threshold); excessive
    run-to-run jitter fails distinctly (environment too noisy to gate)."""
    if not values:
        return
    best = max(values)
    floor = base_value * (1.0 - threshold)
    jitter = (max(values) - min(values)) / max(values)
    print(f"{name:<40} baseline {base_value:9.2f}  runs {values}  "
          f"jitter {jitter:.0%}  floor {floor:.2f}")
    if jitter > jitter_limit:
        failures.append(f"{name} jitter {jitter:.0%} exceeds "
                        f"{jitter_limit:.0%}: runs too noisy to gate on; "
                        "rerun")
    elif best < floor:
        failures.append(f"{name} best-of-{len(values)} {best:.2f} < "
                        f"{floor:.2f} (baseline {base_value:.2f} "
                        f"-{threshold:.0%})")


def gate_rr_engine(baseline, runs, args, failures):
    check_geometry(baseline, runs, ("nodes", "sets"))

    # --- deterministic gate: bytes_per_set per engine row -----------------
    base_rows = {field(row, "engine", f"{args.baseline} results row"): row
                 for row in baseline.get("results", [])}
    for engine, base_row in sorted(base_rows.items()):
        values = []
        for path, run in runs:
            row = next((r for r in run.get("results", [])
                        if r.get("engine") == engine), None)
            if row is None:
                # Metric name included so the per-metric [ok]/FAIL status
                # line (which greps failures for it) reflects the miss.
                failures.append(
                    f"{path}: bytes_per_set {engine}: engine row missing")
                continue
            values.append(field(row, "bytes_per_set",
                                f"{path} results[{engine}]"))
        gate_deterministic(f"bytes_per_set {engine}",
                           field(base_row, "bytes_per_set",
                                 f"{args.baseline} results[{engine}]"),
                           values, args.threshold, failures,
                           larger_is_better=False)

    # --- timing gate: incremental_select.select_speedup -------------------
    base_inc = baseline.get("incremental_select")
    if base_inc is None:
        sys.exit("error: baseline has no incremental_select section; "
                 "regenerate it with the current bench binary")
    speedups = []
    for path, run in runs:
        inc = run.get("incremental_select")
        if inc is None:
            failures.append(f"{path}: incremental_select section missing")
            continue
        speedups.append(field(inc, "select_speedup",
                              f"{path} incremental_select"))
    gate_timing_ratio("incremental_select.select_speedup",
                      field(base_inc, "select_speedup",
                            f"{args.baseline} incremental_select"),
                      speedups, args.threshold, args.jitter_limit, failures)


def gate_scoring(baseline, runs, args, failures):
    # seed included: work_ratio is only deterministic for identical seeds.
    check_geometry(baseline, runs, ("graph", "nodes", "l", "k", "seed"))

    base_section = baseline.get("incremental_rescore")
    if base_section is None:
        sys.exit("error: baseline has no incremental_rescore section; "
                 "regenerate it with the current bench binary")
    scorers = sorted(key for key, value in base_section.items()
                     if isinstance(value, dict))
    if not scorers:
        sys.exit("error: baseline incremental_rescore has no scorer rows")
    for scorer in scorers:
        base_row = base_section[scorer]
        work_ratios, speedups = [], []
        for path, run in runs:
            row = (run.get("incremental_rescore") or {}).get(scorer)
            if row is None:
                failures.append(f"{path}: {scorer}.work_ratio / "
                                f"{scorer}.rescore_speedup: "
                                "incremental_rescore row missing")
                continue
            ctx = f"{path} incremental_rescore.{scorer}"
            work_ratios.append(field(row, "work_ratio", ctx))
            speedups.append(field(row, "rescore_speedup", ctx))
        base_ctx = f"{args.baseline} incremental_rescore.{scorer}"
        # work_ratio is deterministic (node-eval counts, not seconds).
        gate_deterministic(f"{scorer}.work_ratio",
                           field(base_row, "work_ratio", base_ctx),
                           work_ratios, args.threshold, failures,
                           larger_is_better=True)
        gate_timing_ratio(f"{scorer}.rescore_speedup",
                          field(base_row, "rescore_speedup", base_ctx),
                          speedups, args.threshold, args.jitter_limit,
                          failures)


def gate_spread_oracle(baseline, runs, args, failures):
    check_geometry(baseline, runs,
                   ("nodes", "snapshots", "mc", "k", "candidates", "seed"))

    def section_values(section, key):
        values = []
        for path, run in runs:
            row = run.get(section)
            if row is None or key not in row:
                failures.append(f"{path}: {section}.{key}: missing")
                continue
            values.append(row[key])
        return values

    base_arena = baseline.get("arena")
    base_session = baseline.get("session")
    base_celf = baseline.get("celf")
    if base_arena is None or base_session is None or base_celf is None:
        sys.exit("error: baseline lacks arena/session/celf sections; "
                 "regenerate it with the current bench binary")

    def base(section_obj, section, key):
        return field(section_obj, key, f"{args.baseline} {section}")

    gate_deterministic("arena.bytes_per_snapshot",
                       base(base_arena, "arena", "bytes_per_snapshot"),
                       section_values("arena", "bytes_per_snapshot"),
                       args.threshold, failures, larger_is_better=False)
    gate_deterministic("session.session_work_ratio",
                       base(base_session, "session", "session_work_ratio"),
                       section_values("session", "session_work_ratio"),
                       args.threshold, failures, larger_is_better=True)
    gate_deterministic("celf.spread_parity_vs_mc",
                       base(base_celf, "celf", "spread_parity_vs_mc"),
                       section_values("celf", "spread_parity_vs_mc"),
                       args.threshold, failures, larger_is_better=True)
    gate_timing_ratio("celf.celf_speedup_vs_mc",
                      base(base_celf, "celf", "celf_speedup_vs_mc"),
                      section_values("celf", "celf_speedup_vs_mc"),
                      args.threshold, args.jitter_limit, failures)
    gate_timing_ratio("celf.incremental_vs_oneshot_speedup",
                      base(base_celf, "celf",
                           "incremental_vs_oneshot_speedup"),
                      section_values("celf", "incremental_vs_oneshot_speedup"),
                      args.threshold, args.jitter_limit, failures)


def gate_engine(baseline, runs, args, failures):
    check_geometry(baseline, runs, ("nodes", "queries", "k", "snapshots",
                                    "seed", "algorithms"))

    base_batch = baseline.get("batch")
    base_warm = baseline.get("warm")
    if base_batch is None or base_warm is None:
        sys.exit("error: baseline lacks batch/warm sections; regenerate it "
                 "with the current bench binary")

    def section_values(section, key):
        values = []
        for path, run in runs:
            row = run.get(section)
            if row is None or key not in row:
                failures.append(f"{path}: {section}.{key}: missing")
                continue
            values.append(row[key])
        return values

    # Artifact build counts are exact integers: 8 cold builds vs 1 warm
    # build. Any other value means Workspace keying or the cold/warm
    # protocol changed — fail regardless of threshold.
    for key in ("cold_sketch_builds", "warm_sketch_builds"):
        expected = field(base_batch, key, f"{args.baseline} batch")
        for value in section_values("batch", key):
            if value != expected:
                failures.append(f"batch.{key}: {value} != {expected} "
                                "(exact artifact-count contract)")
    gate_deterministic("warm.workspace_bytes",
                       field(base_warm, "workspace_bytes",
                             f"{args.baseline} warm"),
                       section_values("warm", "workspace_bytes"),
                       args.threshold, failures, larger_is_better=False)
    gate_timing_ratio("batch.batch_speedup",
                      field(base_batch, "batch_speedup",
                            f"{args.baseline} batch"),
                      section_values("batch", "batch_speedup"),
                      args.threshold, args.jitter_limit, failures)


def gate_query_family(baseline, runs, args, failures):
    check_geometry(baseline, runs, ("nodes", "k", "snapshots", "seed",
                                    "model"))

    base_budgeted = baseline.get("budgeted")
    base_targeted = baseline.get("targeted")
    base_explain = baseline.get("explain")
    if base_budgeted is None or base_targeted is None or base_explain is None:
        sys.exit("error: baseline lacks budgeted/targeted/explain sections; "
                 "regenerate it with the current bench binary")

    def section_values(section, key):
        values = []
        for path, run in runs:
            row = run.get(section)
            if row is None or key not in row:
                failures.append(f"{path}: {section}.{key}: missing")
                continue
            values.append(row[key])
        return values

    # Parity contracts are exactly 1.0 by construction (bitwise-equality
    # booleans and an exact dyadic-rational telescoping sum at the
    # power-of-two snapshot count); any other value is a broken kernel,
    # not a regression — fail regardless of threshold.
    for section, key in (("budgeted", "uniform_parity"),
                         ("budgeted", "lazy_eager_seed_match"),
                         ("targeted", "allones_parity"),
                         ("explain", "contribution_sum_parity")):
        expected = field(baseline.get(section), key,
                         f"{args.baseline} {section}")
        for value in section_values(section, key):
            if value != expected:
                failures.append(f"{section}.{key}: {value} != {expected} "
                                "(exact parity contract)")
    gate_deterministic("targeted.topic_gain_ratio",
                       field(base_targeted, "topic_gain_ratio",
                             f"{args.baseline} targeted"),
                       section_values("targeted", "topic_gain_ratio"),
                       args.threshold, failures, larger_is_better=True)
    gate_timing_ratio("budgeted.lazy_speedup",
                      field(base_budgeted, "lazy_speedup",
                            f"{args.baseline} budgeted"),
                      section_values("budgeted", "lazy_speedup"),
                      args.threshold, args.jitter_limit, failures)
    gate_timing_ratio("explain.explain_speedup_vs_solve",
                      field(base_explain, "explain_speedup_vs_solve",
                            f"{args.baseline} explain"),
                      section_values("explain", "explain_speedup_vs_solve"),
                      args.threshold, args.jitter_limit, failures)


def gate_streaming(baseline, runs, args, failures):
    check_geometry(baseline, runs, ("nodes", "snapshots", "k", "batches",
                                    "ops_per_batch", "seed", "p"))

    base_solve = baseline.get("solve")
    base_artifacts = baseline.get("artifacts")
    if base_solve is None or base_artifacts is None:
        sys.exit("error: baseline lacks solve/artifacts sections; "
                 "regenerate it with the current bench binary")

    def section_values(section, key):
        values = []
        for path, run in runs:
            row = run.get(section)
            if row is None or key not in row:
                failures.append(f"{path}: {section}.{key}: missing")
                continue
            values.append(row[key])
        return values

    # Exact contracts: the parity boolean and the artifact migration
    # counts — fail regardless of threshold.
    for value in section_values("solve", "parity"):
        if value is not True:
            failures.append(f"solve.parity: {value} != true "
                            "(exact parity contract)")
    for key in ("patched", "evicted"):
        expected = field(base_artifacts, key, f"{args.baseline} artifacts")
        for value in section_values("artifacts", key):
            if value != expected:
                failures.append(f"artifacts.{key}: {value} != {expected} "
                                "(exact artifact-migration contract)")

    # Timing gates: baseline-relative plus the absolute 3x floor on the
    # headline incremental-solve speedup.
    solve_speedups = section_values("solve", "speedup")
    gate_timing_ratio("solve.speedup",
                      field(base_solve, "speedup", f"{args.baseline} solve"),
                      solve_speedups, args.threshold, args.jitter_limit,
                      failures)
    if solve_speedups and max(solve_speedups) < 3.0:
        failures.append(f"solve.speedup best-of-{len(solve_speedups)} "
                        f"{max(solve_speedups):.2f} < 3.00 (absolute "
                        "incremental-vs-rebuild floor)")


def gate_serving(baseline, runs, args, failures):
    check_geometry(baseline, runs, ("tenants", "tenant_nodes", "snapshots",
                                    "requests", "queue_depth",
                                    "budget_factor", "algo", "seed"))

    base_speedup = baseline.get("speedup")
    if base_speedup is None:
        sys.exit("error: baseline lacks a speedup section; regenerate it "
                 "with the current bench binary")

    def leg_values(leg, key):
        values = []
        for path, run in runs:
            row = run.get(leg)
            if row is None or key not in row:
                failures.append(f"{path}: {leg}.{key}: missing")
                continue
            values.append(row[key])
        return values

    # Exact contracts. The per-leg serving counters are a pure function of
    # the workload (closed-loop dispatch, deterministic workload stream,
    # bit-exact heat decay), so any drift means the scheduler, the
    # eviction policy, or the coalescing accounting changed behavior —
    # fail regardless of threshold.
    for leg in ("baseline", "heat"):
        base_leg = baseline.get(leg)
        if base_leg is None:
            sys.exit(f"error: baseline lacks a {leg} section; regenerate "
                     "it with the current bench binary")
        for key in ("served", "builds", "warm_sketch_hits", "coalesced",
                    "expired_in_queue"):
            expected = field(base_leg, key, f"{args.baseline} {leg}")
            for value in leg_values(leg, key):
                if value != expected:
                    failures.append(f"{leg}.{key}: {value} != {expected} "
                                    "(exact serving-counter contract)")
    # Scheduling must never change answers.
    for path, run in runs:
        speedup = run.get("speedup")
        value = None if speedup is None else \
            speedup.get("seeds_match_baseline")
        if value is not True:
            failures.append(f"{path}: speedup.seeds_match_baseline: "
                            f"{value} != true (exact parity contract)")

    # Timing gates: the headline QPS ratio (heat+affinity vs FIFO+LRU on
    # the same binary) carries an absolute 2x floor on top of the
    # baseline-relative gate; the p99 ratio is baseline-relative only.
    def speedup_values(key):
        values = []
        for path, run in runs:
            speedup = run.get("speedup")
            if speedup is None or key not in speedup:
                failures.append(f"{path}: speedup.{key}: missing")
                continue
            values.append(speedup[key])
        return values

    qps_ratios = speedup_values("qps_ratio")
    gate_timing_ratio("speedup.qps_ratio",
                      field(base_speedup, "qps_ratio",
                            f"{args.baseline} speedup"),
                      qps_ratios, args.threshold, args.jitter_limit,
                      failures)
    if qps_ratios and max(qps_ratios) < 2.0:
        failures.append(f"speedup.qps_ratio best-of-{len(qps_ratios)} "
                        f"{max(qps_ratios):.2f} < 2.00 (absolute "
                        "heat-vs-baseline serving floor)")
    gate_timing_ratio("speedup.p99_ratio",
                      field(base_speedup, "p99_ratio",
                            f"{args.baseline} speedup"),
                      speedup_values("p99_ratio"), args.threshold,
                      args.jitter_limit, failures)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_*.json baseline")
    parser.add_argument("--run", action="append", required=True,
                        dest="runs", help="fresh bench JSON (repeatable)")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed fractional regression (default 0.15)")
    parser.add_argument("--jitter-limit", type=float, default=0.5,
                        help="max run-to-run timing-ratio spread before the "
                             "timing gate is declared unusable (default 0.5)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    runs = [(path, load(path)) for path in args.runs]
    failures = []

    kind = baseline.get("bench")
    for path, run in runs:
        if run.get("bench") != kind:
            sys.exit(f"error: {path} is a '{run.get('bench')}' bench but the "
                     f"baseline is '{kind}'")
    if kind == "rr_engine":
        gate_rr_engine(baseline, runs, args, failures)
    elif kind == "scoring":
        gate_scoring(baseline, runs, args, failures)
    elif kind == "spread_oracle":
        gate_spread_oracle(baseline, runs, args, failures)
    elif kind == "engine":
        gate_engine(baseline, runs, args, failures)
    elif kind == "query_family":
        gate_query_family(baseline, runs, args, failures)
    elif kind == "streaming":
        gate_streaming(baseline, runs, args, failures)
    elif kind == "serving":
        gate_serving(baseline, runs, args, failures)
    else:
        sys.exit(f"error: unknown bench kind '{kind}' in {args.baseline}")

    if failures:
        print("\nbench-gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nbench-gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
