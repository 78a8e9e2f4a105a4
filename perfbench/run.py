"""Benchmark: warm ``summarize()`` latency on why and why-not workloads.

Run from the repository root::

    python3 perfbench/run.py --workload whynot_r1 --seed 1 --seconds 10 --trace 0

One process, one client, closed loop: each ``summarize()`` call starts
after the previous one returns. Call *i* uses the sampler seed
``seed * 1000 + i``, so every run of a seed sees the same seeds. The
first ``WARMUP_CALLS`` calls are left out of ``summarize_s`` but printed.
Then calls run until ``--seconds`` have passed, and at least
``MIN_TIMED_CALLS`` of them, so a slow call cannot leave a run with a
median of one.

With ``--trace 1`` the run then replays one call layer by layer
(``traced.py``) and reports the per-layer metrics instead of the
end-to-end ones. Every call is checked, and each workload once more
against the DuckDB oracle and the pure-Python references; a failed check
makes the run exit with code 1.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Details (configuration, every call, every span) go to
``perfbench/.work/<workload>-seed<seed>-trace<0|1>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

WARMUP_CALLS = 2
MIN_TIMED_CALLS = 2
SETUP_REPEATS = 3
SHUFFLE_PARTITIONS = 64


def _driver_memory() -> str:
    """Half the machine's memory, clamped to 2g..8g: the Tier-1 rule."""
    gib = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // (2 << 30)
    return f"{min(8, max(2, gib))}g"


def _spark_environment(driver_memory: str) -> None:
    """Keep Spark and the JVM inside ``WORK``; settings as ``conftest.py``.
    Must run before pyspark starts the JVM."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[*] --driver-memory {driver_memory} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )


def _start_session():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_jvm(spark) -> float:
    """Stop Spark and its JVM, wait for it, and return the peak RSS in MB
    of the largest child process waited for: the JVM."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    if spark is not None:
        spark.stop()
    if gateway is not None:
        gateway.shutdown()
        proc = gateway.proc
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _git_commit() -> str | None:
    """HEAD of the repository when run from a git checkout, else None."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def _config(spark, seed: int) -> dict:
    sc = spark.sparkContext
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "master": sc.master,
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "broadcast_threshold": spark.conf.get(
            "spark.sql.autoBroadcastJoinThreshold"),
        "arrow": spark.conf.get("spark.sql.execution.arrow.pyspark.enabled"),
        "spark": spark.version,
        "java": sc._jvm.System.getProperty("java.version"),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "seed": seed,
        "warmup_calls": WARMUP_CALLS,
        "min_timed_calls": MIN_TIMED_CALLS,
    }


def _call_checks(summary, k: int) -> list[str]:
    """Checks on every call's Summary."""
    errors = []
    want = min(k, summary.n_candidates)
    if len(summary.patterns) != want:
        errors.append(f"{len(summary.patterns)} patterns, expected {want}")
    cp = summary.store.cp_of_set(summary.patterns)
    if abs(summary.completeness - cp) > 1e-12:
        errors.append(f"completeness {summary.completeness} != cp_of_set {cp}")
    return errors


def _oracle_check(inputs) -> None:
    """Q(D) from Spark equals DuckDB's result for the same program."""
    from repro.core.sqlgen import program_to_sql
    from repro.engine.eval import evaluate
    from repro.oracle import assert_equivalent

    cat = inputs.catalog
    assert_equivalent(
        evaluate(cat, inputs.program),
        program_to_sql(inputs.program, cat.column_map()),
        **{name: cat.df(name) for name in cat.relation_names()},
    )


def _sample_check(spark, inputs, summary) -> list[str]:
    """A why sample has every goal T; no why-not derivation in the sample
    derives an existing answer (checked in Spark: Q(D) stays there)."""
    from repro.core.ast import Const
    from repro.core.unify import WHY, unify_program
    from repro.engine.eval import evaluate

    rules = {u.rule_id: u for u in unify_program(
        inputs.program, inputs.question.ptuple)}
    if inputs.question.qtype == WHY:
        bad = sum(not all(g) for r in summary.store.rules.values()
                  for g in r.goals)
        return [f"{bad} why derivations with a goal not T"] if bad else []
    errors = []
    answers = evaluate(inputs.catalog, inputs.program)
    for rule_id, rows in summary.store.rules.items():
        u = rules[rule_id]
        pos = {v.name: i for i, v in enumerate(u.unbound)}
        heads = {
            tuple(a.value if isinstance(a, Const) else args[pos[a.name]]
                  for a in u.rule.head.args)
            for args in rows.args
        }
        if not heads:
            continue
        head_df = spark.createDataFrame(sorted(heads), answers.columns)
        n = head_df.join(answers, on=answers.columns).count()
        if n:
            errors.append(f"{n} why-not heads of {rule_id} are answers")
    return errors


def measure(spark, w, seed: int, seconds: float, trace: bool,
            session_s: float) -> dict:
    """Set up, run the closed loop, check, and (traced) replay one call."""
    from repro.summarize.pipeline import summarize

    from metrics import END_TO_END, PER_LAYER
    from traced import phase_totals, spark_jobs, traced_run
    from workloads import K, build

    sc = spark.sparkContext
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = build(spark, w, seed)
        setups.append(time.perf_counter() - t0)

    calls: list[dict] = []
    last = None

    def call(i: int, warmup: bool) -> None:
        nonlocal last
        group = f"perfbench-call-{i}"
        sc.setJobGroup(group, f"summarize() call {i}")
        t0 = time.perf_counter()
        try:
            s = summarize(inputs.catalog, inputs.program, inputs.question,
                          k=K, n_s=w.n_s, seed=seed * 1000 + i)
            elapsed = time.perf_counter() - t0
            errors = _call_checks(s, K)
            last = s
        except Exception:  # a failed call is counted; the loop goes on
            elapsed = time.perf_counter() - t0
            traceback.print_exc()
            s, errors = None, [traceback.format_exc(limit=1)]
        calls.append({
            "i": i, "warmup": warmup, "s": elapsed,
            "jobs": spark_jobs(sc, group),
            "score": s.score if s else None, "errors": errors,
            "n_candidates": s.n_candidates if s else None,
            "phases": s.timings if s else None,
        })
        print(f"call {i}{' (warm-up)' if warmup else ''}: {elapsed:.3f} s, "
              f"{calls[-1]['jobs']} jobs, score {calls[-1]['score']}"
              + (f", FAILED {errors}" if errors else ""), flush=True)

    for i in range(WARMUP_CALLS):
        call(i, True)
    t_loop = time.perf_counter()
    i = WARMUP_CALLS
    while (i < WARMUP_CALLS + MIN_TIMED_CALLS
           or time.perf_counter() - t_loop < seconds):
        call(i, False)
        i += 1

    checks: dict[str, list[str]] = {}
    ok_calls = [c for c in calls if not c["errors"]]
    checks["same_jobs_every_call"] = (
        [] if len({c["jobs"] for c in ok_calls}) <= 1
        else [f"job counts differ: {[c['jobs'] for c in calls]}"]
    )
    for name, fn in (("oracle_qd", lambda: _oracle_check(inputs)),
                     ("sample_heads",
                      lambda: _sample_check(spark, inputs, last))):
        try:
            checks[name] = fn() or []
        except Exception:  # a failed check is counted like a failed call
            checks[name] = [traceback.format_exc(limit=2)]

    timed = [c for c in ok_calls if not c["warmup"]]
    if not timed or last is None:
        raise RuntimeError("no summarize() call succeeded")
    summarize_s = statistics.median(c["s"] for c in timed)
    out = {"setup_s_each": setups, "calls": calls, "checks": checks}
    if trace:
        tr, values, ref_failures = traced_run(
            sc, inputs, w.n_s, K, seed * 1000 + WARMUP_CALLS, "perfbench-trace"
        )
        spark.catalog.clearCache()
        checks["lca_match_reference"] = ref_failures
        phases = phase_totals(tr)
        values["pipeline.summarize.jobs"] = float(timed[0]["jobs"])
        values["pipeline.trace_overhead_s"] = sum(phases.values()) - summarize_s
        out.update(spans=tr.to_dicts(), phases=phases)
        metrics = {m.name: (values[m.name], m.unit) for m in PER_LAYER}
    else:
        metrics = {
            "summarize_s": summarize_s,
            "setup_s": session_s + statistics.median(setups),
            "summary_score": statistics.median(c["score"] for c in timed),
        }
        metrics = {m.name: (metrics.get(m.name), m.unit) for m in END_TO_END}
    out["metrics"] = metrics
    out["attempted"] = len(calls) + len(checks)
    out["failed"] = (len(calls) - len(ok_calls)
                     + sum(1 for errs in checks.values() if errs))
    if trace:
        metrics["failed_frac"] = (out["failed"] / out["attempted"], "frac")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full",
                    help="toy: tiny inputs, for selftest.py")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program at {src / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    driver_memory = _driver_memory()
    _spark_environment(driver_memory)

    from workloads import TOY, WORKLOADS

    table = TOY if args.scale == "toy" else WORKLOADS
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(table)}", file=sys.stderr)
        return 2
    w = table[args.workload]

    spark = None
    try:
        t0 = time.perf_counter()
        spark = _start_session()
        session_s = time.perf_counter() - t0
        config = _config(spark, args.seed)
        print("config: " + json.dumps(config), flush=True)
        out = measure(spark, w, args.seed, args.seconds, bool(args.trace),
                      session_s)
    finally:
        jvm_mb = _stop_jvm(spark)
    py_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = out["metrics"]
    if args.trace:
        metrics["jvm_peak_rss_mb"] = (jvm_mb, "MB")
    else:
        metrics["py_peak_rss_mb"] = (py_mb, "MB")
    print(f"peak RSS: Python {py_mb:.1f} MB, JVM {jvm_mb:.1f} MB")

    out.update(workload=w.__dict__, config=config, session_s=session_s,
               scale=args.scale)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(out, indent=1, default=str))
    for check, errors in out["checks"].items():
        print(f"check {check}: {'ok' if not errors else errors}")
    if args.trace:
        for sp in out["spans"]:
            depth, p = 0, sp["parent"]
            while p is not None:
                depth, p = depth + 1, out["spans"][p]["parent"]
            print(f"span {'  ' * depth}{sp['name']}: "
                  f"{sp['end'] - sp['start']:.3f} s, {sp['jobs']} jobs")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
