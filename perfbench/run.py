"""Wall-clock benchmark of the pushdown engine on this machine.

    python3 perfbench/run.py --workload tpch-optimized --seed 0 --seconds 10 --trace 0

Run from any directory of a source checkout: it needs ``src/repro`` next to
``perfbench``. One client (this process, the Spark driver) issues the
workload's operations one after another, each only after the previous one
returned, on ``local[k]`` Spark with k = min(4, nproc) and the Spark settings
of the test suite's ``spark`` fixture. A run:

1. sets up ``SETUP_REPS`` times: (re)start the Spark session, generate the
   tables from the seed, land them as objects, open them (``setup_s`` is the
   median; the first repetition also launches the JVM);
2. runs one warm-up pass (``warmup_s``), then whole passes until their
   summed wall time reaches ``--seconds`` (``pass_s`` is the median pass);
3. checks every operation of every pass against the DuckDB oracle and
   checks that its S3 usage counts equal those of the warm-up pass, all
   outside the timed region.

``--trace 1`` instead times one untraced pass, then installs the span
recorder (``tracing.py``) in the driver and in Spark's Python workers, sets
up once more and runs traced passes; it reports per-layer metrics, the
tracing overhead and the share of the traced pass its driver spans cover.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when no
operation failed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shlex
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPS = 3
DRIVER_MEMORY = "2g"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", default="bench", help="bench, or toy for the self-test")
    return p.parse_args(argv)


def configure_spark_env(work: Path, trace_dir: Path | None) -> int:
    """Environment the JVM and Python workers inherit; must precede the JVM launch."""
    k = min(4, os.cpu_count() or 1)
    paths = [str(SRC)]
    if trace_dir is not None:
        paths.append(str(BENCH_DIR / "worker_hook"))
        os.environ["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    # Every JVM spark-submit starts, the launcher included: temp files inside
    # the work directory, and no hsperfdata file (it ignores java.io.tmpdir).
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{k}]",
        f"--driver-memory {DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={shlex.quote(str(tmp))}",
        "pyspark-shell",
    ])
    sys.path.insert(0, str(SRC))
    return k


def new_session():
    """The session of the repo-root conftest's ``spark`` fixture."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM, and wait for it to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=60)
    SparkContext._gateway = None
    SparkContext._jvm = None


class Bench:
    def __init__(self, workload, seed: int, scale: dict, work: Path):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.work = work
        self.spark = None
        self.failures: list[str] = []
        self.attempted = 0
        self.usage_seen: dict = {}

    # -- set-up -------------------------------------------------------------

    def setup(self, tag: str, restart: bool = True):
        from repro.s3sim import ObjectStore

        t0 = time.perf_counter()
        if restart:
            if self.spark is not None:
                self.spark.stop()
            self.spark = new_session()
        store = ObjectStore(self.work / f"store-{tag}")
        tables = self.workload.land(self.spark, store, self.seed, self.scale)
        return time.perf_counter() - t0, store, tables

    # -- passes -------------------------------------------------------------

    def run_pass(self, store, tables) -> tuple[float, list]:
        """One pass; returns its wall seconds and ``(op, wall_s, result)`` per op."""
        from repro.experiments import common

        out = []
        t_pass = time.perf_counter()
        for op in self.workload.ops:
            runner = common.new_runner(store)
            t0 = time.perf_counter()
            try:
                result = op.run(self.spark, runner, tables)
            except Exception:  # an operation that raises is a failed operation
                result = traceback.format_exc(limit=4)
            out.append((op, time.perf_counter() - t0, result))
        return time.perf_counter() - t_pass, out

    def check(self, ops: list, tables, label: str) -> None:
        """Oracle and determinism checks of one pass (outside the timed region)."""
        for op, _, result in ops:
            self.attempted += 1
            where = f"{self.workload.name} {label} {op.name}"
            if isinstance(result, str):
                self.failures.append(f"{where}: raised\n{result}")
                continue
            try:
                op.check(result, tables)
            except Exception as e:  # a result the oracle cannot even compare is wrong too
                self.failures.append(f"{where}: disagrees with the DuckDB oracle: {e!r}")
                continue
            counts = (result.usage.to_dict(), len(result.df))
            first = self.usage_seen.setdefault(op.name, counts)
            if counts != first:
                self.failures.append(
                    f"{where}: counts {counts} differ from the warm-up pass {first}")

    def passes(self, store, tables, seconds: float, label: str, before_pass=None):
        """Whole passes until their summed wall time reaches ``seconds``."""
        done, spent = [], 0.0
        while not done or spent < seconds:
            if before_pass:
                before_pass(len(done))
            t0 = time.perf_counter()
            wall, ops = self.run_pass(store, tables)
            done.append((t0, wall, ops))
            spent += wall
            self.check(ops, tables, f"{label}{len(done)}")
        return done


def op_walls(passes) -> dict:
    walls: dict = {}
    for _, _, ops in passes:
        for op, wall, _ in ops:
            walls.setdefault(op.name, []).append(wall)
    return {name: statistics.median(w) for name, w in walls.items()}


def geomean(xs) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def usage_metrics(passes) -> dict:
    """S3 usage of one pass (every pass has the same counts once checked)."""
    from repro.s3sim.usage import Usage

    total = Usage()
    for _, _, result in passes[0][2]:
        if not isinstance(result, str):
            total += result.usage
    return {
        "s3_requests": total.total_requests,
        "s3_bytes_read": total.bytes_scanned + total.bytes_transferred,
        "net_bytes": total.bytes_over_network,
    }


def model_metrics(bench: Bench, passes, tables) -> dict:
    """PerfModel's paper-scale projection of the first measured pass; never gated."""
    import workloads
    from repro.experiments import common

    runtimes, cost = [], 0.0
    for op, _, result in passes[0][2]:
        if isinstance(result, str):
            continue
        projected = result.project(
            workloads.factor(op, tables, bench.scale), common.PERF, common.PRICING)
        runtimes.append(projected.runtime_s)
        cost += projected.cost.total
    return {
        "model.runtime_s_10gb_geomean": geomean(runtimes) if runtimes else 0.0,
        "model.cost_usd_10gb": cost,
    }


def spark_job_metrics(spark, group: str) -> dict:
    """Jobs and completed tasks of one job group, once the listener caught up."""
    tracker = spark.sparkContext.statusTracker()
    deadline = time.monotonic() + 10
    while True:
        infos = [tracker.getJobInfo(j) for j in tracker.getJobIdsForGroup(group)]
        settled = all(i is not None and i.status in ("SUCCEEDED", "FAILED") for i in infos)
        if settled or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    tasks = 0
    for info in infos:
        for stage_id in info.stageIds if info else ():
            stage = tracker.getStageInfo(stage_id)
            tasks += stage.numCompletedTasks if stage else 0
    return {"spark.jobs": len(infos), "spark.tasks": tasks}


def run_plain(bench: Bench, seconds: float) -> dict:
    setup_times = []
    for rep in range(SETUP_REPS):
        wall, store, tables = bench.setup(str(rep))
        setup_times.append(wall)
    warm_wall, warm_ops = bench.run_pass(store, tables)
    bench.check(warm_ops, tables, "warm-up")
    passes = bench.passes(store, tables, seconds, "pass")
    walls = op_walls(passes)
    for (op, warm, _) in warm_ops:
        print(f"op {op.name} warmup_s {warm:.4f} wall_s {walls[op.name]:.4f}")
    print(f"warm-up pass {warm_wall:.3f} s; passes",
          " ".join(f"{w:.3f}" for _, w, _ in passes), "s; set-ups",
          " ".join(f"{t:.3f}" for t in setup_times), "s")
    return {
        "pass_s": statistics.median(w for _, w, _ in passes),
        "op_s_geomean": geomean(list(walls.values())),
        **usage_metrics(passes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(bench: Bench, seconds: float, trace_dir: Path) -> dict:
    import tracing

    _, store, tables = bench.setup("0")
    warm_wall, ops = bench.run_pass(store, tables)
    bench.check(ops, tables, "warm-up")
    untraced_wall, ops = bench.run_pass(store, tables)
    bench.check(ops, tables, "untraced")

    rec = tracing.Recorder()
    tracing.install(rec)
    rec.enabled = True
    (trace_dir / "ON").touch()
    t0 = time.perf_counter()
    setup_wall, store, tables = bench.setup("traced", restart=False)
    setup_window = (t0, t0 + setup_wall)
    sc = bench.spark.sparkContext
    passes = bench.passes(
        store, tables, seconds, "traced",
        before_pass=lambda i: sc.setJobGroup(f"perfbench-{i}", "traced pass"))
    rec.enabled = False
    (trace_dir / "ON").unlink()

    pid = os.getpid()
    spans = [[pid, *s] for s in rec.spans] + tracing.read_worker_spans(trace_dir)
    if not any(s[0] != pid for s in spans):
        raise RuntimeError("no spans arrived from Spark's Python workers")

    def window(start, wall):
        return [s for s in spans if start <= s[4] < start + wall]

    per_pass = []
    for i, (start, wall, _) in enumerate(passes):
        m = tracing.layer_metrics(window(start, wall), pid, wall)
        m.update(spark_job_metrics(bench.spark, f"perfbench-{i}"))
        per_pass.append(m)
    layers = tracing.median_metrics(per_pass)
    setup_layers = tracing.layer_metrics(window(*setup_window), pid, setup_wall)
    for key in ("tables.write_busy_s", "tables.open_busy_s", "tables.open_bytes_read",
                "synth_data.gen_busy_s"):
        layers[key] = setup_layers[key]
    traced_wall = statistics.median(w for _, w, _ in passes)
    for name, wall in op_walls(passes).items():
        print(f"op {name} traced_wall_s {wall:.4f}")
    print(f"trace: untraced pass {untraced_wall:.3f} s, traced pass {traced_wall:.3f} s, "
          f"{len(spans)} spans")
    layers.update(model_metrics(bench, passes, tables))
    layers["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    layers["warmup_s"] = warm_wall
    return layers


def spec_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro sources at {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    trace_dir = work / "trace" if args.trace else None
    k = configure_spark_env(work, trace_dir)
    if trace_dir is not None:
        trace_dir.mkdir()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    bench = Bench(workloads.WORKLOADS[args.workload], args.seed,
                  workloads.SCALES[args.scale], work)
    print(f"perfbench: workload={args.workload} seed={args.seed} k={k} "
          f"nproc={os.cpu_count()} scale={args.scale} seconds={args.seconds} "
          f"trace={args.trace}", flush=True)
    try:
        if args.trace:
            metrics = run_traced(bench, args.seconds, trace_dir)
        else:
            metrics = run_plain(bench, args.seconds)
    finally:
        if bench.spark is not None:
            stop_spark(bench.spark)
        shutil.rmtree(work, ignore_errors=True)

    for failure in bench.failures:
        print(f"FAILED {failure}")
    print(f"ops_failed_frac {len(bench.failures) / bench.attempted} "
          f"({len(bench.failures)} of {bench.attempted})")
    units = spec_units(args.trace)
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 1 if bench.failures else 0


if __name__ == "__main__":
    sys.exit(main())
