"""ffl benchmark: one seeded workload, closed loop, one client, one thread.

    python3 perfbench/run.py --workload moment_verify --seed 1 --seconds 30 --trace 0

Tasks run back to back in this process until their summed wall time reaches
``--seconds``; each output is checked by its oracle after its timed span.  No
input repeats within a run, so a run that uses up its workload's inputs exits
with code 3 instead of measuring a shorter run.  The last line of stdout is
one JSON object: with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a run that traces every task for half
the time and then runs the same tasks untraced in a fresh interpreter (the
throughput gap is the tracing overhead).  End-to-end timings are in reference
seconds: wall seconds corrected for the shared host's drifting speed by a
reference kernel timed between tasks (``hostspeed.py``); per-layer times are
as measured.  Metric names and units are those of BENCHMARK.json.  A human-readable summary goes to stderr.  Per-task output
digests, times, failures and (traced) spans are written under ``.perfbench/``
in the checkout; ``perfbench/record.py`` compares the digests of two runs
with one seed byte for byte.
"""

import argparse
import collections
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPS = 5
# every field any workload uses
FIELD_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 29, 31, 32)
# per-layer metric -> (how it is read off the tracer, span bucket); "self" is
# seconds of self time per traced task, "calls" a count per traced task.
# gf.field_s is the set-up's field-table build, timed directly, and
# polyring.factor_errors the known-defect count of ``factor_defect_probe``.
# Names and units are BENCHMARK.json's.
LAYER_METRICS = {
    "chargroup.build_s": ("self", "chargroup.build"),
    "chargroup.builds": ("calls", "chargroup.build"),
    "chargroup.units": ("units", None),
    "chargroup.mask_s": ("self", "chargroup.mask"),
    "chargroup.char_s": ("self", "chargroup.char"),
    "chargroup.char_calls": ("calls", "chargroup.char"),
    "lfunc.table_s": ("self", "lfunc.table"),
    "lfunc.scalar_s": ("self", "lfunc.scalar"),
    "lfunc.l_coeffs_per_char": ("l_coeffs", None),
    "moments.exact_s": ("self", "moments.exact"),
    "moments.chars_s": ("self", "moments.chars"),
    "moments.formula_s": ("self", "moments.formula"),
    "moments.diagonal_s": ("self", "moments.diagonal"),
    "polyring.factor_s": ("self", "polyring.factor"),
    "polyring.factor_calls": ("calls", "polyring.factor"),
    "polyring.factor_errors": ("defect", None),
    "polyring.primes_s": ("self", "polyring.primes"),
    "multfun.s": ("self", "multfun"),
    "series.s": ("self", "series"),
    "sieveprobe.s": ("self", "sieveprobe"),
    "cli.self_s": ("self", "cli"),
    "cli.bytes_out": ("bytes", None),
    "gf.field_s": ("field", None),
    "untraced_s": ("self", "untraced"),
    "trace.on_tasks_per_s": ("tps_traced", None),
    "trace.off_tasks_per_s": ("tps_untraced", None),
    "trace.overhead": ("overhead", None),
}
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
assert set(LAYER_METRICS) == {m["name"] for m in BENCH["per_layer"]}


class PoolExhausted(Exception):
    """A run needed more distinct inputs than its workload generated."""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in BENCH["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="only import ffl, build field tables and generate the inputs "
                         "(the runner times this in fresh interpreters for setup_s)")
    ap.add_argument("--prefix", type=int, default=None,
                    help="run exactly the first N tasks untraced and print their busy "
                         "time (the traced run's untraced reference)")
    return ap.parse_args(argv)


def child(args, *extra):
    """Run this script in a fresh interpreter with the same workload and seed."""
    return subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", "0", *extra],
                          check=True, stdout=subprocess.PIPE, text=True).stdout


def cold_setup_s(args):
    """Median wall time, in reference seconds, of SETUP_REPS fresh interpreters
    doing this run's set-up: import ffl, build the field tables and generate
    the inputs."""
    import hostspeed
    return statistics.median(hostspeed.around(lambda: child(args, "--setup-only"))
                             for _ in range(SETUP_REPS))


class Run:
    """Counters of one measured run."""

    def __init__(self):
        self.busy = 0.0          # summed task seconds, as measured
        self.busy_ref = 0.0      # the same in reference seconds (hostspeed)
        self.ok = 0
        self.ok_index = []       # tasks that passed their oracle
        self.latencies = []      # their times in reference seconds
        self.marks = []          # per task: the host-speed sample before it
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.bytes_out = 0
        self.digests = []
        self.times = []
        self.failures = []

    def tasks_per_s(self):
        return self.ok / self.busy_ref if self.busy_ref else 0.0

    def finish(self, clock):
        """Convert the task times to reference seconds."""
        clock.close()
        ref = [t * clock.scale(m) for t, m in zip(self.times, self.marks)]
        self.busy_ref = sum(ref)
        self.latencies = [ref[i] for i in self.ok_index]
        self.ref_samples = clock.samples


def execute(rounds, workloads, seconds=None, limit=None, tracer=None, check=True):
    """Closed loop over the rounds until ``seconds`` of task time are spent, or
    exactly ``limit`` tasks have run; every task is traced when a tracer is given
    and checked by its oracle unless ``check`` is false.  The host-speed kernel
    runs between tasks.  Raises PoolExhausted when the rounds run out first."""
    import hostspeed
    run, clock = Run(), hostspeed.Clock()
    for task in (t for tasks in rounds for t in tasks):
        done = run.attempted >= limit if limit is not None else run.busy >= seconds
        if done:
            run.finish(clock)
            return run
        run.marks.append(clock.tick(run.busy))
        index = run.attempted
        run.attempted += 1
        error = output = None
        if task.prepare:
            task.prepare()
        start = time.perf_counter()
        frame = tracer.begin_task(index) if tracer else None
        try:
            output = task.call()
        except Exception as exc:       # a raising task is a failure; the run goes on
            error = exc
        finally:
            if tracer:
                tracer.end_task(frame, start)
        elapsed = time.perf_counter() - start
        run.busy += elapsed
        run.times.append(elapsed)
        if not check:
            continue
        # oracle and digest, outside the timed span
        if error is None:
            try:
                task.check(output)
            except workloads.OracleError as exc:
                error = exc
                run.wrong += 1
            except workloads.TaskFailed as exc:
                error = exc
        if error is None:
            run.ok += 1
            run.ok_index.append(index)
            blob = workloads.render(output)
        else:
            run.failed += 1
            run.failures.append({"task": index, "kind": task.kind,
                                 "error": f"{type(error).__name__}: {error}"})
            blob = f"error {type(error).__name__}".encode()
        if output is not None and output[0] == "cli":
            run.bytes_out += len(output[2].encode())
        run.digests.append(hashlib.sha256(blob).hexdigest()[:16])
    if limit is not None and run.attempted == limit:
        run.finish(clock)
        return run
    raise PoolExhausted(f"all {run.attempted} inputs ran in {run.busy:.1f} s of task time")


def hd_quantile(xs, p):
    """Harrell-Davis estimate of the p-quantile: the mean of the order statistics
    weighted by the Beta((n+1)p, (n+1)(1-p)) mass over each rank's interval.
    With a dozen samples beyond p90 it is steadier than one order statistic."""
    import numpy as np     # after main() has set the BLAS thread variables
    x = np.sort(xs)
    n = len(x)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    grid = (np.arange(n * 64) + 0.5) / (n * 64)       # 64 midpoints per rank
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    w = np.exp(log_pdf - log_pdf.max()).reshape(n, 64).sum(axis=1)
    return float(w @ x / w.sum())


def e2e_metrics(run, setup_s):
    # read before the quantiles, whose arrays are the benchmark's, not the program's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = run.latencies or [float("nan")]
    return {
        "tasks_per_s": run.tasks_per_s(),
        "task_s.p50": hd_quantile(lat, 0.5),
        "task_s.p90": hd_quantile(lat, 0.9),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        "ok_frac": run.ok / run.attempted,
    }


def factor_defect_errors(args, workloads):
    """How many of the defect probe's naturally drawn polynomials ``factor``
    fails on.  Run untraced after the measured tasks and outside attempted and
    failed: the workloads' own inputs avoid the defect."""
    from ffl import polyring
    errors = 0
    for a in workloads.factor_defect_probe(random.Random(args.seed)):
        try:
            polyring.factor(a)
        except Exception:
            errors += 1
    return errors


def layer_metrics(run, tracer, field_s, untraced, defect_errors):
    n = run.attempted
    # the untraced pass ran the same tasks, so it has the same successes
    tps_t, tps_u = run.tasks_per_s(), run.ok / untraced["busy_s"]
    special = {
        "units": tracer.units_built / n,
        "l_coeffs": (tracer.l_coeffs_calls / tracer.distinct_chars
                     if tracer.distinct_chars else 0.0),
        "bytes": run.bytes_out / n,
        "field": field_s,
        "defect": defect_errors,
        "tps_traced": tps_t,
        "tps_untraced": tps_u,
        "overhead": tps_u / tps_t - 1,
    }
    out = {}
    for name, (kind, bucket) in LAYER_METRICS.items():
        if kind == "self":
            out[name] = tracer.self_s[bucket] / n
        elif kind == "calls":
            out[name] = tracer.calls[bucket] / n
        else:
            out[name] = special[kind]
    return out


def write_artifacts(args, run, metrics, tracer):
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "attempted": run.attempted, "failed": run.failed, "wrong": run.wrong,
           "failures": run.failures, "digests": run.digests, "times": run.times,
           "hostspeed_samples": run.ref_samples, "metrics": metrics}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if tracer is not None:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "task"]) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ffl" / "__init__.py").is_file():
        print(f"error: no ffl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

    if args.setup_only:
        import inputs
        import workloads
        inputs.build_fields(FIELD_QS)
        workloads.WORKLOADS[args.workload](random.Random(args.seed))
        return 0
    setup_s = None if args.trace or args.prefix else cold_setup_s(args)

    import inputs
    import spans
    import workloads
    field_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs.build_fields(FIELD_QS)
        field_times.append(time.perf_counter() - t0)
    rounds = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    if args.prefix:
        run = execute(rounds, workloads, limit=args.prefix, check=False)
        print(json.dumps({"busy_s": run.busy_ref}))
        return 0

    tracer = spans.Tracer() if args.trace else None
    try:
        if tracer:
            # half the time traced, then the same tasks untraced in a fresh
            # interpreter (so no cache carries over): the gap is the overhead
            restore = spans.install(tracer)
            run = execute(rounds, workloads, seconds=args.seconds / 2, tracer=tracer)
            restore()
            untraced = json.loads(child(args, "--prefix", str(run.attempted)))
        else:
            run = execute(rounds, workloads, seconds=args.seconds)
    except PoolExhausted as exc:
        print(f"error: {args.workload} input pool exhausted: {exc}; widen the "
              f"workload's strata in perfbench/workloads.py", file=sys.stderr)
        return 3
    if tracer:
        metrics = layer_metrics(run, tracer, statistics.median(field_times), untraced,
                                factor_defect_errors(args, workloads))
    else:
        metrics = e2e_metrics(run, setup_s)
    write_artifacts(args, run, metrics, tracer)

    n_ok = len(run.latencies)
    pool = sum(len(tasks) for tasks in rounds)
    print(f"{args.workload} seed={args.seed}: {run.attempted} attempted of {pool} inputs, "
          f"{run.failed} failed ({run.failed / run.attempted:.3f} failed_frac), "
          f"{run.wrong} wrong outputs; {n_ok} latency samples, "
          f"{n_ok - int(0.9 * n_ok)} beyond p90", file=sys.stderr)
    kinds = collections.Counter((f["error"].split(":")[0], f["kind"]) for f in run.failures)
    for (err, kind), count in sorted(kinds.items()):
        print(f"  failure: {count} x {err} in {kind}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:26s} {value:14.6g} {UNITS[name]}", file=sys.stderr)
    result = {"correct": run.wrong == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
