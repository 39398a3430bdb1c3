"""Record the benchmark's baseline and check its byte-identical-output contract.

    python3 perfbench/record.py --seed 1

For each workload this runs ``run.py`` twice untraced with one seed, checks
that the per-task output digests of the two runs agree on every task both
ran, runs it once traced, and writes the measured numbers into
``perfbench/baseline.json``.  The design notes already in that file (load
model, metric notes, which per-layer metric should move which end-to-end
metric, known failures) are kept as they are; metric names, units and the
workloads' reasons live in BENCHMARK.json only.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MEASURED = ("seed", "run_seconds", "baseline", "digests_identical")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".perfbench" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    path = HERE / "baseline.json"
    design = {k: v for k, v in json.loads(path.read_text()).items() if k not in MEASURED}

    doc = {**design, "seed": args.seed, "run_seconds": seconds, "baseline": {}}
    identical = True
    for w in bench["workloads"]:
        name = w["name"]
        first, d1 = run_once(name, args.seed, seconds, 0)
        second, d2 = run_once(name, args.seed, seconds, 0)
        traced, _ = run_once(name, args.seed, seconds, 1)
        common = min(len(d1["digests"]), len(d2["digests"]))
        same = d1["digests"][:common] == d2["digests"][:common]
        identical &= same
        doc["baseline"][name] = {
            "correct": first["correct"] and second["correct"],
            "attempted": first["attempted"], "failed": first["failed"],
            "failed_frac": first["failed"] / first["attempted"],
            "end_to_end": {k: v["value"] for k, v in first["metrics"].items()},
            "end_to_end_rerun": {k: v["value"] for k, v in second["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "digests_compared": common, "digests_identical": same,
        }
        print(f"{name}: {common} digests compared, identical={same}", file=sys.stderr)
    doc["digests_identical"] = identical
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
