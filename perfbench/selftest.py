"""Self-test of the benchmark at toy scale.

    python3 perfbench/selftest.py

For every workload: one untraced run and one traced run must pass their
oracle checks and print exactly the metrics BENCHMARK.json names; a second
untraced run at the same seed must repeat every counted metric exactly. A
copy of the benchmark without the repo's sources must fail without printing
a result. Exits non-zero on the first problem.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
COUNTED = ("s3_requests", "s3_bytes_read", "net_bytes")


def run(args, cwd=ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout


def result(workload: str, trace: int, seed: int = 3) -> dict:
    code, out = run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--scale", "toy"])
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.exit(f"{workload} trace={trace}: exit {code}\n{out}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        sys.exit(f"{workload} trace={trace}: {out}")
    return res


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            res = result(w, trace)
            if set(res["metrics"]) != want[trace]:
                sys.exit(f"{w} trace={trace}: metrics {sorted(res['metrics'])}, "
                         f"want {sorted(want[trace])}")
            if trace == 0:
                again = result(w, 0)
                for name in COUNTED:
                    a, b = res["metrics"][name]["value"], again["metrics"][name]["value"]
                    if a != b:
                        sys.exit(f"{w}: {name} is {a} then {b} at the same seed")
            print(f"ok {w} trace={trace}", flush=True)

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out = run(["--workload", "pushdown", "--seed", "0", "--seconds", "1",
                     "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or out.strip():
        sys.exit(f"run without sources: exit {code}, output {out!r}")
    print("ok run without sources fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
