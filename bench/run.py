"""greenseq benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload mgs-tree --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is this file's grandparent and greenseq is
imported from its ``src/``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-module ones from a traced run.  Set-up time is the
median over fresh interpreters (the last of them runs the workload), so
work moved into import or input preparation shows.  Everything written
goes under ``.bench_out/`` in the checkout.  Exit status is 0 when a
result was printed, even if some outputs were wrong (``correct`` false).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 4  # fresh interpreters timed for setup_s, the workload's own included
SETUP_TIMEOUT_S = 20
DEADLINE_S = 170  # every worker is stopped by then, so a run ends within 180 s


def worker(args, mode: str, timeout: float, deadline: float) -> dict:
    t0 = time.monotonic()
    timeout = max(1.0, min(timeout, deadline - t0))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"bench: {mode} worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: {mode} worker exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def provenance(args, child: dict) -> dict:
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": "unknown", "dirty": None}
    if (ROOT / ".git").exists():
        git = lambda *a: subprocess.run(["git", *a], cwd=ROOT, capture_output=True,
                                        text=True, timeout=30)
        head = git("rev-parse", "HEAD")
        if head.returncode == 0:
            info["commit"] = head.stdout.strip()
            info["dirty"] = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
    info["nproc"] = len(os.sched_getaffinity(0))
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in f
                                if line.startswith("model name")), "unknown")
    except OSError:
        info["cpu"] = "unknown"
    info.update(child["provenance"])
    return info


def end_to_end(child: dict, setups: list[float]) -> dict:
    lat = child["latencies"]
    return {
        "items_per_s": (len(lat) / child["busy_s"], "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1e3 * statistics.quantiles(lat, n=10)[8], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "greenseq" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no greenseq sources under {ROOT / 'src'}\n")
        return 2

    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        setups = [worker(args, "setup", SETUP_TIMEOUT_S, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
    child = worker(args, "run", DEADLINE_S, deadline)
    setups.append(child["setup_s"])

    if args.trace:
        metrics = child["per_layer"]
    else:
        metrics = end_to_end(child, setups)
    attempted, failed = child["attempted"], child["failed"]
    record = {
        "provenance": provenance(args, child),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted, "failed": failed, "error_rate": failed / max(attempted, 1),
        "samples": len(child.get("latencies", ())), "setup_samples": setups,
        "selftest": child["selftest"], "failures": child["failures"],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print("provenance: " + json.dumps(record["provenance"]))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{'(latency samples)':40s} {record['samples']:14d} items "
              f"in {child['passes']} passes")
    print(f"{'error_rate':40s} {record['error_rate']:14.6g} failed/attempted "
          f"({failed}/{attempted})")
    print(f"selftest: {'ok' if child['selftest_ok'] else 'FAILED'}: {child['selftest']}")
    for reason in child["failures"]:
        print(f"failure: {reason}")
    print(json.dumps({
        "correct": failed == 0 and child["selftest_ok"],
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
