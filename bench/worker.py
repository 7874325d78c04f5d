"""One fresh interpreter of the greenseq benchmark.

``--mode setup`` imports greenseq.cli from the checkout's ``src/``,
generates and writes the inputs, makes one warm-up call, and reports how
long that took since the parent started it (``--t0``, a monotonic clock
reading).  ``--mode run`` does the same and then runs the workload: whole
passes over its items, one call to ``greenseq.cli.main`` at a time in this
thread, each with stdout and stderr captured.  Outputs are checked after
the timed loop and after ``ru_maxrss`` is read, so the oracles' memory
and time do not count.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import gen
import oracle

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# command whose output the self-test corrupts, per workload
SELFTEST = {"mgs-tree": "mgs", "census-small": "enumerate",
            "model-check-tree": "model-check", "structure-large": "check-type-a"}
WALL_LIMIT_S = 110.0  # no new pass after this, to end well inside the parent's timeout


def load_greenseq():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import greenseq.cli

    where = Path(greenseq.__file__).resolve().parent
    if where != (src / "greenseq").resolve():
        raise SystemExit(f"greenseq imported from {where}, not from {src}")
    return greenseq


def call(greenseq, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = greenseq.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def prepare(item) -> bool:
    """Give a verify item its sequence: the mgs output it follows, planted or not."""
    if item.cmd != "verify":
        return True
    lines = item.follows.out.splitlines()
    try:
        seq = [int(t) for t in lines[1].split()]
    except (IndexError, ValueError):
        return False
    item.seq = item.verify_input(seq)
    item.extra = ("--seq", " ".join(map(str, item.seq)))
    return True


class Runner:
    def __init__(self, greenseq, items):
        self.greenseq = greenseq
        self.items = items
        self.outputs: dict[int, list] = {}  # item index -> [distinct result, times seen]
        self.latencies: list[float] = []
        self.traced_info: list[dict] = []

    def one_pass(self, tracer=None) -> float:
        busy = 0.0
        for index, item in enumerate(self.items):
            result = None  # (argv extras, exit code, stdout, stderr, exception)
            if prepare(item):
                argv = item.argv()
                t0 = time.perf_counter()
                try:
                    if tracer:
                        got = tracer.run_item(
                            len(self.traced_info), lambda: call(self.greenseq, argv))
                    else:
                        got = call(self.greenseq, argv)
                    result = (item.extra, *got, None)
                except Exception as exc:  # a crash is a failed item, not a failed run
                    result = (item.extra, None, "", "", repr(exc))
                dt = time.perf_counter() - t0
                busy += dt
                self.latencies.append(dt)
                if tracer:
                    self.traced_info.append(self._info(item, result))
                item.out = result[2]
            seen = self.outputs.setdefault(index, [])
            for entry in seen:
                if entry[0] == result:
                    entry[1] += 1
                    break
            else:
                seen.append([result, 1])
        return busy

    @staticmethod
    def _info(item, result) -> dict:
        info = {"cmd": item.cmd}
        if item.cmd == "mgs" and result[1] == 0:
            lines = result[2].splitlines()
            info["out_len"] = len(lines[1].split()) if len(lines) > 1 else 0
            info["min_len"] = item.case.n + len(item.case.triangles)
        elif item.cmd == "verify" and not item.planted:
            info["out_len"] = len(item.seq)
        return info

    def check(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, first reasons) over every execution."""
        memo: dict = {}
        attempted = failed = 0
        reasons = []
        for index, item in enumerate(self.items):
            for result, times in self.outputs.get(index, []):
                attempted += times
                reason = self.verdict(item, result, memo)
                if reason:
                    failed += times
                    reasons.append(f"{item.cmd} {item.case.name}: {reason}")
        return attempted, failed, reasons[:5]

    @staticmethod
    def verdict(item, result, memo) -> str | None:
        if result is None:
            return "no input: the mgs item it follows printed no sequence"
        extra, rc, out, err, exc = result
        if exc:
            return f"raised {exc}"
        if item.cmd == "verify":  # checked against the sequence it was given
            item.seq = [int(t) for t in extra[1].split()]
        try:
            return oracle.CHECKS[item.cmd](item, rc, out, err, memo)
        except Exception as exc:  # an output the checker cannot judge is not a right one
            return f"check failed: {exc!r}"

    def selftest(self, workload: str) -> tuple[bool, str]:
        """Corrupt one good output and require the checker to reject it."""
        memo: dict = {}
        for index, item in enumerate(self.items):
            if item.cmd != SELFTEST[workload]:
                continue
            for result, _ in self.outputs.get(index, []):
                if result and self.verdict(item, result, memo) is None:
                    _, rc, out, err, _ = result
                    bad = oracle.corrupt(item, out)
                    reason = oracle.CHECKS[item.cmd](item, rc, bad, err, memo)
                    return reason is not None, f"corrupted {item.cmd} output: {reason or 'ACCEPTED'}"
        return False, f"no good {SELFTEST[workload]} output to corrupt"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    greenseq = load_greenseq()
    items = gen.pool(args.workload, args.seed)
    inputs = OUT / "inputs" / args.workload
    inputs.mkdir(parents=True, exist_ok=True)
    for item in items:
        if not item.case.path:
            item.case.path = str(inputs / f"{item.case.name}.quiver")
            Path(item.case.path).write_text(item.case.text(), encoding="utf-8")
    warm = min((it for it in items if it.cmd != "verify"), key=lambda it: it.case.n)
    call(greenseq, warm.argv())
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s, "provenance": {
        "greenseq_path": str(Path(greenseq.__file__).resolve().parent),
        "python": sys.version.split()[0],
        "numpy": getattr(sys.modules.get("numpy"), "__version__", "not loaded"),
        "networkx": getattr(sys.modules.get("networkx"), "__version__", "not loaded"),
    }}
    runner = Runner(greenseq, items)
    started = time.monotonic()
    if args.trace:
        import spans

        tracer = spans.Tracer()
        first = runner.one_pass()  # so neither side of the overhead pays first-pass costs
        plain = traced = 0.0
        passes = 0
        while not passes or first + plain + traced < args.seconds - (plain + traced) / passes / 2:
            if time.monotonic() - started > WALL_LIMIT_S:
                break
            tracer.install()
            try:
                traced += runner.one_pass(tracer)
            finally:
                tracer.remove()
            plain += runner.one_pass()
            passes += 1
        each = passes * len(items)
        per_layer = tracer.per_layer(runner.traced_info)
        per_layer["trace.items_per_s"] = (each / traced, "1/s")
        per_layer["trace.untraced_items_per_s"] = (each / plain, "1/s")
        per_layer["trace.items"] = (float(each), "count")
        result["per_layer"] = per_layer
        tracer.write(OUT / f"{args.workload}-spans.npz")
    else:
        busy = 0.0
        passes = 0
        while not passes or busy < args.seconds - busy / passes / 2:
            if time.monotonic() - started > WALL_LIMIT_S:
                break
            busy += runner.one_pass()
            passes += 1
        result["busy_s"] = busy
        result["latencies"] = runner.latencies
        result["passes"] = passes
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["attempted"], result["failed"], result["failures"] = runner.check()
    result["selftest_ok"], result["selftest"] = runner.selftest(args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
