"""mbflow benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; mbflow is imported from its `src/`.
With --trace 0 the end-to-end metrics are measured: set-up runs in
SETUP_SAMPLES fresh processes (the last one goes on to measure) and
`setup_s` is the median time from process start to the end of set-up.
With --trace 1 one process reports the per-layer metrics from traced
passes. --smoke runs the smallest rung of every workload, untraced and
traced, and checks oracles and metric names. Each worker's output is
passed through; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5
DEADLINE_S = 170


class Failed(Exception):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run a worker; return (seconds from spawn to READY, later lines)."""
    t0 = time.perf_counter()
    child = subprocess.Popen([sys.executable, WORKER] + args,
                             stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0), child.kill)
    timer.start()
    try:
        ready = None
        lines = []
        for line in child.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif ready is not None:
                lines.append(line.rstrip("\n"))
        code = child.wait()
    finally:
        timer.cancel()
        child.stdout.close()
        if child.poll() is None:
            child.kill()
            child.wait()
    if code != 0 or ready is None:
        raise Failed("\n".join([f"worker {' '.join(args)} exited with {code}"]
                               + lines[-20:]))
    return ready, lines


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "mbflow", "cli.py")):
        print(f"no mbflow sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.smoke:
            failed = 0
            for w in WORKLOADS:
                try:
                    _, lines = spawn(["--workload", w, "--seed",
                                      str(args.seed), "--mode", "smoke"],
                                     deadline)
                except Failed as e:
                    failed += 1
                    lines = str(e).splitlines()
                print(f"{w}:", *lines, sep="\n  ")
            return 1 if failed else 0
        if args.workload is None:
            ap.error("--workload is required")
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds)]
        if args.trace:
            _, lines = spawn(common + ["--mode", "trace"], deadline)
            print(*lines, sep="\n")
            return 0
        samples = [spawn(common + ["--mode", "setup"], deadline)[0]
                   for _ in range(SETUP_SAMPLES - 1)]
        ready, lines = spawn(common + ["--mode", "measure"], deadline)
        samples.append(ready)
    except Failed as e:
        print(e, file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    result["metrics"] = {"setup_s": {"value": statistics.median(samples),
                                     "unit": "s"}, **result["metrics"]}
    print(*lines[:-1], sep="\n")
    print(f"# setup_s samples {' '.join(f'{s:.4f}' for s in samples)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
