"""One benchmark process: set up a workload, then measure it.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --mode setup|measure|trace|smoke

Set-up imports mbflow from the checkout's `src/`, generates the seeded
inputs and writes them under `perfbench/.work/`, then prints `READY` so
the parent can time set-up from process start. `setup` stops there.
`measure` runs untimed warm-up on the smallest rung, then timed passes
over the command list until S seconds have gone, and reports the
end-to-end metrics. `trace` alternates untraced and traced passes and
reports the per-layer metrics. `smoke` runs the smallest rung once
untraced and once traced and checks metric names against
BENCHMARK.json. Every result is checked against the oracle; the last
stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

END_TO_END = ("wall_s", "cmd_p50_s", "cmd_tail_s", "peak_rss_mib")
EXTRA_LAYER = {"setup.import_s": "s", "setup.generate_s": "s",
               "trace.overhead_ratio": "ratio", "machine.ref_s": "s"}
REF_LOOP = 1_000_000


def machine_ref() -> float:
    """A fixed pure-Python loop: the machine's speed at this moment."""
    t = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t


def tail(values: list[float]) -> float:
    """The value with exactly ten values above it: percentile 1 - 10/n."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, 0)]


class Runner:
    def __init__(self, commands) -> None:
        self.commands = commands
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.examples: list[str] = []

    def run_pass(self, commands=None, tracer=None):
        from workloads import execute

        commands = commands or self.commands
        timed = []
        start = time.perf_counter()
        for cid, cmd in enumerate(commands):
            if tracer is not None:
                tracer.begin_command(cid)
            t0 = time.perf_counter()
            res = execute(cmd)
            timed.append((cmd, res, time.perf_counter() - t0))
        wall = time.perf_counter() - start
        for cmd, res, _ in timed:
            self.check(cmd, res)
        return wall, [dt for _, _, dt in timed]

    def check(self, cmd, res) -> None:
        self.attempted += 1
        bad = cmd.check(res)
        if bad:
            self.failures[cmd.name] = self.failures.get(cmd.name, 0) + 1
            if len(self.examples) < 5:
                self.examples.append(f"{cmd.name} [{cmd.label}]: {bad[0][:300]}")


def result_line(runner: Runner, metrics: dict) -> str:
    failed = sum(runner.failures.values())
    return json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                       "failed": failed, "metrics": metrics})


def report_failures(runner: Runner) -> None:
    failed = sum(runner.failures.values())
    print(f"# fail_ratio {failed}/{runner.attempted} by command: "
          f"{json.dumps(runner.failures, sort_keys=True)}")
    for line in runner.examples:
        print(f"# failed {line}")


def measure(runner: Runner, seconds: float) -> dict:
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(runner.run_pass())
        # stop when the next pass would likely overrun the measuring time
        if time.perf_counter() + passes[-1][0] > deadline:
            break
    walls = [w for w, _ in passes]
    print(f"# passes {len(passes)} of {len(runner.commands)} commands, "
          f"wall {' '.join(f'{w:.3f}' for w in walls)}")
    # machine speed drifts over seconds to minutes, so every command's
    # time is its mean over the run's passes, like the pass wall
    per_command = [statistics.mean(ts) for ts in zip(*(d for _, d in passes))]
    return {
        "wall_s": {"value": statistics.mean(walls), "unit": "s"},
        "cmd_p50_s": {"value": statistics.median(per_command), "unit": "s"},
        "cmd_tail_s": {"value": tail(per_command), "unit": "s"},
        "peak_rss_mib": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
    }


def traced_passes(runner: Runner, seconds: float, commands=None):
    """Alternate untraced and traced passes; return the per-layer samples
    and both wall lists. Exits if a traced binding was left unwrapped."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced, samples, per_command = [], [], [], None
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        plain.append(runner.run_pass(commands)[0])
        tracer.install()
        try:
            missing = tracer.unwrapped()
            if missing:
                print(f"tracer left bindings unwrapped: {missing}",
                      file=sys.stderr)
                sys.exit(1)
            traced.append(runner.run_pass(commands, tracer)[0])
        finally:
            tracer.uninstall()
        per_command = tracer.calls_by_command()
        samples.append(tracer.take())
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    return samples, plain, traced, per_command


def layer_metrics(samples, plain, traced, setup: dict, ref_s: float) -> dict:
    from tracer import TARGETS, metric_name, unit_of

    out = {}
    for module, attr, stats, _ in TARGETS:
        for stat in stats:
            name = metric_name(module, attr, stat)
            vals = [s.get(name, 0) for s in samples]
            # counts repeat exactly pass to pass; times take the median
            value = statistics.median(vals) if stat == "self_s" else vals[-1]
            out[name] = {"value": value, "unit": unit_of(stat)}
    extra = dict(setup)
    extra["trace.overhead_ratio"] = \
        statistics.median(traced) / statistics.median(plain) - 1
    extra["machine.ref_s"] = ref_s
    for name, unit in EXTRA_LAYER.items():
        out[name] = {"value": extra[name], "unit": unit}
    return out


def smoke(runner: Runner, commands, setup: dict) -> int:
    """Smallest rung, untraced then traced; names checked against
    BENCHMARK.json; the seed-commit call counts are printed."""
    ok = True
    samples, plain, traced, per_command = traced_passes(runner, 0, commands)
    layers = layer_metrics(samples, plain, traced, setup, machine_ref())
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"] for m in spec["per_layer"]}
    if declared != set(layers):
        print(f"# per-layer names differ from BENCHMARK.json: "
              f"missing {sorted(declared - set(layers))}, "
              f"undeclared {sorted(set(layers) - declared)}")
        ok = False
    e2e = {m["name"] for m in spec["end_to_end"]}
    if e2e != set(END_TO_END) | {"setup_s"}:
        print(f"# end-to-end names differ from BENCHMARK.json: {sorted(e2e)}")
        ok = False
    for cid, cmd in enumerate(commands):
        if cmd.name == "homology":
            calls = per_command.get(cid, {})
            print(f"# counts {cmd.label} homology: twisted.validate.calls="
                  f"{calls.get('twisted.validate', 0)} "
                  f"homalg.smith_normal_form.calls="
                  f"{calls.get('homalg.smith_normal_form', 0)}")
    report_failures(runner)
    return 0 if ok and not runner.failures else 1


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "trace", "smoke"))
    args = ap.parse_args()
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: str) -> int:
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import mbflow.cli  # noqa: F401  (the import is part of set-up)
    import workloads

    prog = workloads.Program()
    import_s = time.perf_counter() - t0
    if not os.path.abspath(mbflow.cli.__file__).startswith(src + os.sep):
        print(f"mbflow imported from {mbflow.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    t1 = time.perf_counter()
    commands = workloads.build(args.workload, args.seed, workdir, prog)
    setup = {"setup.import_s": import_s,
             "setup.generate_s": time.perf_counter() - t1}
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    runner = Runner(commands)
    smallest = [c for c in commands if c.rung == 0]
    for cmd in commands:  # oracle answers, before any timing
        cmd.expected()
    if args.mode == "smoke":
        return smoke(runner, smallest, setup)
    ref_before = machine_ref()
    runner.check(smallest[0], workloads.execute(smallest[0]))  # warm-up
    if args.mode == "measure":
        metrics = measure(runner, args.seconds)
        ref_after = machine_ref()
    else:
        samples, plain, traced, _ = traced_passes(runner, args.seconds)
        ref_after = machine_ref()
        metrics = layer_metrics(samples, plain, traced, setup,
                                (ref_before + ref_after) / 2)
    print(f"# machine.ref_s before {ref_before:.4f} after {ref_after:.4f}")
    report_failures(runner)
    print(result_line(runner, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
