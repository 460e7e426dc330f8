"""zenoseq benchmark: one closed-loop workload, measured or traced.

    python3 perfbench/run.py --workload cli-tables --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is taken from ``src/``. With
``--trace 0`` the run repeats whole passes over the workload's operations
until `--seconds` of pass time have gone by and reports the end-to-end
metrics (medians over the passes). With ``--trace 1`` it reports the
per-layer metrics of the traced passes instead. Every output is checked.
The last line of stdout is the result as JSON; the line before it records
the environment, and both go to ``perfbench/results/`` too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
INT_MAX_STR_DIGITS = 4300  # CPython's default, fixed so the caller's setting cannot move it
SETUP_RUNS = 21
RUN_LIMIT_S = 170


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Child:
    code: int
    out: bytes
    err: bytes
    wall: float
    cpu: float
    max_rss_mb: float


class Runner:
    """Starts one child at a time with the fixed environment, inside a deadline."""

    def __init__(self, root: Path, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(
            PYTHONPATH=str(root / "src"),
            PYTHONINTMAXSTRDIGITS=str(INT_MAX_STR_DIGITS),
            PYTHONHASHSEED="0",
        )

    def run(self, argv: list[str]) -> Child:
        """Run to completion; wall time from start to reaping, usage from wait4."""
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env)
        chunks = {proc.stdout: [], proc.stderr: []}
        with selectors.DefaultSelector() as sel:
            for stream in chunks:
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                ready = sel.select(self.deadline - time.monotonic())
                if not ready:
                    proc.kill()
                    os.wait4(proc.pid, 0)
                    proc.returncode = -9
                    raise BenchError(f"run limit of {RUN_LIMIT_S} s reached during {argv[1:]}")
                for key, _ in ready:
                    data = os.read(key.fd, 1 << 20)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        return Child(
            code=proc.returncode,
            out=b"".join(chunks[proc.stdout]),
            err=b"".join(chunks[proc.stderr]),
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            max_rss_mb=usage.ru_maxrss / 1024,
        )

    def python(self, *args: str) -> Child:
        return self.run([sys.executable, *args])

    def json_result(self, *args: str) -> tuple[dict, Child]:
        """Run a benchmark child script and read its last stdout line."""
        child = self.python(*args)
        if child.code != 0:
            raise BenchError(f"{args[0]} exited {child.code}: {child.err.decode()[-2000:]}")
        return json.loads(child.out.decode().splitlines()[-1]), child


def run_cli_op(runner: Runner, op: workloads.CliOp, tally: checks.Tally) -> Child:
    child = runner.python("-m", "zenoseq", *op.argv)
    tally.cli(op.argv, child.code, child.out.decode(), child.err.decode())
    return child


def lib_pass(runner: Runner, workload: str, seed: int, warmup: bool = False) -> tuple[dict, Child]:
    args = [str(HERE / "inproc.py"), "--workload", workload, "--seed", str(seed), "--mode", "measure"]
    return runner.json_result(*args, *(["--warmup"] if warmup else []))


def setup_command(workload: workloads.Workload) -> list[str]:
    """Fresh interpreter to zenoseq imported (and the CLI parser built), no model work."""
    if workload.cli:
        return ["-c", "import zenoseq.cli; zenoseq.cli.build_parser()"]
    return ["-c", "import zenoseq"]


def warm_up(runner: Runner, workload: workloads.Workload, seed: int) -> None:
    """An untimed pass of small operations, so timed runs find bytecode compiled."""
    tally = checks.Tally()
    if workload.cli:
        for op in workload.warmup(seed):
            run_cli_op(runner, op, tally)
    else:
        tally.add(lib_pass(runner, workload.name, seed, warmup=True)[0])
    if tally.failures or tally.wrong:
        raise BenchError(f"warm-up failed: {(tally.failures + tally.wrong)[:3]}")


def measured(runner: Runner, workload: workloads.Workload, seed: int, seconds: float):
    setup = [runner.python(*setup_command(workload)) for _ in range(SETUP_RUNS)]
    if any(c.code for c in setup):
        raise BenchError("set-up command failed")
    ops = workload.ops(seed)
    tally, passes = checks.Tally(), []
    while not passes or sum(sum(p["walls"]) for p in passes) < seconds:
        if workload.cli:
            children = [run_cli_op(runner, op, tally) for op in ops]
            walls, cpus = [c.wall for c in children], [c.cpu for c in children]
        else:
            result, child = lib_pass(runner, workload.name, seed)
            tally.add(result)
            children, walls, cpus = [child], result["walls"], result["cpus"]
        passes.append({"walls": walls, "cpus": cpus, "peak_rss_mb": max(c.max_rss_mb for c in children)})

    def per_op_median(key):
        return sum(statistics.median(p[key][i] for p in passes) for i in range(len(ops)))

    metrics = {
        "run_s": (per_op_median("walls"), "s"),
        "cpu_s": (per_op_median("cpus"), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(c.wall for c in setup), "s"),
    }
    return metrics, tally, {"passes": passes, "setup_s": [c.wall for c in setup]}


LAYER_UNITS = {
    "cli.out_bytes": "bytes",
    "rational.max_digits": "digits",
    "trace.overhead_pct": "%",
}

IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import {module}; "
    "print(time.perf_counter() - t)"
)


def traced(runner: Runner, workload: workloads.Workload, seed: int, seconds: float):
    module = "zenoseq.cli" if workload.cli else "zenoseq"
    interp = [runner.python("-c", "pass").wall for _ in range(SETUP_RUNS)]
    imports = [float(runner.python("-c", IMPORT_TIMER.format(module=module)).out) for _ in range(SETUP_RUNS)]
    spans = RESULTS / f"spans-{workload.name}-seed{seed}.json"
    result, _ = runner.json_result(
        str(HERE / "inproc.py"), "--workload", workload.name, "--seed", str(seed),
        "--mode", "trace", "--seconds", str(seconds), "--spans", str(spans),
    )
    tally = checks.Tally()
    tally.add(result)
    layers = {"startup.interp_s": statistics.median(interp), "startup.import_s": statistics.median(imports)}
    layers.update(result["layers"])
    metrics = {}
    for name, value in layers.items():
        unit = LAYER_UNITS.get(name) or ("s" if name.endswith("_s") else "count")
        metrics[name] = (value, unit)
    return metrics, tally, {"pairs": result["pairs"], "spans_file": spans.name}


def main() -> int:
    parser = argparse.ArgumentParser(description="zenoseq benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="pass time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "zenoseq" / "__init__.py").is_file():
        print("error: run from the repository root; src/zenoseq not found", file=sys.stderr)
        return 2
    runner = Runner(root, time.monotonic() + RUN_LIMIT_S)
    workload = workloads.WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    try:
        probe = runner.python("-c", "import sys, zenoseq; print(sys.get_int_max_str_digits())")
        if probe.code != 0:
            raise BenchError(f"zenoseq does not import: {probe.err.decode()[-2000:]}")
        warm_up(runner, workload, args.seed)
        run = traced if args.trace else measured
        metrics, tally, detail = run(runner, workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "int_max_str_digits": int(probe.out),
        "nproc": os.cpu_count(),
    }
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "result": result, "detail": detail, "failures": tally.failures, "wrong": tally.wrong}, indent=1))
    for line in (tally.failures + tally.wrong)[:5]:
        print(f"error: {line}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
