"""One benchmark child: runs a workload's operations inside this interpreter.

    python perfbench/inproc.py --workload lib-depth --seed 1 --mode measure
    python perfbench/inproc.py --workload cli-tables --seed 1 --mode trace --seconds 20 --spans out.json

``measure`` runs one pass and reports each operation's wall and CPU
time. ``trace`` repeats pairs of passes,
one plain and one with every layer wrapped (see tracing.py), until
`--seconds` have gone by, and reports per-layer figures with the tracing
overhead of the pair. Every output is checked. The last line of stdout is
a JSON object; run.py starts this script with the benchmark's fixed
environment.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import sys
import time

import checks
import tracing
import workloads

from zenoseq import cli, floatsum, processes, race


class Sink:
    """Stands in for sys.stdout: encodes, writes to the null device, keeps the text."""

    def __init__(self, null):
        self.null = null
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.null.write(text.encode())
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def call_lib(op: workloads.LibOp):
    p = op.params
    if op.kind in ("steps_to_within", "step_sequence", "error_sweep"):
        config = race.RaceConfig(x0=p["x0"], sa=p["sa"], st=p["st"])
        if op.kind == "steps_to_within":
            return race.steps_to_within(config, p["eps"])
        if op.kind == "step_sequence":
            return race.step_sequence(config, p["count"])
        return floatsum.error_sweep(config, p["n_max"])
    if op.kind == "event_times":
        proc = processes.GeometricEventProcess(first_interval=p["first"], ratio=p["ratio"])
        return processes.event_times(proc, p["count"])
    config = processes.DichotomyConfig(length=p["length"], speed=p["speed"])
    return processes.dichotomy_sequence(config, p["count"])


def call_cli(op: workloads.CliOp, sink: Sink):
    """(exit code, stdout, stderr) of cli.main on the op's arguments."""
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = sink, err
    try:
        code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout, sys.stderr = saved
    return code, "".join(sink.parts), err.getvalue()


class Pass:
    """Runs operations one at a time, timing each call and checking each result."""

    def __init__(self, null, tally: checks.Tally):
        self.null = null
        self.tally = tally
        self.walls: list[float] = []
        self.cpus: list[float] = []

    def run(self, ops, tracer=None) -> None:
        for index, op in enumerate(ops):
            sink = Sink(self.null)
            if tracer is not None:
                tracer.op = index
                sink.write = tracer.wrap("cli.write", sink.write, tracing.count_output(tracer))
            start, cpu = time.perf_counter(), time.process_time()
            try:
                result = call_cli(op, sink) if isinstance(op, workloads.CliOp) else call_lib(op)
            except (ValueError, ArithmeticError) as exc:
                self.tally.failure(str(op), str(exc))
                continue
            finally:
                self.walls.append(time.perf_counter() - start)
                self.cpus.append(time.process_time() - cpu)
            if isinstance(op, workloads.CliOp):
                self.tally.cli(op.argv, *result)
            else:
                self.tally.lib(op.kind, op.params, result)
            del result


def measure(ops, null) -> dict:
    tally = checks.Tally()
    one = Pass(null, tally)
    one.run(ops)
    return {"walls": one.walls, "cpus": one.cpus, **tally.as_dict()}


def traced(ops, null, seconds: float, spans_path: str | None) -> dict:
    rounds, all_spans = [], []
    tally = checks.Tally()
    plain = Pass(null, tally)
    with_trace = Pass(null, tally)
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        tracer = tracing.Tracer()
        # alternate which pass goes first, so the second pass's heap and
        # cache state does not count as tracing overhead
        if len(rounds) % 2 == 0:
            plain.run(ops)
        with tracer.installed(tracing.layer_patches(tracer, cli, race, processes, floatsum)):
            with_trace.run(ops, tracer)
        if len(rounds) % 2 == 1:
            plain.run(ops)
        untraced_s, traced_s = sum(plain.walls[-len(ops):]), sum(with_trace.walls[-len(ops):])
        layers = tracer.layer_metrics()
        layers["trace.overhead_pct"] = 100 * (traced_s - untraced_s) / untraced_s
        rounds.append(layers)
        all_spans.append(tracer.spans)
    if spans_path:
        with open(spans_path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "passes": all_spans}, f)
    return {
        "layers": {k: statistics.median(r[k] for r in rounds) for k in rounds[0]},
        "pairs": len(rounds),
        **tally.as_dict(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("measure", "trace"), required=True)
    parser.add_argument("--warmup", action="store_true", help="use the small warm-up operations")
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--spans", help="file for the traced spans")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    ops = (workload.warmup if args.warmup else workload.ops)(args.seed)
    with open(os.devnull, "wb") as null:
        if args.mode == "measure":
            result = measure(ops, null)
        else:
            result = traced(ops, null, args.seconds, args.spans)
    result["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
