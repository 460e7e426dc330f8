"""Spans and counters recorded around the calls into each zenoseq layer.

The wrappers live here, in the benchmark, and replace module attributes
for the length of a traced pass; nothing in ``src/`` changes. A wrapper
goes on the attribute each caller actually looks up: ``cli`` imports
``render`` and ``to_decimal_string`` by name, so those are wrapped in
``cli``'s namespace, while ``cli`` reaches ``race.step_sequence`` through
the ``race`` module and ``floatsum`` binds ``t_n_closed`` by name.
"""

from __future__ import annotations

import decimal
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction

CLOSED_FORMS = ("race.t_n_closed", "race.x_n_closed")


class Tracer:
    """Spans [name, start, end, parent index, operation index] and counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.largest = 0
        self.op = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """`fn` timed as span `name`; after(args, result) runs outside the span."""
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.op]
            spans.append(span)
            open_.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def note(self, *values: Fraction) -> None:
        """Remember the largest numerator or denominator among `values`."""
        for v in values:
            self.largest = max(self.largest, abs(v.numerator), v.denominator)

    @contextmanager
    def installed(self, patches):
        """Set each (object, attribute, replacement) and restore it afterwards."""
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, new in patches:
                setattr(obj, attr, new)
            yield self
        finally:
            for obj, attr, old in reversed(saved):
                setattr(obj, attr, old)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals; a layer's self time excludes its traced children."""
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        child_time = [0.0] * len(self.spans)
        crosscheck = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, parent, _), inner in zip(self.spans, child_time):
            total[name] += end - start
            own[name] += end - start - inner
            calls[name] += 1
            if name in CLOSED_FORMS and parent >= 0 and self.spans[parent][0] == "cli.cmd_steps":
                crosscheck += end - start
        return {
            "cli.parse_args_s": total["cli.build_parser"] + total["cli.parse_args"],
            "cli.format_s": sum((v for k, v in own.items() if k.startswith("cli.cmd_")), 0.0),
            "cli.write_s": total["cli.write"],
            "cli.out_bytes": self.counts["out_bytes"],
            "cli.rows": self.counts["rows"],
            "cli.crosscheck_s": crosscheck,
            "rational.render_s": total["rational.render"],
            "rational.render_calls": calls["rational.render"],
            "rational.decimal_s": total["rational.to_decimal_string"],
            "rational.decimal_calls": calls["rational.to_decimal_string"],
            "rational.max_digits": decimal.Decimal(self.largest).adjusted() + 1,
            "race.step_sequence_s": total["race.step_sequence"],
            "race.closed_form_s": sum((total[k] for k in CLOSED_FORMS), 0.0),
            "race.closed_form_calls": sum(calls[k] for k in CLOSED_FORMS),
            "race.steps_to_within_s": total["race.steps_to_within"],
            "race.steps_to_within_n": self.counts["steps_to_within_n"],
            "processes.event_times_s": total["processes.event_times"],
            "processes.dichotomy_sequence_s": total["processes.dichotomy_sequence"],
            "floatsum.error_sweep_s": total["floatsum.error_sweep"],
            "floatsum.reports": self.counts["reports"],
        }


def layer_patches(tracer: Tracer, cli, race, processes, floatsum) -> list[tuple]:
    """Wrappers for every public layer entry point the workloads reach."""
    patches = []

    def add(obj, attr, name, after=None):
        patches.append((obj, attr, tracer.wrap(name, getattr(obj, attr), after)))

    def events(args, result):
        for ev in result:
            tracer.note(ev.t, ev.x)

    def fractions(args, result):
        tracer.note(*result)

    def reports(args, result):
        tracer.counts["reports"] += 2 * len(result)
        for pair in result:
            for report in pair:
                tracer.note(report.exact, report.abs_error, report.rel_error)

    def within(args, result):
        tracer.counts["steps_to_within_n"] += result

    def parser(args, result):
        result.parse_args = tracer.wrap("cli.parse_args", result.parse_args)

    add(cli, "main", "cli.main")
    add(cli, "build_parser", "cli.build_parser", parser)
    for attr in dir(cli):
        if attr.startswith("cmd_"):
            add(cli, attr, f"cli.{attr}")
    add(cli, "render", "rational.render", lambda args, result: tracer.note(args[0]))
    add(cli, "to_decimal_string", "rational.to_decimal_string")
    add(race, "step_sequence", "race.step_sequence", events)
    add(race, "t_n_closed", "race.t_n_closed", lambda args, result: tracer.note(result))
    add(race, "x_n_closed", "race.x_n_closed", lambda args, result: tracer.note(result))
    add(floatsum, "t_n_closed", "race.t_n_closed", lambda args, result: tracer.note(result))
    add(race, "steps_to_within", "race.steps_to_within", within)
    add(processes, "event_times", "processes.event_times", fractions)
    add(processes, "dichotomy_sequence", "processes.dichotomy_sequence", events)
    add(floatsum, "error_sweep", "floatsum.error_sweep", reports)
    return patches


def count_output(tracer: Tracer):
    """After-hook for the traced stdout write: bytes and lines emitted."""

    def after(args, result):
        tracer.counts["out_bytes"] += len(args[0].encode())
        tracer.counts["rows"] += args[0].count("\n")

    return after
