"""The benchmark's layer tracer still finds every entry point it wraps.

perfbench/tracing.py looks zenoseq functions up by attribute name, so a
rename in src/ would otherwise break only a traced benchmark run.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

from zenoseq import cli, floatsum, processes, race

F = Fraction

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_patches_wrap_the_live_modules(capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    patches = tracing.layer_patches(tracer, cli, race, processes, floatsum)
    wrapped = {(obj.__name__, attr) for obj, attr, _ in patches}
    assert {
        ("zenoseq.cli", "render"),
        ("zenoseq.cli", "to_decimal_string"),
        ("zenoseq.race", "step_sequence"),
        ("zenoseq.race", "t_n_closed"),
        ("zenoseq.race", "x_n_closed"),
        ("zenoseq.race", "steps_to_within"),
        ("zenoseq.floatsum", "t_n_closed"),
        ("zenoseq.floatsum", "error_sweep"),
        ("zenoseq.processes", "event_times"),
        ("zenoseq.processes", "dichotomy_sequence"),
    } <= wrapped

    config = race.RaceConfig(1, 2, 1)
    with tracer.installed(patches):
        assert cli.main(["steps", "--x0", "1", "--sa", "2", "--st", "1", "--n", "4"]) == 0
        race.steps_to_within(config, F(1, 10))
        processes.event_times(processes.GeometricEventProcess(1, F(1, 2)), 4)
        processes.dichotomy_sequence(processes.DichotomyConfig(1, 1), 4)
        floatsum.error_sweep(config, 3)
    capsys.readouterr()

    metrics = tracer.layer_metrics()
    for name in (
        "rational.render_calls",
        "race.step_sequence_s",
        "race.closed_form_calls",
        "race.steps_to_within_n",
        "processes.event_times_s",
        "processes.dichotomy_sequence_s",
        "floatsum.error_sweep_s",
        "floatsum.reports",
    ):
        assert metrics[name] > 0, name
    # The patches are undone on exit: the modules hold their own functions again.
    assert cli.render.__module__ == "zenoseq.rational"
    assert race.step_sequence.__module__ == "zenoseq.race"
