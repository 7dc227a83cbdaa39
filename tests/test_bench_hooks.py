"""Every panemo function the benchmark hooks by name still exists.

``perfbench/probes.py`` rebinds panemo functions by module and name. A
renamed or deleted target shows there only as a failed or partial
``--trace 1`` run; these tests make it fail here instead.
"""

import importlib.util
import sys
from pathlib import Path

from panemo import autodiff, checkpoint, cli, metrics, model, textprep, training

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"
MODULES = {
    "autodiff": autodiff, "checkpoint": checkpoint, "cli": cli, "metrics": metrics,
    "model": model, "textprep": textprep, "training": training,
}


def load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    probes = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = probes  # its dataclasses look their module up here
    spec.loader.exec_module(probes)
    return probes


def bindings():
    return {(name, attr): value for name, module in MODULES.items() for attr, value in vars(module).items()}


def test_tracer_targets_resolve_and_uninstall_restores_them():
    before = bindings()
    tracer = load_probes().Tracer(MODULES)
    tracer.install()
    try:
        assert tracer.absent == set()
        assert training.adam_step is not before[("training", "adam_step")]
    finally:
        tracer.uninstall()
    assert bindings() == before


def test_clock_targets_are_callables():
    # Clock.install rebinds these for the rest of the process, so it is not called here.
    targets = [
        (training, "perturb_hidden_weights"),
        (training, "adam_step"),
        (training, "evaluate_loss"),
        (checkpoint, "load_checkpoint"),
        (autodiff, "current_tape"),  # read by the tracer's record hook
    ]
    for module, name in targets:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
