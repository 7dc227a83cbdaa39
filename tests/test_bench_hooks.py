"""Every panemo function the benchmark hooks by name still exists, and a
traced ``predict_scores`` gives the span tree the benchmark reads.

``perfbench/probes.py`` rebinds panemo functions by module and name. A
renamed or deleted target, or spans that no longer nest, show there only as
a failed or partial ``--trace 1`` run; these tests make it fail here instead.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from panemo import autodiff, checkpoint, cli, metrics, model, textprep, training
from panemo.verify import DOWNSIZED, build_downsized, prefix_mask

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


def test_traced_predict_spans_nest_in_their_batch():
    """Each length-sorted batch of ``predict_scores`` is one traced forward
    holding, at any depth, two GRU and two attention spans, and every span
    lies inside its parent's interval. The tracer keeps one span stack for
    the process, so scoring batches on threads breaks this until it keeps
    one per thread."""
    rng = np.random.default_rng(0)
    n, T = 64, 20
    mask = prefix_mask(rng.integers(1, T + 1, n), T)
    indices = rng.integers(2, DOWNSIZED["vocab_size"], (n, T)) * mask.astype(np.int64)
    params = build_downsized(seed=0)
    tracer = load_probes().Tracer(MODULES)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads, if any, would interleave inside one forward
    tracer.install()
    try:
        model.predict_scores(indices, mask, params, batch_size=8)
    finally:
        tracer.uninstall()
        sys.setswitchinterval(interval)

    inside = {i: [] for i, name in enumerate(tracer.names) if name == "model.forward"}
    assert len(inside) == 8
    for name, parent in zip(tracer.names, tracer.parents):
        while parent >= 0:
            inside.get(parent, []).append(name)
            parent = tracer.parents[parent]
    for names in inside.values():
        assert sum(name.startswith("model.gru") for name in names) == 2, names
        assert sum(name.startswith("model.attn") for name in names) == 2, names
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            assert tracer.starts[parent] <= tracer.starts[i] <= tracer.ends[i] <= tracer.ends[parent], tracer.names[i]
