"""The benchmark's tracer still reaches every layer it counts.

`perfbench/tracer.py` rebinds traced functions at each binding site in the
package; a refactor that drops or renames one breaks `perfbench/run.py
--trace 1`, which also fails when a heavy layer records no work.  This runs
the tracer over one small training run and over one evaluation.
"""

import importlib.util
from pathlib import Path

from centerpolar import cli  # noqa: F401  (the tracer rebinds names in every module it lists)
from centerpolar import data, evaluation, experiments, trainer

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_a_full_train():
    train_set, _tests = data.generate_benchmark(
        experiments.default_benchmark_spec(seed=0, samples_per_class=20)
    )
    config = experiments.benchmark_train_config(0, "full")
    tracer = load_tracer().Tracer()
    with tracer.installed():
        trainer.train(train_set, config)
    counts = tracer.counts[None]
    assert counts["tensor.tape_entries"] > 0
    assert counts["losses.loss_dom.pairs"] > 0
    assert counts["expansion.steps"] > 0
    assert not hasattr(trainer.train, "__wrapped__")  # uninstalled again


def test_tracer_counts_one_evaluate():
    train_set, tests = data.generate_benchmark(
        experiments.default_benchmark_spec(seed=0, samples_per_class=20)
    )
    model = trainer.train(train_set, experiments.benchmark_train_config(0, "full")).model
    tracer = load_tracer().Tracer()
    with tracer.installed():
        report = evaluation.evaluate(model, tests)
    assert tracer.counts[None]["evaluation.evaluate.queries"] == report.query_count > 0
    calls = tracer.per_op()[None]
    for layer in ("evaluate", "map_at_r", "r_precision", "recall_at_k"):
        assert calls[f"evaluation.{layer}"][0] > 0
    assert not hasattr(evaluation.map_at_r, "__wrapped__")
