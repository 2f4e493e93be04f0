"""Tests of the benchmark's span recorder: clean restore and self-time arithmetic."""

import json
import sys
from pathlib import Path

import pytest

import bench
import tracing
from moe_profiler import config, corpus, pipeline, synth, training


def _package_namespaces():
    """Every module of the package and every class holding a traced method."""
    spaces = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "moe_profiler"}
    for target in bench.TRACED:
        module_name, *path = target.split(".")
        if len(path) == 2:
            owner = getattr(sys.modules[f"moe_profiler.{module_name}"], path[0])
            spaces[f"{module_name}.{path[0]}"] = owner
    return spaces


def _snapshot():
    return {key: dict(vars(space)) for key, space in _package_namespaces().items()}


def _assert_identical(before, after):
    assert before.keys() == after.keys()
    for key in before:
        assert before[key].keys() == after[key].keys(), key
        changed = [name for name, value in before[key].items() if after[key][name] is not value]
        assert not changed, f"{key}: {changed}"


def test_wrappers_fully_removed_after_traced_run(tmp_path):
    root = synth.synth_corpus(tmp_path / "corpus", seed=5, n_speakers=4, utt_per_speaker=1)
    records = [r for r in corpus.scan_corpus(root) if r.split == "train"]
    cfg = config.TrainConfig(
        lr=1e-3, max_epochs=1, batch_size=2, seed=5, model_dim=8, num_layers=1, num_heads=2,
        ff_dim=16, expert_dim=8, head_hidden=4, conv_channels=8, val_fraction=0.0,
    )
    original_batch_forward = training.batch_forward
    before = _snapshot()
    aligned = []
    recorder = tracing.SpanRecorder(
        "moe_profiler", bench.TRACED, {"pipeline.align_samples": lambda a, k, r: aligned.append(r[1])}
    )
    with recorder.trace(run=1):
        # a name imported into another module is wrapped there too
        assert training.batch_forward is pipeline.batch_forward is not original_batch_forward
        training.train(cfg, records)
    _assert_identical(before, _snapshot())

    names = {s.name for s in recorder.spans}
    assert {"training.train", "pipeline.batch_forward", "frontend.frontend_forward", "tensor.backward"} <= names
    assert all(s.run == 1 and s.end >= s.start for s in recorder.spans)
    assert len(aligned) == sum(1 for s in recorder.spans if s.name == "pipeline.align_samples") > 0

    with pytest.raises(RuntimeError):
        with recorder.trace(run=2):
            raise RuntimeError("workload failed")
    _assert_identical(before, _snapshot())


def test_self_time_is_duration_minus_covered_child_time():
    S = tracing.Span
    spans = [
        S("train", 0, 100, -1, 1),
        S("forward", 10, 40, 0, 1),
        S("conv", 15, 25, 1, 1),  # grandchild: subtracted from forward only
        S("gelu", 25, 35, 1, 1),
        S("backward", 50, 90, 0, 1),
        S("step", 95, 100, 0, 1),
        S("read", 0, 7, -1, 2),
    ]
    assert tracing.self_times_ns(spans) == [100 - 30 - 40 - 5, 30 - 10 - 10, 10, 10, 40, 5, 7]
    assert tracing.busy_ns([spans[1], spans[2], spans[4]]) == 30 + 40  # overlap counted once
    assert tracing.has_ancestor(spans, 2, "train") and not tracing.has_ancestor(spans, 0, "train")


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == bench.per_layer_metrics()
