"""Set-up, workloads, correctness checks and metrics of the benchmark.

Every workload is one closed-loop caller in this process: it calls the
package's public functions one after another, with no extra threads. The
inputs come from the seed alone: the README quick-start corpus (64
speakers, 2 utterances each) is synthesized in set-up. README.md beside
this file says why each workload exists.
"""

import dataclasses
import hashlib
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

from moe_profiler import (
    audio,
    checkpoint,
    config,
    corpus,
    dsp,
    evaluation,
    frontend,
    losses,
    metrics,
    model,
    phones,
    pipeline,
    synth,
    training,
)
from moe_profiler.errors import ProfilerError
from moe_profiler.tensor import Tensor

import tracing

N_SPEAKERS = 64
UTTS_PER_SPEAKER = 2
EPOCHS = 2
SETUP_REPEATS = 7
# Seconds host_reference() takes on the reference box (2 shared Xeon cores at 2.1 GHz).
REFERENCE_NOMINAL_S = 0.2
PHONE_PASSES = 1 + len(phones.TABLE_ORDER)  # unmasked, then one pass per masked class

# Public functions timed in a traced run, per layer (module).
TRACED = (
    "tensor.conv1d",
    "tensor.layer_norm",
    "tensor.gelu",
    "tensor.matmul",
    "tensor.softmax_rows",
    "tensor.backward",
    "frontend.frontend_forward",
    "model.SpeakerProfiler.forward_features",
    "model.SpeakerProfiler.expert_forward",
    "model.SpeakerProfiler.transformer_encoder",
    "model.statistical_pooling",
    "model.gate_predict",
    "optim.Adam.step",
    "losses.task_losses",
    "losses.uncertainty_loss",
    "losses.mixup",
    "pipeline.batch_forward",
    "pipeline.featurize",
    "pipeline.align_samples",
    "pipeline.predict_records",
    "dsp.fbank",
    "dsp.mfcc",
    "dsp.cmvn",
    "dsp.mel_filterbank",
    "audio.read_audio",
    "phones.mask_phone_class",
    "phones.parse_phn",
    "metrics.build_report",
    "checkpoint.save_checkpoint",
    "checkpoint.load_checkpoint",
    "checkpoint.restore_model",
    "corpus.scan_corpus",
    "synth.synth_corpus",
    "training.train",
    "evaluation.evaluate",
    "evaluation.phoneme_importance",
)

# Traced functions that call other traced functions; these also get .self_s.
WITH_TRACED_CHILDREN = (
    "frontend.frontend_forward",
    "model.SpeakerProfiler.forward_features",
    "model.SpeakerProfiler.expert_forward",
    "model.SpeakerProfiler.transformer_encoder",
    "model.gate_predict",
    "pipeline.batch_forward",
    "pipeline.featurize",
    "pipeline.predict_records",
    "dsp.fbank",
    "dsp.mfcc",
    "training.train",
    "evaluation.evaluate",
    "evaluation.phoneme_importance",
)

# Time inside train() that prepares data rather than computing the model.
DATA_WAIT = ("audio.read_audio", "pipeline.featurize", "pipeline.align_samples", "losses.mixup")

# Stage figures of the untraced iterations, 0 where a workload has no such stage.
STAGES = (
    ("stage.train_utts_per_s", "1/s", "higher"),
    ("stage.val_loss_final", "loss", "lower"),
    ("stage.eval_utts_per_s", "1/s", "higher"),
    ("stage.phones_utts_per_s", "1/s", "higher"),
    ("stage.featurize_audio_s_per_s", "s/s", "higher"),
)

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("norm_utts_per_s", "1/s", "higher"),
    ("loss", "loss", "lower"),
)


def per_layer_metrics():
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for name in TRACED:
        out.append((f"{name}.busy_s", "s", "lower"))
        if name in WITH_TRACED_CHILDREN:
            out.append((f"{name}.self_s", "s", "lower"))
        out.append((f"{name}.calls", "count", "lower"))
    out += [
        ("pipeline.featurize.calls_per_utt", "count", "lower"),
        ("audio.read_audio.calls_per_file", "count", "lower"),
        ("pipeline.tiled_frame_share", "share", "lower"),
        ("training.data_wait_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("host.reference_s", "s", "lower"),
    ]
    out += list(STAGES)
    return out


def quick_start_config(feature_kind):
    """The README quick-start training config, seed included, with a fixed epoch count.

    The model seed stays fixed while --seed varies the corpus: with a
    seed-dependent initialization the analyzed model's loss alone spreads
    25 % of its median across seeds.
    """
    return config.TrainConfig(
        feature_kind=feature_kind,
        mode="bi_encoder",
        lr=1e-3,
        max_epochs=EPOCHS,
        batch_size=16,
        seed=11,
        model_dim=32,
        num_layers=2,
        num_heads=4,
        ff_dim=64,
        dropout_p=0.1,
        expert_dim=32,
        head_hidden=16,
        conv_channels=32,
        patience=20,  # >= EPOCHS, so early stopping never fires
    )


class Checks:
    """Operations attempted and failed; an operation fails when any of its checks does."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def op(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {'; '.join(problems)}")


def _finite(*values):
    return all(np.isfinite(np.asarray(v, dtype=np.float64)).all() for v in values)


@dataclasses.dataclass
class State:
    records: list
    train: list
    test: list
    cfg: object
    ckpt_path: Path = None
    net: object = None  # the in-memory model the checkpoint was written from
    norm: object = None


def setup(workload, seed, work_dir):
    """Synthesize and scan the corpus; for analyze also write the seeded-init checkpoint."""
    root = synth.synth_corpus(work_dir / "corpus", seed, N_SPEAKERS, UTTS_PER_SPEAKER)
    records = corpus.scan_corpus(root)
    train = [r for r in records if r.split == "train"]
    test = [r for r in records if r.split == "test"]
    kind = "fbank" if workload == "train_fbank" else "conv"
    state = State(records=records, train=train, test=test, cfg=quick_start_config(kind))
    if workload == "analyze":
        # forward cost does not depend on the weight values, so no training here
        state.net = model.SpeakerProfiler(state.cfg)
        state.norm = metrics.NormStats.fit(train)
        state.ckpt_path = work_dir / "checkpoint.bemx"
        checkpoint.save_checkpoint(state.ckpt_path, state.cfg, state.norm, state.net.parameters())
    return state


# -- one iteration of each workload --------------------------------------------


def train_iteration(state):
    t0 = time.perf_counter()
    result = training.train(state.cfg, state.train)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "result": result}


def analyze_iteration(state):
    t0 = time.perf_counter()
    ck = checkpoint.load_checkpoint(state.ckpt_path)
    net = checkpoint.restore_model(ck)
    t1 = time.perf_counter()
    feats = []
    for r in state.records:
        wave = audio.read_audio(r.utterance_path)
        feats.append((r, len(wave), wave.sample_rate, {k: pipeline.featurize(k, wave) for k in dsp.FEATURE_DIMS}))
    t2 = time.perf_counter()
    report = evaluation.evaluate(net, ck.norm, state.records)
    t3 = time.perf_counter()
    table = evaluation.phoneme_importance(net, ck.norm, state.test)
    t4 = time.perf_counter()
    return {
        "wall_s": t4 - t0,
        "load_s": t1 - t0,
        "featurize_s": t2 - t1,
        "evaluate_s": t3 - t2,
        "phones_s": t4 - t3,
        "audio_s": sum(n / sr for _, n, sr, _ in feats),
        "net": net,
        "feats": feats,
        "report": report,
        "table": table,
    }


# -- host speed ------------------------------------------------------------------

_REF_X = np.random.default_rng(0).standard_normal((16, 32, 400)).astype(np.float32)
_REF_W = np.random.default_rng(1).standard_normal((32, 32)).astype(np.float32)


def host_reference():
    """Seconds a fixed kernel shaped like the package's hot path takes right now.

    The shared host runs for minutes at a time 1.3-1.9x slower than at its
    best; the process's CPU time tracks its wall time, so this is slower
    instructions, not preemption. The kernel runs the package's kind of
    numpy ops (tanh, layer norm, channel mixing) on a batch-sized
    (16, 32, 400) array and calls nothing in the package, so timing it next
    to each iteration measures the host's speed and nothing a change to the
    package can move.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(40):
        y = np.tanh(_REF_X) * _REF_X
        z = (y - y.mean(axis=1, keepdims=True)) / np.sqrt(y.var(axis=1, keepdims=True) + 1e-5)
        h = np.einsum("bct,cd->bdt", z, _REF_W)
        acc += float((h.transpose(0, 2, 1).reshape(-1, 32) @ _REF_W)[0, 0])
        for i in range(2000):
            acc += i * 0.5
    return time.perf_counter() - t0


def host_factor(reference_s):
    """How many times slower than the reference box the host ran, from a host_reference() time."""
    return reference_s / REFERENCE_NOMINAL_S


# -- correctness checks ---------------------------------------------------------


def check_train(state, out, first, checks):
    result = out["result"]
    problems = []
    rows = result.log_rows
    if len(rows) != 2 * EPOCHS:
        problems.append(f"{len(rows)} log rows, expected {2 * EPOCHS} (train+val for {EPOCHS} epochs)")
    bad = [r for r in rows if not _finite(*dataclasses.astuple(r)[2:])]
    if bad:
        problems.append(f"non-finite loss in epoch {bad[0].epoch} {bad[0].split}")
    if result.val_report is None or not _finite(result.val_report.age_rmse_all, result.val_report.height_rmse_all):
        problems.append("validation report missing or non-finite")
    if first is not None and rows != first["result"].log_rows:
        problems.append("log differs from the run's first train() call with the same config and seed")
    checks.op("train", problems)


def check_analyze(state, out, checks):
    problems = [
        f"restored '{name}' differs from the saved tensor"
        for name, p in out["net"].parameters().items()
        if not np.array_equal(p.data, state.net.parameters()[name].data)
    ]
    checks.op("load_checkpoint+restore_model", problems[:3])
    for record, n, sr, by_kind in out["feats"]:
        for kind, feat in by_kind.items():
            want = (dsp.num_frames(n, sr), dsp.FEATURE_DIMS[kind])
            problems = []
            if feat.shape != want:
                problems.append(f"shape {feat.shape}, expected {want}")
            if not _finite(feat):
                problems.append("non-finite values")
            checks.op(f"featurize {kind} {record.utterance_path.name}", problems)
    report = out["report"]
    problems = []
    if report.n_male + report.n_female != len(state.records):
        problems.append(f"report covers {report.n_male + report.n_female} of {len(state.records)} records")
    if not _finite(*dataclasses.astuple(report)):
        problems.append("non-finite report cell")
    checks.op("evaluate", problems)
    table = out["table"]
    problems = []
    if set(table.rows) != set(phones.TABLE_ORDER) or len(table.rows) != len(phones.TABLE_ORDER):
        problems.append(f"phone table has {len(table.rows)} classes, expected {len(phones.TABLE_ORDER)}")
    if not _finite(*[c for cells in table.rows.values() for c in cells]):
        problems.append("non-finite phone table cell")
    checks.op("phoneme_importance", problems)


def analyze_loss_and_checks(state, checks):
    """Checks made once per run on the restored model; returns its L_total on all records."""
    ck = checkpoint.load_checkpoint(state.ckpt_path)
    net = checkpoint.restore_model(ck)
    ages, heights, genders = pipeline.predict_records(net, ck.norm, state.records)
    problems = []
    if not _finite(ages, heights, genders):
        problems.append("non-finite prediction")
    if not ((genders > 0.0) & (genders < 1.0)).all():
        problems.append("gender_p outside (0, 1)")
    checks.op("predictions", problems)

    subset = state.records[:: max(1, len(state.records) // 8)]
    restored = dataclasses.astuple(evaluation.evaluate(net, ck.norm, subset))
    in_memory = dataclasses.astuple(evaluation.evaluate(state.net, state.norm, subset))
    same = np.array_equal(np.array(restored, dtype=np.float64), np.array(in_memory, dtype=np.float64), equal_nan=True)
    checks.op("restored evaluate equals in-memory evaluate bitwise", [] if same else ["reports differ"])

    pred = model.ModelOutput(
        age_z=Tensor(ck.norm.z_age(ages)),
        height_z=Tensor(ck.norm.z_height(heights)),
        gender_p=Tensor(genders),
    )
    l_h, l_a, l_g = losses.task_losses(
        pred,
        [r.height_cm for r in state.records],
        [r.age_years for r in state.records],
        [r.gender for r in state.records],
        ck.norm,
    )
    return float(losses.uncertainty_loss(l_h, l_a, l_g, *net.log_vars()).data)


# -- figures --------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def train_figures(state, outs):
    rows = outs[0]["result"].log_rows  # every call logs the same rows (checked)
    utts = len(state.train) * EPOCHS
    utts_per_s = _median([utts / o["wall_s"] for o in outs])
    return {
        "utts_per_s": utts_per_s,
        "norm_utts_per_s": _median([utts / o["wall_s"] * host_factor(o["reference_s"]) for o in outs]),
        "host.reference_s": _median([o["reference_s"] for o in outs]),
        "loss": [r for r in rows if r.split == "train"][-1].l_total,
        "stage.train_utts_per_s": utts_per_s,
        "stage.val_loss_final": [r for r in rows if r.split == "val"][-1].l_total,
    }


def analyze_figures(state, outs):
    n = len(state.records)
    phone_utts = PHONE_PASSES * len(state.test)
    utts = 2 * n + phone_utts  # every utterance handled across the three flows: featurized, evaluated, phone passes
    return {
        "utts_per_s": _median([utts / o["wall_s"] for o in outs]),
        "norm_utts_per_s": _median([utts / o["wall_s"] * host_factor(o["reference_s"]) for o in outs]),
        "host.reference_s": _median([o["reference_s"] for o in outs]),
        "stage.eval_utts_per_s": _median([n / o["evaluate_s"] for o in outs]),
        "stage.phones_utts_per_s": _median([phone_utts / o["phones_s"] for o in outs]),
        "stage.featurize_audio_s_per_s": _median([o["audio_s"] / o["featurize_s"] for o in outs]),
    }


class LayerCounters:
    """Counters that need call arguments: tiled batch frames and files read."""

    def __init__(self):
        self.frames_for = None  # samples -> model frames, set once the config is known
        self.batch_frames = 0
        self.tiled_frames = 0
        self.files = set()

    def on_align(self, args, kwargs, result):
        _, orig_lens = result
        full = self.frames_for(max(orig_lens))
        self.batch_frames += full * len(orig_lens)
        self.tiled_frames += sum(full - self.frames_for(n) for n in orig_lens)

    def on_read(self, args, kwargs, result):
        self.files.add(str(args[0] if args else kwargs["path"]))

    def hooks(self):
        return {"pipeline.align_samples": self.on_align, "audio.read_audio": self.on_read}


def _frames_for(cfg):
    if cfg.feature_kind == "conv":
        return frontend.ConvFrontendConfig.default(cfg.conv_channels).out_frames
    return lambda n: dsp.num_frames(n, synth.SAMPLE_RATE)


def layer_figures(spans, n_iter, n_utts, counters):
    """Per-layer metrics: per workload iteration, plus the one traced set-up (run 0)."""
    selfs = tracing.self_times_ns(spans)
    by_run_name = {}
    for i, s in enumerate(spans):
        by_run_name.setdefault((s.run, s.name), []).append(i)

    def per_iter(total_setup, total_iters):
        return total_setup + total_iters / n_iter

    out = {}
    for name in TRACED:
        busy = {0: 0, 1: 0}
        self_ns = {0: 0, 1: 0}
        calls = {0: 0, 1: 0}
        for (run, span_name), idx in by_run_name.items():
            if span_name != name:
                continue
            kind = 0 if run == 0 else 1
            busy[kind] += tracing.busy_ns([spans[i] for i in idx])
            self_ns[kind] += sum(selfs[i] for i in idx)
            calls[kind] += len(idx)
        out[f"{name}.busy_s"] = per_iter(busy[0], busy[1]) / 1e9
        if name in WITH_TRACED_CHILDREN:
            out[f"{name}.self_s"] = per_iter(self_ns[0], self_ns[1]) / 1e9
        out[f"{name}.calls"] = per_iter(calls[0], calls[1])

    iter_featurize = sum(1 for s in spans if s.run > 0 and s.name == "pipeline.featurize")
    out["pipeline.featurize.calls_per_utt"] = iter_featurize / n_iter / n_utts
    iter_reads = sum(1 for s in spans if s.run > 0 and s.name == "audio.read_audio")
    out["audio.read_audio.calls_per_file"] = iter_reads / n_iter / len(counters.files) if counters.files else 0.0
    out["pipeline.tiled_frame_share"] = (
        counters.tiled_frames / counters.batch_frames if counters.batch_frames else 0.0
    )
    waits = [
        s
        for i, s in enumerate(spans)
        if s.run > 0 and s.name in DATA_WAIT and tracing.has_ancestor(spans, i, "training.train")
    ]
    out["training.data_wait_s"] = tracing.busy_ns(waits) / n_iter / 1e9
    return out


# -- the run ---------------------------------------------------------------------


def _repeat_for(seconds, one):
    """Call one() at least once, and again while another call would end within `seconds`."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def _git_revision(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root, seed, thread_vars):
    return {
        "seed": seed,
        "workers": 1,
        "threads": {k: os.environ.get(k) for k in thread_vars},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_rev": _git_revision(root),
        "src_sha256": _source_digest(root),
    }


def run(workload, seed, seconds, trace, work_dir, spans_path):
    """Run one workload; returns (metrics {name: value}, stage figures, Checks)."""
    checks = Checks()
    is_train = workload != "analyze"
    iteration = train_iteration if is_train else analyze_iteration

    outs = []

    def checked(state):
        try:
            out = iteration(state)
        except ProfilerError as exc:  # the package's own failures count as failed operations
            checks.op(workload, [f"{type(exc).__name__}: {exc}"])
            return None
        if is_train:
            check_train(state, out, outs[0] if outs else None, checks)
        else:
            check_analyze(state, out, checks)
            for heavy in ("net", "feats", "report", "table"):
                del out[heavy]
        outs.append(out)
        return out

    if not trace:
        setup_times = []
        for i in range(SETUP_REPEATS):
            if i:
                shutil.rmtree(work_dir / f"setup{i - 1}")
            t0 = time.perf_counter()
            state = setup(workload, seed, work_dir / f"setup{i}")
            setup_times.append(time.perf_counter() - t0)
        # the host reference runs before the first iteration and after each one
        host_reference()  # warm-up
        refs = [host_reference()]

        def step():
            out = checked(state)
            refs.append(host_reference())
            if out is not None:
                out["reference_s"] = (refs[-2] + refs[-1]) / 2

        _repeat_for(seconds, step)
        if not outs:
            raise RuntimeError(f"every {workload} iteration failed: {checks.messages}")
        figures = train_figures(state, outs) if is_train else analyze_figures(state, outs)
        if not is_train:
            figures["loss"] = analyze_loss_and_checks(state, checks)
        figures["setup_s"] = statistics.median(setup_times)
        figures["setup_samples_s"] = setup_times
        figures["iterations"] = [{k: v for k, v in o.items() if isinstance(v, float)} for o in outs]
        figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {name: figures[name] for name, _, _ in END_TO_END}, figures, checks

    counters = LayerCounters()
    recorder = tracing.SpanRecorder("moe_profiler", TRACED, counters.hooks())
    with recorder.trace(run=0):
        state = setup(workload, seed, work_dir / "setup0")
    counters.frames_for = _frames_for(state.cfg)

    # untraced and traced iterations alternate; their wall-time difference is the tracing overhead
    plain, plain_walls, traced_walls = [], [], []

    def pair():
        before = host_reference()
        t0 = time.perf_counter()
        out = checked(state)
        t1 = time.perf_counter()
        after = host_reference()
        t2 = time.perf_counter()
        with recorder.trace(run=len(traced_walls) + 1):
            checked(state)
        traced_walls.append(time.perf_counter() - t2)
        if out is not None:
            out["reference_s"] = (before + after) / 2
            plain.append(out)
            plain_walls.append(t1 - t0)

    host_reference()  # warm-up
    _repeat_for(seconds, pair)
    if not is_train:
        analyze_loss_and_checks(state, checks)
    n_utts = len(state.train) if is_train else len(state.records)
    if not plain:
        raise RuntimeError(f"every {workload} iteration failed: {checks.messages}")
    layers = layer_figures(recorder.spans, len(traced_walls), n_utts, counters)
    layers["trace.overhead_s"] = _median(traced_walls) - _median(plain_walls)
    stages = train_figures(state, plain) if is_train else analyze_figures(state, plain)
    for name, _, _ in STAGES:
        layers[name] = stages.get(name, 0.0)
    layers["host.reference_s"] = stages["host.reference_s"]
    tracing.write_csv(recorder.spans, spans_path)
    return {name: layers[name] for name, _, _ in per_layer_metrics()}, stages, checks
