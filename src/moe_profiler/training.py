"""Training loop: uncertainty-weighted multi-task optimization with Adam.

Targets are z-scored with training-split statistics. Every record's model
input is prepared once per run. One predict_samples pass per epoch gives the
validation losses that choose the best checkpoint (else the training loss;
a non-finite one aborts the run) and, at the best epoch, the validation
report. Early stopping follows `patience`; runs are deterministic for a
fixed config and seed.
"""

import logging
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .audio import read_audio
from .checkpoint import Checkpoint, save_checkpoint
from .config import TrainConfig
from .corpus import split_train_val
from .errors import DataError, NumericError
from .losses import mixup, task_losses, uncertainty_loss
from .metrics import NormStats, build_report, record_labels
from .model import ModelOutput, SpeakerProfiler
from .optim import Adam
from .pipeline import batch_forward, pooled_batches, predict_samples, record_sample
from .tensor import Tensor

log = logging.getLogger("moe_profiler.training")


@dataclass
class EpochRow:
    epoch: int
    split: str
    l_total: float
    l_height: float
    l_age: float
    l_gender: float
    s_height: float
    s_age: float
    s_gender: float

    def to_csv(self):
        return f"{self.epoch},{self.split}," + ",".join(format(v, ".8g") for v in astuple(self)[2:])


# train_log.csv's header: EpochRow's fields, the loss columns printed as L_*
LOG_HEADER = ",".join("L" + f.name[1:] if f.name.startswith("l_") else f.name for f in fields(EpochRow))


@dataclass
class TrainResult(Checkpoint):
    """The best epoch's checkpoint, as train() saves it, with the run's log rows and validation report."""

    log_rows: list = field(default_factory=list)
    val_report: object = None


def _losses_to_row(epoch, split, means, net):
    """The log row of the (L_height, L_age, L_gender) means, its L_total their uncertainty_loss in float64."""
    columns = (*means, *(float(t.data) for t in net.log_vars()))
    total = uncertainty_loss(*(Tensor(v) for v in columns))
    return EpochRow(epoch, split, float(total.data), *columns)


def batch_loss(net, norm, samples) -> tuple:
    """((L_height, L_age, L_gender), their uncertainty_loss total) of a training forward, on the samples' labels."""
    out = batch_forward(net, samples, training=True)
    labels = ([s.height_cm for s in samples], [s.age_years for s in samples], [s.gender for s in samples])
    losses = task_losses(out, *labels, norm)
    return losses, uncertainty_loss(*losses, *net.log_vars())


def _run_epoch(net, norm, cfg, data, epoch, opt, mix_rng) -> EpochRow:
    """One training pass over data (LabeledSamples), logged as a 'train' row.

    Applies dropout and Adam steps, and mixup when given mix_rng. Batches come
    from pooled_batches: the epoch-salted shuffle is cut into pools of
    POOL_BATCHES batches, each pool sorted by audio length before it is cut,
    so batch-mates are padded to similar lengths and mixup pairs them too.
    """
    sums = [0.0, 0.0, 0.0]
    count = 0
    for batch_i, samples in enumerate(pooled_batches(data, cfg.batch_size, cfg.seed, epoch)):
        if mix_rng is not None and len(samples) > 1 and mix_rng.random() < 0.5:
            perm = mix_rng.permutation(len(samples))
            lams = mix_rng.random(len(samples))
            # a mixed item is real up to the longer of its two sources
            samples = [mixup(s, samples[j], lam) for s, j, lam in zip(samples, perm, lams)]
        losses, total = batch_loss(net, norm, samples)
        if not np.isfinite(total.data):
            raise NumericError(f"non-finite training loss at epoch {epoch}, batch {batch_i}")
        opt.zero_grad()
        total.backward()
        opt.step()
        w = len(samples)
        sums = [acc + float(loss.data) * w for acc, loss in zip(sums, losses)]
        count += w
    return _losses_to_row(epoch, "train", [s / count for s in sums], net)


def _val_row(net, norm, epoch, preds, labels) -> EpochRow:
    """The 'val' row: task losses of predict_samples' (ages, heights, genders) against labels in that order."""
    (ages, heights, genders), (ages_t, heights_t, genders_t) = preds, labels
    out = ModelOutput(age_z=Tensor(norm.z_age(ages)), height_z=Tensor(norm.z_height(heights)), gender_p=Tensor(genders))
    losses = task_losses(out, heights_t, ages_t, genders_t, norm)
    return _losses_to_row(epoch, "val", [float(loss.data) for loss in losses], net)


def train(cfg: TrainConfig, records, out_dir=None) -> TrainResult:
    """Train on the 'train' split of records; returns the best epoch's checkpoint as a TrainResult.

    split_train_val takes the validation records out of that split. When out_dir
    is given, writes checkpoint.bemx, train_log.csv and val_report.csv there;
    train_log.csv gets each row as the row is made, so a run that fails after
    every file is prepared keeps the rows of its finished epochs.
    """
    train_recs, val_recs = split_train_val(records, cfg.seed, cfg.val_fraction)
    if not train_recs:
        raise DataError("no training records")
    if {r.gender for r in train_recs} != {0, 1}:
        raise DataError("training split must contain both genders")

    norm = NormStats.fit(train_recs)
    net = SpeakerProfiler(cfg)
    opt = Adam(net.parameters(), lr=cfg.lr)
    use_mixup = cfg.mixup_enabled and cfg.feature_kind == "conv"  # mixup mixes raw waveforms
    mix_rng = np.random.default_rng([cfg.seed, 7919]) if use_mixup else None
    # every file is read, checked and featurized here, once per run and before the first step
    train_data = [record_sample(net, r, read_audio(r.utterance_path)) for r in train_recs]
    val_data = [record_sample(net, r, read_audio(r.utterance_path)) for r in val_recs]
    val_labels = record_labels(val_recs)

    log.info("training: %d train / %d val records, %d parameters, lr=%g, mode=%s, features=%s, mixup=%s",
             len(train_recs), len(val_recs), net.num_parameters(), cfg.lr, cfg.mode, cfg.feature_kind, use_mixup)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "train_log.csv").write_text(LOG_HEADER + "\n")
    rows = []

    def add_row(row):
        rows.append(row)
        if out_dir is not None:
            with open(out_dir / "train_log.csv", "a") as f:
                f.write(row.to_csv() + "\n")

    # epoch 1 always becomes the best epoch: its monitored loss is finite, or the run aborts
    best_loss = np.inf
    preds = None
    stale = 0

    for epoch in range(1, cfg.max_epochs + 1):
        add_row(_run_epoch(net, norm, cfg, train_data, epoch, opt, mix_rng))
        if val_recs:
            preds = predict_samples(net, norm, val_data)
            add_row(_val_row(net, norm, epoch, preds, val_labels))
        monitor = rows[-1].l_total
        if not np.isfinite(monitor):
            raise NumericError(f"non-finite {'validation' if val_recs else 'training'} loss at epoch {epoch}")

        if monitor < best_loss:
            best_loss = monitor
            best_epoch = epoch
            best_tensors = {n: p.data.copy() for n, p in net.parameters().items()}
            best_preds = preds
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                log.info("early stop at epoch %d (best epoch %d)", epoch, best_epoch)
                break

    result = TrainResult(cfg=cfg, norm=norm, best_epoch=best_epoch, tensors=best_tensors, log_rows=rows)
    if best_preds is not None:
        result.val_report = build_report(best_preds, val_labels)

    if out_dir is not None:
        save_checkpoint(out_dir / "checkpoint.bemx", result.cfg, result.norm, result.tensors, result.best_epoch)
        if result.val_report is not None:
            (out_dir / "val_report.csv").write_text(result.val_report.to_csv())
        log.info("wrote checkpoint and logs under %s", out_dir)
    return result
