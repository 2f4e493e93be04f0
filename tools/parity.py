"""Print sha256 prefixes of a synthesized corpus, its features and every output of four training runs.

    python tools/parity.py

Pins BLAS to one thread and synthesizes corpus seed 11 (16 speakers x 2
utterances). A first line hashes that corpus (the relative path and bytes of
every file `synth` wrote, in sorted path order) and the `features --kind
fbank` and `--kind mfcc` CSVs of its first training WAV. Then it trains 3
epochs at the README quick-start widths for each config in CONFIGS. For each
run it hashes train_log.csv, the checkpoint bytes, what loading the
checkpoint gives (its tensors, norm stats and best epoch, so a change to the
stored config text alone still shows the state unchanged), val_report.csv,
the test-split `evaluate` CSV, the `analyze-phones` table CSV, the text that
`train`, `evaluate` and `analyze-phones` print, the `predict_records` arrays
of the test split and, as a direct check of the autodiff tape, every
parameter's `.grad` after one recorded training batch of the restored model
(the first 16 train records, with dropout, and with mixup where the config
enables it).

Two checkouts that print the same lines produce bitwise-equal outputs. The
hashes depend on the BLAS build and the platform, so compare runs on one
machine; that is why this is a tool and not a test.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.setdefault("MOE_PROFILER_LOG", "error")

import contextlib
import dataclasses
import hashlib
import io
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from moe_profiler.audio import read_audio  # noqa: E402
from moe_profiler.checkpoint import load_checkpoint, restore_model  # noqa: E402
from moe_profiler.cli import main  # noqa: E402
from moe_profiler.corpus import scan_corpus  # noqa: E402
from moe_profiler.losses import mixup  # noqa: E402
from moe_profiler.pipeline import predict_records, record_sample  # noqa: E402
from moe_profiler.training import batch_loss  # noqa: E402

QUICK_START = dict(
    lr="1e-3",
    max_epochs=3,
    batch_size=16,
    seed=11,
    model_dim=32,
    num_layers=2,
    num_heads=4,
    ff_dim=64,
    expert_dim=32,
    head_hidden=16,
    conv_channels=32,
    patience=20,
)

CONFIGS = {
    "conv_bi_mixup": dict(feature_kind="conv", mode="bi_encoder", mixup_enabled="true", dropout_p=0.1),
    "conv_single": dict(feature_kind="conv", mode="single_encoder", mixup_enabled="false", dropout_p=0.0),
    "fbank_bi": dict(feature_kind="fbank", mode="bi_encoder", dropout_p=0.1),
    "mfcc_single": dict(feature_kind="mfcc", mode="single_encoder", dropout_p=0.0),
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_cli(*argv) -> bytes:
    """Run one moe-profiler command; returns what it printed."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"moe-profiler {argv[0]} exited {code}")
    return out.getvalue().encode()


def contents_digest(ck):
    """Hash of a loaded checkpoint's tensors (name and bytes, in name order), norm stats and best epoch."""
    parts = [name.encode() + arr.tobytes() for name, arr in sorted(ck.tensors.items())]
    parts.append(b"norm" + struct.pack("<dddd", *dataclasses.astuple(ck.norm)))
    parts.append(b"best_epoch" + struct.pack("<I", ck.best_epoch))
    return digest(b"".join(parts))


def grad_digest(ck, records):
    """Hash of every parameter's .grad, in name order, after one recorded training batch of records."""
    net = restore_model(ck)
    samples = [record_sample(net, r, read_audio(r.utterance_path)) for r in records]
    if net.cfg.mixup_enabled and net.cfg.feature_kind == "conv":
        rng = np.random.default_rng(0)
        perm, lams = rng.permutation(len(samples)), rng.random(len(samples))
        samples = [mixup(s, samples[j], lam) for s, j, lam in zip(samples, perm, lams)]
    _, total = batch_loss(net, ck.norm, samples)
    total.backward()
    params = sorted(net.parameters().items())
    return digest(b"".join(name.encode() + p.grad.tobytes() for name, p in params if p.grad is not None))


def parity(work: Path):
    corpus = work / "corpus"
    run_cli("synth", "--out", corpus, "--speakers", 16, "--utts", 2, "--seed", 11)
    files = sorted(f for f in corpus.rglob("*") if f.is_file())
    corpus_hash = digest(b"".join(f.relative_to(corpus).as_posix().encode() + f.read_bytes() for f in files))
    records = scan_corpus(corpus)
    test_records = [r for r in records if r.split == "test"]
    batch_records = [r for r in records if r.split == "train"][:16]
    dumps = []
    for kind in ("fbank", "mfcc"):
        run_cli("features", "--input", batch_records[0].utterance_path, "--kind", kind, "--out", work / f"{kind}.csv")
        dumps.append((work / f"{kind}.csv").read_bytes())
    print(f"corpus={corpus_hash} features={digest(b''.join(dumps))}")
    for name, extra in CONFIGS.items():
        out = work / name
        cfg = work / f"{name}.cfg"
        items = {"corpus_root": corpus, "out_dir": out, **QUICK_START, **extra}
        cfg.write_text("".join(f"{k}={v}\n" for k, v in items.items()))
        train_text = run_cli("train", "--config", cfg)
        ckpt = out / "checkpoint.bemx"
        eval_text = run_cli(
            "evaluate", "--checkpoint", ckpt, "--corpus", corpus, "--split", "test", "--out", out / "eval_test.csv"
        )
        phones_text = run_cli("analyze-phones", "--checkpoint", ckpt, "--corpus", corpus, "--out", out / "phones.csv")
        ck = load_checkpoint(ckpt)
        preds = predict_records(restore_model(ck), ck.norm, test_records)
        hashes = {
            "train_log": digest((out / "train_log.csv").read_bytes()),
            "checkpoint": digest(ckpt.read_bytes()),
            "tensors": contents_digest(ck),
            "val_report": digest((out / "val_report.csv").read_bytes()),
            "eval_test": digest((out / "eval_test.csv").read_bytes()),
            "phones": digest((out / "phones.csv").read_bytes()),
            "train_text": digest(train_text),
            "eval_text": digest(eval_text),
            "phones_text": digest(phones_text),
            "predict_records": digest(b"".join(a.tobytes() for a in preds)),
            "grads": grad_digest(ck, batch_records),
        }
        print(name, " ".join(f"{k}={v}" for k, v in hashes.items()))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="moe_parity_") as tmp:
        parity(Path(tmp))
