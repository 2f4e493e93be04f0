import hashlib
import shutil
from pathlib import Path

import numpy as np
import pytest

from moe_profiler.audio import read_audio, write_wav
from moe_profiler.checkpoint import load_checkpoint, save_checkpoint
from moe_profiler.corpus import scan_corpus
from moe_profiler.metrics import NormStats
from moe_profiler.model import SpeakerProfiler
from moe_profiler import training
from moe_profiler.cli import main
from moe_profiler.errors import NumericError

from .conftest import tiny_config
from .helpers import tone_wave, write_sphere
from .test_checkpoint import write_corrupt_config_checkpoint


def run(*argv):
    return main([str(a) for a in argv])


TINY_MODEL = {
    "model_dim": 8,
    "num_layers": 1,
    "num_heads": 2,
    "ff_dim": 16,
    "expert_dim": 8,
    "head_hidden": 4,
    "conv_channels": 8,
    "dropout_p": 0.0,
    "mixup_enabled": "false",
    "patience": 1000,
}


def write_config(path, corpus_root, out_dir, **overrides):
    items = dict(TINY_MODEL)
    items.update(
        {
            "corpus_root": corpus_root,
            "out_dir": out_dir,
            "feature_kind": "conv",
            "lr": 1e-3,
            "max_epochs": 3,
            "batch_size": 4,
            "seed": 7,
        }
    )
    items.update(overrides)
    path.write_text("\n".join(f"{k}={v}" for k, v in items.items()) + "\n")
    return path


class TestSynthCmd:
    def test_counts(self, tmp_path):
        out = tmp_path / "c"
        assert run("synth", "--out", out, "--speakers", 4, "--utts", 2, "--seed", 5) == 0
        wavs = list(out.rglob("*.WAV"))
        phns = list(out.rglob("*.PHN"))
        assert len(wavs) == 8 and len(phns) == 8
        assert (out / "SPKRINFO.TXT").is_file()

    def test_byte_identical_per_seed(self, tmp_path):
        def digest(root):
            h = hashlib.sha256()
            for p in sorted(Path(root).rglob("*")):
                if p.is_file():
                    h.update(p.relative_to(root).as_posix().encode() + p.read_bytes())
            return h.hexdigest()

        assert run("synth", "--out", tmp_path / "a", "--speakers", 2, "--utts", 1, "--seed", 9) == 0
        assert run("synth", "--out", tmp_path / "b", "--speakers", 2, "--utts", 1, "--seed", 9) == 0
        assert digest(tmp_path / "a") == digest(tmp_path / "b")

    def test_single_speaker_exit_1(self, tmp_path):
        assert run("synth", "--out", tmp_path / "x", "--speakers", 1, "--utts", 1) == 1

    def test_nonempty_dir_needs_force(self, tmp_path):
        out = tmp_path / "c"
        run("synth", "--out", out, "--speakers", 2, "--utts", 1, "--seed", 1)
        assert run("synth", "--out", out, "--speakers", 2, "--utts", 1, "--seed", 1) == 1
        assert run("synth", "--out", out, "--speakers", 2, "--utts", 1, "--seed", 1, "--force") == 0


class TestFeaturesCmd:
    def test_fbank_98_by_240(self, tmp_path):
        wav = tmp_path / "one.wav"
        write_wav(wav, tone_wave(440.0, seconds=1.0), 16000)
        out = tmp_path / "f.csv"
        assert run("features", "--input", wav, "--kind", "fbank", "--out", out) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "98,240"
        assert len(lines) == 99
        assert len(lines[1].split(",")) == 240

    def test_mfcc_width_48(self, tmp_path):
        wav = tmp_path / "one.wav"
        write_wav(wav, tone_wave(300.0, seconds=0.5), 16000)
        out = tmp_path / "m.csv"
        assert run("features", "--input", wav, "--kind", "mfcc", "--out", out) == 0
        assert out.read_text().splitlines()[0].endswith(",48")

    def test_missing_input_exit_2(self, tmp_path):
        assert run("features", "--input", tmp_path / "nope.wav", "--kind", "fbank", "--out", tmp_path / "o.csv") == 2

    def test_malformed_sphere_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        write_sphere(bad, tone_wave(440.0, seconds=0.1))
        bad.write_bytes(bad.read_bytes().replace(b"sample_count -i", b"sample_tally -i", 1))
        assert run("features", "--input", bad, "--kind", "fbank", "--out", tmp_path / "o.csv") == 2
        assert "sample_count" in capsys.readouterr().err

    def test_sphere_header_size_inside_header_text_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        write_sphere(bad, tone_wave(440.0, seconds=0.1))
        bad.write_bytes(bad.read_bytes().replace(b"   1024", b"     16", 1))
        assert run("features", "--input", bad, "--kind", "fbank", "--out", tmp_path / "o.csv") == 2
        assert str(bad) in capsys.readouterr().err


class TestTrainCmd:
    def test_train_writes_checkpoint(self, corpus4, tmp_path):
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path / "cfg.txt", corpus4, out_dir)
        assert run("train", "--config", cfg) == 0
        assert (out_dir / "checkpoint.bemx").is_file()
        assert (out_dir / "train_log.csv").read_text().startswith("epoch,split,L_total")

    def test_unknown_key_exit_1_names_key(self, corpus4, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.txt", corpus4, tmp_path / "run")
        cfg.write_text(cfg.read_text() + "learninng_rate=3\n")
        assert run("train", "--config", cfg) == 1
        assert "learninng_rate" in capsys.readouterr().err

    def test_key_set_twice_exit_1_names_key_and_lines(self, corpus4, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.txt", corpus4, tmp_path / "run")
        lines = cfg.read_text().replace("seed=7", "seed=1\nseed=2").splitlines()
        cfg.write_text("\n".join(lines) + "\n")
        first = lines.index("seed=1") + 1
        assert run("train", "--config", cfg) == 1
        assert f"config key 'seed' set twice, on lines {first} and {first + 1}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_impossible_override_exit_1_names_key(self, corpus4, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.txt", corpus4, tmp_path / "run")
        for key in ("num_heads", "max_epochs"):
            assert run("train", "--config", cfg, "--override", f"{key}=0") == 1
            assert key in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.bemx").exists()

    def test_removed_alignment_masking_key_exit_1(self, corpus4, tmp_path, capsys):
        # only load_checkpoint forgives the removed key; a config or override that sets it is unknown
        cfg = write_config(tmp_path / "cfg.txt", corpus4, tmp_path / "run")
        assert run("train", "--config", cfg, "--override", "alignment_masking=false") == 1
        assert "unknown config key 'alignment_masking'" in capsys.readouterr().err
        cfg.write_text(cfg.read_text() + "alignment_masking=true\n")
        assert run("train", "--config", cfg) == 1
        assert "unknown config key 'alignment_masking'" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.bemx").exists()

    def test_removed_positional_encoding_key_exit_1(self, corpus4, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.txt", corpus4, tmp_path / "run")
        assert run("train", "--config", cfg, "--override", "use_positional_encoding=true") == 1
        assert "unknown config key 'use_positional_encoding'" in capsys.readouterr().err
        cfg.write_text(cfg.read_text() + "use_positional_encoding=true\n")
        assert run("train", "--config", cfg) == 1
        assert "unknown config key 'use_positional_encoding'" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.bemx").exists()

    def test_negative_seed_exit_1_names_seed(self, corpus4, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.txt", corpus4, tmp_path / "run")
        assert run("train", "--config", cfg, "--override", "seed=-1") == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert run("synth", "--out", tmp_path / "c", "--speakers", 2, "--utts", 1, "--seed", -1) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists() and not (tmp_path / "c").exists()

    def test_patience_below_1_exit_1_names_patience(self, corpus4, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.txt", corpus4, tmp_path / "run")
        assert run("train", "--config", cfg, "--override", "patience=0") == 1
        assert "patience must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_diverged_run_without_val_split_exit_3(self, corpus4, tmp_path, capsys, monkeypatch):
        step = training.Adam.step

        def diverging_step(self):
            step(self)
            self.params["loss.s_age"].data[...] = np.inf

        monkeypatch.setattr(training.Adam, "step", diverging_step)
        out_dir = tmp_path / "run"
        assert run("train", "--config", write_config(tmp_path / "cfg.txt", corpus4, out_dir)) == 3
        # the epoch's train row, not a batch loss: one batch covers corpus4, which has no val split
        assert "error: non-finite training loss at epoch 1\n" in capsys.readouterr().err
        assert not (out_dir / "checkpoint.bemx").exists()

    def test_numeric_abort_exit_3(self, corpus4, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise NumericError("non-finite training loss at epoch 1, batch 0")

        monkeypatch.setattr(training, "train", diverge)
        assert run("train", "--config", write_config(tmp_path / "cfg.txt", corpus4, tmp_path / "run")) == 3

    def test_non_finite_val_loss_exit_3(self, corpus16, tmp_path, monkeypatch, capsys):
        def nan_predictions(net, norm, samples):
            return tuple(np.full(len(samples), np.nan) for _ in range(3))

        monkeypatch.setattr(training, "predict_samples", nan_predictions)
        out_dir = tmp_path / "run"
        assert run("train", "--config", write_config(tmp_path / "cfg.txt", corpus16, out_dir, val_fraction=0.3)) == 3
        assert "non-finite validation loss at epoch 1" in capsys.readouterr().err
        assert not (out_dir / "checkpoint.bemx").exists()

    def test_override_changes_config(self, corpus4, tmp_path):
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path / "cfg.txt", corpus4, out_dir, max_epochs=1)
        assert run("train", "--config", cfg, "--override", "lr=1e-4") == 0
        ck = load_checkpoint(out_dir / "checkpoint.bemx")
        assert ck.cfg.lr == pytest.approx(1e-4)

    def test_seed_override(self, corpus4, tmp_path):
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path / "cfg.txt", corpus4, out_dir, max_epochs=1)
        assert run("train", "--config", cfg, "--override", "seed=123") == 0
        assert load_checkpoint(out_dir / "checkpoint.bemx").cfg.seed == 123


    def test_path_overrides_win_over_config_file(self, corpus4, tmp_path):
        cfg = write_config(tmp_path / "cfg.txt", tmp_path / "no_corpus", tmp_path / "file_run", max_epochs=1)
        out_dir = tmp_path / "override_run"
        assert run("train", "--config", cfg, "--override", f"corpus_root={corpus4}", "--override", f"out_dir={out_dir}") == 0
        assert (out_dir / "checkpoint.bemx").is_file()
        assert not (tmp_path / "file_run").exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_eval")
    corpus = base / "corpus"
    run("synth", "--out", corpus, "--speakers", 16, "--utts", 1, "--seed", 5)
    out_dir = base / "run"
    cfg = write_config(base / "cfg.txt", corpus, out_dir, max_epochs=3, batch_size=8)
    assert run("train", "--config", cfg) == 0
    return corpus, out_dir


class TestEvaluateCmd:
    def test_evaluate_test_split(self, trained, tmp_path):
        corpus, out_dir = trained
        out = tmp_path / "eval.csv"
        code = run("evaluate", "--checkpoint", out_dir / "checkpoint.bemx", "--corpus", corpus, "--split", "test", "--out", out)
        assert code == 0
        assert out.read_text().startswith("height_rmse_male")

    def test_val_matches_train_val_report(self, trained, tmp_path):
        corpus, out_dir = trained
        out = tmp_path / "val.csv"
        assert run("evaluate", "--checkpoint", out_dir / "checkpoint.bemx", "--corpus", corpus, "--split", "val", "--out", out) == 0
        assert out.read_text() == (out_dir / "val_report.csv").read_text()

    def test_split_counts_differ(self, trained, capsys):
        corpus, out_dir = trained
        run("evaluate", "--checkpoint", out_dir / "checkpoint.bemx", "--corpus", corpus, "--split", "val")
        val_text = capsys.readouterr().out
        run("evaluate", "--checkpoint", out_dir / "checkpoint.bemx", "--corpus", corpus, "--split", "test")
        test_text = capsys.readouterr().out
        assert val_text.splitlines()[0] != test_text.splitlines()[0]

    def test_train_split_without_val_fraction_keeps_every_record(self, trained, tmp_path, capsys):
        corpus, _ = trained
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path / "cfg.txt", corpus, out_dir, max_epochs=1, val_fraction=0)
        assert run("train", "--config", cfg) == 0
        capsys.readouterr()
        assert run("evaluate", "--checkpoint", out_dir / "checkpoint.bemx", "--corpus", corpus, "--split", "train") == 0
        wavs = list((corpus / "TRAIN").rglob("*.WAV"))
        n_male = sum(w.parent.name.startswith("M") for w in wavs)
        assert capsys.readouterr().out.splitlines()[0] == f"records: {n_male} male / {len(wavs) - n_male} female"

    def test_8khz_audio_exit_2_names_file(self, trained, tmp_path, capsys):
        corpus, out_dir = trained
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        slow = {}
        for split in ("TRAIN", "TEST"):
            slow[split] = sorted((copy / split).rglob("*.WAV"))[0]
            write_wav(slow[split], read_audio(slow[split]).samples, 8000)
        ckpt = out_dir / "checkpoint.bemx"
        capsys.readouterr()
        assert run("evaluate", "--checkpoint", ckpt, "--corpus", copy, "--out", tmp_path / "e.csv") == 2
        assert str(slow["TEST"]) in capsys.readouterr().err
        assert run("analyze-phones", "--checkpoint", ckpt, "--corpus", copy, "--out", tmp_path / "p.csv") == 2
        assert str(slow["TEST"]) in capsys.readouterr().err
        cfg = write_config(tmp_path / "cfg.txt", copy, tmp_path / "run", max_epochs=1)
        assert run("train", "--config", cfg) == 2
        assert str(slow["TRAIN"]) in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.bemx").exists()

    def test_too_short_audio_exit_2_names_file(self, trained, tmp_path, capsys):
        corpus, _ = trained
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        short = sorted((copy / "TEST").rglob("*.WAV"))[0]
        write_wav(short, read_audio(short).samples[:500], 16000)
        cfg = tiny_config(feature_kind="fbank")
        ckpt = tmp_path / "fbank.bemx"
        net = SpeakerProfiler(cfg)
        save_checkpoint(ckpt, cfg, NormStats.fit(scan_corpus(corpus)), net.parameters())
        capsys.readouterr()
        assert run("evaluate", "--checkpoint", ckpt, "--corpus", copy, "--out", tmp_path / "e.csv") == 2
        err = capsys.readouterr().err
        assert str(short) in err and "cmvn needs at least 2 frames" in err

    def test_corrupt_checkpoint_config_exit_1(self, trained, tmp_path, capsys):
        corpus, _ = trained
        path = write_corrupt_config_checkpoint(tmp_path / "ck.bemx")
        capsys.readouterr()
        assert run("evaluate", "--checkpoint", path, "--corpus", corpus) == 1
        assert "model expects" in capsys.readouterr().err

    def test_checkpoint_without_positional_encoding_exit_1(self, trained, tmp_path, capsys):
        corpus, _ = trained
        path = write_corrupt_config_checkpoint(
            tmp_path / "ck.bemx", "head_hidden=4\n", "head_hidden=4\nuse_positional_encoding=false\n"
        )
        capsys.readouterr()
        assert run("evaluate", "--checkpoint", path, "--corpus", corpus) == 1
        assert "use_positional_encoding=false" in capsys.readouterr().err

    def test_missing_checkpoint_exit_2(self, trained, tmp_path):
        corpus, _ = trained
        assert run("evaluate", "--checkpoint", tmp_path / "nope.bemx", "--corpus", corpus) == 2

    def test_analyze_phones_writes_table(self, trained, tmp_path):
        corpus, out_dir = trained
        out = tmp_path / "imp.csv"
        code = run("analyze-phones", "--checkpoint", out_dir / "checkpoint.bemx", "--corpus", corpus, "--out", out)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == [
            "Vowels", "Nasals", "Semivowels", "Affricates", "Fricatives", "Stops", "Others",
        ]

    def test_analyze_phones_deterministic(self, trained, tmp_path):
        corpus, out_dir = trained
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("analyze-phones", "--checkpoint", out_dir / "checkpoint.bemx", "--corpus", corpus, "--out", a)
        run("analyze-phones", "--checkpoint", out_dir / "checkpoint.bemx", "--corpus", corpus, "--out", b)
        assert a.read_bytes() == b.read_bytes()
