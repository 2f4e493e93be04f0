import numpy as np
import pytest

from moe_profiler.config import TrainConfig
from moe_profiler.corpus import scan_corpus
from moe_profiler.synth import synth_corpus


def tiny_config(**overrides):
    """Small-but-real model config used across the training tests."""
    base = dict(
        feature_kind="conv",
        mode="bi_encoder",
        lr=1e-3,
        max_epochs=3,
        batch_size=4,
        seed=7,
        mixup_enabled=False,
        model_dim=8,
        num_layers=1,
        num_heads=2,
        ff_dim=16,
        dropout_p=0.0,
        expert_dim=8,
        head_hidden=4,
        conv_channels=8,
        patience=1000,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="session")
def corpus4(tmp_path_factory):
    """2 speakers x 2 utterances, all in TRAIN."""
    root = tmp_path_factory.mktemp("synth4")
    synth_corpus(root, seed=3, n_speakers=2, utt_per_speaker=2)
    return root


@pytest.fixture(scope="session")
def corpus4_records(corpus4):
    return scan_corpus(corpus4)


@pytest.fixture(scope="session")
def corpus16(tmp_path_factory):
    """16 speakers x 1 utterance with a TEST split."""
    root = tmp_path_factory.mktemp("synth16")
    synth_corpus(root, seed=5, n_speakers=16, utt_per_speaker=1)
    return root


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# one (number, title, status) entry per acceptance criterion, printed at the end
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, title, status in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"[{status}] criterion {num:2d}: {title}")
