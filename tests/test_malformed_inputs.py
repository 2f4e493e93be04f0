"""A mutated WAV, SPHERE or BEMX file either reads or raises ProfilerError.

Each example applies one to three byte mutations (overwrite, insert,
truncate) within the first 400 bytes of a valid file, which hold every
header field of the three formats. The examples are derandomized, so a
failure replays on every run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moe_profiler.audio import read_audio, write_wav
from moe_profiler.checkpoint import load_checkpoint, restore_model, save_checkpoint
from moe_profiler.errors import ProfilerError
from moe_profiler.metrics import NormStats
from moe_profiler.model import SpeakerProfiler

from .conftest import tiny_config
from .helpers import tone_wave, write_sphere

HEAD = 400

FUZZ = settings(derandomize=True, database=None, max_examples=300, deadline=None)

MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("overwrite"), st.integers(0, HEAD - 1), st.binary(min_size=1, max_size=4)),
        st.tuples(st.just("insert"), st.integers(0, HEAD - 1), st.binary(min_size=1, max_size=8)),
        st.tuples(st.just("truncate"), st.integers(0, HEAD - 1), st.just(b"")),
    ),
    min_size=1,
    max_size=3,
)


def mutate(data, mutations):
    raw = bytearray(data)
    for kind, at, new in mutations:
        at = min(at, len(raw))
        if kind == "overwrite":
            raw[at : at + len(new)] = new
        elif kind == "insert":
            raw[at:at] = new
        else:
            del raw[at:]
    return bytes(raw)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Bytes of one valid file per format, and a directory to write mutants to."""
    root = tmp_path_factory.mktemp("malformed")
    samples = tone_wave(300.0, seconds=0.05)
    write_wav(root / "ok.wav", samples, 16000)
    write_sphere(root / "ok.sph", samples)
    cfg = tiny_config()
    save_checkpoint(root / "ok.bemx", cfg, NormStats(41.5, 11.25, 171.25, 7.5), SpeakerProfiler(cfg).parameters())
    return root, {kind: (root / f"ok.{kind}").read_bytes() for kind in ("wav", "sph", "bemx")}


def read_mutant(valid, kind, mutations, read):
    root, originals = valid
    path = root / f"mutant.{kind}"
    path.write_bytes(mutate(originals[kind], mutations))
    try:
        read(path)
    except ProfilerError:
        pass


@FUZZ
@given(mutations=MUTATIONS)
def test_mutated_wav_reads_or_raises_profiler_error(valid, mutations):
    read_mutant(valid, "wav", mutations, read_audio)


@FUZZ
@given(mutations=MUTATIONS)
def test_mutated_sphere_reads_or_raises_profiler_error(valid, mutations):
    read_mutant(valid, "sph", mutations, read_audio)


@FUZZ
@given(mutations=MUTATIONS)
def test_mutated_checkpoint_reads_or_raises_profiler_error(valid, mutations):
    read_mutant(valid, "bemx", mutations, lambda path: restore_model(load_checkpoint(path)))
