import struct
import wave

import numpy as np
import pytest

from moe_profiler.audio import Waveform, read_audio, write_wav
from moe_profiler.errors import FormatError

from .helpers import tone_wave, write_sphere


def test_one_second_wav_has_16000_samples(tmp_path):
    path = tmp_path / "t.wav"
    write_wav(path, tone_wave(440.0, seconds=1.0), 16000)
    w = read_audio(path)
    assert len(w) == 16000
    assert w.sample_rate == 16000


def test_int16_scaling(tmp_path):
    path = tmp_path / "half.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(struct.pack("<4h", 16384, -16384, 0, 32767))
    w = read_audio(path)
    assert w.samples[0] == 0.5
    assert w.samples[1] == -0.5
    assert w.samples[2] == 0.0


def test_truncated_wav_rejected(tmp_path):
    path = tmp_path / "t.wav"
    write_wav(path, tone_wave(440.0, seconds=0.5), 16000)
    data = path.read_bytes()
    (tmp_path / "cut.wav").write_bytes(data[: len(data) // 2])
    with pytest.raises(FormatError):
        read_audio(tmp_path / "cut.wav")


def test_stereo_rejected(tmp_path):
    path = tmp_path / "st.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(b"\x00\x00" * 64)
    with pytest.raises(FormatError, match="channel"):
        read_audio(path)


def test_unknown_header_mentions_bytes(tmp_path):
    path = tmp_path / "x.wav"
    path.write_bytes(b"OggS" + b"\x00" * 64)
    with pytest.raises(FormatError, match="OggS"):
        read_audio(path)


def test_sphere_roundtrip(tmp_path):
    ref = tone_wave(200.0, seconds=0.25)
    for fmt in ("01", "10"):
        path = tmp_path / f"s{fmt}.wav"
        write_sphere(path, ref, byte_format=fmt)
        w = read_audio(path)
        assert w.sample_rate == 16000
        assert np.allclose(w.samples, ref, atol=1.0 / 32768)


@pytest.mark.parametrize(
    "old,new,field",
    [
        (b"sample_count -i", b"sample_tally -i", "sample_count"),
        (b"sample_rate -i", b"sample_rats -i", "sample_rate"),
        (b"sample_rate -i 16000", b"sample_rate -i 16kHz", "sample_rate"),
    ],
    ids=["no_sample_count", "no_sample_rate", "non_integer_rate"],
)
def test_sphere_bad_header_field_names_path_and_field(tmp_path, old, new, field):
    path = tmp_path / "bad.wav"
    write_sphere(path, tone_wave(200.0, 0.1))
    path.write_bytes(path.read_bytes().replace(old, new, 1))
    with pytest.raises(FormatError, match=f"header .*{field}") as info:
        read_audio(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "size,match",
    [(b"     16", "end_head"), (b"    150", "end_head"), (b"    -16", "header size"), (b"  99999", "header size")],
    ids=["inside_header_text", "cuts_end_head", "negative", "past_end_of_file"],
)
def test_sphere_header_size_line_checked(tmp_path, size, match):
    path = tmp_path / "bad.wav"
    write_sphere(path, tone_wave(200.0, 0.1))
    path.write_bytes(path.read_bytes().replace(b"   1024", size, 1))
    with pytest.raises(FormatError, match=match) as info:
        read_audio(path)
    assert str(path) in str(info.value)


def test_wav_chunk_size_past_riff_end_rejected(tmp_path):
    path = tmp_path / "t.wav"
    write_wav(path, tone_wave(440.0, seconds=0.1), 16000)
    raw = bytearray(path.read_bytes())
    raw[16:20] = struct.pack("<I", 0x7FFFFFF0)  # the fmt chunk's size
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="not a readable WAV") as info:
        read_audio(path)
    assert str(path) in str(info.value)


def test_sphere_ulaw_rejected(tmp_path):
    path = tmp_path / "u.wav"
    write_sphere(path, tone_wave(200.0, 0.1), coding="ulaw")
    with pytest.raises(FormatError, match="NIST"):
        read_audio(path)


def test_waveform_validation():
    with pytest.raises(FormatError):
        Waveform(np.array([]), 16000)
    with pytest.raises(FormatError):
        Waveform(np.zeros(10), 0)


def test_write_read_roundtrip(tmp_path):
    ref = tone_wave(333.0, seconds=0.3, amp=0.7)
    path = tmp_path / "rt.wav"
    write_wav(path, ref, 16000)
    w = read_audio(path)
    assert np.abs(w.samples - ref).max() <= 0.5 / 32768
