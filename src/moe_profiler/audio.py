"""Audio file reading (16-bit PCM WAV and NIST SPHERE) and WAV writing."""

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError

INT16_SCALE = 32768.0
# wav2vec 2.0's input rate: the conv frontend and the model's fbank/mfcc framing are sized for it
SAMPLE_RATE = 16000


@dataclass
class Waveform:
    """Mono audio: float samples in [-1, 1] plus the sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise FormatError("waveform must be a non-empty 1-D sample array")
        if self.sample_rate <= 0:
            raise FormatError(f"sample rate must be positive, got {self.sample_rate}")

    def __len__(self):
        return self.samples.size


def read_audio(path) -> Waveform:
    """Read a mono 16-bit PCM file; dispatches on the RIFF/NIST header."""
    path = Path(path)
    with open(path, "rb") as f:
        head = f.read(4)
    if head == b"RIFF":
        return _read_wav(path)
    if head == b"NIST":
        return _read_sphere(path)
    raise FormatError(f"unsupported audio header {head!r} in {path}")


def _read_wav(path) -> Waveform:
    try:
        with wave.open(str(path), "rb") as wf:
            nch = wf.getnchannels()
            if nch != 1:
                raise FormatError(f"{path}: expected mono audio, got {nch} channels")
            if wf.getsampwidth() != 2:
                raise FormatError(f"{path}: expected 16-bit PCM, got {8 * wf.getsampwidth()}-bit")
            if wf.getcomptype() not in ("NONE",):
                raise FormatError(f"{path}: unsupported WAV compression {wf.getcomptype()!r}")
            n = wf.getnframes()
            rate = wf.getframerate()
            # a corrupt data chunk size must not ask for more bytes than the file holds
            raw = wf.readframes(min(n, path.stat().st_size // 2))
    # wave raises a bare RuntimeError when a corrupt chunk size points past the RIFF chunk
    except (wave.Error, EOFError, RuntimeError) as exc:
        raise FormatError(f"{path}: not a readable WAV file ({exc!r})") from exc
    if len(raw) != 2 * n:
        raise FormatError(f"{path}: truncated WAV data ({len(raw)} bytes for {n} frames)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / INT16_SCALE
    return Waveform(samples, rate)


def _read_sphere(path) -> Waveform:
    with open(path, "rb") as f:
        file_size = path.stat().st_size
        header = f.read(1024)
        lines = header.split(b"\n")
        if len(lines) < 2 or lines[0].strip() != b"NIST_1A":
            raise FormatError(f"{path}: bad NIST header {header[:16]!r}")
        try:
            header_size = int(lines[1].strip())
        except ValueError as exc:
            raise FormatError(f"{path}: bad NIST header size line {lines[1]!r}") from exc
        if not 0 <= header_size <= file_size:
            raise FormatError(f"{path}: NIST header size {header_size} outside the {file_size}-byte file")
        if header_size > 1024:
            f.seek(0)
            header = f.read(header_size)

        # the header text, end_head included, lies inside the first header_size bytes
        fields = {}
        for line in header[:header_size].decode("ascii", errors="replace").split("\n")[2:]:
            line = line.strip()
            if line == "end_head":
                break
            parts = line.split(None, 2)
            if len(parts) == 3:
                fields[parts[0]] = parts[2]
        else:
            raise FormatError(f"{path}: NIST header has no end_head line within its {header_size}-byte size")

        nch = _header_int(path, fields, "channel_count", "1")
        if nch != 1:
            raise FormatError(f"{path}: expected mono audio, got {nch} channels")
        sample_bytes = _header_int(path, fields, "sample_n_bytes", "2")
        coding = fields.get("sample_coding", "pcm")
        if sample_bytes != 2 or not coding.startswith("pcm"):
            raise FormatError(f"{path}: unsupported SPHERE encoding (header {header[:32]!r})")
        rate = _header_int(path, fields, "sample_rate")
        count = _header_int(path, fields, "sample_count")
        byte_fmt = fields.get("sample_byte_format", "01")
        dtype = ">i2" if byte_fmt == "10" else "<i2"
        if not 0 <= 2 * count <= file_size - header_size:
            raise FormatError(
                f"{path}: truncated SPHERE data ({file_size - header_size} bytes for {count} samples)"
            )

        f.seek(header_size)
        raw = f.read(2 * count)
    samples = np.frombuffer(raw, dtype=dtype).astype(np.float64) / INT16_SCALE
    return Waveform(samples, rate)


def _header_int(path, fields, key, default=None):
    try:
        return int(fields.get(key, default))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: SPHERE header field {key} is missing or not an integer") from exc


def write_wav(path, samples, sample_rate):
    """Write float samples as mono 16-bit PCM (scale 32768, clipped)."""
    samples = np.asarray(samples, dtype=np.float64)
    pcm = np.clip(np.rint(samples * INT16_SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(int(sample_rate))
        wf.writeframes(pcm.tobytes())
