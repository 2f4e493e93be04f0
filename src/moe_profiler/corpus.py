"""TIMIT-layout corpus scanning, speaker metadata and splits.

Expected tree: root/{TRAIN,TEST}/DR?/<speaker>/<utt>.WAV with sibling .PHN
files, plus a SPKRINFO-style table at the root (or under DOC/). Speaker
directories are named <sex><id> with sex M or F.
"""

import logging
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError

log = logging.getLogger("moe_profiler.corpus")

HEIGHT_RE = re.compile(r"^(\d+)'(\d+(?:\.\d+)?)\"$")
DATE_RE = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{2,4})$")

HEIGHT_BAND_CM = (100.0, 250.0)
AGE_BAND_YEARS = (10, 110)

SPKRINFO_LOCATIONS = ("SPKRINFO.TXT", "spkrinfo.txt", "DOC/SPKRINFO.TXT", "doc/spkrinfo.txt")


@dataclass
class SpeakerRecord:
    """One utterance with its speaker labels."""

    speaker_id: str
    utterance_path: Path
    phn_path: Path
    gender: int  # 0 male, 1 female
    age_years: int
    height_cm: float
    split: str  # train | val | test


def parse_height(text) -> float:
    """TIMIT height notation feet'inches\" to centimeters."""
    m = HEIGHT_RE.match(text.strip())
    if not m:
        raise ValueError(f"unparseable height '{text}'")
    feet, inches = int(m.group(1)), float(m.group(2))
    return (feet * 12 + inches) * 2.54


def _parse_date(text):
    m = DATE_RE.match(text.strip())
    if not m:
        raise ValueError(f"unparseable date '{text}'")
    month, day, year = int(m.group(1)), int(m.group(2)), int(m.group(3))
    if year < 100:
        year += 1900
    return year, month, day


def age_at(birth_date, rec_date) -> int:
    """Floor of elapsed years between two (y, m, d) tuples."""
    by, bm, bd = birth_date
    ry, rm, rd = rec_date
    years = ry - by
    if (rm, rd) < (bm, bd):
        years -= 1
    return years


def parse_speaker_info(table_file) -> dict:
    """Parse a SPKRINFO-style table into {speaker_dir_name: (gender, age, height_cm)}.

    Rows are whitespace-separated: ID SEX DR USE RECDATE BIRTHDATE HT ...;
    lines starting with ';' are comments. Unparseable rows are skipped with
    a warning.
    """
    table = {}
    with open(table_file, "r") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith(";"):
                continue
            parts = line.split()
            if len(parts) < 7:
                log.warning("%s:%d: short speaker row skipped: '%s'", table_file, lineno, line)
                continue
            spk_id, sex = parts[0].upper(), parts[1].upper()
            if sex not in ("M", "F"):
                log.warning("%s:%d: unknown sex '%s'; row skipped", table_file, lineno, parts[1])
                continue
            try:
                rec = _parse_date(parts[4])
                birth = _parse_date(parts[5])
                height_cm = parse_height(parts[6])
            except ValueError as exc:
                log.warning("%s:%d: %s; row skipped", table_file, lineno, exc)
                continue
            table[sex + spk_id] = (0 if sex == "M" else 1, age_at(birth, rec), height_cm)
    return table


def _find_speaker_table(root: Path):
    for rel in SPKRINFO_LOCATIONS:
        p = root / rel
        if p.is_file():
            return p
    return None


def _find_phn(audio_path: Path):
    for suffix in (".PHN", ".phn"):
        p = audio_path.with_suffix(suffix)
        if p.is_file():
            return p
    return None


def scan_corpus(root_dir) -> list:
    """One SpeakerRecord per audio file with a sibling .PHN under TRAIN/TEST.

    Gender comes from the speaker directory prefix; age and height from the
    speaker table. Records without usable metadata are skipped with a
    warning. An empty root yields an empty list.
    """
    root = Path(root_dir)
    split_dirs = []
    for child in sorted(root.iterdir()) if root.is_dir() else []:
        if child.is_dir() and child.name.upper() in ("TRAIN", "TEST"):
            split_dirs.append((child, "train" if child.name.upper() == "TRAIN" else "test"))
    if not split_dirs:
        return []

    table_path = _find_speaker_table(root)
    if table_path is None:
        raise DataError(f"no speaker table found under {root} (looked for {', '.join(SPKRINFO_LOCATIONS)})")
    table = parse_speaker_info(table_path)

    records = []
    for split_dir, split in split_dirs:
        audio_files = sorted(p for p in split_dir.rglob("*") if p.is_file() and p.suffix.lower() == ".wav")
        for audio in audio_files:
            speaker_dir = audio.parent.name.upper()
            if not speaker_dir or speaker_dir[0] not in ("M", "F"):
                log.warning("%s: speaker directory '%s' has no M/F prefix; skipped", audio, audio.parent.name)
                continue
            phn = _find_phn(audio)
            if phn is None:
                log.warning("%s: no sibling .PHN transcription; skipped", audio)
                continue
            meta = table.get(speaker_dir)
            if meta is None:
                log.warning("%s: speaker '%s' missing from speaker table; skipped", audio, speaker_dir)
                continue
            gender, age, height = meta
            if not (AGE_BAND_YEARS[0] <= age <= AGE_BAND_YEARS[1]) or not (
                HEIGHT_BAND_CM[0] <= height <= HEIGHT_BAND_CM[1]
            ):
                log.warning("%s: labels out of sanity band (age %s, height %.1f); skipped", audio, age, height)
                continue
            records.append(
                SpeakerRecord(
                    speaker_id=speaker_dir,
                    utterance_path=audio,
                    phn_path=phn,
                    gender=gender,
                    age_years=age,
                    height_cm=height,
                    split=split,
                )
            )
    return records


def split_train_val(records, seed, fraction) -> tuple:
    """Move floor(fraction * n) of the n 'train' records into a validation split, seeded; drop other splits."""
    records = [r for r in records if r.split == "train"]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(records))
    n_val = int(len(records) * fraction)
    val_idx = set(order[:n_val].tolist())
    train, val = [], []
    for i, r in enumerate(records):
        if i in val_idx:
            val.append(replace(r, split="val"))
        else:
            train.append(r)
    return train, val

