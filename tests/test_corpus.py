import dataclasses

import numpy as np
import pytest

from moe_profiler.audio import write_wav
from moe_profiler.corpus import (
    SpeakerRecord,
    age_at,
    parse_height,
    parse_speaker_info,
    scan_corpus,
    split_train_val,
)
from moe_profiler.errors import DataError

from .helpers import tone_wave


class TestSpeakerInfo:
    def test_height_5ft10(self):
        assert abs(parse_height("5'10\"") - 177.8) < 1e-9

    def test_height_fractional_inches(self):
        assert abs(parse_height("6'0.5\"") - (72.5 * 2.54)) < 1e-9

    def test_age_exact_anniversary(self):
        assert age_at((1960, 3, 4), (1986, 3, 4)) == 26

    def test_age_floor(self):
        assert age_at((1960, 6, 15), (1986, 1, 1)) == 25

    def test_table_parse(self, tmp_path):
        table = tmp_path / "SPKRINFO.TXT"
        table.write_text(
            "; comment line\n"
            "ABC0  M   6  TRN  03/04/86  03/04/60   5'11\"  WHT  BS\n"
            "DEF0  F   2  TST  01/01/86  06/15/60   5'4\"   BLK  MS\n"
            "BAD0  F   2  TST  01/01/86  06/15/60   ??     BLK  MS\n"
        )
        info = parse_speaker_info(table)
        assert info["MABC0"] == (0, 26, pytest.approx(71 * 2.54))
        assert info["FDEF0"] == (1, 25, pytest.approx(64 * 2.54))
        assert "FBAD0" not in info  # unparseable height skipped with warning


def make_tree(root, speakers=(("MAAA0", 0), ("FBBB0", 1)), utts=2, with_phn=True):
    table_rows = []
    for spk, gender in speakers:
        d = root / "TRAIN" / "DR1" / spk
        d.mkdir(parents=True)
        for u in range(utts):
            write_wav(d / f"SX{u}.WAV", tone_wave(150.0 + 50 * gender, 0.1), 16000)
            if with_phn:
                (d / f"SX{u}.PHN").write_text("0 800 h#\n800 1600 iy\n")
        table_rows.append(f"{spk[1:]} {spk[0]} 1 TRN 03/01/86 03/01/56 5'9\" ??? ??")
    (root / "SPKRINFO.TXT").write_text("\n".join(table_rows) + "\n")
    return root


class TestScan:
    def test_empty_root_gives_empty_list(self, tmp_path):
        assert scan_corpus(tmp_path) == []

    def test_mini_tree_two_by_two(self, tmp_path):
        records = scan_corpus(make_tree(tmp_path))
        assert len(records) == 4
        assert all(r.split == "train" for r in records)

    def test_gender_from_directory_prefix(self, tmp_path):
        records = scan_corpus(make_tree(tmp_path))
        by_spk = {r.speaker_id: r.gender for r in records}
        assert by_spk == {"MAAA0": 0, "FBBB0": 1}

    def test_missing_phn_skipped(self, tmp_path):
        records = scan_corpus(make_tree(tmp_path, with_phn=False))
        assert records == []

    def test_missing_table_entry_skipped(self, tmp_path):
        root = make_tree(tmp_path)
        (root / "SPKRINFO.TXT").write_text("AAA0 M 1 TRN 03/01/86 03/01/56 5'9\" ??? ??\n")
        records = scan_corpus(root)
        assert {r.speaker_id for r in records} == {"MAAA0"}

    def test_tree_without_table_errors(self, tmp_path):
        root = make_tree(tmp_path)
        (root / "SPKRINFO.TXT").unlink()
        with pytest.raises(DataError, match="SPKRINFO"):
            scan_corpus(root)


def fake_records(n):
    return [
        SpeakerRecord(f"M{i:03d}0", f"/x/{i}.wav", f"/x/{i}.phn", i % 2, 30, 170.0, "train")
        for i in range(n)
    ]


class TestSplit:
    def test_100_gives_85_15(self):
        train, val = split_train_val(fake_records(100), seed=0, fraction=0.15)
        assert (len(train), len(val)) == (85, 15)
        assert all(r.split == "val" for r in val)

    def test_7_gives_6_1(self):
        train, val = split_train_val(fake_records(7), seed=0, fraction=0.15)
        assert (len(train), len(val)) == (6, 1)

    def test_deterministic(self):
        a = split_train_val(fake_records(40), seed=9, fraction=0.15)
        b = split_train_val(fake_records(40), seed=9, fraction=0.15)
        assert [r.utterance_path for r in a[1]] == [r.utterance_path for r in b[1]]

    def test_other_splits_left_out(self):
        records = fake_records(10)
        records[3:6] = [dataclasses.replace(r, split="test") for r in records[3:6]]
        train, val = split_train_val(records, seed=0, fraction=0.15)
        assert (len(train), len(val)) == (6, 1)
        assert {r.utterance_path for r in train + val} == {r.utterance_path for r in records[:3] + records[6:]}

    def test_different_seeds_differ(self):
        a = split_train_val(fake_records(40), seed=1, fraction=0.15)[1]
        b = split_train_val(fake_records(40), seed=2, fraction=0.15)[1]
        assert [r.utterance_path for r in a] != [r.utterance_path for r in b]

