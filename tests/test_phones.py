import numpy as np
import pytest

from moe_profiler.audio import Waveform
from moe_profiler.errors import FormatError
from moe_profiler.phones import (
    PhoneClass,
    TABLE_ORDER,
    mask_phone_class,
    parse_phn,
    phone_class_of,
)

from .helpers import tone_wave


class TestClassMapping:
    @pytest.mark.parametrize(
        "symbol,cls",
        [
            ("iy", PhoneClass.VOWELS),
            ("ax-h", PhoneClass.VOWELS),
            ("ch", PhoneClass.AFFRICATES),
            ("jh", PhoneClass.AFFRICATES),
            ("h#", PhoneClass.OTHERS),
            ("bcl", PhoneClass.OTHERS),
            ("dx", PhoneClass.STOPS),
            ("q", PhoneClass.STOPS),
            ("zh", PhoneClass.FRICATIVES),
            ("eng", PhoneClass.NASALS),
            ("hv", PhoneClass.SEMIVOWELS),
            ("el", PhoneClass.SEMIVOWELS),
        ],
    )
    def test_documented_mapping(self, symbol, cls):
        assert phone_class_of(symbol) is cls

    def test_unknown_symbol_goes_to_others(self, caplog):
        with caplog.at_level("WARNING"):
            assert phone_class_of("zzq") is PhoneClass.OTHERS
        assert "zzq" in caplog.text

    def test_every_symbol_has_exactly_one_class(self):
        from moe_profiler.phones import _CLASS_MEMBERS

        seen = {}
        for cls, syms in _CLASS_MEMBERS.items():
            for s in syms:
                assert s not in seen, f"{s} in both {seen.get(s)} and {cls}"
                seen[s] = cls

    def test_table_order(self):
        assert [c.value for c in TABLE_ORDER] == [
            "Vowels", "Nasals", "Semivowels", "Affricates", "Fricatives", "Stops", "Others",
        ]


class TestParsePhn:
    def test_two_segments(self, tmp_path):
        p = tmp_path / "a.PHN"
        p.write_text("0 1000 h#\n1000 2000 iy\n")
        t = parse_phn(p)
        assert t.segments == [(0, 1000, "h#"), (1000, 2000, "iy")]

    def test_out_of_order_sorted(self, tmp_path):
        p = tmp_path / "a.PHN"
        p.write_text("1000 2000 iy\n0 1000 h#\n")
        assert parse_phn(p).segments[0] == (0, 1000, "h#")

    def test_empty_segment_rejected_with_line(self, tmp_path):
        p = tmp_path / "a.PHN"
        p.write_text("0 1000 h#\n5 5 ax\n")
        with pytest.raises(FormatError, match=":2"):
            parse_phn(p)

    def test_overlap_rejected(self, tmp_path):
        p = tmp_path / "a.PHN"
        p.write_text("0 1000 h#\n900 2000 iy\n")
        with pytest.raises(FormatError, match="overlap"):
            parse_phn(p)


def make_transcription():
    from moe_profiler.phones import PhoneticTranscription

    return PhoneticTranscription(
        [(0, 100, "h#"), (100, 400, "iy"), (400, 500, "pau"), (500, 800, "s"), (800, 1000, "h#")]
    )


class TestMasking:
    def wave(self):
        return Waveform(tone_wave(200.0, seconds=1000 / 16000), 16000)

    def test_masked_regions_exactly_zero(self):
        w = self.wave()
        out = mask_phone_class(w, make_transcription(), PhoneClass.VOWELS)
        assert np.all(out.samples[100:400] == 0.0)

    def test_unmasked_samples_bit_identical(self):
        w = self.wave()
        before = w.samples.copy()
        out = mask_phone_class(w, make_transcription(), PhoneClass.VOWELS)
        assert out is not w and out.samples is not w.samples
        assert np.array_equal(w.samples, before)
        assert np.array_equal(out.samples[:100], w.samples[:100])
        assert np.array_equal(out.samples[400:], w.samples[400:])
        assert len(out.samples) == len(w.samples)

    def test_absent_class_is_identity(self):
        w = self.wave()
        out = mask_phone_class(w, make_transcription(), PhoneClass.NASALS)
        assert out is w
        assert np.array_equal(out.samples, w.samples)

    def test_class_already_exact_zero_returns_its_input(self):
        w = self.wave()
        for s, e in ((0, 100), (400, 500), (800, 1000)):
            w.samples[s:e] = 0.0
        assert mask_phone_class(w, make_transcription(), PhoneClass.OTHERS) is w

    def test_one_nonzero_sample_gives_a_masked_copy(self):
        w = self.wave()
        for s, e in ((0, 100), (400, 500), (800, 1000)):
            w.samples[s:e] = 0.0
        w.samples[450] = 0.25
        before = w.samples.copy()
        out = mask_phone_class(w, make_transcription(), PhoneClass.OTHERS)
        assert out is not w and out.samples is not w.samples
        assert np.all(out.samples[400:500] == 0.0)
        assert np.array_equal(w.samples, before)

    def test_masked_fraction_matches_counting_oracle(self, rng):
        w = self.wave()
        t = make_transcription()
        for cls in TABLE_ORDER:
            out = mask_phone_class(w, t, cls)
            forced_zero = class_sample_count(t, cls, len(w.samples))
            # count samples that changed; tone is nonzero except first sample
            changed = int(np.sum((out.samples == 0.0) & (w.samples != 0.0)))
            expected = int(np.sum(w.samples[_class_slice_mask(t, cls, len(w.samples))] != 0.0))
            assert changed == expected
            assert forced_zero == _class_slice_mask(t, cls, len(w.samples)).sum()

    def test_out_of_bounds_clipped(self, caplog):
        from moe_profiler.phones import PhoneticTranscription

        w = self.wave()
        t = PhoneticTranscription([(900, 5000, "iy")])
        with caplog.at_level("WARNING"):
            out = mask_phone_class(w, t, PhoneClass.VOWELS)
        assert np.all(out.samples[900:] == 0.0)
        assert "clipping" in caplog.text


def class_sample_count(t, cls, n_samples):
    """Total samples covered by segments of the class, clipped to the waveform."""
    total = 0
    for start, end, sym in t.segments:
        if phone_class_of(sym) is cls:
            total += max(0, min(end, n_samples) - min(start, n_samples))
    return total


def _class_slice_mask(t, cls, n):
    m = np.zeros(n, dtype=bool)
    for s, e, sym in t.segments:
        if phone_class_of(sym) is cls:
            m[min(s, n) : min(e, n)] = True
    return m
