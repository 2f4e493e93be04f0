"""TIMIT phone symbols, their classes, .PHN parsing and phone-class masking."""

import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .audio import Waveform
from .errors import FormatError

log = logging.getLogger("moe_profiler.phones")


class PhoneClass(Enum):
    STOPS = "Stops"
    AFFRICATES = "Affricates"
    FRICATIVES = "Fricatives"
    NASALS = "Nasals"
    SEMIVOWELS = "Semivowels"
    VOWELS = "Vowels"
    OTHERS = "Others"


# row order used by the masking-importance table
TABLE_ORDER = (
    PhoneClass.VOWELS,
    PhoneClass.NASALS,
    PhoneClass.SEMIVOWELS,
    PhoneClass.AFFRICATES,
    PhoneClass.FRICATIVES,
    PhoneClass.STOPS,
    PhoneClass.OTHERS,
)

_CLASS_MEMBERS = {
    PhoneClass.STOPS: ("b", "d", "g", "p", "t", "k", "dx", "q"),
    PhoneClass.AFFRICATES: ("jh", "ch"),
    PhoneClass.FRICATIVES: ("s", "sh", "z", "zh", "f", "th", "v", "dh"),
    PhoneClass.NASALS: ("m", "n", "ng", "em", "en", "eng", "nx"),
    PhoneClass.SEMIVOWELS: ("l", "r", "w", "y", "hh", "hv", "el"),
    PhoneClass.VOWELS: (
        "iy", "ih", "eh", "ey", "ae", "aa", "aw", "ay", "ah", "ao",
        "oy", "ow", "uh", "uw", "ux", "er", "ax", "ix", "axr", "ax-h",
    ),
    # stop closures live here: the class lists are given without them and the
    # silence-like symbols pattern together
    PhoneClass.OTHERS: ("pau", "epi", "h#", "bcl", "dcl", "gcl", "pcl", "tcl", "kcl"),
}

PHONE_TO_CLASS = {sym: cls for cls, syms in _CLASS_MEMBERS.items() for sym in syms}


def phone_class_of(symbol: str) -> PhoneClass:
    """Class of a TIMIT phone symbol; unknown symbols fall into Others."""
    cls = PHONE_TO_CLASS.get(symbol.lower())
    if cls is None:
        log.warning("unknown phone symbol '%s' classified as Others", symbol)
        return PhoneClass.OTHERS
    return cls


@dataclass
class PhoneticTranscription:
    """Sorted, non-overlapping (start_sample, end_sample, symbol) segments, as parse_phn checks them.

    classes holds each segment's PhoneClass.
    """

    segments: list
    classes: list = field(init=False)

    def __post_init__(self):
        self.classes = [phone_class_of(sym) for _, _, sym in self.segments]


def parse_phn(path) -> PhoneticTranscription:
    """Parse a .PHN file: lines of 'start end symbol' in sample indices."""
    path = Path(path)
    raw = []
    with open(path, "r") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 'start end symbol', got '{line}'")
            try:
                start, end = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: non-integer sample index in '{line}'") from exc
            if start < 0 or end <= start:
                raise FormatError(f"{path}:{lineno}: empty or negative segment [{start}, {end})")
            raw.append((start, end, parts[2], lineno))
    raw.sort(key=lambda seg: seg[0])
    for (_, e0, _, _), (s1, _, _, l1) in zip(raw, raw[1:]):
        if s1 < e0:
            raise FormatError(f"{path}:{l1}: segment overlaps its predecessor")
    return PhoneticTranscription([(s, e, sym) for s, e, sym, _ in raw])


def mask_phone_class(w: Waveform, t: PhoneticTranscription, cls: PhoneClass) -> Waveform:
    """Zero every sample inside segments of the given class; others untouched.

    Segments are clipped to the waveform, with a warning for any that exceeds
    it. When the clipped segments hold no nonzero sample (the class is absent,
    or its audio is already exact zero), the mask changes nothing and w itself
    is returned; otherwise a masked copy.
    """
    n = len(w.samples)
    spans = []
    for (start, end, _), seg_cls in zip(t.segments, t.classes):
        if seg_cls is not cls:
            continue
        if end > n or start >= n:
            log.warning("segment [%d, %d) exceeds waveform length %d; clipping", start, end, n)
        spans.append((min(start, n), min(end, n)))
    if not any(w.samples[s:e].any() for s, e in spans):
        return w
    out = w.samples.copy()
    for s, e in spans:
        out[s:e] = 0.0
    return Waveform(out, w.sample_rate)
