"""Command-line interface: train, evaluate, analyze-phones, features, synth.

Each run value has one place to set it: train reads every setting, its seed
included, from the config file, and each --override key=value wins over the
file's entry for that key; synth takes its corpus seed from --seed (default 0).

Exit codes: 0 success, 1 configuration error, 2 data, format, shape, length
or contract error or an unreadable file, 3 numeric abort. Verbosity comes
from MOE_PROFILER_LOG (error|info|debug).
"""

import argparse
import logging
import os
import sys
from pathlib import Path

from .config import config_from_items, parse_config_text
from .corpus import scan_corpus, split_train_val
from .errors import ConfigError, DataError, NumericError, ProfilerError
from . import evaluation
from .synth import synth_corpus

log = logging.getLogger("moe_profiler")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

# exit code per error kind; every other ProfilerError or OSError exits 2
EXIT_CODES = {ConfigError: 1, NumericError: 3}


def _setup_logging():
    level_name = os.environ.get("MOE_PROFILER_LOG", "info").lower()
    level = _LOG_LEVELS.get(level_name, logging.INFO)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("moe_profiler").setLevel(level)


def _load_run_config(path, overrides):
    items = parse_config_text(Path(path).read_text())
    overridden = set()
    for ov in overrides or []:
        if "=" not in ov:
            raise ConfigError(f"--override expects key=value, got '{ov}'")
        key, _, value = ov.partition("=")
        key = key.strip()
        if key in overridden:
            raise ConfigError(f"--override sets config key '{key}' twice")
        overridden.add(key)
        items[key] = value.strip()
    corpus_root = items.pop("corpus_root", None)
    out_dir = items.pop("out_dir", None)
    cfg = config_from_items(items)
    if corpus_root is None:
        raise ConfigError("config is missing corpus_root")
    if out_dir is None:
        raise ConfigError("config is missing out_dir")
    return cfg, Path(corpus_root), Path(out_dir)


def _records_for_split(records, split, cfg):
    """The records of one split, with train/val rebuilt as the checkpoint's run split them."""
    if split == "test":
        chosen = [r for r in records if r.split == "test"]
    else:
        train, val = split_train_val(records, cfg.seed, cfg.val_fraction)
        chosen = val if split == "val" else train
    if not chosen:
        raise DataError(f"no records in split '{split}'")
    return chosen


def cmd_train(args):
    from .training import train

    cfg, corpus_root, out_dir = _load_run_config(args.config, args.override)
    records = scan_corpus(corpus_root)
    if not records:
        raise DataError(f"no usable records under {corpus_root}")
    for key, value in sorted(vars(cfg).items()):
        log.info("config %s=%s", key, value)
    result = train(cfg, records, out_dir=out_dir)
    log.info("best epoch: %d", result.best_epoch)
    if result.val_report is not None:
        print(result.val_report.to_text(), end="")
    return 0


def _run_on_checkpoint(args, split, analyze, default_name):
    """Run analyze(net, norm, records) on one split of --corpus with the --checkpoint model.

    Prints the result and writes its CSV to --out, by default to
    default_name beside the checkpoint.
    """
    from .checkpoint import load_checkpoint, restore_model

    ck = load_checkpoint(args.checkpoint)
    net = restore_model(ck)
    result = analyze(net, ck.norm, _records_for_split(scan_corpus(args.corpus), split, ck.cfg))
    print(result.to_text(), end="")
    out = Path(args.out) if args.out else Path(args.checkpoint).parent / default_name
    out.write_text(result.to_csv())
    log.info("wrote %s", out)
    return 0


def cmd_evaluate(args):
    return _run_on_checkpoint(args, args.split, evaluation.evaluate, f"eval_{args.split}.csv")


def cmd_analyze_phones(args):
    return _run_on_checkpoint(args, "test", evaluation.phoneme_importance, "phone_importance.csv")


def cmd_features(args):
    from .audio import read_audio
    from .dsp import fbank, mfcc

    wave = read_audio(args.input)
    feats = fbank(wave) if args.kind == "fbank" else mfcc(wave)
    t, d = feats.shape
    with open(args.out, "w") as f:
        f.write(f"{t},{d}\n")
        for row in feats:
            f.write(",".join(format(v, ".8g") for v in row) + "\n")
    log.info("wrote %d x %d %s features to %s", t, d, args.kind, args.out)
    return 0


def cmd_synth(args):
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise ConfigError(f"{out} exists and is not empty (use --force to overwrite)")
    synth_corpus(out, args.seed, args.speakers, args.utts)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="moe-profiler", description="Speaker age/height/gender profiler")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model from a config file")
    t.add_argument("--config", required=True)
    t.add_argument("--override", action="append", metavar="KEY=VALUE")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("evaluate", help="evaluate a checkpoint on a corpus split")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--corpus", required=True)
    e.add_argument("--split", choices=("train", "val", "test"), default="test")
    e.add_argument("--out", default=None)
    e.set_defaults(fn=cmd_evaluate)

    a = sub.add_parser("analyze-phones", help="phone-class masking analysis on the test split")
    a.add_argument("--checkpoint", required=True)
    a.add_argument("--corpus", required=True)
    a.add_argument("--out", default=None)
    a.set_defaults(fn=cmd_analyze_phones)

    f = sub.add_parser("features", help="dump fbank/mfcc features as CSV")
    f.add_argument("--input", required=True)
    f.add_argument("--kind", choices=("fbank", "mfcc"), required=True)
    f.add_argument("--out", required=True)
    f.set_defaults(fn=cmd_features)

    s = sub.add_parser("synth", help="generate a synthetic TIMIT-layout corpus")
    s.add_argument("--out", required=True)
    s.add_argument("--speakers", type=int, required=True)
    s.add_argument("--utts", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--force", action="store_true")
    s.set_defaults(fn=cmd_synth)

    return p


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ProfilerError, OSError) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kind, code in EXIT_CODES.items() if isinstance(exc, kind)), 2)


if __name__ == "__main__":
    sys.exit(main())
