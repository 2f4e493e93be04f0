"""Run paired parent/change benchmark runs of two git revisions into one BENCH JSON.

    python tools/pairs.py PARENT CHANGE --seeds 190-199 --out BENCH_name.json \\
        [--traced-seed 3] [--what TEXT] [--work DIR]

Exports each revision with `git archive` into a fresh directory under --work
(default: the system temp directory; it must lie outside the repository) and
runs the benchmark there, one run at a time. For every seed it runs the
workloads in turn; each (workload, seed) pair runs both sides back to back.
The side that goes first alternates from seed to seed within each workload,
and from workload to workload within each seed. With --traced-seed it then
runs one traced pair per workload, parent first.

The command, the workloads, the run length and each end-to-end metric's
direction and bound come from BENCHMARK.json in the change's tree. The
output holds every run's result line and set-up samples, and per workload
and metric the quartiles of each side, the count of pairs the change won,
the parent's spread and a verdict against the bound. It is rewritten after
every run, so an interrupted run leaves a valid file of the pairs done.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
GAIN_SHARE = 0.9  # a gain needs the change to win this share of the pairs


def parse_seeds(text):
    """'190-199' or '1,2,5' -> a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def git(*args):
    return subprocess.run(["git", "-C", str(REPO), *args], check=True, capture_output=True).stdout


def export(rev, dest):
    """Extract the committed tree of rev into dest; returns its short hash."""
    commit = git("rev-parse", "--short", f"{rev}^{{commit}}").decode().strip()
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        # extraction filters exist from Python 3.10.12 and 3.11.4 on
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return commit


def build_plan(workloads, seeds, traced_seed=None):
    """[(workload, seed, trace, sides in run order)]: per seed every workload, first side alternating."""
    plan = [(w, seed, 0, SIDES if (i + j) % 2 == 0 else SIDES[::-1])
            for i, seed in enumerate(seeds) for j, w in enumerate(workloads)]
    if traced_seed is not None:
        plan += [(w, traced_seed, 1, SIDES) for w in workloads]
    return plan


def run_one(tree, bench, workload, seed, trace):
    """One benchmark run in tree; returns its record, result line and set-up samples included."""
    seconds = bench["run_seconds"]
    args = ["--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    cmd = [*bench["command"], *args]
    t0 = time.perf_counter()
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
    setup_samples = None
    stamp = tree / "perfbench" / ".out" / f"{workload}-seed{seed}-trace{trace}.json"
    if result is not None and not trace and stamp.is_file():
        setup_samples = json.loads(stamp.read_text())["figures"].get("setup_samples_s")
    return {"workload": workload, "seed": seed, "trace": trace, "command": " ".join(cmd),
            "returncode": p.returncode, "wall_s": wall, "result": result,
            "setup_samples_s": setup_samples, "stderr_tail": p.stderr[-500:]}


def quartiles(values):
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


def failed(run):
    return run["result"] is None or run["result"]["failed"] > 0


def compare(parent, change, better, bound):
    """Pair statistics of one metric: each side's quartiles, wins, spread and a verdict."""
    sign = 1.0 if better == "lower" else -1.0  # > 0 where the change is worse
    pq, cq = quartiles(parent), quartiles(change)
    rel = cq["median"] / pq["median"] - 1.0 if pq["median"] else 0.0
    iqr = pq["q3"] - pq["q1"]
    spread = iqr / abs(pq["median"]) if pq["median"] else 0.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound and not every_run_better:
        verdict = "unresolved (parent spread wider than bound)"
    elif sign * rel > bound:
        verdict = "worse than bound"
    else:
        verdict = "within bound"
    return {
        "pairs": len(parent), "change_better": wins, "bitwise_equal": sum(p == c for p, c in zip(parent, change)),
        "parent": pq, "change": cq, "median_change_rel": rel,
        "parent_iqr_over_median": spread, "bound": bound, "verdict": verdict,
        "meets_gain_rule": wins >= GAIN_SHARE * len(parent) and sign * (pq["median"] - cq["median"]) > iqr,
        "per_pair": [[p, c] for p, c in zip(parent, change)],
    }


def summarize(runs, bench):
    """Per workload: failed runs and operations per side, and compare() for each end-to-end metric.

    No metric meets the gain rule where the change failed more runs or more operations than the parent.
    """
    out = {}
    for w in (wl["name"] for wl in bench["workloads"]):
        by_seed = {}
        for r in runs:
            if r["workload"] == w and not r["trace"]:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [d for _, d in sorted(by_seed.items()) if len(d) == 2]
        res = {"failed_runs": {s: sum(failed(d[s]) for d in pairs) for s in SIDES},
               "operations": {s: {k: sum(d[s]["result"][k] for d in pairs if d[s]["result"])
                                  for k in ("attempted", "failed")} for s in SIDES}}
        fails_more = (res["failed_runs"]["change"] > res["failed_runs"]["parent"]
                      or res["operations"]["change"]["failed"] > res["operations"]["parent"]["failed"])
        good = [d for d in pairs if not (failed(d["parent"]) or failed(d["change"]))]
        if good:
            for m in bench["end_to_end"]:
                parent, change = ([d[s]["result"]["metrics"][m["name"]]["value"] for d in good] for s in SIDES)
                res[m["name"]] = compare(parent, change, m["better"], m["bound"])
                res[m["name"]]["meets_gain_rule"] &= not fails_more
        out[w] = res
    return out


def traced_summary(runs):
    """Per traced workload and side: checks, metric count, and every .calls figure that differs."""
    out = {}
    for r in runs:
        if r["trace"]:
            m = r["result"]["metrics"] if r["result"] else {}
            out.setdefault(r["workload"], {})[r["side"]] = {
                "returncode": r["returncode"], "attempted": r["result"] and r["result"]["attempted"],
                "failed": r["result"] and r["result"]["failed"], "per_layer_metrics_reported": len(m),
                "calls": {k: v["value"] for k, v in m.items() if k.endswith(".calls")}}
    for sides in out.values():
        if len(sides) == 2:
            p, c = sides["parent"].pop("calls"), sides["change"].pop("calls")
            sides["calls_that_differ"] = {k: [p.get(k), c.get(k)] for k in sorted(p.keys() | c.keys())
                                          if p.get(k) != c.get(k)}
    return out


def _recorded_out(value):
    """--out relative to the repository root if it lies inside it, else OUT/<file name>."""
    path = Path(value).resolve()
    return path.relative_to(REPO).as_posix() if REPO in path.parents else f"OUT/{path.name}"


# per option: the shortest prefix argparse takes for it, and what tool_line
# records for its value; no figure depends on the --work directory
_RECORDED = {"--work": ("--wo", lambda value: "DIR"), "--out": ("--o", _recorded_out)}


def tool_line(argv):
    """The command line the BENCH file records, with no machine path in it."""
    words = list(argv)
    for i, word in enumerate(words):
        opt, eq, value = word.partition("=")
        for name, (shortest, record) in _RECORDED.items():
            if opt.startswith(shortest) and name.startswith(opt):
                if eq:
                    words[i] = f"{opt}={record(value)}"
                elif i + 1 < len(words):
                    words[i + 1] = record(words[i + 1])
    return "python tools/pairs.py " + " ".join(words)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="git revision of the parent")
    ap.add_argument("change", help="git revision of the change")
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 190-199 or 1,2,5")
    ap.add_argument("--out", required=True, type=Path, help="the BENCH JSON to write")
    ap.add_argument("--traced-seed", type=int, help="also run one traced pair per workload on this seed")
    ap.add_argument("--what", default="", help="what the change does, stored in the output")
    ap.add_argument("--work", type=Path, default=Path(tempfile.gettempdir()), help="where the trees are exported")
    args = ap.parse_args(argv)
    work = args.work.resolve()
    if work == REPO or REPO in work.parents:
        ap.error(f"--work {work} lies inside the repository")

    with tempfile.TemporaryDirectory(prefix="moe_pairs_", dir=work) as tmp:
        trees = {s: Path(tmp) / s for s in SIDES}
        commits = {s: export(rev, trees[s]) for s, rev in zip(SIDES, (args.parent, args.change))}
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        plan = build_plan([w["name"] for w in bench["workloads"]], args.seeds, args.traced_seed)

        runs = []
        for w, seed, trace, order in plan:
            for side in order:
                run = run_one(trees[side], bench, w, seed, trace)
                runs.append({"side": side, "first": order[0], **run})
                print(f"{w} seed {seed} trace {trace} {side}: returncode {run['returncode']}, "
                      f"{run['wall_s']:.1f} s", file=sys.stderr, flush=True)
                doc = {
                    "what": args.what,
                    "parent": commits["parent"],
                    "change": commits["change"],
                    "host": f"{os.cpu_count()} CPUs, {platform.machine()}, Python {platform.python_version()}",
                    "tool": tool_line(sys.argv[1:] if argv is None else argv),
                    "order": "one run at a time; per seed the workloads in turn, each pair running both sides "
                             "back to back, the side that runs first alternating from seed to seed within each "
                             "workload and from workload to workload within each seed; then one traced pair "
                             "per workload, parent first, if asked for",
                    "seconds": bench["run_seconds"],
                    "seeds": args.seeds,
                    "summary": summarize(runs, bench),
                    "traced_summary": traced_summary(runs),
                    "runs": runs,
                }
                tmp_out = args.out.with_name(args.out.name + ".tmp")
                tmp_out.write_text(json.dumps(doc, indent=1) + "\n")
                tmp_out.replace(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
