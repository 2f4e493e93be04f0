"""Count the executable `src/` lines that no user flow reaches, and list them by function.

    python tools/reach.py

Records every line event in a frame under src/moe_profiler/ (`sys.settrace`,
set before `import moe_profiler.cli`, so module bodies count too) while it
runs `tools/parity.py`'s `parity(work_dir)` (synth, features, train, evaluate
and analyze-phones on four configs, plus the calls parity makes itself) and
then, for each benchmark workload, one untraced `perfbench/bench.py`
`run(workload, 3, 0.01, 0, ...)` (seven set-ups and one iteration). perfbench/
is imported read-only: no bytecode is written there. A file's executable lines
are the `co_lines()` line numbers of every code object that `compile()` makes
from it, less blank, comment and docstring lines. The tool prints the count of
those lines that no event reached, then each one under its file and the
qualified name of the innermost function that holds it.

What it lists, and why each stays:
- The NIST SPHERE reader. Real TIMIT ships SPHERE, and criterion 1 and the
  malformed-input tests exercise it.
- `load_checkpoint`'s `use_positional_encoding` and `patience` branches,
  which read old checkpoints.
- Conveniences that the acceptance criteria call: `force_gate`, a float `g`
  in `combine_experts`, a `Tensor` waveform in `frontend_forward`, and
  `LabeledSample` without `n_samples`.
- Error handling: each `raise`, each `except`, each skipped-row warning, and
  `receptive_field`.
- `evaluation.constant_mean_report`, criterion 8's baseline.
- Branches that only other options or inputs take.
- `ConvFrontendConfig.default`, which only a traced `perfbench` run calls.
"""

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "moe_profiler"
WORKLOADS = ("train_conv", "train_fbank", "analyze")


def _docstring_lines(tree):
    """Line numbers of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            value = first.value if isinstance(first, ast.Expr) else None
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def executable_lines(path):
    """{line number: qualified name of the innermost code object holding it} for one source file."""
    source = Path(path).read_text()
    owner = {}
    codes = [compile(source, str(path), "exec")]
    for code in codes:  # outer code objects come first, so an inner one claims its own lines
        owner.update((line, code.co_qualname) for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    text = [line.strip() for line in source.splitlines()]
    skip = _docstring_lines(ast.parse(source))
    return {n: q for n, q in owner.items() if n not in skip and text[n - 1] and not text[n - 1].startswith("#")}


class LineTracer:
    """Records (resolved file, line) for every line event in a frame whose file lies under root."""

    def __init__(self, root):
        self.root = Path(root).resolve()
        self.reached = set()
        self._files = {}  # co_filename -> its resolved path if under root, else None

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._files:
            path = Path(name).resolve()
            self._files[name] = str(path) if path.is_relative_to(self.root) else None
        return self._local if self._files[name] else None

    def _local(self, frame, event, arg):
        if event == "line":
            self.reached.add((self._files[frame.f_code.co_filename], frame.f_lineno))
        return self._local

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)


def unreached(files, reached):
    """{file: {qualified name: [(line, text), ...]}} of the executable lines of files not in reached.

    files are resolved paths; reached holds (str(resolved path), line) pairs, as LineTracer records them.
    """
    out = {}
    for path in files:
        text = Path(path).read_text().splitlines()
        for n, qualname in sorted(executable_lines(path).items()):
            if (str(path), n) not in reached:
                out.setdefault(path, {}).setdefault(qualname, []).append((n, text[n - 1].strip()))
    return out


def trace_user_flows(work):
    """Run parity and each benchmark workload under a LineTracer; returns the lines it reached."""
    sys.dont_write_bytecode = True  # leave perfbench/ as it was
    sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]
    with LineTracer(PACKAGE) as tracer:
        import parity  # sets one BLAS thread, then imports moe_profiler.cli

        with contextlib.redirect_stdout(io.StringIO()):  # its hash lines
            parity.parity(work / "parity")
        import bench

        for workload in WORKLOADS:
            bench.run(workload, 3, 0.01, 0, work / workload, work / f"{workload}.spans.csv")
    return tracer.reached


def main():
    with tempfile.TemporaryDirectory(prefix="moe_reach_") as tmp:
        reached = trace_user_flows(Path(tmp))
    files = sorted(p.resolve() for p in PACKAGE.glob("*.py"))
    missed = unreached(files, reached)
    total = sum(len(executable_lines(p)) for p in files)
    count = sum(len(lines) for by_fn in missed.values() for lines in by_fn.values())
    print(f"unreached {count} of {total} executable src/ lines")
    for path, by_fn in missed.items():
        for qualname, lines in by_fn.items():
            print(f"{path.relative_to(ROOT)} {qualname} ({len(lines)})")
            for n, line in lines:
                print(f"  {n:5d}  {line}")


if __name__ == "__main__":
    main()
