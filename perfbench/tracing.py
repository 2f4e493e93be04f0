"""Outside-in span recorder for the benchmark's traced runs.

The recorder wraps named public functions of a package from the outside:
each wrapper records a span (name, start, end, parent span, run id) in
memory and calls the original. A function is rebound at every place its
name is bound inside the package, because modules import functions by name
(``training`` holds its own ``batch_forward``, ``model`` its own
``frontend_forward``). Methods are wrapped on their class. Leaving
``SpanRecorder.trace`` restores every original object.

The program itself is not changed; spans cover the calls into each layer.
"""

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict, namedtuple

# parent is the index of the enclosing span in SpanRecorder.spans, -1 at the top
Span = namedtuple("Span", "name start end parent run")


class SpanRecorder:
    """Records spans for `targets`, names like 'tensor.conv1d' or 'optim.Adam.step'.

    Each name is resolved below `package`. `hooks` maps a target name to a
    callable hook(args, kwargs, result) run after the call returns, for
    counters that need call arguments.
    """

    def __init__(self, package, targets, hooks=None):
        self.package = package
        self.targets = tuple(targets)
        self.hooks = dict(hooks or {})
        unknown = sorted(set(self.hooks) - set(self.targets))
        if unknown:
            raise ValueError(f"hooks for untraced functions: {unknown}")
        self.spans = []
        self._stack = []
        self._run = 0

    def _resolve(self, target):
        module_name, *path = target.split(".")
        if not path:
            raise ValueError(f"target '{target}' names no function")
        owner = importlib.import_module(f"{self.package}.{module_name}")
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        if path[-1] not in vars(owner):
            raise ValueError(f"target '{target}' is not defined where it is named")
        return owner, path[-1]

    def _bindings(self, owner, attr):
        """Every (namespace, name) inside the package bound to owner.attr."""
        original = vars(owner)[attr]
        if isinstance(owner, type):
            return original, [(owner, attr)]
        found = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package or mod_name.startswith(self.package + ".")):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    found.append((module, name))
        return original, found

    def _wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            run = self._run
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, run)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def trace(self, run):
        """Wrap every target while the block runs; its spans carry run id `run`."""
        saved = []
        try:
            for target in self.targets:
                owner, attr = self._resolve(target)
                original, bindings = self._bindings(owner, attr)
                wrapped = self._wrapper(target, original)
                for namespace, name in bindings:
                    saved.append((namespace, name, vars(namespace)[name]))
                    setattr(namespace, name, wrapped)
            self._run = run
            yield self
        finally:
            for namespace, name, original in reversed(saved):
                setattr(namespace, name, original)
            self._stack.clear()


def _union_ns(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans):
    """Per span: its duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = _union_ns(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(i, ()) if c.end > s.start and c.start < s.end
        )
        out.append(s.end - s.start - covered)
    return out


def busy_ns(spans):
    """Wall time covered by the given spans, counting overlaps once."""
    return _union_ns((s.start, s.end) for s in spans)


def has_ancestor(spans, index, name):
    """True when some enclosing span of spans[index] is named `name`."""
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def write_csv(spans, path):
    """One line per span: index, parent, run, name, start and end in ns."""
    with open(path, "w") as f:
        f.write("index,parent,run,name,start_ns,end_ns\n")
        for i, s in enumerate(spans):
            f.write(f"{i},{s.parent},{s.run},{s.name},{s.start},{s.end}\n")
