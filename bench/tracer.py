"""Per-layer tracing of one deepagent CLI command, installed from outside.

Run as a script, it imports every ``deepagent`` module, replaces the public
functions named in ``TARGETS`` with timing wrappers (rebinding every module
global that aliases them, such as ``agents.augment`` or
``fusion.train_forest``), runs the CLI with the remaining arguments, and
writes the spans and counters it kept in memory to a JSON file at exit::

    PYTHONPATH=src python bench/tracer.py SPANS.json -- predict --manifest ...

Imported, it offers ``layer_metrics`` to fold span files into the per-layer
metrics the benchmark reports. Importing it does not import deepagent.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict
from pathlib import Path

# deepagent module (relative to the package) -> traced callables in it
TARGETS = {
    "nn.layers": [
        "Conv2D.forward", "Conv2D.backward",
        "MaxPool2D.forward", "MaxPool2D.backward",
        "BatchNorm.forward", "BatchNorm.backward",
        "Dense.forward", "Dense.backward",
    ],
    "nn.optim": ["Adam.step"],
    "vision": ["augment", "load_frame", "resize_bilinear"],
    "pipeline": ["load_sample_frames", "score_samples"],
    "agents": ["train_agent1", "train_agent2", "score_video", "predict_agent2"],
    "forest": ["train_forest", "predict_forest_batch"],
    "fusion": ["cross_validate_meta"],
    "audio": ["read_wav", "embed_audio"],
    "cache": ["read_cache", "write_cache", "update_cache"],
    "nn.checkpoint": ["save_checkpoint", "load_checkpoint"],
    "manifest": ["load_manifest"],
}

# counters derived from arguments and results, not from the clock
GMAC = "nn.layers.Conv2D.forward.gmac"
FOREST_NODES = "forest.nodes"


def span_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in TARGETS.items() for fn in fns]


def metric_names() -> list[str]:
    names = []
    for span in span_names():
        names += [f"{span}.s", f"{span}.calls"]
    return names + [GMAC, FOREST_NODES]


class Tracer:
    """Spans (name, start, end, parent index) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if after is not None:
                after(self.counters, args, result)
            return result
        return traced

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps({
            "spans": self.spans,
            "counters": dict(self.counters),
            "missing": self.missing,
        }))


def _conv_gmac(counters, args, out):
    # multiply-accumulates of the forward just run, computed from shapes:
    # every output element sums k * k * in_channels products
    layer = args[0]
    macs = out.size * layer.kernel_size * layer.kernel_size * layer.in_channels
    counters[GMAC] += macs / 1e9


def _count_nodes(node) -> int:
    count, stack = 0, [node]
    while stack:
        n = stack.pop()
        if n is None:
            continue
        count += 1
        stack += [getattr(n, "left", None), getattr(n, "right", None)]
    return count


def _forest_nodes(counters, args, model):
    counters[FOREST_NODES] += sum(_count_nodes(t.root) for t in model.trees)


AFTER = {
    "nn.layers.Conv2D.forward": _conv_gmac,
    "forest.train_forest": _forest_nodes,
}


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind each module-level alias of it."""
    import deepagent

    modules = {"deepagent": deepagent}
    for info in pkgutil.walk_packages(deepagent.__path__, "deepagent."):
        if info.name.rsplit(".", 1)[-1] != "__main__":  # it runs the CLI on import
            modules[info.name] = importlib.import_module(info.name)
    for module_name, fns in TARGETS.items():
        module = modules.get(f"deepagent.{module_name}")
        for fn in fns:
            name = f"{module_name}.{fn}"
            owner_name, _, attr = fn.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                tracer.missing.append(name)
                continue
            traced = tracer.wrap(name, original, AFTER.get(name))
            setattr(owner, attr, traced)
            if owner_name:
                continue  # a class is shared by every module that imports it
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, traced)


def layer_metrics(span_files) -> tuple[dict[str, float], list[str]]:
    """Total seconds and call counts per traced name, plus the counters.

    A span nested inside a span of the same name adds a call but no time,
    so recursion is not counted twice. Names never called report 0.
    """
    metrics = {name: 0.0 for name in metric_names()}
    missing: set[str] = set()
    for path in span_files:
        data = json.loads(Path(path).read_text())
        spans = data["spans"]
        missing.update(data["missing"])
        for name, start, end, parent in spans:
            metrics[f"{name}.calls"] += 1
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                metrics[f"{name}.s"] += end - start
        for key, value in data["counters"].items():
            metrics[key] += value
    return metrics, sorted(missing)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <deepagent arguments>", file=sys.stderr)
        return 1
    tracer = Tracer()
    install(tracer)
    from deepagent.cli import main as cli_main

    try:
        return cli_main(argv[2:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
