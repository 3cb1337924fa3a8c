"""Spans around the public calls of each iqner layer, recorded from outside.

``Tracer.install`` swaps each traced function (and method) for a wrapper in
every loaded ``iqner`` module that refers to it, and ``uninstall`` puts the
originals back, so untraced rounds run the program exactly as shipped. Spans
stay in memory as ``[name, start, end, parent, extra]`` rows; a layer's self
time is its span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

# span name -> (module, attribute); "Class.method" patches the class.
TARGETS = {
    "tensor.backward": ("iqner.tensor", "backward"),
    "encoder.encode": ("iqner.encoder", "encode"),
    "encoder.layer": ("iqner.encoder", "one_way_self_attention"),
    "heads.boundary": ("iqner.heads", "boundary_pointer"),
    "heads.classifier": ("iqner.heads", "entity_classifier"),
    "heads.decode": ("iqner.heads", "decode_entities"),
    "assignment.solve": ("iqner.assignment", "solve_one_to_many_lap"),
    "assignment.cost": ("iqner.assignment", "compute_cost_matrix"),
    "assignment.quantities": ("iqner.assignment", "allocate_quantities"),
    "training.loss": ("iqner.training", "sentence_loss"),
    "training.adam": ("iqner.training", "AdamOptimizer.step"),
    "training.epoch": ("iqner.training", "train_epoch"),
    "training.checkpoint_save": ("iqner.training", "save_checkpoint"),
    "training.checkpoint_load": ("iqner.training", "load_checkpoint"),
    "data.generate": ("iqner.data", "generate_synthetic"),
    "data.load": ("iqner.data", "load_dataset"),
    "evaluation.corpus": ("iqner.evaluation", "evaluate_corpus"),
    "cli": ("iqner.cli", "main"),
}


def graph_nodes(loss) -> int:
    """Tracked tensors reachable from ``loss`` (itself and parameter leaves included)."""
    if not getattr(loss, "tracked", False):
        return 0
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if parent.tracked and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _extra(name: str, args: tuple):
    """A count recorded with the span: graph size, replicated columns, command."""
    if name == "cli":
        return args[0][0] if args and args[0] else None
    if name == "assignment.solve":
        return int(args[1].total)
    return None


class Tracer:
    """In-memory span recorder; the clock skips time spent counting graphs."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._paused = 0.0
        self._originals: list[tuple[object, str, object]] = []

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = _extra(name, args)
            if name == "tensor.backward":
                began = time.perf_counter()
                extra = graph_nodes(args[0])
                tracer._paused += time.perf_counter() - began
            row = [name, tracer.now(), None, tracer._stack[-1] if tracer._stack else -1, extra]
            tracer.spans.append(row)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                row[2] = tracer.now()

        return wrapper

    def install(self) -> None:
        """Point every reference to a traced callable at its wrapper."""
        if self._originals:
            return
        for module_name, _ in TARGETS.values():
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "iqner" or n.startswith("iqner."))]
        for name, (module_name, attr) in TARGETS.items():
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._originals.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._originals.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._originals):
            setattr(holder, key, original)
        self._originals.clear()

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [row[2] - row[1] for row in self.spans]
        for row in self.spans:
            if row[3] >= 0:
                out[row[3]] -= row[2] - row[1]
        return out

    def roots(self) -> list[int]:
        """Index of the outermost span each span belongs to."""
        root = []
        for i, row in enumerate(self.spans):
            root.append(i if row[3] < 0 else root[row[3]])
        return root

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")


def layer_metrics(tracer: Tracer, primary: str) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans under ``primary`` commands.

    A layer that never runs under the primary command (assignment while
    predicting, say) is measured over every span of the run instead.
    """
    spans = tracer.spans
    own = tracer.self_times()
    roots = tracer.roots()
    under = {i for i, r in enumerate(roots)
             if spans[r][0] == "cli" and spans[r][4] == primary}

    def pick(name: str) -> list[int]:
        chosen = [i for i in under if spans[i][0] == name]
        return sorted(chosen) or [i for i, row in enumerate(spans) if row[0] == name]

    def mean_ms(name: str, inclusive: bool = False) -> float:
        rows = pick(name)
        if inclusive:
            return 1e3 * statistics.fmean(spans[i][2] - spans[i][1] for i in rows)
        return 1e3 * statistics.fmean(own[i] for i in rows)

    steps = pick("tensor.backward")
    solves = pick("assignment.solve")
    encodes = pick("encoder.encode")
    return {
        "tensor.backward_ms": (mean_ms("tensor.backward"), "ms"),
        "tensor.graph_nodes_per_step": (statistics.fmean(spans[i][4] for i in steps), "count"),
        "encoder.encode_ms": (mean_ms("encoder.encode", inclusive=True), "ms"),
        "encoder.layer_ms": (mean_ms("encoder.layer"), "ms"),
        "heads.boundary_ms": (mean_ms("heads.boundary"), "ms"),
        "heads.classifier_ms": (mean_ms("heads.classifier"), "ms"),
        "heads.decode_ms": (mean_ms("heads.decode"), "ms"),
        "heads.calls_per_sentence": (len(pick("heads.boundary")) / len(encodes), "count"),
        "assignment.solve_ms": (mean_ms("assignment.solve"), "ms"),
        "assignment.solve_ms_p99": (
            1e3 * statistics.quantiles([own[i] for i in solves], n=100, method="inclusive")[98], "ms"),
        "assignment.cost_ms": (mean_ms("assignment.cost"), "ms"),
        "assignment.quantities_ms": (mean_ms("assignment.quantities"), "ms"),
        "assignment.solves_per_step": (len(solves) / len(steps), "count"),
        "assignment.columns_mean": (statistics.fmean(spans[i][4] for i in solves), "count"),
        "training.loss_ms": (mean_ms("training.loss"), "ms"),
        "training.adam_ms": (mean_ms("training.adam"), "ms"),
        "training.epoch_s": (mean_ms("training.epoch", inclusive=True) / 1e3, "s"),
        "training.checkpoint_save_ms": (mean_ms("training.checkpoint_save"), "ms"),
        "training.checkpoint_load_ms": (mean_ms("training.checkpoint_load"), "ms"),
        "data.generate_s": (mean_ms("data.generate") / 1e3, "s"),
        "data.load_ms": (mean_ms("data.load"), "ms"),
        "evaluation.corpus_ms": (mean_ms("evaluation.corpus"), "ms"),
        "cli.self_ms": (mean_ms("cli"), "ms"),
    }
