"""Span tracing for one ``shearwater`` command, and per-layer metrics from spans.

Run as a command::

    python3 bench/tracer.py --spans SPANS.json -- <shearwater arguments>

It imports ``shearwater``, wraps the public functions that each module calls
in another module, runs ``shearwater.cli.main`` in this process inside a
``cli.<command>`` span and writes every span to SPANS.json.

Modules bind their callees by name at import (``boost`` does ``from .trees
import fit_tree_exact``), so a wrapper goes on the *caller's* attribute,
``shearwater.boost.fit_tree_exact``; a wrapper on ``shearwater.trees`` alone
would record nothing. Methods are wrapped on their class. A span is
``[name, start, end, parent, tag, counts]``; counts are taken after the span
has closed, so they are not part of its time. The self time of a span is its
duration minus the time its direct children cover.

The functions below the command section only read spans; they need neither
numpy nor shearwater.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("synthgen", "trajdata", "geokin", "featex", "datasets",
          "trees", "boost", "linsvm", "evalcv", "cli")

# Span names that differ from "<layer>.<function>".
RENAMES = {
    "fit_tree_exact": "fit_exact", "fit_tree_hist": "fit_hist", "fit_tree_uniform": "fit_uniform",
}
DYNAMIC_NAMES = {
    "boost.fit_learner": lambda args: f"boost.fit.{args[0].value}",
    "datasets.build_dataset_with_thresholds": lambda args: f"datasets.build.{args[1].value}",
}
# Atomic writes stay in the calling command's self time.
UNWRAPPED = {"atomic_write_text"}
# Same-module calls that are worth a span of their own.
OWN_CALLS = {"evalcv": ("cross_validate", "tune_threshold", "cv_report_csv", "cv_summary_csv")}
# Methods called from other modules, wrapped on their class.
METHODS = {
    ("trajdata", "Trajectory"): ("filter_daytime", "validate"),
    ("datasets", "FeatureMatrix"): ("to_csv", "from_csv", "subset"),
    ("trees", "HistogramBins"): ("bin_matrix",),
    ("trees", "DecisionTree"): ("predict", "leaves", "scale_leaves", "shift_leaves",
                                "to_dict", "from_dict"),
    ("boost", "TrainedModel"): ("to_dict", "from_dict"),
    ("linsvm", "SvmModel"): ("score", "to_dict", "from_dict"),
    ("evalcv", "PredictionSet"): ("to_csv", "from_csv"),
}
TAGS = {"evalcv.cross_validate": lambda args: args[0].name}


def _leaf_count(node) -> int:
    return 1 if node.left is None else _leaf_count(node.left) + _leaf_count(node.right)


def _tree_counts(args, tree) -> dict:
    return {"trees": 1, "leaves": _leaf_count(tree.root)}


COUNTS = {
    "trajdata.load_corpus": lambda args, corpus: {"points": sum(len(t) for t in corpus)},
    "datasets.to_csv": lambda args, text: {"bytes": len(text)},
    "datasets.from_csv": lambda args, matrix: {"bytes": len(args[1])},  # (cls, text)
    "trees.fit_exact": _tree_counts,
    "trees.fit_hist": _tree_counts,
    "trees.fit_uniform": _tree_counts,
    "trees.predict": lambda args, out: {"row_visits": len(args[1])},  # (self, X)
    "evalcv.majority_vote": lambda args, voted: {"sets": len(args[0])},
}


class Tracer:
    """Keeps every span of one process in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, tag=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, tag, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        namer = DYNAMIC_NAMES.get(name)
        tagger = TAGS.get(name)
        counter = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(namer(args) if namer else name, tagger(args) if tagger else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter:
                self.spans[index][5] = counter(args, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap cross-module calls and the listed methods of every layer."""
    modules = {layer: importlib.import_module(f"shearwater.{layer}") for layer in LAYERS}
    for caller, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if not inspect.isfunction(obj) or attr.startswith("_") or attr in UNWRAPPED:
                continue
            home = obj.__module__.rpartition(".")[2]
            if home not in modules or (home == caller and attr not in OWN_CALLS.get(caller, ())):
                continue
            setattr(module, attr, tracer.wrap(obj, f"{home}.{RENAMES.get(attr, attr)}"))
    for (layer, cls_name), names in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        for attr in names:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, f"{layer}.{attr}")))
            else:
                setattr(cls, attr, tracer.wrap(raw, f"{layer}.{attr}"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans (JSON)")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="-- followed by the shearwater command line")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer()
    install(tracer)
    from shearwater import cli

    index = tracer.open(f"cli.{cli_args[0]}")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(index)
    Path(args.spans).write_text(json.dumps(tracer.spans))
    return code


# --- reading spans ----------------------------------------------------------

def merge(span_lists: list[list[list]]) -> list[list]:
    """Concatenate the spans of several processes, re-basing parent indices."""
    merged: list[list] = []
    for spans in span_lists:
        offset = len(merged)
        for name, start, end, parent, tag, counts in spans:
            merged.append([name, start, end, parent + offset if parent >= 0 else -1, tag, counts])
    return merged


class SpanStats:
    """Per-name and per-layer aggregates of a merged span list."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        # parents are recorded before their children, so roots resolve in order
        self.root: list[int] = []
        self.self_s: list[float] = []
        self.by_name: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, _, counts) in enumerate(spans):
            self.root.append(i if parent < 0 else self.root[parent])
            self.self_s.append(end - start - covered[i])
            agg = self.by_name[name]
            agg["calls"] += 1
            agg["busy_s"] += end - start
            agg["self_s"] += self.self_s[i]
            for key, value in (counts or {}).items():
                agg[key] += value

    def get(self, name: str, key: str) -> float:
        return self.by_name[name][key] if name in self.by_name else 0.0

    def layer_self(self, command: str | None = None) -> dict[str, float]:
        """Self time per layer, optionally only under one ``cli.<command>`` span."""
        out = dict.fromkeys(LAYERS, 0.0)
        for i, span in enumerate(self.spans):
            if command is None or self.spans[self.root[i]][0] == f"cli.{command}":
                out[span[0].partition(".")[0]] += self.self_s[i]
        return out

    def fold_fit_medians(self) -> dict[str, float]:
        """Median time of one fold (one fit_learner plus its scoring) per setting."""
        folds: dict[str, list[float]] = defaultdict(list)
        fit_s: dict[int, float] = {}  # cross_validate span -> its last fit's duration
        for name, start, end, parent, _, _ in self.spans:
            if parent < 0 or self.spans[parent][0] != "evalcv.cross_validate":
                continue
            if name.startswith("boost.fit."):
                fit_s[parent] = end - start
            elif name == "boost.predict_scores" and parent in fit_s:
                folds[self.spans[parent][4]].append(fit_s.pop(parent) + end - start)
        return {setting: statistics.median(v) for setting, v in folds.items()}

    def train_fit_calls(self) -> tuple[int, int]:
        """(final-model fits, all fit_learner calls) made by the train command."""
        final = total = 0
        for i, (name, _, _, parent, _, _) in enumerate(self.spans):
            if name.startswith("boost.fit.") and self.spans[self.root[i]][0] == "cli.train":
                total += 1
                final += self.spans[parent][0] == "evalcv.fit_final_model"
        return final, total


if __name__ == "__main__":
    sys.exit(main())
