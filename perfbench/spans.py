"""Span recorder that times the shiftselect layers from outside the package.

A :class:`Recorder` replaces each timed public function, on every
``shiftselect`` module that holds a reference to it (``evalcli`` binds
``tms_select``, ``build_registry`` and ``app_generate`` by name), with a
wrapper that appends one span ``[name, parent, start, end]`` to an in-memory
list.  ``ClassDensities.evaluate`` and every ``TrainedModel`` subclass's
``predict_posteriors`` are patched on their classes instead.  Per-iteration
helpers such as ``project_to_simplex`` are never wrapped: iteration counts are
read from the values the wrapped calls return (the EM ``info`` dict,
``ContingencyTable.iterations``, the trained model's ``meta``).

A span's self time is its duration minus the time its child spans cover.
Everything runs on one thread, so children never overlap and their coverage
is the sum of their durations.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

from shiftselect import (cap, classifiers, dataspace, evalcli, protocol,
                         quantifiers, selection)

# (module, public function) pairs timed by the full trace.
TRACED_FUNCTIONS = (
    (dataspace, "synth_gaussian_pps"),
    (dataspace, "load_csv"),
    (dataspace, "stratified_split"),
    (dataspace, "fit_scaler"),
    (dataspace, "apply_scaler"),
    (classifiers, "train"),
    (quantifiers, "fit_kdey"),
    (quantifiers, "fit_cc"),
    (quantifiers, "kdey_ml_estimate"),
    (quantifiers, "kdey_ml_estimate_detailed"),
    (quantifiers, "classify_and_count"),
    (quantifiers, "em_mixture_weights"),
    (cap, "estimate_rate_matrix"),
    (cap, "fit_cap"),
    (cap, "cap_predict"),
    (cap, "cap_predict_detailed"),
    (cap, "leap_solve"),
    (protocol, "app_generate"),
    (selection, "build_registry"),
    (selection, "ims_select"),
    (selection, "tms_select"),
    (selection, "oracle_select"),
    (selection, "default_select"),
    (selection, "save_registry"),
    (selection, "load_registry"),
    (evalcli, "run_experiment"),
    (evalcli, "emit_report"),
    (evalcli, "wilcoxon_signed_rank"),
)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Recorder:
    """Installs timing wrappers; holds spans and counters in memory.

    Use as a context manager: wrappers are installed on entry and the
    original functions restored on exit.
    """

    def __init__(self, functions=TRACED_FUNCTIONS, methods=True):
        # Spans live in flat typed arrays, not one Python object each: a
        # traced run holds ~10^5 spans, and that many small containers would
        # make every cyclic garbage collection walk them all.
        self.names = []                   # span name by id
        self.name_ids = array("i")
        self.parents = array("i")         # parent span index, or -1
        self.starts = array("d")
        self.ends = array("d")
        self.counters = defaultdict(list)
        self._functions = functions
        self._methods = methods
        self._stack = []
        self._undo = []

    # -- installation --------------------------------------------------------

    def __enter__(self):
        for module, attr in self._functions:
            # a function the sources no longer have is simply not timed
            original = getattr(module, attr, None)
            if original is None:
                continue
            name = f"{_layer(module)}.{attr}"
            self._replace_everywhere(original, self._wrap(name, original))
        if self._methods:
            self._patch_method(quantifiers.ClassDensities, "evaluate",
                               "quantifiers.ClassDensities.evaluate")
            for cls in classifiers.TrainedModel.__subclasses__():
                if "predict_posteriors" in vars(cls):
                    self._patch_method(cls, "predict_posteriors",
                                       "classifiers.predict_posteriors")
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _replace_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "shiftselect" and not mod_name.startswith("shiftselect."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_method(self, cls, attr, name):
        original = vars(cls)[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original))

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = (self.name_ids, self.parents,
                                           self.starts, self.ends)
        stack, counters = self._stack, self.counters
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, result, ends[index] - starts[index])
            return result

        return wrapper

    # -- analysis ------------------------------------------------------------

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the duration of its direct children."""
        dur = self.durations()
        parents = np.asarray(self.parents)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return dur - child

    def span_durations(self, name: str) -> np.ndarray:
        ids = np.asarray(self.name_ids)
        wanted = [i for i, n in enumerate(self.names) if n == name]
        return self.durations()[np.isin(ids, wanted)]

    def table(self) -> dict:
        """name -> {calls, total_s, self_s} over all recorded spans."""
        ids = np.asarray(self.name_ids)
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=self.durations(), minlength=n)
        selfs = np.bincount(ids, weights=self.self_times(), minlength=n)
        out = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += int(calls[i])
            row["total_s"] += float(total[i])
            row["self_s"] += float(selfs[i])
        return {k: v for k, v in out.items() if v["calls"]}

    def subtree_self_by_layer(self, root_name: str):
        """(wall seconds of `root_name` spans, layer -> self seconds summed
        over those spans and all their descendants)."""
        selfs = self.self_times()
        dur = self.durations()
        inside = np.zeros(len(selfs), dtype=bool)
        wall = 0.0
        by_layer = defaultdict(float)
        for i, (name_id, parent) in enumerate(zip(self.name_ids, self.parents)):
            name = self.names[name_id]
            if parent >= 0 and inside[parent]:
                inside[i] = True
            elif name == root_name:
                wall += dur[i]
                inside[i] = True
            if inside[i]:
                by_layer[name.split(".", 1)[0]] += float(selfs[i])
        return float(wall), dict(by_layer)

    def dump(self) -> dict:
        t0 = self.starts[0] if self.starts else 0.0
        return {"names": self.names,
                "fields": ["name", "parent", "start_s", "end_s"],
                "spans": [[n, p, round(s - t0, 7), round(e - t0, 7)]
                          for n, p, s, e in zip(self.name_ids, self.parents,
                                                self.starts, self.ends)]}


# -- counters read from returned values ---------------------------------------

def _observe_train(counters, args, model, seconds):
    family = args[0]
    counters[f"train_s.{family}"].append(seconds)
    if family == "LR":
        counters["lr_iters"].append(model.meta["iterations"])
    elif family == "MLP":
        counters["mlp_epochs"].append(model.meta["epochs"])


def _observe_posteriors(counters, args, result, seconds):
    counters["posterior_rows"].append(result.shape[0])


def _observe_kde(counters, args, result, seconds):
    densities, points = args[0], args[1]
    support = sum(S.shape[0] for S in densities.support)
    counters["kde_kernel_evals"].append(np.shape(points)[0] * support)


def _observe_em(counters, args, result, seconds):
    info = result[1]
    counters["em_iters"].append(info["iterations"])
    counters["em_floored"].append(int(info["floored"]))


def _observe_solve(counters, args, table, seconds):
    counters["solve_iters"].append(table.iterations)
    counters["solve_nonconverged"].append(int(not table.converged))


def _observe_generate(counters, args, bags, seconds):
    counters["bags"].append(len(bags))


_OBSERVERS = {
    "classifiers.train": _observe_train,
    "classifiers.predict_posteriors": _observe_posteriors,
    "quantifiers.ClassDensities.evaluate": _observe_kde,
    "quantifiers.em_mixture_weights": _observe_em,
    "cap.leap_solve": _observe_solve,
    "protocol.app_generate": _observe_generate,
}


# -- per-layer metrics ---------------------------------------------------------

def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(rec: Recorder, overhead_frac: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    t = rec.table()
    c = rec.counters

    def total(name):
        return t.get(name, {}).get("total_s", 0.0)

    def self_s(*names):
        return sum(t.get(n, {}).get("self_s", 0.0) for n in names)

    dataspace_s = sum(v["total_s"] for n, v in t.items()
                      if n.startswith("dataspace."))
    lr_iters = c["lr_iters"]
    em_iters = c["em_iters"]
    solve_iters = c["solve_iters"]
    eval_wall, eval_self = rec.subtree_self_by_layer("evalcli.run_experiment")
    attributed = sum(eval_self.get(layer, 0.0)
                     for layer in ("quantifiers", "cap", "selection", "evalcli"))

    m = {
        "dataspace.prepare_s": (dataspace_s, "s"),
        "classifiers.train_s.LR": (sum(c["train_s.LR"]), "s"),
        "classifiers.train_s.KNN": (sum(c["train_s.KNN"]), "s"),
        "classifiers.train_s.MLP": (sum(c["train_s.MLP"]), "s"),
        "classifiers.lr_iters_mean": (_mean(lr_iters), "count"),
        "classifiers.lr_at_max_iter": (
            sum(1 for i in lr_iters if i >= classifiers.LR_MAX_ITER), "count"),
        "classifiers.mlp_epochs_mean": (_mean(c["mlp_epochs"]), "count"),
        "classifiers.posteriors_s": (total("classifiers.predict_posteriors"), "s"),
        "classifiers.posterior_rows": (sum(c["posterior_rows"]), "count"),
        "quantifiers.fit_s": (total("quantifiers.fit_kdey")
                              + total("quantifiers.fit_cc"), "s"),
        "quantifiers.kde_s": (total("quantifiers.ClassDensities.evaluate"), "s"),
        "quantifiers.kde_kernel_evals": (sum(c["kde_kernel_evals"]), "count"),
        "quantifiers.em_s": (total("quantifiers.em_mixture_weights"), "s"),
        "quantifiers.em_calls": (len(em_iters), "count"),
        "quantifiers.em_iters_mean": (_mean(em_iters), "count"),
        "quantifiers.em_iters_p99": (_pct(em_iters, 99), "count"),
        "quantifiers.em_iters_max": (max(em_iters, default=0), "count"),
        "quantifiers.em_at_max_iter": (
            sum(1 for i in em_iters if i >= quantifiers.EM_MAX_ITER), "count"),
        "quantifiers.em_floored": (sum(c["em_floored"]), "count"),
        "cap.fit_s": (total("cap.fit_cap"), "s"),
        "cap.predict_self_s": (self_s("cap.cap_predict",
                                      "cap.cap_predict_detailed"), "s"),
        "cap.solve_s": (total("cap.leap_solve"), "s"),
        "cap.solve_calls": (len(solve_iters), "count"),
        "cap.solve_iters_mean": (_mean(solve_iters), "count"),
        "cap.solve_iters_p99": (_pct(solve_iters, 99), "count"),
        "cap.solve_nonconverged": (sum(c["solve_nonconverged"]), "count"),
        "protocol.generate_s": (total("protocol.app_generate"), "s"),
        "protocol.bags": (sum(c["bags"]), "count"),
        "selection.build_registry_self_s": (self_s("selection.build_registry"), "s"),
        "selection.tms_self_s": (self_s("selection.tms_select"), "s"),
        "selection.oracle_s": (total("selection.oracle_select"), "s"),
        "selection.load_registry_s": (total("selection.load_registry"), "s"),
        "selection.save_registry_s": (total("selection.save_registry"), "s"),
        "evalcli.evaluate_self_s": (self_s("evalcli.run_experiment"), "s"),
        "evalcli.report_s": (total("evalcli.emit_report"), "s"),
        "evalcli.wilcoxon_s": (total("evalcli.wilcoxon_signed_rank"), "s"),
        "trace.evaluate_s": (eval_wall, "s"),
        "trace.evaluate_rest_s": (eval_wall - attributed, "s"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    }
    return {k: (float(v), u) for k, (v, u) in m.items()}
