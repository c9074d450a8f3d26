"""In-memory spans around the public functions of each package module.

``Tracer.install`` replaces every public function of the layer modules
with a wrapper that appends one span (function, parent span, start, end,
tag) to flat arrays.  The replacement is made in every module of the
package that holds the function, so names bound elsewhere with
``from .x import y`` are traced too.  Time spent in private helpers and
closures counts toward the innermost traced caller.

A few functions get a tag inferred from their arguments (the
``kummer_m`` branch, the chain kind of a Darboux call), and a few have
their results observed (error estimates, quadrature evaluation counts).
``summary`` folds the spans into per-function and per-layer totals; a
layer's self time is the duration of its spans minus the part covered
by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array

import numpy as np

LAYERS = ("specfun", "numerics", "model", "pointmap", "darboux", "scenarios", "cli")

# Constants of specfun that decide the kummer_m branch.
_KUMMER_SERIES_Z_MIN = -1.0
_KUMMER_Z_MAX = 700.0


def _kummer_branch(args, kwargs):
    a = args[0] if args else kwargs["a"]
    z = args[2] if len(args) > 2 else kwargs["z"]
    if a <= 0 and a == math.floor(a):
        return "polynomial"
    if abs(z) > _KUMMER_Z_MAX:
        return "rejected"
    return "reflected" if z < _KUMMER_SERIES_Z_MIN else "series"


def _chain_kind(args, kwargs):
    chain = args[0] if args else kwargs["chain"]
    return chain.kind


TAGGERS = {
    "specfun.kummer_m": _kummer_branch,
    "darboux.transformed_potential": _chain_kind,
    "darboux.transformed_solution": _chain_kind,
}


class Tracer:
    """Spans of one traced pass, kept in memory until ``reset``."""

    def __init__(self, package: str = "dunkl_darboux"):
        self.package = package
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.tags = [""]
        self._tag_ids = {"": 0}
        self._fid = array("i")
        self._parent = array("i")
        self._tag = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack = [-1]
        self._originals = {}   # id(original) -> (original, wrapper)
        for layer_index, layer in enumerate(LAYERS):
            module = importlib.import_module(f"{package}.{layer}")
            for name, obj in sorted(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                fid = len(self.names)
                self.names.append(f"{layer}.{name}")
                self.layer_of.append(layer_index)
                self._originals[id(obj)] = (obj, self._wrap(fid, obj))
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        for buf in (self._fid, self._parent, self._tag, self._t0, self._t1):
            del buf[:]
        self.max_rel_est_error = 0.0
        self.quad_evals = 0
        self.quad_max_est_error = 0.0
        self.singularity_errors = 0
        self._seen_errors = set()
        self.op_error = None

    def _tag_id(self, tag: str) -> int:
        if tag not in self._tag_ids:
            self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        return self._tag_ids[tag]

    def _observe(self, result) -> None:
        # SpecialValue and QuadratureResult are told apart by their fields.
        err = getattr(result, "est_abs_error", None)
        if err is None:
            return
        n_evals = getattr(result, "n_evals", None)
        if n_evals is not None:
            self.quad_evals += n_evals
            rel = err / max(1.0, abs(result.value))
            self.quad_max_est_error = max(self.quad_max_est_error, rel)
        elif result.value != 0.0:
            self.max_rel_est_error = max(self.max_rel_est_error,
                                         err / abs(result.value))

    def _on_error(self, fid: int, exc: BaseException) -> None:
        layer = LAYERS[self.layer_of[fid]]
        if layer == "darboux" and type(exc).__name__ == "SingularityError" \
                and id(exc) not in self._seen_errors:
            self._seen_errors.add(id(exc))
            self.singularity_errors += 1
        if layer == "cli" and self.names[fid] != "cli.run":
            self.op_error = type(exc).__name__

    def _wrap(self, fid, fn):
        fids, parents, tags = self._fid, self._parent, self._tag
        t0s, t1s, stack = self._t0, self._t1, self._stack
        clock = time.perf_counter
        tagger = TAGGERS.get(self.names[fid])
        observe = self._observe if self.names[fid].startswith(
            ("specfun.", "numerics.integrate_real_line")) else None
        on_error = self._on_error

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            tags.append(self._tag_id(tagger(args, kwargs)) if tagger else 0)
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1s[idx] = clock()
                stack.pop()
                on_error(fid, exc)
                raise
            t1s[idx] = clock()
            stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _package_modules(self):
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def _swap(self, pick) -> None:
        for module in self._package_modules():
            for name, obj in list(vars(module).items()):
                replacement = pick(obj)
                if replacement is not None:
                    setattr(module, name, replacement)

    def install(self) -> None:
        self._swap(lambda obj: self._originals.get(id(obj), (None, None))[1])

    def uninstall(self) -> None:
        back = {id(w): o for o, w in self._originals.values()}
        self._swap(lambda obj: back.get(id(obj)))

    # -- output ------------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self._fid, dtype=np.int32),
                np.frombuffer(self._parent, dtype=np.int32),
                np.frombuffer(self._tag, dtype=np.int32),
                np.frombuffer(self._t0, dtype=np.float64),
                np.frombuffer(self._t1, dtype=np.float64))

    def summary(self) -> dict:
        """Totals of the recorded spans, keyed by function and by layer."""
        fid, parent, tag, t0, t1 = self._arrays()
        n_funcs = len(self.names)
        dur = t1 - t0
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(fid, minlength=n_funcs)
        incl = np.bincount(fid, weights=dur, minlength=n_funcs)
        self_by_fn = np.bincount(fid, weights=self_time, minlength=n_funcs)
        layer = np.asarray(self.layer_of, dtype=np.int32)[fid]
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        entries = np.bincount(layer[parent_layer != layer], minlength=len(LAYERS))
        out = {
            "spans": int(len(fid)),
            "calls": {n: int(c) for n, c in zip(self.names, calls) if c},
            "incl_s": {n: float(s) for n, s, c in zip(self.names, incl, calls) if c},
            "tag_calls": {}, "tag_incl_s": {},
            "layer_self_s": {name: float(self_by_fn[np.asarray(self.layer_of) == i].sum())
                             for i, name in enumerate(LAYERS)},
            "layer_entries": {name: int(entries[i]) for i, name in enumerate(LAYERS)},
            "max_rel_est_error": self.max_rel_est_error,
            "quad_evals": self.quad_evals,
            "quad_max_est_error": self.quad_max_est_error,
            "singularity_errors": self.singularity_errors,
        }
        tagged = tag > 0
        for f, t in set(zip(fid[tagged].tolist(), tag[tagged].tolist())):
            sel = (fid == f) & (tag == t)
            key = f"{self.names[f]}.{self.tags[t]}"
            out["tag_calls"][key] = int(sel.sum())
            out["tag_incl_s"][key] = float(dur[sel].sum())
        return out

    def save_spans(self, path) -> None:
        """Write the recorded spans to ``path`` as a compressed .npz file."""
        fid, parent, tag, t0, t1 = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), tags=np.array(self.tags),
                            fid=fid, parent=parent, tag=tag, t0=t0, t1=t1)
