"""Span tracing of skylit from outside the package.

``Tracer.install`` replaces the public functions listed in ``TARGETS`` with
timing wrappers, wherever a skylit module binds them: the defining module,
every ``from ... import`` binding in another module, and the package
namespace. Spans (name, start, end, parent) and per-layer counters stay in
memory; ``write_spans`` dumps them when the run ends. Collector pauses,
reported through ``gc.callbacks``, become ``runtime.gc`` spans, so they are
subtracted from the self time of the span they interrupted.

Each span belongs to the phase named by its root span (``bench.setup`` or
``bench.ops``), so set-up work never counts toward the per-op figures.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import os
import sys
import time

import numpy as np

GC_SPAN = "runtime.gc"


# -- counters computed from a call's arguments and result ------------------


def _count_sphere_trace(tr, args, kwargs, result):
    tr.count("fields.sphere_trace.rays", result.hit.size)
    tr.count("fields.sphere_trace.hits", int(result.hit.sum()))
    tr.count("fields.sphere_trace.converged", int(result.converged.sum()))


def _count_points(key):
    def observe(tr, args, kwargs, result):
        tr.count(key + ".calls", 1)
        tr.count(key + ".points", np.size(result))
    return observe


def _count_queries(key):
    def observe(tr, args, kwargs, result):
        tr.count(key, result.data.size)
    return observe


def _count_ddf_batch(tr, args, kwargs, result):
    tr.count("losses.ddf_rays", result.depths.size)
    tr.count("losses.ddf_useful_rays", int(result.flat_hit.sum()))


def _count_quadrature(tr, args, kwargs, result):
    # rays x samples x directions x colour channels of the irradiance
    # contraction in render_rays
    rays, samples = result["weights"].data.shape
    dir_set = args[7] if len(args) > 7 else kwargs["dir_set"]
    tr.count("render.quad_macs", rays * samples * dir_set.count * 3)


def _count_einsum(tr, args, kwargs, result):
    subscripts, a, b = args[:3]
    sizes = {}
    ins = subscripts.split("->")[0].split(",")
    for sub, operand in zip(ins, (a, b)):
        shape = np.shape(getattr(operand, "data", operand))
        sizes.update(zip(sub, shape))
    tr.count("tape.einsum2.flop", 2 * int(np.prod(list(sizes.values()))))


def _count_adam(tr, args, kwargs, result):
    # param, grad, m and v read; param, m and v written
    tr.count("train.Adam.update.bytes", 7 * np.asarray(args[2]).nbytes)


def _count_file(tr, args, kwargs, result):
    tr.count("fileio.bytes_written", os.path.getsize(args[0]))


def _count_tape(tr, args, kwargs):
    tape = args[0]
    tr.count("tape.backward.calls", 1)
    tr.count("tape.nodes", len(tape.nodes))
    tr.count("tape.saved_bytes", tape_saved_bytes(tape))


def _owner(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def tape_saved_bytes(tape):
    """Bytes of the arrays a tape keeps alive: node values plus what the
    backward and replay closures captured. Parameter arrays belong to the
    model, not the tape, and are left out."""
    params = {id(_owner(p.data)) for p in tape.params.values()}
    seen = {}

    def add(x):
        if hasattr(x, "data") and hasattr(x, "parents"):
            x = x.data
        if isinstance(x, (tuple, list)):
            for item in x:
                add(item)
        elif isinstance(x, np.ndarray):
            owner = _owner(x)
            if id(owner) not in params:
                seen[id(owner)] = owner.nbytes

    def add_closure(fn):
        for cell in getattr(fn, "__closure__", None) or ():
            try:
                add(cell.cell_contents)
            except ValueError:  # empty cell
                pass

    for node in tape.nodes:
        add(node.data)
        add_closure(getattr(node, "_fwd", None))
        for parent, vjp in node.parents:
            add(parent.data)
            add_closure(vjp)
    return sum(seen.values())


# (module, attribute path, span name, after-call observer, before-call observer)
TARGETS = [
    ("tape", "backward", "tape.backward", None, _count_tape),
    ("tape", "einsum2", "tape.einsum2", _count_einsum, None),
    ("render", "render_rays", "render.render_rays", _count_quadrature, None),
    ("visibility", "soft_visibility", "visibility.soft_visibility",
     _count_queries("visibility.soft_visibility.queries"), None),
    ("visibility", "ddf_eval", "visibility.ddf_eval",
     _count_queries("visibility.ddf_eval.queries"), None),
    ("fields", "sdf_eval", "fields.sdf_eval", None, None),
    ("fields", "albedo_eval", "fields.albedo_eval", None, None),
    ("fields", "sdf_normals", "fields.sdf_normals", None, None),
    ("fields", "neus_weights", "fields.neus_weights", None, None),
    ("fields", "expected_depth", "fields.expected_depth", None, None),
    ("fields", "stratified_samples", "fields.stratified_samples", None, None),
    ("fields", "sphere_trace", "fields.sphere_trace", _count_sphere_trace, None),
    ("fields", "SdfField.sdf_np", "fields.SdfField.sdf_np",
     _count_points("fields.SdfField.sdf_np"), None),
    ("scenes", "SyntheticScene.sdf_np", "scenes.sdf_np",
     _count_points("scenes.sdf_np"), None),
    ("illumination", "BoundIllumination.radiance_all",
     "illumination.radiance_all", None, None),
    ("losses", "sample_ddf_batch", "losses.sample_ddf_batch", _count_ddf_batch, None),
    ("losses", "sample_multiview_pairs", "losses.sample_multiview_pairs", None, None),
    ("losses", "ddf_depth_loss", "losses.ddf_depth_loss", None, None),
    ("losses", "ddf_levelset_loss", "losses.ddf_levelset_loss", None, None),
    ("losses", "ddf_multiview_loss", "losses.ddf_multiview_loss", None, None),
    ("losses", "appearance_loss", "losses.appearance_loss", None, None),
    ("losses", "sky_loss", "losses.sky_loss", None, None),
    ("losses", "ddf_sky_loss", "losses.ddf_sky_loss", None, None),
    ("geometry", "vmf_sample_batch", "geometry.vmf_sample_batch", None, None),
    ("train", "Adam.update", "train.Adam.update", _count_adam, None),
    ("train", "sample_ray_batch", "train.sample_ray_batch", None, None),
    ("scenes", "generate_dataset", "scenes.generate_dataset", None, None),
    ("scenes", "render_ground_truth", "scenes.render_ground_truth", None, None),
    ("fileio", "write_pfm", "fileio.write_pfm", _count_file, None),
    ("fileio", "write_ppm", "fileio.write_ppm", _count_file, None),
    ("fileio", "write_pgm", "fileio.write_pgm", _count_file, None),
    ("fileio", "write_pose_file", "fileio.write_pose_file", _count_file, None),
    ("fileio", "write_config", "fileio.write_config", _count_file, None),
]


class Tracer:
    """In-memory span recorder. Not thread-safe: skylit is single-threaded."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.roots = []
        self.stack = []
        # collector pauses are kept apart so a collection that starts while
        # a span is being opened cannot interleave with its list appends
        self.gc_spans = []
        self._gc_start = None
        self.counters = {}
        self.missing = []          # targets this version of skylit lacks
        self.observer_errors = {}  # span name -> first observer exception
        self._restore = []

    # -- spans -----------------------------------------------------------
    def open(self, name):
        idx = len(self.names)
        parent = self.stack[-1] if self.stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.roots.append(self.roots[parent] if parent >= 0 else idx)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def phase(self):
        if not self.stack:
            return None
        return self.names[self.roots[self.stack[-1]]]

    def count(self, key, value):
        phase = self.counters.setdefault(self.phase(), {})
        phase[key] = phase.get(key, 0) + value

    def _on_gc(self, event, info):
        if event == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            parent = self.stack[-1] if self.stack else -1
            self.gc_spans.append((self._gc_start, time.perf_counter(), parent))
            self._gc_start = None

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn, name, after, before):
        tracer = self

        def observe(hook, *hook_args):
            # a counter that no longer fits the program must not break it
            try:
                hook(tracer, *hook_args)
            except Exception as exc:  # noqa: BLE001
                tracer.observer_errors.setdefault(name, f"{type(exc).__name__}: {exc}")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                observe(before, args, kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                observe(after, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target at every module attribute that binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "skylit" or key.startswith("skylit."))]
        for mod_name, path, name, after, before in TARGETS:
            owner = sys.modules.get(f"skylit.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(fn, name, after, before)
            if outer:
                self._rebind(owner, attr, fn, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, fn, wrapper)
        gc.callbacks.append(self._on_gc)

    def _rebind(self, owner, attr, fn, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, fn))

    def uninstall(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore = []

    # -- aggregation -----------------------------------------------------
    def _all_spans(self):
        spans = list(zip(self.names, self.starts, self.ends, self.parents))
        spans += [(GC_SPAN, s, e, p) for s, e, p in self.gc_spans]
        return spans

    def totals(self, phase):
        """{span name: (calls, total seconds, self seconds)} for one phase."""
        spans = self._all_spans()
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(spans):
            # a collector span's root is its parent's; a root span is its own
            root = self.roots[i] if i < len(self.roots) else (
                self.roots[parent] if parent >= 0 else -1)
            if root < 0 or self.names[root] != phase:
                continue
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start,
                         self_s + end - start - child[i])
        return out

    def counter(self, phase, key):
        return self.counters.get(phase, {}).get(key, 0)

    def write_spans(self, path):
        """One JSON array per line: [id, name, start_s, end_s, parent_id]."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self._all_spans()):
                fh.write(json.dumps([i, name, start, end, parent]) + "\n")
