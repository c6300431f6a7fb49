"""Per-layer metrics from a traced run, one per module of src/skylit.

Op-phase figures are per op (one train step or fit step): self
times in seconds, counts as averages. Set-up figures are per set-up.
"""

from __future__ import annotations

OPS = "bench.ops"
SETUP = "bench.setup"

SELF_TIMES = [
    "tape.backward", "tape.einsum2", "render.render_rays",
    "fields.sdf_eval", "fields.albedo_eval", "fields.sdf_normals",
    "fields.neus_weights", "fields.expected_depth", "fields.stratified_samples",
    "fields.sphere_trace", "visibility.soft_visibility", "visibility.ddf_eval",
    "illumination.radiance_all", "losses.sample_ddf_batch",
    "losses.sample_multiview_pairs", "losses.ddf_depth_loss",
    "losses.ddf_levelset_loss", "losses.ddf_multiview_loss",
    "losses.appearance_loss", "losses.sky_loss", "losses.ddf_sky_loss",
    "geometry.vmf_sample_batch", "train.Adam.update", "train.sample_ray_batch",
]
OP_COUNTS = [  # (counter, unit), reported per op
    ("render.quad_macs", "MAC"),
    ("fields.sphere_trace.rays", "count"),
    ("scenes.sdf_np.calls", "count"),
    ("scenes.sdf_np.points", "count"),
    ("fields.SdfField.sdf_np.calls", "count"),
    ("visibility.soft_visibility.queries", "count"),
    ("visibility.ddf_eval.queries", "count"),
]
RATIOS = [  # (metric, numerator counter, denominator counter)
    ("fields.sphere_trace.hit_frac", "fields.sphere_trace.hits",
     "fields.sphere_trace.rays"),
    ("fields.sphere_trace.converged_frac", "fields.sphere_trace.converged",
     "fields.sphere_trace.rays"),
    ("losses.ddf_hit_frac", "losses.ddf_useful_rays", "losses.ddf_rays"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, n_ops, rejected_steps):
    """{metric name: (value, unit)} for every per-layer metric."""
    ops = tracer.totals(OPS)
    setup = tracer.totals(SETUP)

    def per_op(key):
        return tracer.counter(OPS, key) / n_ops

    out = {}
    for name in SELF_TIMES:
        out[name + ".self_s"] = (ops.get(name, (0, 0.0, 0.0))[2] / n_ops, "s")
    calls = tracer.counter(OPS, "tape.backward.calls")
    out["tape.nodes"] = (_ratio(tracer.counter(OPS, "tape.nodes"), calls), "count")
    out["tape.saved_mb"] = (
        _ratio(tracer.counter(OPS, "tape.saved_bytes"), calls) / 1e6, "MB")
    einsum_self = ops.get("tape.einsum2", (0, 0.0, 0.0))[2]
    out["tape.einsum2.gflops"] = (
        _ratio(tracer.counter(OPS, "tape.einsum2.flop"), einsum_self) / 1e9, "GFLOP/s")
    gc_calls, gc_total, _ = ops.get("runtime.gc", (0, 0.0, 0.0))
    out["runtime.gc.pause_s"] = (gc_total / n_ops, "s")
    out["runtime.gc.collections"] = (gc_calls / n_ops, "count")
    for key, unit in OP_COUNTS:
        out[key] = (per_op(key), unit)
    for metric, num, den in RATIOS:
        out[metric] = (_ratio(tracer.counter(OPS, num), tracer.counter(OPS, den)),
                       "frac")
    out["train.Adam.update.mb"] = (per_op("train.Adam.update.bytes") / 1e6, "MB")
    out["train.rejected_steps"] = (rejected_steps, "count")
    for name in ("scenes.generate_dataset", "scenes.render_ground_truth"):
        out[name + ".s"] = (setup.get(name, (0, 0.0, 0.0))[1], "s")
    out["fileio.bytes_written"] = (tracer.counter(SETUP, "fileio.bytes_written"), "B")
    return out
