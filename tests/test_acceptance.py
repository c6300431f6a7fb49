"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with -s to see the per-criterion report. The training-scale criteria are
marked slow; everything else completes in seconds.
"""

import numpy as np
import pytest

from skylit import fields as fd
from skylit import illumination as il
from skylit import losses as ls
from skylit import metrics
from skylit import render as rd
from skylit import scenes as sc
from skylit import tape as tp
from skylit import train as tr
from skylit import visibility as vz
from skylit.geometry import (icosphere_directions, normalize, sample_sphere,
                             vmf_sample_batch)
from tests.conftest import (bind_ddf, bind_fields, bind_illumination, binary_visibility_oracle,
                            exit_point, plane_shading)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1: gradient correctness of every loss term ------------------


def _toy_setup():
    rng = np.random.default_rng(42)
    decoder = il.LobeDecoder.default(4)
    # a 5^3 grid so the blob's center node is inside (radius 0.35): DDF rays
    # hit it and multiview pairs exist
    fields = fd.SceneFields(
        fd.SdfField.sphere_init(5, radius=0.35, inv_s=12.0),
        fd.AlbedoField.constant_init(3, value=-1.0),
    )
    fields.sdf.grid += 0.05 * rng.normal(size=fields.sdf.grid.shape)
    fields.albedo.grid += 0.2 * rng.normal(size=fields.albedo.grid.shape)
    # depths around 0.85 +- 0.3: below some sky-ray and multiview distances
    # and above others, so both hinges are active on part of their batch
    ddf = vz.DdfField(-0.3 + 0.6 * rng.normal(size=(4, 6, 3, 4)))
    # epsilon 0.2 keeps enough visibility arguments off the sigmoid's flat
    # tails that appearance gradients reach the DDF and epsilon
    vis = vz.VisibilityParams.default(epsilon=0.2)
    bank = il.IlluminationBank.zeros(decoder, 2)
    bank.log_gamma[:] = np.log(0.3)
    bank.Z += 0.2 * rng.normal(size=bank.Z.shape)

    params = {
        "sdf_grid": fields.sdf.grid.copy(),
        "sdf_log_inv_s": fields.sdf.log_inv_s.copy(),
        "albedo_grid": fields.albedo.grid.copy(),
        "ddf_grid": ddf.grid.copy(),
        "vis_eps_raw": vis.eps_raw.copy(),
        "illum_Z": bank.Z.copy(),
        "illum_log_gamma": bank.log_gamma.copy(),
    }

    origins = np.array([[0.0, -0.55, 0.35]] * 3)
    dirs = np.array([[0.1, 0.9, -0.35], [-0.1, 0.85, -0.1], [0.0, 0.8, 0.6]])
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    image_idx = np.array([0, 1, 0])
    gt = rng.uniform(0.1, 0.9, size=(3, 3))
    dir_set = icosphere_directions(0)
    jitter = np.eye(3)
    ddf_batch = ls.sample_ddf_batch(fields.sdf, np.random.default_rng(7), 2, 8)
    mv_pairs = ls.sample_multiview_pairs(fields.sdf, np.random.default_rng(8), 8)
    # two short sky rays (hinge off) and two long ones (hinge on)
    sky_o = np.array([[0.0, -0.4, 0.3], [0.1, -0.5, 0.2],
                      [0.1, -0.6, 0.1], [-0.2, -0.5, 0.15]])
    sky_d = np.array([[0.0, 0.35, 0.94], [0.05, 0.3, 0.95],
                      [0.0, 0.8, 0.6], [0.3, 0.85, 0.45]])
    sky_d = sky_d / np.linalg.norm(sky_d, axis=1, keepdims=True)

    def bound_all(t, pv):
        def get(key, fallback):
            return pv[key] if key in pv else tp._lift(fallback)

        bf = bind_fields(
            fields, get("sdf_grid", params["sdf_grid"]),
            get("sdf_log_inv_s", params["sdf_log_inv_s"]),
            get("albedo_grid", params["albedo_grid"]))
        bi = bind_illumination(
            decoder, get("illum_Z", params["illum_Z"]),
            get("illum_log_gamma", params["illum_log_gamma"]))
        bd = bind_ddf(
            ddf, vis, get("ddf_grid", params["ddf_grid"]),
            get("vis_eps_raw", params["vis_eps_raw"]))
        return bf, bi, bd

    def render(t, pv, with_vis=True):
        bf, bi, bd = bound_all(t, pv)
        return rd.render_rays(bf, bi, bd if with_vis else None,
                              origins, dirs, image_idx, dir_set=dir_set,
                              jitter=jitter, rng=np.random.default_rng(5),
                              n_samples=6)

    def sky_term(t, pv):
        out = render(t, pv, with_vis=False)
        return ls.sky_loss(out["background"], gt, out["W"])

    losses = {
        "appearance": (
            lambda t, pv: ls.appearance_loss(render(t, pv)["rgb"], gt),
            ("sdf_grid", "sdf_log_inv_s", "albedo_grid", "ddf_grid",
             "vis_eps_raw", "illum_Z", "illum_log_gamma"),
        ),
        # sky and ground_plane read only densities, normals and the sky:
        # albedo never reaches them, so it is not among their slots
        "sky": (
            sky_term,
            ("sdf_grid", "sdf_log_inv_s", "illum_Z", "illum_log_gamma"),
        ),
        "prior": (
            lambda t, pv: il.prior_loss(pv["illum_Z"]),
            ("illum_Z",),
        ),
        "ddf_depth": (
            lambda t, pv: ls.ddf_depth_loss(ddf_batch, bound_all(t, pv)[2]),
            ("ddf_grid",),
        ),
        "ddf_levelset": (
            lambda t, pv: ls.ddf_levelset_loss(ddf_batch, bound_all(t, pv)[2],
                                               bound_all(t, pv)[0]),
            ("ddf_grid", "sdf_grid"),
        ),
        "ddf_multiview": (
            lambda t, pv: ls.ddf_multiview_loss(mv_pairs, bound_all(t, pv)[2]),
            ("ddf_grid",),
        ),
        "ddf_sky": (
            lambda t, pv: ls.ddf_sky_loss(sky_o, sky_d, bound_all(t, pv)[2]),
            ("ddf_grid",),
        ),
        "ground_plane": (
            lambda t, pv: ls.ground_plane_loss(
                render(t, pv, with_vis=False)["weighted_normals"]),
            ("sdf_grid", "sdf_log_inv_s"),
        ),
        "eps_anneal": (
            lambda t, pv: ls.eps_anneal_loss(
                tp.softplus(pv["vis_eps_raw"])),
            ("vis_eps_raw",),
        ),
    }
    return params, losses


def test_criterion_1_gradient_correctness():
    import time

    # at the trained sharpness, vz.ETA = 50, the saturated sigmoid leaves
    # some DDF gradients near 1e-9: a central difference with h = 1e-4 loses
    # them in the loss's rounding error (smaller steps read worse), while
    # h = 1e-3 keeps that error small and still resolves the curvature
    assert vz.ETA == 50.0
    t0 = time.time()
    params, losses = _toy_setup()
    worst, dead = {}, []
    for name, (fn, keys) in losses.items():
        subset = {k: params[k] for k in keys}
        worst[name] = tp.gradient_check(fn, subset, h=1e-3)
        # a check that compares 0 with 0 proves nothing: every slot a term
        # reaches must get a non-zero analytic gradient on the toy
        t = tp.Tape()
        out = fn(t, {k: t.parameter(k, v) for k, v in subset.items()})
        grads = tp.backward(t, out)
        dead += [f"{name}/{k}" for k in keys if not np.any(grads[k])]
    elapsed = time.time() - t0
    detail = (", ".join(f"{k}={v:.2e}" for k, v in worst.items())
              + f"; all-zero gradient slots: {', '.join(dead) or 'none'}"
              + f"; runtime {elapsed:.0f}s")
    report(1, max(worst.values()) < 1e-4 and not dead and elapsed < 60.0,
           f"loss-term gradient checks vs central differences: {detail}")


# -- criterion 2: irradiance quadrature -------------------------------------


def test_criterion_2_irradiance_quadrature():
    sky = il.IlluminationBank.zeros(il.LobeDecoder.default(), 1)
    rng = np.random.default_rng(0)
    worst = 0.0
    lower = 0
    for _ in range(100):
        n = rng.normal(size=3)
        lower += n[2] < 0.0
        surface, albedo = plane_shading(n, sky,
                                        albedo_raw=rng.uniform(-3.0, 3.0, size=3))
        worst = max(worst, np.abs(surface / (np.pi * albedo) - 1.0).max())
    report(2, worst < 0.01,
           f"render_rays radiance (V=1, L=1) vs pi*albedo over 100 normals "
           f"({lower} facing down) at D=642: max rel err {worst:.4f}")


# -- criterion 3: soft-visibility fixed points -------------------------------


def test_criterion_3_soft_visibility_fixed_points():
    ddf = vz.DdfField.zero_init((8, 16), (4, 8))
    t = tp.Tape()
    bound = vz.BoundDdf(t, ddf, vz.VisibilityParams.default(), trainable=False)

    # V = 0.5 exactly when ||s-x|| - f_DDF = eps (argument cancels to 0.0)
    x = np.array([[0.0, 0.0, 0.2]])
    d = np.array([[0.0, 0.0, 1.0]])
    s_var, t_var = exit_point(tp._lift(x), d)
    depth = vz.ddf_eval(bound, s_var, -d, strict=False)
    eps_exact = float(t_var.data[0] - depth.data[0])
    v_half = 1.0 - tp.sigmoid(50.0 * ((t_var - depth) - eps_exact))
    half_exact = float(v_half.data[0]) == 0.5

    # V = 1 exactly for lower-hemisphere directions
    rng = np.random.default_rng(1)
    xs = rng.uniform(-0.4, 0.4, size=(64, 3))
    ds = sample_sphere(rng, 64, max_z=-1e-9)
    v_low = vz.soft_visibility(bound, xs[:, None, :], ds[:, None, :])
    lower_exact = bool(np.all(v_low.data == 1.0))

    # monotone in epsilon over 10^3 probes, zero violations
    ddf_r = vz.DdfField(rng.normal(size=(8, 16, 6, 12)))
    xs = rng.uniform(-0.5, 0.5, size=(1000, 3))
    ds = sample_sphere(rng, 1000, min_z=1e-3)
    prev = None
    violations = 0
    for eps in (0.02, 0.1, 0.3, 0.8, 1.6):
        t2 = tp.Tape()
        b2 = vz.BoundDdf(t2, ddf_r, vz.VisibilityParams.default(epsilon=eps),
                         trainable=False)
        v = vz.soft_visibility(b2, xs[:, None, :], ds[:, None, :]).data
        if prev is not None:
            violations += int(np.sum(v < prev))
        prev = v
    report(3, half_exact and lower_exact and violations == 0,
           f"V=0.5 exact at threshold: {half_exact}; lower-hemisphere V=1 "
           f"exact: {lower_exact}; epsilon-monotonicity violations: "
           f"{violations}/4000")


# -- criteria 4 & 5: DDF oracle agreement and depth fidelity -----------------


@pytest.mark.slow
def test_criterion_4_oracle_visibility_agreement(two_sphere_scene,
                                                 fitted_two_sphere_ddf):
    scene = two_sphere_scene
    ddf = fitted_two_sphere_ddf
    rng = np.random.default_rng(5)
    pts, norms = [], []
    for prim in scene.primitives:
        u = sample_sphere(rng, 5000)
        pts.append(prim.center + (prim.radius + 2e-4) * u)
        norms.append(u)
    x = np.concatenate(pts)
    n = np.concatenate(norms)
    d = sample_sphere(rng, len(x), min_z=0.0)
    keep = np.sum(d * n, axis=1) > 0.05  # shading-relevant directions
    x, d = x[keep][:10000], d[keep][:10000]
    oracle, _ = binary_visibility_oracle(scene, x, d)
    t = tp.Tape()
    bound = vz.BoundDdf(t, ddf, vz.VisibilityParams.default(epsilon=0.1),
                        trainable=False)
    soft = vz.soft_visibility(bound, x[:, None, :], d[:, None, :])
    predicted = (soft.data.reshape(-1) > 0.5).astype(float)
    agree = float(np.mean(predicted == oracle))
    report(4, agree >= 0.95,
           f"thresholded soft visibility vs sphere-tracing oracle on "
           f"{len(x)} surface queries: {agree:.3f} agreement (need >= 0.95)")


@pytest.mark.slow
def test_criterion_5_ddf_depth_fidelity(two_sphere_scene, fitted_two_sphere_ddf):
    rng = np.random.default_rng(99)
    batch = ls.sample_ddf_batch(two_sphere_scene, rng, 64, 160)
    t = tp.Tape()
    bound = vz.BoundDdf(t, fitted_two_sphere_ddf,
                        vz.VisibilityParams.default(), trainable=False)
    pred = vz.ddf_eval(bound, batch.flat_positions, batch.flat_directions)
    mae = float(np.abs(pred.data - batch.flat_depths).mean())
    report(5, mae < 0.05,
           f"held-out DDF depth MAE vs sphere-traced targets: {mae:.4f} "
           f"(need < 0.05)")


# -- criterion 9: vMF sampler statistics -------------------------------------


def test_criterion_9_vmf_statistics():
    rng = np.random.default_rng(6)
    mean = normalize([0.2, -0.3, 0.933])
    v = vmf_sample_batch(mean, 20.0, 100_000, rng)[0]
    resultant = v.mean(axis=0)
    mrl = float(np.linalg.norm(resultant))
    expected = 1.0 / np.tanh(20.0) - 1.0 / 20.0
    rel = abs(mrl - expected) / expected
    off = float(np.linalg.norm(resultant / mrl - mean))
    report(9, rel < 0.02 and off < 0.01,
           f"vMF(kappa=20) mean resultant length {mrl:.4f} vs coth(20)-1/20 "
           f"= {expected:.4f} (rel err {rel:.4f}, need < 0.02); mean direction "
           f"off by {off:.4f} (need < 0.01)")


# -- criterion 11: determinism ------------------------------------------------


def test_criterion_11_determinism(tmp_path, tiny_dataset):
    import os

    scene = sc.make_scene("two-sphere", seed=0)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    sc.generate_dataset(scene, 3, seed=5, out_dir=str(d1), width=24,
                        height=18, quad_level=2)
    sc.generate_dataset(sc.make_scene("two-sphere", seed=0), 3, seed=5,
                        out_dir=str(d2), width=24, height=18, quad_level=2)
    byte_identical = all(
        (d1 / f).read_bytes() == (d2 / f).read_bytes()
        for f in sorted(os.listdir(d1))
    )

    from tests.conftest import tiny_train_config

    _, dataset = tiny_dataset

    def curve():
        trainer = tr.Trainer(dataset, tiny_train_config(steps=100))
        return np.array([h["total"] for h in trainer.train(100)])

    c1, c2 = curve(), curve()
    bit_identical = bool(np.array_equal(c1, c2))
    report(11, byte_identical and bit_identical,
           f"datasets byte-identical: {byte_identical}; 100-step loss curves "
           f"bit-identical: {bit_identical}")
