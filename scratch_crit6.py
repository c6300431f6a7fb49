"""Prototype criterion 6: shadow de-baking with/without visibility."""
import sys
import tempfile
import time

import numpy as np

from skylit import fields as fd
from skylit import scenes as sc
from skylit import train as tr
from skylit.geometry import srgb
from skylit.metrics import mse, psnr
from skylit.render import render_image


def shadow_region_points(scene, n=400, margin=0.8, rng=None):
    """Ground points inside the analytic shadow ellipse of the sphere."""
    rng = rng or np.random.default_rng(0)
    sphere = scene.primitives[1]
    sun = scene.sun_dir
    center = sphere.center[:2] - sphere.center[2] * sun[:2] / sun[2]
    pts = []
    while len(pts) < n:
        cand = center + rng.uniform(-0.35, 0.35, size=(4 * n, 2))
        ground = np.concatenate([cand, np.zeros((len(cand), 1))], axis=1)
        occ = scene.occluded(ground + [0, 0, 1e-4], sun[None, :])[:, 0]
        inside = occ & (np.linalg.norm(ground, axis=1) < 0.95)
        pts.extend(ground[inside][: n - len(pts)])
    pts = np.asarray(pts[:n])
    # shrink toward the shadow center to stay off the penumbra boundary
    pts[:, :2] = center + margin * (pts[:, :2] - center)
    return pts


def region_shadowed_view_fraction(scene, dataset, pts):
    hits = 0
    for i, cam in enumerate(dataset.cameras):
        rel = (pts - cam.origin) @ cam.R.T
        px = rel[:, :2] / rel[:, 2:3]
        uv = px @ cam.K[:2, :2].T + cam.K[:2, 2]
        u = np.round(uv[:, 0] - 0.5).astype(int)
        v = np.round(uv[:, 1] - 0.5).astype(int)
        ok = (u >= 0) & (u < dataset.width) & (v >= 0) & (v < dataset.height)
        if ok.mean() < 0.5:
            continue
        shadowed = dataset.shadows[i][v[ok], u[ok]]
        ground = dataset.masks[i][v[ok], u[ok]] == sc.CLASS_GROUND
        if (shadowed[ground] == 1).mean() > 0.7:
            hits += 1
    return hits / dataset.n_views


def albedo_region_mse(trainer, scene, pts):
    t_fields = trainer.fields
    import skylit.tape as tp

    t = tp.Tape()
    bound = fd.BoundFields(t, t_fields, trainable=False)
    a = fd.albedo_eval(bound, pts).data
    gt = scene.albedo_at(pts)
    return float(np.mean((a - gt) ** 2))


def run(tag, use_visibility, steps, dataset, scene, out, lr_eps=4e-3):
    cfg = tr.TrainConfig(
        steps=steps, rays_per_batch=96, samples_per_ray=24, dir_level=1,
        sdf_resolution=32, ddf_pos_res_theta=16, ddf_pos_res_phi=32,
        ddf_dir_res_theta=8, ddf_dir_res_phi=16, warmup_steps=300,
        ddf_refresh_every=50, use_visibility=use_visibility, seed=0,
        lr_eps=lr_eps,
    )
    trainer = tr.Trainer(dataset, cfg)
    t0 = time.time()
    trainer.train(progress_every=max(steps // 8, 1))
    print(f"{tag}: {time.time()-t0:.0f}s eps={trainer.vis_params.epsilon:.3f}")
    pts = shadow_region_points(scene)
    m = albedo_region_mse(trainer, scene, pts)
    img = render_image(dataset.cameras[0], trainer.fields, trainer.state(0),
                       ddf=trainer.ddf if use_visibility else None,
                       params=trainer.vis_params, dir_level=2, n_samples=32)
    p = psnr(img.srgb, srgb(dataset.images[0]),
             dataset.masks[0] != sc.CLASS_TRANSIENT)
    print(f"{tag}: region albedo MSE {m:.5f}  view0 PSNR {p:.2f}")
    return trainer, m


if __name__ == "__main__":
    steps = int(sys.argv[2]) if len(sys.argv) > 2 else 10000
    scene = sc.make_scene("sphere-plane", seed=0)
    with tempfile.TemporaryDirectory() as d:
        dataset = sc.generate_dataset(scene, 20, seed=11, out_dir=d,
                                      width=64, height=48, quad_level=3)
    pts = shadow_region_points(scene)
    print("region shadowed in view fraction:",
          region_shadowed_view_fraction(scene, dataset, pts))
    which = sys.argv[1]
    if which == "vis":
        run("vis", True, steps, dataset, scene, None)
    elif which == "novis":
        run("novis", False, steps, dataset, scene, None)
