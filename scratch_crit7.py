"""Prototype criterion 7: shadow-driven geometry behind the cameras."""
import sys
import tempfile
import time

import numpy as np

from skylit import scenes as sc
from skylit import train as tr


def blocker_stats(scene, dataset):
    box = scene.primitives[1]
    # blocker outside every camera frustum
    for cam in dataset.cameras:
        to_box = box.center - cam.origin
        to_box /= np.linalg.norm(to_box)
        angle = np.degrees(np.arccos(np.clip(to_box @ cam.R[2], -1, 1)))
        assert angle > 60.0, angle
    # box never visibly hit in any mask
    print("foreground px per view:",
          [(dataset.masks[i] == sc.CLASS_FOREGROUND).sum()
           for i in range(dataset.n_views)])
    print("shadowed ground px per view:",
          [(dataset.shadows[i] == 1).sum() for i in range(dataset.n_views)])


def bbox_points(scene, n=2000, margin=0.02, rng=None):
    rng = rng or np.random.default_rng(0)
    box = scene.primitives[1]
    lo = box.center - box.half_extents - margin
    hi = box.center + box.half_extents + margin
    return rng.uniform(lo, hi, size=(n, 3))


def occupied_fraction(trainer, pts):
    return float(np.mean(trainer.fields.sdf.sdf_np(pts) <= 0.0))


def run(stop_gradient, steps, dataset, scene):
    cfg = tr.TrainConfig(
        steps=steps, rays_per_batch=96, samples_per_ray=24, dir_level=1,
        sdf_resolution=32, ddf_pos_res_theta=16, ddf_pos_res_phi=32,
        ddf_dir_res_theta=8, ddf_dir_res_phi=16, warmup_steps=300,
        ddf_refresh_every=50, stop_gradient=stop_gradient, seed=0,
    )
    trainer = tr.Trainer(dataset, cfg)
    t0 = time.time()
    trainer.train(progress_every=max(steps // 6, 1))
    pts = bbox_points(scene)
    frac = occupied_fraction(trainer, pts)
    print(f"stop={stop_gradient}: {time.time()-t0:.0f}s "
          f"eps={trainer.vis_params.epsilon:.3f} bbox occupied frac={frac:.4f}")
    return trainer, frac


if __name__ == "__main__":
    which = sys.argv[1]
    steps = int(sys.argv[2]) if len(sys.argv) > 2 else 6000
    scene = sc.make_scene("blocker", seed=0)
    with tempfile.TemporaryDirectory() as d:
        dataset = sc.generate_dataset(scene, 20, seed=13, out_dir=d,
                                      width=64, height=48, quad_level=3)
    blocker_stats(scene, dataset)
    if which == "free":
        run(False, steps, dataset, scene)
    elif which == "stop":
        run(True, steps, dataset, scene)
