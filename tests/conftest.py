"""Shared fixtures: synthetic datasets and the fitted/trained models that the
oracle-equivalence tests and the acceptance suite reuse.

The expensive session fixtures (DDF oracle fit, full training runs) are
computed once per session; tests that need them share the same artifacts.
"""

import numpy as np
import pytest

from skylit import fields as fd
from skylit import illumination as il
from skylit import render as rd
from skylit import train as tr
from skylit import visibility as vz
from skylit.geometry import icosphere_directions, normalize
from skylit.scenes import generate_dataset, make_scene


@pytest.fixture(scope="session")
def two_sphere_scene():
    return make_scene("two-sphere", seed=0)


@pytest.fixture(scope="session")
def fitted_two_sphere_ddf(two_sphere_scene):
    """DDF fitted to the frozen analytic two-sphere scene with the three
    consistency losses (depth + levelset + multiview).

    Nearly all of the held-out depth error sits in a band of a few degrees
    around the spheres' silhouettes, where trilinear blending mixes hit
    depths with the exit chord; the band's width follows the polar
    direction step. So the direction grid is 48 x 48 (1.9 degree polar
    steps; 12 x 24 left 8.2 degrees and a converged MAE near 0.09). Its 8x
    more cells get 96 positions per step instead of 24; 2500 such steps
    (twice the rays of the old 5000) bring the MAE to about 0.046.
    """
    ddf = vz.DdfField.zero_init((24, 48), (48, 48))
    ddf, _ = tr.fit_ddf_to_scene(
        two_sphere_scene, ddf=ddf, steps=2500, lr=1.5e-2, warmup=150,
        n_positions=96, n_directions=128, multiview_pairs=64,
        w_levelset=3.0, seed=0,
    )
    return ddf


@pytest.fixture(scope="session")
def sphere_plane_dataset(tmp_path_factory):
    scene = make_scene("sphere-plane", seed=0)
    out = tmp_path_factory.mktemp("data") / "sphere-plane"
    return scene, generate_dataset(scene, 20, seed=11, out_dir=str(out),
                                   width=64, height=48, quad_level=3)


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    scene = make_scene("sphere-plane", seed=0)
    out = tmp_path_factory.mktemp("data") / "tiny"
    return scene, generate_dataset(scene, 6, seed=3, out_dir=str(out),
                                   width=40, height=30, quad_level=2)


# the CLI tests' training config: 3 steps on a 12^3 SDF grid
CLI_CONFIG = dict(
    steps=3, rays_per_batch=32, samples_per_ray=8, dir_level=0,
    sdf_resolution=12, warmup_steps=1, ddf_pos_res_theta=6,
    ddf_pos_res_phi=12, ddf_dir_res_theta=4, ddf_dir_res_phi=8,
    ddf_directions=16, ddf_multiview_pairs=8,
)


def tiny_train_config(**overrides):
    base = dict(
        steps=60, rays_per_batch=64, samples_per_ray=20, dir_level=1,
        sdf_resolution=20, ddf_pos_res_theta=10, ddf_pos_res_phi=20,
        ddf_dir_res_theta=8, ddf_dir_res_phi=12, warmup_steps=20,
        ddf_refresh_every=20, ddf_directions=32, ddf_multiview_pairs=16,
        seed=0,
    )
    base.update(overrides)
    base["warmup_steps"] = min(base["warmup_steps"], max(base["steps"] // 3, 1))
    return tr.TrainConfig(**base)


@pytest.fixture()
def tiny_trainer(tiny_dataset):
    _, dataset = tiny_dataset
    return tr.Trainer(dataset, tiny_train_config())


def plane_shading(normal, state, albedo_raw=0.0, ddf=None, params=None,
                  jitter=None):
    """``render_rays`` on one ray that meets an opaque plane through the
    origin with the given normal (from 0.4 * normal, looking along -normal).

    Returns (surface radiance, weighted albedo): the ray's color minus its
    (1 - W) share of background, and the weighted albedo sum_s w_s a_s. A
    trilinear grid holds the plane's linear SDF exactly, so every sample
    has the plane's normal and their ratio is the irradiance that
    ``render_rays``'s 642-direction quadrature gives that normal. Visibility
    is on when ``ddf`` is given, else every direction counts as visible.
    """
    n = normalize(normal)
    sdf = fd.SdfField.from_function(lambda p: p @ n, resolution=8)
    sdf.log_inv_s = np.asarray(np.log(400.0))
    albedo = fd.AlbedoField(np.broadcast_to(albedo_raw, (8, 8, 8, 3)).copy())
    bank = il.IlluminationBank(state.decoder, 1)
    bank.Z[0] = state.Z
    bank.log_gamma[0] = np.asarray(state.log_gamma).reshape(())
    bound_ddf = None if ddf is None else vz.BoundDdf(None, ddf, params,
                                                     trainable=False)
    out = rd.render_rays(
        None, fd.BoundFields(None, fd.SceneFields(sdf, albedo), trainable=False),
        il.BoundIllumination(None, bank, trainable=False), bound_ddf,
        0.4 * n[None, :], -n[None, :], np.zeros(1, dtype=np.int64),
        icosphere_directions(3),
        np.eye(3) if jitter is None else jitter, np.random.default_rng(0),
        n_samples=32,
    )
    rgb, w, background = (out[k].data[0] for k in ("rgb", "W", "background"))
    return rgb - (1.0 - w) * background, out["weighted_albedo"].data[0]
