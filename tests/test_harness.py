import os

import numpy as np
import pytest

from skylit import fileio, metrics
from skylit import scenes as sc
from skylit.cameras import Camera
from skylit.cli import main as cli_main
from skylit.geometry import srgb
from tests.conftest import CLI_CONFIG


def test_pfm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.uniform(0.0, 4.0, size=(6, 9, 3))
    path = tmp_path / "x.pfm"
    fileio.write_pfm(path, img)
    back = fileio.read_pfm(path)
    assert back.shape == img.shape
    assert np.abs(back - img).max() < 1e-6  # float32 storage

    gray = rng.uniform(0.0, 2.0, size=(5, 7))
    fileio.write_pfm(tmp_path / "g.pfm", gray)
    assert np.abs(fileio.read_pfm(tmp_path / "g.pfm") - gray).max() < 1e-6


def test_ppm_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.uniform(0.0, 1.0, size=(4, 5, 3))
    fileio.write_ppm(tmp_path / "x.ppm", img)
    back = fileio.read_ppm(tmp_path / "x.ppm")
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-9

    mask = rng.integers(0, 4, size=(4, 5)).astype(np.uint8)
    fileio.write_pgm(tmp_path / "m.pgm", mask)
    assert np.array_equal(fileio.read_pgm(tmp_path / "m.pgm"), mask)


def test_pose_file_roundtrip(tmp_path):
    cams = [Camera.look_at([0.3, -0.5, 0.4], [0.0, 0.0, 0.1], 32, 24),
            Camera.look_at([-0.5, 0.2, 0.3], [0.1, 0.0, 0.0], 32, 24)]
    fileio.write_pose_file(tmp_path / "poses.txt", cams)
    back = fileio.read_pose_file(tmp_path / "poses.txt", 32, 24)
    for a, b in zip(cams, back):
        assert np.array_equal(a.E, b.E)
        assert np.array_equal(a.K, b.K)


def test_config_roundtrip_and_comments(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# comment\nsteps = 12\nname = hello  # trailing\n\n")
    entries = fileio.read_config(path)
    assert entries == {"steps": "12", "name": "hello"}
    from skylit.geometry import ConfigError

    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense line\n")
    with pytest.raises(ConfigError):
        fileio.read_config(bad)


def test_blob_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    arr = rng.normal(size=(3, 4, 5)).astype(np.float32)
    path = tmp_path / "f.bin"
    with open(path, "wb") as fh:
        fileio.write_blob(fh, arr, meta=[1.5, 2.0])
        fileio.write_blob(fh, np.asarray(3.25))
    with open(path, "rb") as fh:
        back, meta = fileio.read_blob(fh)
        scalar, meta2 = fileio.read_blob(fh)
    assert np.array_equal(back, arr)
    assert meta == [1.5, 2.0]
    assert scalar.reshape(()) == 3.25
    assert meta2 == []


def test_metrics_values():
    a = np.zeros((4, 4, 3))
    assert metrics.mse(a, a) == 0.0
    assert metrics.psnr(a, a) == np.inf
    b = a + 0.1
    assert metrics.mse(a, b) == pytest.approx(0.01)
    assert metrics.psnr(a, b) == pytest.approx(20.0)
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = True
    c = a.copy()
    c[1:, :, :] = 0.7  # changes outside the mask are ignored
    assert metrics.mse(a, c, mask=mask) == 0.0


def test_two_sphere_scene_invariants():
    scene = sc.make_scene("two-sphere")
    for prim in scene.primitives:
        bound = np.linalg.norm(prim.center) + prim.radius
        assert bound < 1.0
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.9, 0.9, size=(200, 3))
    sdf = scene.sdf_np(pts)
    brute = np.min(
        np.stack([np.linalg.norm(pts - p.center, axis=1) - p.radius
                  for p in scene.primitives]), axis=0)
    assert np.allclose(sdf, brute)


def test_ground_truth_matches_model_convention():
    # unoccluded Lambertian plane under a constant sky shades to pi*albedo,
    # connecting the analytic renderer to the model's quadrature convention
    from skylit.illumination import IlluminationState, LobeDecoder

    albedo = np.array([0.62, 0.6, 0.55])
    scene = sc.SyntheticScene(
        "plane", [sc.GroundPlane(0.0, albedo)],
        IlluminationState.zero(LobeDecoder.default()),
        sun_dir=np.array([0.0, 0.0, 1.0]),
    )
    cam = Camera.look_at([0.0, -0.55, 0.45], [0.0, 0.0, 0.0], 24, 18)
    img, classes, shadow = sc.render_ground_truth(scene, cam, quad_level=3)
    ground = classes == sc.CLASS_GROUND
    assert np.any(ground)
    vals = img[ground] / albedo[None, :]
    assert np.abs(vals / np.pi - 1.0).max() < 0.01


def test_shadow_mask_matches_analytic_projection(tmp_path):
    # sphere over plane with the sun at the zenith: the shadow is the disk
    # x^2+y^2 <= r^2 directly beneath the sphere
    from skylit.illumination import IlluminationState, LobeDecoder

    decoder = LobeDecoder.default()
    z = np.zeros((3, decoder.n_lobes))
    z[:, 0] = 2.0  # zenith cap lobe
    scene = sc.SyntheticScene(
        "zenith",
        [sc.GroundPlane(0.0, np.array([0.6, 0.6, 0.6])),
         sc.Sphere(np.array([0.0, 0.0, 0.3]), 0.15, np.array([0.7, 0.2, 0.2]))],
        IlluminationState(decoder, z, np.asarray(0.0)),
        sun_dir=np.array([0.0, 0.0, 1.0]),
    )
    cam = Camera.look_at([0.0, -0.42, 0.62], [0.0, 0.0, 0.0], 96, 72,
                         fov_x_deg=70.0)
    img, classes, shadow = sc.render_ground_truth(scene, cam, quad_level=2)
    # reproject shadow pixels to the plane and compare radii
    px = cam.all_pixels()
    dirs = cam.ray_dirs(px)
    o = cam.origin
    t_plane = -o[2] / dirs[:, 2]
    pts = o[None, :] + t_plane[:, None] * dirs
    ground = classes.reshape(-1) == sc.CLASS_GROUND
    shadowed = shadow.reshape(-1) == 1
    r = np.linalg.norm(pts[:, :2], axis=1)
    # every shadowed ground pixel inside radius, every lit one outside,
    # up to one pixel of footprint at the boundary
    foot = (t_plane * np.radians(70.0) / 96)[ground]  # pixel footprint
    rg = r[ground]
    sg = shadowed[ground]
    assert np.all(rg[sg] <= 0.15 + foot[sg])
    assert np.all(rg[~sg] >= 0.15 - foot[~sg])


def test_dataset_masks_and_classes(sphere_plane_dataset):
    _, ds = sphere_plane_dataset
    assert set(np.unique(ds.masks)) <= {0, 1, 2, 3}
    assert not np.any(ds.masks == sc.CLASS_TRANSIENT)
    # sky pixels are exactly the rays that miss every primitive
    scene = sc.make_scene("sphere-plane", seed=0)
    cam = ds.cameras[0]
    dirs = cam.ray_dirs(cam.all_pixels())
    _, _, hit = scene.intersect(np.broadcast_to(cam.origin, dirs.shape), dirs)
    assert np.array_equal(ds.masks[0].reshape(-1) == sc.CLASS_SKY, ~hit)


def test_generate_dataset_deterministic(tmp_path):
    scene = sc.make_scene("two-sphere", seed=0)
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    sc.generate_dataset(scene, 3, seed=5, out_dir=str(d1), width=24, height=18,
                        quad_level=2)
    sc.generate_dataset(sc.make_scene("two-sphere", seed=0), 3, seed=5,
                        out_dir=str(d2), width=24, height=18, quad_level=2)
    for name in sorted(os.listdir(d1)):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_dataset_load_roundtrip(tmp_path, tiny_dataset):
    scene, ds = tiny_dataset
    out = tmp_path / "roundtrip"
    ds2 = sc.generate_dataset(scene, 2, seed=9, out_dir=str(out), width=20,
                              height=16, quad_level=2)
    loaded = sc.load_dataset(str(out))
    assert np.abs(loaded.images - ds2.images).max() < 1e-6
    assert np.array_equal(loaded.masks, ds2.masks)
    assert np.allclose(loaded.meta["sun_dir"], scene.sun_dir)
    for a, b in zip(loaded.cameras, ds2.cameras):
        assert np.array_equal(a.E, b.E)


def test_camera_rig_rejects_inside_primitive():
    scene = sc.make_scene("two-sphere", seed=0)
    rng = np.random.default_rng(0)
    cams = sc.camera_rig(scene, 8, 16, 12, rng)
    for cam in cams:
        assert scene.sdf_np(cam.origin[None])[0] > 0.02


def test_cli_generate_and_unknown(tmp_path, capsys):
    out = tmp_path / "ds"
    rc = cli_main(["generate", "--scene", "two-sphere", "--views", "2",
                   "--seed", "1", "--out", str(out), "--width", "16",
                   "--height", "12", "--quad-level", "2"])
    assert rc == 0
    assert (out / "view_001.pfm").exists()
    assert (out / "poses.txt").exists()
    assert cli_main(["frobnicate"]) != 0
    assert cli_main([]) != 0


def test_cli_eval_matches_metrics_oracle(tmp_path, capsys):
    out = tmp_path / "ds"
    cli_main(["generate", "--scene", "two-sphere", "--views", "3", "--seed",
              "2", "--out", str(out), "--width", "16", "--height", "12",
              "--quad-level", "2"])
    cfg = tmp_path / "cfg.txt"
    fileio.write_config(cfg, {**CLI_CONFIG, "data_dir": str(out)})
    run = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--out", str(run),
                     "--progress-every", "0"]) == 0
    assert (run / "fields.bin").exists()
    _assert_every_step_taken(run, out)
    capsys.readouterr()
    assert cli_main(["eval", "--ckpt", str(run), "--dataset", str(out),
                     "--holdout", "1", "--dir-level", "0"]) == 0
    printed = capsys.readouterr().out
    line = [ln for ln in printed.splitlines() if ln.strip().startswith("1")][0]
    psnr_printed = float(line.split()[1])

    # recompute independently from the saved images, in the gravity-aligned
    # frame that training used
    want = _checkpoint_psnr(run, out, 1, aligned=True)
    assert psnr_printed == pytest.approx(want, abs=5e-3)


def _assert_every_step_taken(run, data):
    """The saved optimizer counts one update per step in every slot."""
    from skylit import train as tr

    trainer = tr.load_checkpoint(str(run), sc.load_dataset(str(data)))
    assert trainer.adam.t.keys() == tr.PARAM_GROUPS.keys()
    assert set(trainer.adam.t.values()) == {CLI_CONFIG["steps"]}
    return trainer


def _checkpoint_psnr(run, data, view, aligned):
    from skylit import train as tr
    from skylit.render import render_image

    ds = sc.load_dataset(str(data))
    if aligned:
        ds.cameras, _ = tr.apply_gravity_align(ds.cameras)
    trainer = tr.load_checkpoint(str(run), ds)
    result = render_image(ds.cameras[view], trainer.fields, trainer.state(view),
                          ddf=trainer.ddf, params=trainer.vis_params,
                          dir_level=0)
    mask = ds.masks[view] != sc.CLASS_TRANSIENT
    return metrics.psnr(result.srgb, srgb(ds.images[view]), mask)


def test_cli_eval_on_tilted_rig_uses_training_frame(tmp_path, capsys):
    out = tmp_path / "ds"
    cli_main(["generate", "--scene", "two-sphere", "--views", "4", "--seed",
              "4", "--out", str(out), "--width", "16", "--height", "12",
              "--quad-level", "2"])
    # tilt the whole rig 20 degrees about x: world points map to q @ x, so
    # each camera's rotation becomes R q^T
    a = np.radians(20.0)
    q = np.array([[1.0, 0.0, 0.0],
                  [0.0, np.cos(a), -np.sin(a)],
                  [0.0, np.sin(a), np.cos(a)]])
    ds = sc.load_dataset(str(out))
    tilted = [Camera(K=c.K, E=np.concatenate([c.R @ q.T, c.t[:, None]], axis=1),
                     width=c.width, height=c.height) for c in ds.cameras]
    fileio.write_pose_file(out / "poses.txt", tilted)
    cfg = tmp_path / "cfg.txt"
    fileio.write_config(cfg, CLI_CONFIG)
    run = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--data", str(out),
                     "--out", str(run), "--progress-every", "0"]) == 0
    # three steps leave a nearly rotation-invariant model (a centered sphere
    # under a bright, near-uniform sky that saturates every pixel); move the
    # sphere off the tilt axis and dim the sky so the frame shows in the
    # render
    from skylit import fields as fd
    from skylit import train as tr

    trainer = _assert_every_step_taken(run, out)
    center = np.array([0.0, 0.3, 0.2])
    trainer.fields.sdf = fd.SdfField.from_function(
        lambda p: np.linalg.norm(p - center, axis=-1) - 0.3, resolution=12)
    trainer.bank.log_gamma[:] = np.log(0.5)
    tr.save_checkpoint(str(run), trainer)
    capsys.readouterr()
    assert cli_main(["eval", "--ckpt", str(run), "--dataset", str(out),
                     "--holdout", "2", "--dir-level", "0"]) == 0
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.strip().startswith("2")][0]
    psnr_printed = float(line.split()[1])
    assert psnr_printed == pytest.approx(
        _checkpoint_psnr(run, out, 2, aligned=True), abs=5e-3)
    # the tilt matters: the unaligned cameras render a different image
    assert abs(psnr_printed - _checkpoint_psnr(run, out, 2, aligned=False)) > 0.5


def test_cli_render_relight_viz(tmp_path):
    out = tmp_path / "ds"
    cli_main(["generate", "--scene", "sphere-plane", "--views", "3", "--seed",
              "3", "--out", str(out), "--width", "16", "--height", "12",
              "--quad-level", "2"])
    cfg = tmp_path / "cfg.txt"
    fileio.write_config(cfg, CLI_CONFIG)
    run = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--data", str(out),
                     "--out", str(run)]) == 0
    assert (run / "losses.csv").exists()
    _assert_every_step_taken(run, out)
    rdir = tmp_path / "render"
    assert cli_main(["render", "--ckpt", str(run), "--dataset", str(out),
                     "--view", "0", "--out", str(rdir), "--dir-level", "0"]) == 0
    img = fileio.read_pfm(rdir / "view_000.pfm")
    assert np.all(np.isfinite(img))
    assert cli_main(["relight", "--ckpt", str(run), "--dataset", str(out),
                     "--holdout", "1", "--test", "2", "--fit-steps", "3",
                     "--out", str(tmp_path / "relit"), "--dir-level", "0"]) == 0
    assert cli_main(["ddf-viz", "--ckpt", str(run), "--dataset", str(out),
                     "--views", "2", "--width", "12", "--height", "12",
                     "--out", str(tmp_path / "viz")]) == 0
    assert (tmp_path / "viz" / "ddf_001.pfm").exists()
    assert cli_main(["ao", "--ckpt", str(run), "--dataset", str(out),
                     "--view", "0", "--out", str(tmp_path / "ao"),
                     "--dir-level", "1"]) == 0
    assert cli_main(["shadow", "--ckpt", str(run), "--dataset", str(out),
                     "--view", "0", "--sun", "0,0,1",
                     "--out", str(tmp_path / "sh")]) == 0
    assert cli_main(["train", "--config", str(tmp_path / "nope.txt"),
                     "--out", str(run)]) != 0


def test_cli_invalid_config_key(tmp_path):
    out = tmp_path / "ds"
    cli_main(["generate", "--scene", "two-sphere", "--views", "2", "--seed",
              "1", "--out", str(out), "--width", "12", "--height", "10",
              "--quad-level", "2"])
    cfg = tmp_path / "cfg.txt"
    fileio.write_config(cfg, {"bogus_key": 3})
    rc = cli_main(["train", "--config", str(cfg), "--data", str(out),
                   "--out", str(tmp_path / "run")])
    assert rc != 0
