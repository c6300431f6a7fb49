import argparse
import json
import os
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from skylit import fields as fd
from skylit import fileio, metrics
from skylit import scenes as sc
from skylit import tape as tp
from skylit import train as tr
from skylit import visibility as vz
from skylit.cameras import Camera
from skylit.cli import _load_aligned, build_parser
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


def read_ppm(path):
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P6":
            raise ValueError(f"not a binary PPM: {path}")
        w, h = map(int, fh.readline().split())
        maxval = int(fh.readline())
        data = np.frombuffer(fh.read(w * h * 3), dtype=np.uint8)
    return data.reshape(h, w, 3).astype(np.float64) / maxval


def test_ppm_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.uniform(0.0, 1.0, size=(4, 5, 3))
    fileio.write_ppm(tmp_path / "x.ppm", img)
    back = read_ppm(tmp_path / "x.ppm")
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


@pytest.mark.parametrize("metric", [metrics.mse, metrics.psnr])
def test_metrics_reject_an_empty_mask(metric):
    # the mean over no pixel would be NaN, behind a RuntimeWarning
    a = np.zeros((4, 4, 3))
    with pytest.raises(ValueError, match="mask selects no pixel"):
        metric(a, a + 0.1, mask=np.zeros((4, 4), dtype=bool))


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
    from skylit.illumination import IlluminationBank, LobeDecoder

    albedo = np.array([0.62, 0.6, 0.55])
    scene = sc.SyntheticScene(
        "plane", [sc.GroundPlane(0.0, albedo)],
        IlluminationBank.zeros(LobeDecoder.default(), 1),
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
    from skylit.illumination import IlluminationBank, LobeDecoder

    decoder = LobeDecoder.default()
    z = np.zeros((3, decoder.n_lobes))
    z[:, 0] = 2.0  # zenith cap lobe
    scene = sc.SyntheticScene(
        "zenith",
        [sc.GroundPlane(0.0, np.array([0.6, 0.6, 0.6])),
         sc.Sphere(np.array([0.0, 0.0, 0.3]), 0.15, np.array([0.7, 0.2, 0.2]))],
        IlluminationBank(decoder, z[None], [0.0]),
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
    assert np.array_equal(loaded.shadows, ds2.shadows)
    assert np.allclose(loaded.meta["sun_dir"], scene.sun_dir)
    for a, b in zip(loaded.cameras, ds2.cameras):
        assert np.array_equal(a.E, b.E)
    # a lost shadow mask is a missing file, not a view without shadows
    (out / "shadow_000.pgm").unlink()
    with pytest.raises(FileNotFoundError, match="shadow_000.pgm"):
        sc.load_dataset(str(out))


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


def test_readme_quick_start_parses_with_the_cli():
    # every `skylit ...` line of README's Quick start is a valid command
    # line, and together they show every subcommand
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    lines = [ln for ln in section.splitlines() if ln.startswith("skylit ")]
    parser = build_parser()
    for line in lines:
        try:
            args = parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        assert callable(args.fn), line
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert {shlex.split(ln)[1] for ln in lines} == set(commands)


@pytest.mark.parametrize("command,shades", [
    ("render", True), ("relight", True), ("eval", True),
    ("ao", False), ("shadow", False), ("ddf-viz", False)])
def test_cli_dir_level_only_where_it_shades(command, shades, capsys):
    # --dir-level sets the light quadrature, so only the commands that shade
    # take it; the others refuse it instead of ignoring it
    argv = {"render": ["--view", "0", "--out", "o"],
            "relight": ["--holdout", "0", "--test", "1", "--out", "o"],
            "eval": [], "ao": ["--view", "0", "--out", "o"],
            "shadow": ["--view", "0", "--sun", "0,0,1", "--out", "o"],
            "ddf-viz": ["--out", "o"]}[command]
    argv = [command, "--ckpt", "c", "--dataset", "d", "--dir-level", "1"] + argv
    if shades:
        assert build_parser().parse_args(argv).dir_level == 1
    else:
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "--dir-level" in capsys.readouterr().err


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
    assert sorted(os.listdir(run)) == ["config.txt", "params.npz", "steps.jsonl"]
    with np.load(run / "params.npz", allow_pickle=False) as params:
        assert set(params.files) == tr.PARAM_GROUPS.keys()
        assert all(params[name].dtype == np.float64 for name in params.files)
    _assert_every_step_taken(run)
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


def _assert_every_step_taken(run):
    """The step log has one record per configured step, none of them
    rejected."""
    with open(run / "steps.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert [rec["step"] for rec in records] == list(range(CLI_CONFIG["steps"]))
    assert all(rec["rejected"] is None for rec in records)


def _checkpoint_psnr(run, data, view, aligned):
    from skylit.render import render_image

    ds = sc.load_dataset(str(data))
    if aligned:
        ds.cameras, _ = tr.apply_gravity_align(ds.cameras)
    trainer = tr.load_checkpoint(str(run), ds)
    result = render_image(ds.cameras[view], trainer.fields, trainer.bank, view,
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

    _assert_every_step_taken(run)
    trainer = tr.load_checkpoint(str(run), sc.load_dataset(str(out)))
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
    _assert_every_step_taken(run)
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
    # the 3-step DDF and epsilon leave both maps at 1 everywhere; a DDF depth
    # of 0.036 along every query with epsilon 0.01 occludes surface points
    params = fileio.read_npz(run / "params.npz")
    params["ddf_grid"] = np.full_like(params["ddf_grid"], -4.0)
    params["vis_eps_raw"] = np.asarray(tp.softplus_inverse(0.01))
    np.savez(run / "params.npz", **params)
    dataset = _load_aligned(str(out))
    trainer = tr.load_checkpoint(str(run), dataset)
    cam = dataset.cameras[0]
    weight = _map_pass_weight(trainer.fields, cam)
    sky = weight < 1e-3
    assert sky.any() and not sky.all()
    for cmd, extra, dirs in (("ao", [], None),
                             ("shadow", ["--sun", "0,0,1"], np.array([[0.0, 0.0, 1.0]]))):
        assert cli_main([cmd, "--ckpt", str(run), "--dataset", str(out), "--view", "0",
                         "--out", str(tmp_path / cmd)] + extra) == 0
        got = fileio.read_pfm(tmp_path / cmd / f"{cmd}_000.pfm")
        want = vz.visibility_map(trainer.ddf, trainer.vis_params, cam, trainer.fields, dirs)
        assert np.array_equal(got, want.astype(np.float32))
        assert np.all(got[sky] == 1.0)
        assert np.any(got[~sky] < 0.5)
    assert cli_main(["train", "--config", str(tmp_path / "nope.txt"),
                     "--out", str(run)]) != 0


def _map_pass_weight(scene_fields, camera):
    """Per-pixel accumulated weight of ``visibility_map``'s own samples (64
    stratified per pixel, seed 0, one chunk)."""
    bound = fd.BoundFields(None, scene_fields, trainable=False)
    rays = camera.ray_dirs(camera.all_pixels())
    origins = np.broadcast_to(camera.origin, rays.shape)
    rs = fd.stratified_samples(origins, rays, 64, np.random.default_rng(0))
    f = fd.sdf_eval(bound, rs.positions.reshape(-1, 3))
    w, _ = fd.neus_weights(tp.reshape(f, rs.t.shape), bound.inv_s())
    _, w_sum = fd.expected_depth(w, rs.t, rs.far)
    return w_sum.data.reshape(camera.height, camera.width)


@pytest.mark.parametrize("sun", ["0.8,0", "0,0,0", "0,nan,1", "north"])
def test_cli_shadow_reports_bad_sun_as_config_error(tmp_path, capsys, sun):
    # checked before the checkpoint loads, so no run directory is needed
    rc = cli_main(["shadow", "--ckpt", str(tmp_path / "run"), "--dataset",
                   str(tmp_path / "ds"), "--view", "0", "--sun", sun,
                   "--out", str(tmp_path / "sh")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


def test_cli_train_rejects_bad_config_value(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    for key, value in (("weight_sky", -1.0), ("near", "nan"), ("ddf_min_z", 1),
                       ("sdf_resolution", 1), ("seed", -1), ("illum_lobes", 0)):
        fileio.write_config(cfg, {**CLI_CONFIG, key: value})
        rc = cli_main(["train", "--config", str(cfg), "--data", str(tmp_path / "ds"),
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        assert f"config error: {key}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag,value", [("views", 0), ("views", -1), ("width", 0),
                                        ("height", 0)])
def test_cli_generate_rejects_sizes_below_one(tmp_path, capsys, flag, value):
    argv = {"views": "2", "width": "12", "height": "10", flag: str(value)}
    rc = cli_main(["generate", "--scene", "two-sphere", "--out", str(tmp_path / "ds"),
                   "--quad-level", "2"] + [x for k, v in argv.items() for x in (f"--{k}", v)])
    assert rc == 2
    assert f"config error: --{flag}" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


def test_cli_rejects_checkpoint_that_disagrees_with_config_or_dataset(tmp_path, capsys):
    for views in (6, 8):
        cli_main(["generate", "--scene", "two-sphere", "--views", str(views), "--seed",
                  "1", "--out", str(tmp_path / f"ds{views}"), "--width", "12",
                  "--height", "10", "--quad-level", "2"])
    cfg = tmp_path / "cfg.txt"
    fileio.write_config(cfg, CLI_CONFIG)
    run = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--data", str(tmp_path / "ds6"),
                     "--out", str(run), "--progress-every", "0"]) == 0
    res = tmp_path / "res"

    def refused(ckpt, views, view, named):
        capsys.readouterr()
        assert cli_main(["render", "--ckpt", str(ckpt), "--dataset",
                         str(tmp_path / f"ds{views}"), "--view", str(view),
                         "--out", str(res), "--dir-level", "0"]) == 2
        assert named in capsys.readouterr().err.split("config error:")[1]
        assert not res.exists()

    # the bank holds one sky per training view, and the gravity frame
    # follows the training cameras
    refused(run, 8, 7, "view count")
    for key, value in (("sdf_resolution", 30), ("ddf_dir_res_theta", 9),
                       ("illum_lobes", 14)):
        edited = tmp_path / key
        shutil.copytree(run, edited)
        entries = fileio.read_config(edited / "config.txt")
        fileio.write_config(edited / "config.txt", {**entries, key: value})
        refused(edited, 6, 0, key)
    # a key that the config no longer declares
    stale = tmp_path / "stale"
    shutil.copytree(run, stale)
    entries = fileio.read_config(stale / "config.txt")
    fileio.write_config(stale / "config.txt", {**entries, "grid_extent": 1.0})
    refused(stale, 6, 0, "unknown config key 'grid_extent'")
    damaged = tmp_path / "damaged"
    shutil.copytree(run, damaged)
    params = damaged / "params.npz"
    raw = params.read_bytes()
    params.write_bytes(raw[:len(raw) // 2])
    refused(damaged, 6, 0, "params.npz")
    params.write_bytes(b"XXXX" + raw[4:])
    refused(damaged, 6, 0, "params.npz")
    with np.load(run / "params.npz", allow_pickle=False) as stored:
        np.savez(params, **{k: stored[k] for k in stored.files if k != "ddf_grid"})
    refused(damaged, 6, 0, "ddf_grid")


def test_cli_rejects_view_index_out_of_range(tmp_path, capsys):
    out = tmp_path / "ds"
    cli_main(["generate", "--scene", "two-sphere", "--views", "4", "--seed",
              "1", "--out", str(out), "--width", "12", "--height", "10",
              "--quad-level", "2"])
    cfg = tmp_path / "cfg.txt"
    fileio.write_config(cfg, CLI_CONFIG)
    run = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--data", str(out),
                     "--out", str(run), "--progress-every", "0"]) == 0
    ckpt = ["--ckpt", str(run), "--dataset", str(out)]
    res = str(tmp_path / "res")
    # each is refused before any fit or render writes a file
    for argv in (["render", "--view", "9", "--out", res],
                 ["render", "--view", "-1", "--out", res],
                 ["ao", "--view", "5", "--out", res],
                 ["shadow", "--view", "4", "--sun", "0,0,1", "--out", res],
                 ["relight", "--holdout", "0", "--test", "12", "--out", res],
                 ["relight", "--holdout", "4", "--test", "0", "--out", res],
                 ["eval", "--holdout", "7"],
                 # counts below 1: nothing to fit or draw
                 ["relight", "--holdout", "0", "--test", "1", "--fit-steps", "0",
                  "--out", res],
                 ["relight", "--holdout", "0", "--test", "1", "--fit-steps", "-3",
                  "--out", res],
                 ["ddf-viz", "--views", "0", "--out", res],
                 ["ddf-viz", "--views", "-1", "--out", res],
                 ["ddf-viz", "--width", "0", "--out", res],
                 ["ddf-viz", "--height", "-2", "--out", res]):
        capsys.readouterr()
        shades = argv[0] in ("render", "relight", "eval")
        assert cli_main(argv + ckpt + ["--dir-level", "0"] * shades) == 2, argv
        assert "config error:" in capsys.readouterr().err, argv
        assert not os.path.exists(res), argv


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
