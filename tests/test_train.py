import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skylit import fileio
from skylit import losses as ls
from skylit import tape as tp
from skylit import train as tr
from skylit import visibility as vz
from skylit.geometry import ConfigError
from skylit.render import render_image
from skylit.scenes import (CLASS_GROUND, CLASS_SKY, CLASS_TRANSIENT,
                           generate_dataset, make_scene)
from tests.conftest import CLI_CONFIG, TextbookAdam, tiny_train_config

DECLARED = dataclasses.fields(tr.TrainConfig)
RANGED = [f for f in DECLARED if f.metadata["range"]]


def rot_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def ring_centers(n=12, tilt=None, rng=None):
    az = np.linspace(0, 2 * np.pi, n, endpoint=False)
    z = 0.02 * rng.normal(size=n) if rng is not None else np.zeros(n)
    pts = np.stack([0.8 * np.cos(az), 0.8 * np.sin(az), z], axis=1)
    if tilt is not None:
        pts = pts @ tilt.T
    return pts


def test_gravity_align_identity_for_flat_ring():
    rng = np.random.default_rng(0)
    rot = tr.gravity_align(ring_centers(rng=rng) * [1, 1, 0])
    assert np.abs(rot - np.eye(3)).max() < 1e-9


def test_gravity_align_recovers_tilt():
    angle = np.radians(30.0)
    tilt = np.array([
        [1, 0, 0],
        [0, np.cos(angle), -np.sin(angle)],
        [0, np.sin(angle), np.cos(angle)],
    ])
    rot = tr.gravity_align(ring_centers(tilt=tilt))
    # applying the recovered rotation flattens the ring
    flattened = ring_centers(tilt=tilt) @ rot.T
    assert np.abs(flattened[:, 2] - flattened[:, 2].mean()).max() < 1e-6
    assert np.abs(rot @ tilt @ np.array([0, 0, 1.0]) - [0, 0, 1]).max() < 1e-6


def test_gravity_align_robust_to_outlier():
    rng = np.random.default_rng(1)
    pts = ring_centers(24, rng=rng)
    clean = tr.gravity_align(pts)
    spiked = np.concatenate([pts, [[0.4, 0.1, 0.6]]])
    robust = tr.gravity_align(spiked)

    def angle_between(a, b):
        n_a = a.T @ np.array([0, 0, 1.0])
        n_b = b.T @ np.array([0, 0, 1.0])
        return np.degrees(np.arccos(np.clip(n_a @ n_b, -1, 1)))

    assert angle_between(clean, robust) < 1.0
    # the non-robust single fit is pulled well past the robust one
    c = spiked - spiked.mean(axis=0)
    _, evecs = np.linalg.eigh(c.T @ c)
    naive_tilt = np.degrees(np.arccos(abs(evecs[:, 0] @ np.array([0, 0, 1.0]))))
    assert naive_tilt > 1.0


def test_gravity_align_collinear_warns_identity():
    pts = np.stack([np.linspace(0, 1, 8), np.zeros(8), np.zeros(8)], axis=1)
    with pytest.warns(UserWarning):
        rot = tr.gravity_align(pts)
    assert np.array_equal(rot, np.eye(3))


def test_dataset_poses_roundtrip_gravity(tiny_dataset):
    # tilt the whole rig: alignment must rotate the best-fit camera plane
    # back to horizontal (normal to +z)
    _, dataset = tiny_dataset
    angle = np.radians(18.0)
    tilt = rot_z(0.3) @ np.array([
        [1, 0, 0],
        [0, np.cos(angle), -np.sin(angle)],
        [0, np.sin(angle), np.cos(angle)],
    ])
    from skylit.cameras import Camera

    tilted = [
        Camera(K=c.K.copy(),
               E=np.concatenate([c.R @ tilt.T, c.t[:, None]], axis=1),
               width=c.width, height=c.height)
        for c in dataset.cameras
    ]
    aligned, rot = tr.apply_gravity_align(tilted)
    back = np.stack([c.origin for c in aligned])
    centered = back - back.mean(axis=0)
    _, evecs = np.linalg.eigh(centered.T @ centered)
    assert abs(evecs[:, 0] @ np.array([0, 0, 1.0])) > 1.0 - 1e-8
    # camera orientations stay consistent: rays through the principal point
    # still pass through the (rotated) scene target
    d_old = tilted[0].R[2]
    d_new = aligned[0].R[2]
    assert np.allclose(rot @ d_old, d_new, atol=1e-12)


def test_sample_ray_batch_classes_and_uniformity(sphere_plane_dataset):
    _, dataset = sphere_plane_dataset
    pool = tr.build_pixel_pool(dataset)
    rng = np.random.default_rng(2)
    batch = tr.sample_ray_batch(dataset, pool, 100_000, rng)
    assert not np.any(batch.classes == CLASS_TRANSIENT)
    # class histogram matches the dataset proportions within 2%
    classes, counts = np.unique(dataset.masks, return_counts=True)
    want = counts / counts.sum()
    for cls, frac in zip(classes, want):
        got = np.mean(batch.classes == cls)
        assert abs(got - frac) < 0.02
    # rays carry unit directions and per-image origins
    assert np.allclose(np.linalg.norm(batch.dirs, axis=1), 1.0)
    i = batch.image_idx[0]
    assert np.allclose(batch.origins[0], dataset.cameras[i].origin)


def test_sample_ray_batch_all_transient_errors(tiny_dataset):
    _, dataset = tiny_dataset
    masks = dataset.masks.copy()
    try:
        dataset.masks[:] = CLASS_TRANSIENT
        with pytest.raises(ConfigError):
            tr.build_pixel_pool(dataset)
    finally:
        dataset.masks[:] = masks


def test_learning_rate_schedules():
    cfg = tr.TrainConfig(steps=2000, warmup_steps=500)
    assert tr.warmup_cosine(1e-2, 0, 2000, 500) == 0.0
    mid = tr.warmup_cosine(1e-2, 500, 2000, 500)
    assert mid == pytest.approx(1e-2 * 0.5 * (1 + np.cos(np.pi * 0.25)))
    assert tr.warmup_cosine(1e-2, 2000, 2000, 500) == pytest.approx(0.0)
    assert tr.exponential_decay(1e-2, 0, 2000) == 1e-2
    assert tr.exponential_decay(1e-2, 2000, 2000) == pytest.approx(1e-3)
    lrs = [tr.warmup_cosine(1.0, s, 1000, 100) for s in range(0, 1001, 50)]
    assert lrs[2] > lrs[1] > lrs[0]  # ramp
    assert all(a >= b for a, b in zip(lrs[2:], lrs[3:]))  # then decay


def test_adam_moves_toward_minimum():
    adam = tr.Adam()
    x = np.array([4.0])
    for _ in range(300):
        adam.update("x", x, 2.0 * x, 0.05)
    assert abs(x[0]) < 0.1
    assert np.isfinite(adam.m["x"]).all() and np.isfinite(adam.v["x"]).all()


def dense_moments(adam, name, shape):
    """``adam``'s moments of slot ``name`` as arrays shaped as the slot,
    0 at every entry that never had a non-zero gradient."""
    out = []
    for compact in (adam.m[name], adam.v[name]):
        dense = np.zeros(shape)
        dense.reshape(-1)[adam.live[name]] = compact
        out.append(dense)
    return out


def _dense_grad(rng, shape, t):
    return rng.normal(size=shape)


def _sparse_grad(rng, shape, t):  # most entries exactly 0, as for a grid slot
    return np.where(rng.random(shape) < 0.05, rng.normal(size=shape), 0.0)


def _touched_once_grad(rng, shape, t):
    # one gradient, then 19 zero ones: the entry's moments decay and it keeps
    # moving, which an update of touched entries only ("lazy" Adam) misses
    return np.where(np.arange(shape[0]) == 2, 0.7 if t == 1 else 0.0, -0.0)


def _negative_zero_grad(rng, shape, t):
    # -0.0 on entries that never had a gradient must leave them as they are
    g = np.full(shape, -0.0)
    g[[3, 40]] = rng.normal(size=2)
    return g


def _fills_up_grad(rng, shape, t):
    # new entries join each step until every entry is live
    return _dense_grad(rng, shape, t) * (t > 10 or rng.random(shape) < 0.3)


def _one_more_each_step_grad(rng, shape, t):
    # one new entry a step, in scattered order: most are merged in place,
    # before, between and after the live ones
    order = np.random.default_rng(5).permutation(shape[0])
    return np.where(np.isin(np.arange(shape[0]), order[:t]), rng.normal(size=shape), 0.0)


ADAM_CASES = {
    "0-d": ((), _dense_grad), "1-d": ((7,), _dense_grad),
    "block-1": ((tr.ADAM_BLOCK - 1,), _dense_grad),
    "block": ((tr.ADAM_BLOCK,), _dense_grad),
    "block+1": ((tr.ADAM_BLOCK + 1,), _dense_grad),
    "4-d-sparse": ((5, 9, 13, 31), _sparse_grad),
    "touched-once": ((5,), _touched_once_grad),
    "negative-zero": ((64,), _negative_zero_grad),
    "becomes-fully-live": ((2 * tr.ADAM_BLOCK + 3,), _fills_up_grad),
    "one-more-each-step": ((40,), _one_more_each_step_grad),
}


@pytest.mark.parametrize("case", ADAM_CASES)
def test_adam_update_is_the_textbook_update_bit_for_bit(case):
    shape, grad_of = ADAM_CASES[case]
    rng = np.random.default_rng(11)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 3e-3
    adam, ref = tr.Adam(b1, b2, eps), TextbookAdam(b1, b2, eps)
    param = rng.normal(size=shape)
    param.reshape(-1)[1::3] = -0.0
    ref_p = param.copy()
    for t in range(1, 21):
        grad = grad_of(rng, shape, t)
        before = param.copy()
        adam.update("p", param, grad, lr)
        ref.update("p", ref_p, grad, lr)
        for got, want in zip([param, *dense_moments(adam, "p", shape)],
                             (ref_p, ref.m["p"], ref.v["p"])):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if case == "touched-once":
            assert param[2] != before[2]
    if case == "becomes-fully-live":
        assert adam.live["p"].size == param.size


@pytest.mark.parametrize("grow", [False, True])
@pytest.mark.parametrize("where", ["before", "between", "after"])
@pytest.mark.parametrize("k", [1, 256, 257, "crossover", "past"])
def test_adam_insert_is_np_insert_and_the_textbook_update(k, where, grow):
    # the first insert fills its buffers with live entries, every third
    # entry from ``lo`` on: 2,000 for a count k, or 850,000 for the
    # crossover behind all of them and one new entry past it, so that
    # inserted before them all, "crossover" moves runs and "past" merges.
    # The second insert leaves room for a quarter more, less one, or none
    n_live = 2000 if isinstance(k, int) else 850_000
    rng = np.random.default_rng(k if isinstance(k, int) else n_live + len(k))
    lo = max(2000, n_live // 100)
    hi = lo + 3 * n_live
    size, lr = hi + lo, 1e-2
    adam, ref = tr.Adam(), TextbookAdam()
    param = rng.normal(size=size)
    ref_p = param.copy()

    def step(touched):
        grad = np.zeros(size)
        grad[touched] = rng.normal(size=len(touched))
        adam.update("p", param, grad, lr)
        ref.update("p", ref_p, grad, lr)

    step(np.arange(lo, hi, 3))
    step(np.arange(lo + 1, hi, 3)[:n_live // 4 if grow else 1])
    n = adam.live["p"].size
    if not isinstance(k, int):
        k = n // tr.ADAM_TAIL_PER_RUN + (k == "past")
    free = {"before": np.arange(lo), "between": np.arange(lo + 2, hi, 3),
            "after": np.arange(hi, size)}[where]
    new = np.sort(rng.choice(free, k, replace=False))
    live, m, v = (adam.live["p"].copy(), adam.m["p"].copy(), adam.v["p"].copy())
    at = np.searchsorted(live, new)
    buffer = adam._buffers["p"][0]
    adam.seen["p"][new] = True
    adam._insert("p", new)
    assert (adam._buffers["p"][0] is not buffer) == grow
    for got, want in zip((adam.live["p"], adam.m["p"], adam.v["p"]),
                         (np.insert(live, at, new), np.insert(m, at, 0.0),
                          np.insert(v, at, 0.0))):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    step(np.concatenate([new, live[::7]]))
    for got, want in zip([param, *dense_moments(adam, "p", param.shape)],
                         (ref_p, ref.m["p"], ref.v["p"])):
        assert got.tobytes() == want.tobytes()


def test_adam_keeps_state_only_for_entries_with_gradients():
    rng = np.random.default_rng(3)
    shape, k = (64, 64, 64), 37
    touched = rng.choice(np.prod(shape), k, replace=False)
    param = rng.normal(size=shape)
    param.reshape(-1)[::5] = -0.0
    start = param.copy()
    adam = tr.Adam()
    for _ in range(10):
        grad = np.zeros(shape)
        grad.reshape(-1)[touched] = rng.normal(size=k)
        adam.update("grid", param, grad, 1e-2)
    assert adam.m["grid"].size == adam.v["grid"].size == k
    assert np.array_equal(adam.live["grid"], np.sort(touched))
    others = np.ones(param.size, dtype=bool)
    others[touched] = False
    assert param.reshape(-1)[others].tobytes() == start.reshape(-1)[others].tobytes()
    assert (param.reshape(-1)[touched] != start.reshape(-1)[touched]).all()


def test_compact_adam_trains_as_the_textbook_adam(tiny_dataset, two_sphere_scene,
                                                  monkeypatch):
    # the real gradients: gather adjoints, -0.0 sums of np.bincount, 0-d slots
    _, dataset = tiny_dataset
    cfg = tiny_train_config(steps=30, ddf_refresh_every=10)
    compact, textbook = tr.Trainer(dataset, cfg), tr.Trainer(dataset, cfg)
    textbook.adam = TextbookAdam()
    for _ in range(12):
        compact.train_step()
        textbook.train_step()
    got, want = tr.slot_arrays(compact), tr.slot_arrays(textbook)
    assert got.keys() == want.keys() == tr.PARAM_GROUPS.keys()
    for name in got:
        assert got[name].tobytes() == want[name].tobytes(), name
        moments = dense_moments(compact.adam, name, got[name].shape)
        assert moments[0].tobytes() == textbook.adam.m[name].tobytes(), name
        assert moments[1].tobytes() == textbook.adam.v[name].tobytes(), name
    assert compact.rejected_steps == textbook.rejected_steps == []
    shares = {n: compact.adam.live[n].size / got[n].size for n in got}
    assert all(0 < shares[n] < 1 for n in ("sdf_grid", "albedo_grid", "ddf_grid"))
    assert shares["vis_eps_raw"] == 1 and got["vis_eps_raw"].ndim == 0

    def fit(adam_class):
        monkeypatch.setattr(tr, "Adam", adam_class)
        ddf = vz.DdfField.zero_init((8, 16), (6, 12))
        return tr.fit_ddf_to_scene(two_sphere_scene, ddf=ddf, steps=8, warmup=2,
                                   n_positions=4, n_directions=32,
                                   multiview_pairs=8)

    (ddf, history), (ref_ddf, ref_history) = fit(tr.Adam), fit(TextbookAdam)
    assert ddf.grid.tobytes() == ref_ddf.grid.tobytes()
    assert np.array_equal(history, ref_history)
    assert (ddf.grid == 0).any() and (ddf.grid != 0).any()  # partly untouched


def test_adam_step_with_nan_gradient_changes_nothing():
    # a NaN hidden from the loss by a mask still reaches the gradient of "a"
    c = np.array([2.0, np.nan, 1.0])
    mask = np.isfinite(c)
    a, b = np.array([1.0, 2.0, 3.0]), np.array([[0.5, -0.5]])
    adam = tr.Adam()

    def step(c):
        tape = tp.Tape()
        av, bv = tape.parameter("a", a), tape.parameter("b", b)
        loss = tp.vsum(tp.where(mask, av * c, 0.0)) + tp.vsum(bv * bv)
        assert np.isfinite(loss.data)
        return adam.step(tape, loss, {"a": 0.1, "b": 0.1})

    assert step(np.where(mask, c, 1.0)) is None
    # the NaN lands on a[1], which has never had a gradient
    assert np.array_equal(adam.live["a"], [0, 2])
    state = [a.copy(), b.copy(), dict(adam.t)] + [
        {k: x.copy() for k, x in d.items()}
        for d in (adam.seen, adam.live, adam.m, adam.v)]
    assert step(c) == "non-finite gradient in a"
    assert a.tobytes() == state[0].tobytes() and b.tobytes() == state[1].tobytes()
    assert adam.t == state[2] == {"a": 1, "b": 1}
    for kept, saved in zip((adam.seen, adam.live, adam.m, adam.v), state[3:]):
        assert kept.keys() == saved.keys()
        assert all(kept[k].tobytes() == saved[k].tobytes() for k in saved)


def test_ddf_fit_rejects_nan_node_and_keeps_the_rest(two_sphere_scene):
    # on a 2x2x2x2 grid every query gathers node 0 on each axis
    ddf = vz.DdfField.zero_init((2, 2), (2, 2))
    ddf.grid[:] = np.random.default_rng(0).normal(scale=0.3, size=ddf.shape)
    ddf.grid[0, 0, 0, 0] = np.nan
    before = ddf.grid.copy()
    _, history = tr.fit_ddf_to_scene(
        two_sphere_scene, ddf=ddf, steps=3, lr=1e-2, warmup=0,
        n_positions=2, n_directions=8, multiview_pairs=4)
    assert np.isnan(history).all()
    other = ~np.isnan(before)
    assert np.array_equal(ddf.grid[other], before[other])


def test_ddf_fit_runs_without_multiview_pairs(two_sphere_scene):
    ddf = vz.DdfField.zero_init((8, 16), (6, 12))
    _, history = tr.fit_ddf_to_scene(two_sphere_scene, ddf=ddf, steps=2, warmup=0,
                                     n_positions=2, n_directions=8,
                                     multiview_pairs=0)
    assert len(history) == 2 and np.isfinite(history).all()
    assert (ddf.grid != 0).any()


def test_zero_multiview_pairs_skip_the_term(tiny_dataset):
    # the CLI tests' config: a 12^3 SDF grid around the initial sphere has
    # no zero crossing to hit, so no multiview pair is drawn
    _, dataset = tiny_dataset
    trainer = tr.Trainer(dataset, tr.TrainConfig(**CLI_CONFIG))
    trainer.train(3)
    assert len(trainer.mv_pairs[0]) == 0
    assert trainer.rejected_steps == []
    assert all(rec["ddf_multiview"] == 0.0 for rec in trainer.history)
    assert trainer.adam.t.keys() == tr.PARAM_GROUPS.keys()
    assert set(trainer.adam.t.values()) == {3}


def test_config_validation():
    with pytest.raises(ConfigError):
        tr.TrainConfig(lr_fields=0.0)
    with pytest.raises(ConfigError):
        tr.TrainConfig(steps=100, warmup_steps=100)
    with pytest.raises(ConfigError):
        tr.TrainConfig.from_entries({"not_a_key": "1"})
    with pytest.raises(ConfigError):
        tr.TrainConfig.from_entries({"steps": "many"})
    cfg = tr.TrainConfig.from_entries(
        {"steps": "250", "warmup_steps": "50", "stop_gradient": "true",
         "lr_ddf": "2e-3"})
    assert cfg.steps == 250 and cfg.stop_gradient and cfg.lr_ddf == 2e-3
    back = tr.TrainConfig.from_entries(
        {k: str(v) for k, v in cfg.to_entries().items()})
    assert back == cfg


@pytest.mark.parametrize("raw", ["flase", "on", "2", ""])
def test_config_rejects_unknown_boolean(raw):
    # anything outside true/false/1/0/yes/no used to read as False
    with pytest.raises(ConfigError):
        tr.TrainConfig.from_entries({"use_visibility": raw})


def test_config_reads_each_boolean_spelling():
    for raw, want in (("True", True), ("yes", True), ("1", True),
                      (" FALSE ", False), ("no", False), ("0", False)):
        assert tr.TrainConfig.from_entries({"stop_gradient": raw}).stop_gradient is want


def test_config_rejects_non_positive_vmf_kappa():
    # kappa = 0 gives NaN vMF directions, on which DDF batch sampling spins
    with pytest.raises(ConfigError):
        tr.TrainConfig(vmf_kappa=0.0)
    with pytest.raises(ConfigError):
        tr.TrainConfig.from_entries({"vmf_kappa": "-2"})


@pytest.mark.parametrize("key,raw", [
    ("weight_sky", "-1"),           # raised ValueError inside Trainer
    ("weight_sky", "nan"),          # silently dropped the term
    ("weight_eps_anneal", "inf"),
    ("lr_fields", "nan"),
    ("vmf_kappa", "nan"),
    ("ddf_refresh_every", "0"),     # ZeroDivisionError at step 1
    ("rays_per_batch", "0"),        # 0/0 loss, yet a checkpoint and exit 0
    ("ddf_positions", "0"),         # every step rejected
    ("ddf_directions", "0"),
    ("ddf_multiview_pairs", "0"),
    ("samples_per_ray", "0"),
    ("near", "nan"),                # every step rejected
    ("near", "-0.5"),               # trained without complaint
    ("near", "3"),
    ("ddf_min_z", "1"),             # ValueError in sample_ddf_batch
    ("ddf_min_z", "-0.1"),
    ("ddf_min_z", "inf"),
    ("sdf_resolution", "0"),        # IndexError
    ("sdf_resolution", "1"),
    ("ddf_pos_res_theta", "1"),     # ValueError
    ("ddf_dir_res_theta", "1"),
    ("ddf_pos_res_phi", "0"),       # divide-by-zero warning
    ("ddf_dir_res_phi", "0"),
    ("seed", "-1"),                 # ValueError
    ("illum_lobes", "0"),           # silently trained a 2-lobe decoder
    ("illum_lobes", "-2"),
])
def test_config_rejects_bad_values(key, raw):
    with pytest.raises(ConfigError, match=key):
        tr.TrainConfig.from_entries({key: raw})


def _bounds(range_):
    """(lo, hi, lo excluded, hi excluded) of an interval written "[lo, hi)"."""
    lo, hi = (float(x) for x in range_[1:-1].split(","))
    return lo, hi, range_[0] == "(", range_[-1] == ")"


# upper ends of the draws below, so that one draw trains in a fraction of a
# second: at most a 16^3 SDF, 162 light directions and an 8x16x6x12 DDF
DRAW_CAPS = dict(rays_per_batch=32, samples_per_ray=16, dir_level=2,
                 sdf_resolution=16, illum_lobes=32, ddf_pos_res_theta=8,
                 ddf_pos_res_phi=16, ddf_dir_res_theta=6, ddf_dir_res_phi=12,
                 ddf_positions=8, ddf_directions=32, ddf_multiview_pairs=16)


def _draw_value(f):
    if f.type == "bool":
        return st.booleans()
    lo, hi, lo_open, hi_open = _bounds(f.metadata["range"])
    if f.type == "float":
        return st.floats(lo, hi, exclude_min=lo_open, exclude_max=hi_open)
    hi = min(hi, DRAW_CAPS.get(f.name, np.inf))
    return st.integers(int(lo), None if hi == np.inf else int(hi))


@st.composite
def configs_inside_the_ranges(draw):
    values = {f.name: draw(_draw_value(f)) for f in DECLARED if f.type != "str"}
    # the two rules that span keys or values
    values["warmup_steps"] = draw(st.integers(0, values["steps"] - 1))
    values["illum_lobes"] -= values["illum_lobes"] % 2
    return tr.TrainConfig(**values)


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "cli"
    return generate_dataset(make_scene("two-sphere", seed=0), 3, seed=2,
                            out_dir=str(out), width=16, height=12, quad_level=2)


@settings(max_examples=120, deadline=None)
@given(cfg=configs_inside_the_ranges())
# one ray of two samples: neither step has a sample with non-zero alpha, so
# nothing is shaded and the albedo grid's scatter is empty
@example(cfg=tr.TrainConfig(
    steps=2, warmup_steps=0, rays_per_batch=1, samples_per_ray=2, dir_level=0,
    sdf_resolution=8, ddf_pos_res_theta=4, ddf_pos_res_phi=8, ddf_dir_res_theta=4,
    ddf_dir_res_phi=8, ddf_positions=2, ddf_directions=4, ddf_multiview_pairs=2,
    seed=0))
def test_every_config_inside_the_declared_ranges_trains(cli_dataset, cfg):
    # a range too wide to train is narrowed in the declaration, not here
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trainer = tr.Trainer(cli_dataset, cfg)
        history = trainer.train(2)
    assert trainer.decoder.n_lobes == cfg.illum_lobes
    assert all(np.isfinite(rec["total"]) for rec in history)


@pytest.mark.parametrize("f", RANGED, ids=lambda f: f.name)
def test_config_rejects_the_values_just_outside_each_range(f):
    lo, hi, lo_open, hi_open = _bounds(f.metadata["range"])
    below = lo if lo_open else (lo - 1 if f.type == "int" else np.nextafter(lo, -np.inf))
    outside = [below]
    if hi < np.inf:
        outside.append(hi if hi_open else
                       (hi + 1 if f.type == "int" else np.nextafter(hi, np.inf)))
    elif f.type == "float":
        outside.append(np.inf)
    for value in outside:
        raw = str(int(value)) if f.type == "int" else repr(float(value))
        with pytest.raises(ConfigError, match=f.name):
            tr.TrainConfig.from_entries({f.name: raw})


def test_readme_config_table_is_the_declaration():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    assert [row[0] for row in rows] == [f.name for f in DECLARED]
    for (key, default, range_, meaning), f in zip(rows, DECLARED):
        assert getattr(tr.TrainConfig.from_entries({key: default}), key) == f.default
        assert range_ == (f.metadata["range"] or "—"), key
        assert meaning == f.metadata["meaning"], key


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.txt")), ids=lambda p: p.name)
def test_shipped_config_files_parse(path):
    cfg = tr.TrainConfig.from_entries(fileio.read_config(path))
    if path.name == "default.txt":
        assert cfg == tr.TrainConfig()


def test_zero_weights_leave_parameters_unchanged(tiny_dataset):
    _, dataset = tiny_dataset
    cfg = tiny_train_config(
        steps=5, weight_appearance=0.0, weight_prior=0.0, weight_sky=0.0,
        weight_ddf_depth=0.0, weight_ddf_levelset=0.0,
        weight_ddf_multiview=0.0, weight_ddf_sky=0.0,
        weight_ground_plane=0.0, weight_eps_anneal=0.0,
    )
    trainer = tr.Trainer(dataset, cfg)
    before = {
        "sdf": trainer.fields.sdf.grid.copy(),
        "alb": trainer.fields.albedo.grid.copy(),
        "ddf": trainer.ddf.grid.copy(),
        "Z": trainer.bank.Z.copy(),
        "eps": trainer.vis_params.eps_raw.copy(),
    }
    trainer.train(5)
    assert np.array_equal(trainer.fields.sdf.grid, before["sdf"])
    assert np.array_equal(trainer.fields.albedo.grid, before["alb"])
    assert np.array_equal(trainer.ddf.grid, before["ddf"])
    assert np.array_equal(trainer.bank.Z, before["Z"])
    assert np.array_equal(trainer.vis_params.eps_raw, before["eps"])


def test_training_deterministic_under_seed(tiny_dataset):
    _, dataset = tiny_dataset

    def run():
        trainer = tr.Trainer(dataset, tiny_train_config(steps=30))
        hist = trainer.train(30)
        return np.array([h["total"] for h in hist])

    a = run()
    b = run()
    assert np.array_equal(a, b)


def test_training_decreases_loss(tiny_dataset):
    _, dataset = tiny_dataset
    trainer = tr.Trainer(dataset, tiny_train_config(steps=120, warmup_steps=30))
    hist = trainer.train(120)
    first = np.mean([h["total"] for h in hist[:10]])
    last = np.mean([h["total"] for h in hist[-10:]])
    assert last < first
    assert not trainer.rejected_steps


def test_step_log_written_as_json_lines(tiny_dataset, tmp_path):
    # one record per step: the log's lines are the history's dicts
    _, dataset = tiny_dataset
    log = tmp_path / "steps.jsonl"
    trainer = tr.Trainer(dataset, tiny_train_config(steps=4), log_path=str(log))
    trainer.train(4)
    trainer.close()
    lines = log.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == trainer.history
    assert [rec["step"] for rec in trainer.history] == [0, 1, 2, 3]
    assert set(trainer.history[0]) == {
        *tr.LOSS_TERMS, "step", "total", "epsilon", "rejected",
        "lr_fields", "lr_ddf", "lr_illum", "lr_eps"}
    assert all(rec["rejected"] is None for rec in trainer.history)
    assert trainer.rejected_steps == []


def test_nonfinite_step_rejected(tiny_dataset):
    _, dataset = tiny_dataset
    trainer = tr.Trainer(dataset, tiny_train_config(steps=3))
    trainer.bank.Z[0, 0, 0] = np.nan
    before = trainer.fields.sdf.grid.copy()
    rec = trainer.train_step()
    assert rec["rejected"] == "non-finite loss"
    assert trainer.rejected_steps == [0]
    assert np.array_equal(trainer.fields.sdf.grid, before)
    trainer.bank.Z[0, 0, 0] = 0.0
    assert trainer.train_step()["rejected"] is None
    assert trainer.rejected_steps == [0]


def test_step_without_sky_or_ground_rays_is_taken(tiny_dataset):
    # a ray pool of foreground pixels only: the sky, DDF-sky and ground
    # terms are the means of empty batches, on-tape zeros
    _, dataset = tiny_dataset
    trainer = tr.Trainer(dataset, tiny_train_config(steps=3, weight_ground_plane=0.1))
    pool = trainer.pool
    classes = dataset.masks[pool[:, 0], pool[:, 1], pool[:, 2]]
    trainer.pool = pool[(classes != CLASS_SKY) & (classes != CLASS_GROUND)]
    assert len(trainer.pool)
    before = trainer.bank.Z.copy()  # step 0's field rates are 0 (warm-up)
    rec = trainer.train_step()
    assert rec["rejected"] is None and np.isfinite(rec["total"])
    assert rec["sky"] == rec["ddf_sky"] == rec["ground_plane"] == 0.0
    assert rec["appearance"] > 0.0
    assert not np.array_equal(trainer.bank.Z, before)


def test_checkpoint_roundtrip(tiny_dataset, tmp_path):
    _, dataset = tiny_dataset
    trainer = tr.Trainer(dataset, tiny_train_config(steps=6))
    trainer.train(6)
    tr.save_checkpoint(str(tmp_path / "ck"), trainer)
    loaded = tr.load_checkpoint(str(tmp_path / "ck"), dataset)
    saved, back = tr.slot_arrays(trainer), tr.slot_arrays(loaded)
    assert saved.keys() == back.keys() == tr.PARAM_GROUPS.keys()
    for name in saved:
        assert np.array_equal(back[name], saved[name]), name
    assert loaded.cfg == trainer.cfg
    cam = dataset.cameras[0]

    def render(t):
        return render_image(cam, t.fields, t.bank, 0, ddf=t.ddf,
                            params=t.vis_params, dir_level=0).rgb

    assert np.array_equal(render(loaded), render(trainer))


def test_stop_gradient_flag_blocks_field_gradients(tiny_dataset):
    _, dataset = tiny_dataset

    def visibility_only_grads(stop):
        cfg = tiny_train_config(
            steps=5, stop_gradient=stop,
            weight_prior=0.0, weight_sky=0.0, weight_ddf_depth=0.0,
            weight_ddf_levelset=0.0, weight_ddf_multiview=0.0,
            weight_ddf_sky=0.0, weight_eps_anneal=0.0,
        )
        trainer = tr.Trainer(dataset, cfg)
        # make visibility informative: shrink epsilon, randomize the DDF
        rng = np.random.default_rng(3)
        trainer.ddf.grid[:] = rng.normal(size=trainer.ddf.grid.shape)
        trainer.vis_params.eps_raw = np.asarray(
            __import__("skylit.tape", fromlist=["tape"]).softplus_inverse(0.05))
        import skylit.fields as fd
        import skylit.illumination as il
        import skylit.render as rd
        import skylit.tape as tp
        import skylit.visibility as vz
        from skylit.geometry import icosphere_directions, so3_jitter

        batch = tr.sample_ray_batch(dataset, trainer.pool, 32, rng)
        tape = tp.Tape()
        bf = fd.BoundFields(tape, trainer.fields)
        bi = il.BoundIllumination(tape, trainer.bank)
        bd = vz.BoundDdf(tape, trainer.ddf, trainer.vis_params)
        out = rd.render_rays(bf, bi, bd, batch.origins, batch.dirs,
                             batch.image_idx, dir_set=trainer.dir_set,
                             jitter=so3_jitter(rng), rng=rng, n_samples=16,
                             stop_grad_vis=stop)
        loss = ls.appearance_loss(out["rgb"], batch.gt)
        return tp.backward(tape, loss)

    g_stop = visibility_only_grads(True)
    g_free = visibility_only_grads(False)
    assert np.all(g_stop["ddf_grid"] == 0.0)
    assert np.all(g_stop["vis_eps_raw"] == 0.0)
    assert np.abs(g_free["ddf_grid"]).max() > 0.0


def test_holdout_fit_recovers_gamma_scale(tiny_dataset):
    # render a view at a darker exposure; the holdout fit recovers the scale
    # (over-exposed pixels clamp to the same white and carry no scale signal,
    # so the informative direction is downward)
    _, dataset = tiny_dataset
    from skylit.illumination import IlluminationBank, LobeDecoder
    from skylit.render import render_image
    import skylit.fields as fd

    decoder = LobeDecoder.default()
    gt = dataset.gt_illumination(decoder)
    fields = fd.SceneFields.default(resolution=24)
    target = IlluminationBank(decoder, gt.Z, [np.log(0.55)])
    img = render_image(dataset.cameras[1], fields, target, 0, dir_level=1,
                       n_samples=16, seed=4)
    # scale-only perturbation: start from the unperturbed latent at scale 1
    # with the latent frozen, isolating the scale axis (a free joint refit
    # drifts along the soft Z/gamma degeneracy and splits the scale)
    start = IlluminationBank(decoder, gt.Z, [0.0])
    images = dataset.images.copy()
    images[1] = img.rgb
    fitted, info = tr.fit_holdout_illumination(
        fields, None, None, decoder, dataclasses.replace(dataset, images=images),
        1, steps=200, dir_level=1, samples_per_ray=16, batch_size=192,
        init=start, freeze_latent=True,
    )
    assert not info["no_sky_pixels"]
    assert np.exp(fitted.log_gamma[0]) == pytest.approx(0.55, rel=0.05)
    assert np.array_equal(fitted.Z, gt.Z)
    assert start.log_gamma[0] == 0.0  # the fit works on a copy


@pytest.mark.parametrize("min_z", [-1.0, -0.1, 1.0, 1.5, float("nan")])
def test_config_rejects_ddf_min_z_outside_unit_interval(min_z):
    # below the horizon the DDF batch sampler's rejection loop never fills
    with pytest.raises(ConfigError):
        tr.TrainConfig(ddf_min_z=min_z)
    with pytest.raises(ConfigError):
        tr.TrainConfig.from_entries({"ddf_min_z": str(min_z)})


def test_config_accepts_ddf_min_z_in_unit_interval():
    assert tr.TrainConfig(ddf_min_z=0.0).ddf_min_z == 0.0
    assert tr.TrainConfig.from_entries({"ddf_min_z": "0.5"}).ddf_min_z == 0.5
