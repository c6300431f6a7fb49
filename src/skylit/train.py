"""Optimization loop: schedules, batch construction from non-transient
pixels, gravity alignment, concurrent DDF supervision, the stop-gradient
ablation switch, and the holdout relighting fit.

Field/DDF groups follow a 500-step warmup into cosine decay; illumination
latents and the visibility threshold use exponentially decaying rates. The
trainer, the holdout fit and the DDF fit all step through ``Adam.step``: a
non-finite loss or gradient rejects the step (parameters and moments
untouched) instead of clipping, and the trainer logs it.
"""

from __future__ import annotations

import csv
import os
import warnings
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from . import fields as fd
from . import fileio
from . import illumination as il
from . import losses as ls
from . import render as rd
from . import tape as tp
from . import visibility as vz
from .cameras import Camera
from .geometry import ConfigError, icosphere_directions, so3_jitter
from .scenes import CLASS_GROUND, CLASS_SKY, CLASS_TRANSIENT


_BOOLS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}


@dataclass
class TrainConfig:
    steps: int = 10000
    rays_per_batch: int = 128
    samples_per_ray: int = 48
    dir_level: int = 3
    near: float = 0.02
    lr_fields: float = 1e-2
    lr_ddf: float = 1e-3
    lr_illum: float = 1e-2
    lr_eps: float = 1e-3
    warmup_steps: int = 500
    seed: int = 0
    stop_gradient: bool = False
    use_visibility: bool = True
    sdf_resolution: int = 64
    grid_extent: float = 1.0
    illum_lobes: int = 16
    ddf_pos_res_theta: int = 32
    ddf_pos_res_phi: int = 64
    ddf_dir_res_theta: int = 16
    ddf_dir_res_phi: int = 32
    ddf_positions: int = 8
    ddf_directions: int = 128
    vmf_kappa: float = 20.0
    ddf_min_z: float = 0.0
    ddf_refresh_every: int = 50
    ddf_multiview_pairs: int = 64
    ddf_losses_to_sdf: bool = True
    weight_appearance: float = 1.0
    weight_prior: float = 1.0
    weight_sky: float = 1.0
    weight_ddf_depth: float = 1.0
    weight_ddf_levelset: float = 1.0
    weight_ddf_multiview: float = 1.0
    weight_ddf_sky: float = 1.0
    weight_ground_plane: float = 0.0
    weight_eps_anneal: float = 0.05
    data_dir: str = ""

    def __post_init__(self):
        for name in ("lr_fields", "lr_ddf", "lr_illum", "lr_eps"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0 <= self.warmup_steps < max(self.steps, 1):
            raise ConfigError("warmup_steps must be < steps")
        if (self.illum_lobes - 2) % 2:
            raise ConfigError("illum_lobes must be 2 + 2*ring_size")
        if self.vmf_kappa <= 0:
            raise ConfigError("vmf_kappa must be positive")

    def loss_weights(self):
        return ls.LossWeights(
            appearance=self.weight_appearance,
            prior=self.weight_prior,
            sky=self.weight_sky,
            ddf_depth=self.weight_ddf_depth,
            ddf_levelset=self.weight_ddf_levelset,
            ddf_multiview=self.weight_ddf_multiview,
            ddf_sky=self.weight_ddf_sky,
            ground_plane=self.weight_ground_plane,
            eps_anneal=self.weight_eps_anneal,
        )

    def to_entries(self):
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}

    @classmethod
    def from_entries(cls, entries):
        kwargs = {}
        types = {f.name: f.type for f in dc_fields(cls)}
        for key, raw in entries.items():
            if key not in types:
                raise ConfigError(f"unknown config key {key!r}")
            ty = types[key]
            try:
                if ty in ("bool", bool):
                    kwargs[key] = _BOOLS[str(raw).strip().lower()]
                elif ty in ("int", int):
                    kwargs[key] = int(str(raw))
                elif ty in ("float", float):
                    kwargs[key] = float(str(raw))
                else:
                    kwargs[key] = str(raw)
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"bad value for config key {key!r}: {raw!r}") from exc
        return cls(**kwargs)


def warmup_cosine(base, step, total, warmup=500):
    ramp = min(step / warmup, 1.0) if warmup > 0 else 1.0
    return base * ramp * 0.5 * (1.0 + np.cos(np.pi * min(step / total, 1.0)))


def exponential_decay(base, step, total):
    return base * 0.1 ** (step / total)


class Adam:
    """Per-slot moments with bias correction; updates parameters in place."""

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {}
        self.v = {}
        self.t = {}

    def step(self, tape, loss, rates):
        """One optimizer step on ``loss``: backward, then an update of each
        slot in ``rates`` (slot name -> learning rate) with the value the
        tape bound. Returns None, or why the step was rejected: a non-finite
        loss or gradient leaves every parameter and every moment untouched.
        """
        if not np.isfinite(loss.data):
            return "non-finite loss"
        grads = tp.backward(tape, loss)
        for name in rates:
            if not np.all(np.isfinite(grads[name])):
                return f"non-finite gradient in {name}"
        for name, lr in rates.items():
            self.update(name, tape.params[name].data, grads[name], lr)
        return None

    def update(self, name, param, grad, lr):
        m = self.m.setdefault(name, np.zeros_like(param))
        v = self.v.setdefault(name, np.zeros_like(param))
        t = self.t.get(name, 0) + 1
        self.t[name] = t
        # in place, in the same operation order as the textbook update
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        tmp = np.multiply(grad, 1.0 - self.beta2, out=np.empty_like(v))
        tmp *= grad
        v *= self.beta2
        v += tmp
        step = np.divide(m, 1.0 - self.beta1**t, out=np.empty_like(m))
        step *= lr
        np.divide(v, 1.0 - self.beta2**t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        step /= tmp
        param -= step


def gravity_align(camera_centers):
    """Rotation mapping the robust best-fit plane normal of the camera
    centers to +z. One trimming pass drops residuals beyond 2 sigma.
    Collinear centers yield the identity with a warning."""
    c = np.asarray(camera_centers, dtype=np.float64)
    if c.shape[0] < 3:
        raise ConfigError("gravity alignment needs at least 3 camera centers")

    def fit(points, weights):
        mean = np.average(points, axis=0, weights=weights)
        x = (points - mean) * weights[:, None]
        evals, evecs = np.linalg.eigh(x.T @ x)
        return evals, evecs, points - mean

    w = np.ones(c.shape[0])
    evals, evecs, centered = fit(c, w)
    if evals[1] < 1e-10 * max(evals[2], 1e-12):
        warnings.warn("camera centers are collinear; gravity left unaligned")
        return np.eye(3)
    normal = evecs[:, 0]
    res = centered @ normal
    sigma = np.std(res)
    if sigma > 1e-12:
        w = (np.abs(res) <= 2.0 * sigma).astype(np.float64)
        if w.sum() >= 3:
            evals, evecs, _ = fit(c, w)
            if evals[1] >= 1e-10 * max(evals[2], 1e-12):
                normal = evecs[:, 0]
    if normal[2] < 0:
        normal = -normal
    z = np.array([0.0, 0.0, 1.0])
    axis = np.cross(normal, z)
    s = np.linalg.norm(axis)
    cos = float(np.dot(normal, z))
    if s < 1e-12:
        return np.eye(3)
    axis = axis / s
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    angle = np.arctan2(s, cos)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def apply_gravity_align(cameras):
    """Rotate the world so the camera plane is horizontal; returns (new
    cameras, rotation)."""
    centers = np.stack([cam.origin for cam in cameras])
    rot = gravity_align(centers)
    new = [
        Camera(K=cam.K.copy(),
               E=np.concatenate([cam.R @ rot.T, cam.t[:, None]], axis=1),
               width=cam.width, height=cam.height)
        for cam in cameras
    ]
    return new, rot


@dataclass
class RayBatch:
    origins: np.ndarray
    dirs: np.ndarray
    gt: np.ndarray
    classes: np.ndarray
    image_idx: np.ndarray


def build_pixel_pool(dataset, view_indices=None):
    """Flat (image, v, u) triples of all non-transient pixels."""
    views = range(dataset.n_views) if view_indices is None else view_indices
    entries = []
    for i in views:
        vv, uu = np.nonzero(dataset.masks[i] != CLASS_TRANSIENT)
        entries.append(np.stack([np.full(len(vv), i), vv, uu], axis=1))
    pool = np.concatenate(entries, axis=0)
    if pool.size == 0:
        raise ConfigError("dataset has no non-transient pixels to sample")
    return pool


def sample_ray_batch(dataset, pool, batch_size, rng):
    """Uniform rays over the non-transient pixel pool, carrying image index
    (for the per-image illumination), class, and ground-truth color."""
    pick = pool[rng.integers(0, pool.shape[0], size=batch_size)]
    origins = np.zeros((batch_size, 3))
    dirs = np.zeros((batch_size, 3))
    for i in np.unique(pick[:, 0]):
        sel = pick[:, 0] == i
        cam = dataset.cameras[i]
        dirs[sel] = cam.ray_dirs(pick[sel][:, [2, 1]])
        origins[sel] = cam.origin
    gt = dataset.gt_srgb[pick[:, 0], pick[:, 1], pick[:, 2]]
    classes = dataset.masks[pick[:, 0], pick[:, 1], pick[:, 2]]
    return RayBatch(origins=origins, dirs=dirs, gt=gt, classes=classes,
                    image_idx=pick[:, 0].astype(np.int64))


LOSS_TERMS = ("appearance", "prior", "sky", "ddf_depth", "ddf_levelset",
              "ddf_multiview", "ddf_sky", "ground_plane", "eps_anneal")

PARAM_GROUPS = {
    "sdf_grid": "fields",
    "sdf_log_inv_s": "fields",
    "albedo_grid": "fields",
    "ddf_grid": "ddf",
    "illum_Z": "illum",
    "illum_log_gamma": "illum",
    "vis_eps_raw": "eps",
}


class Trainer:
    """End-to-end optimization of fields, DDF, illumination, and epsilon."""

    def __init__(self, dataset, config, log_path=None):
        self.dataset = dataset
        self.cfg = config
        self.rng = np.random.default_rng(config.seed)
        self.fields = fd.SceneFields.default(config.sdf_resolution,
                                             config.grid_extent)
        self.ddf = vz.DdfField.zero_init(
            (config.ddf_pos_res_theta, config.ddf_pos_res_phi),
            (config.ddf_dir_res_theta, config.ddf_dir_res_phi),
        )
        self.vis_params = vz.VisibilityParams.default()
        self.decoder = il.LobeDecoder.default(config.illum_lobes,
                                              ring_size=(config.illum_lobes - 2) // 2)
        self.bank = il.IlluminationBank(self.decoder, dataset.n_views)
        self.adam = Adam()
        self.pool = build_pixel_pool(dataset)
        self.dir_set = icosphere_directions(config.dir_level)
        self.weights = config.loss_weights()
        self.step_count = 0
        self.ddf_batch = None
        self.mv_pairs = None
        self.history = []
        self.rejected_steps = []
        self.log_path = log_path
        self._log_fh = None
        if log_path:
            self._log_fh = open(log_path, "w", newline="", encoding="utf-8")
            self._csv = csv.writer(self._log_fh)
            self._csv.writerow(["step", *LOSS_TERMS, "total", "epsilon",
                                "lr_fields", "lr_ddf", "lr_illum", "lr_eps"])

    # -- schedules -----------------------------------------------------
    def learning_rates(self, step):
        cfg = self.cfg
        return {
            "fields": warmup_cosine(cfg.lr_fields, step, cfg.steps, cfg.warmup_steps),
            "ddf": warmup_cosine(cfg.lr_ddf, step, cfg.steps, cfg.warmup_steps),
            "illum": exponential_decay(cfg.lr_illum, step, cfg.steps),
            "eps": exponential_decay(cfg.lr_eps, step, cfg.steps),
        }

    # -- DDF supervision cache ------------------------------------------
    def refresh_ddf_batch(self):
        cfg = self.cfg
        self.ddf_batch = ls.sample_ddf_batch(
            self.fields.sdf, self.rng, cfg.ddf_positions, cfg.ddf_directions,
            kappa=cfg.vmf_kappa, min_z=cfg.ddf_min_z,
        )
        self.mv_pairs = ls.sample_multiview_pairs(
            self.fields.sdf, self.rng, cfg.ddf_multiview_pairs,
            kappa=cfg.vmf_kappa, min_z=cfg.ddf_min_z,
        )

    def train_step(self):
        cfg = self.cfg
        step = self.step_count
        if self.ddf_batch is None or step % cfg.ddf_refresh_every == 0:
            self.refresh_ddf_batch()

        jitter = so3_jitter(self.rng)
        batch = sample_ray_batch(self.dataset, self.pool, cfg.rays_per_batch,
                                 self.rng)

        tape = tp.Tape()
        bf = fd.BoundFields(tape, self.fields)
        bi = il.BoundIllumination(tape, self.bank)
        bd = vz.BoundDdf(tape, self.ddf, self.vis_params)
        out = rd.render_rays(
            tape, bf, bi, bd if cfg.use_visibility else None,
            batch.origins, batch.dirs, batch.image_idx, self.dir_set, jitter,
            self.rng, n_samples=cfg.samples_per_ray,
            stop_grad_vis=cfg.stop_gradient, near=cfg.near,
        )

        terms = {}
        w = self.weights
        if w.appearance > 0:
            terms["appearance"] = ls.appearance_loss(out["rgb"], batch.gt) \
                / cfg.rays_per_batch
        if w.prior > 0:
            terms["prior"] = il.prior_loss(bi.Z) / self.bank.n_images
        sky_mask = batch.classes == CLASS_SKY
        if w.sky > 0 and np.any(sky_mask):
            terms["sky"] = ls.sky_loss(
                out["background"][sky_mask], batch.gt[sky_mask],
                out["W"][sky_mask],
            ) / int(sky_mask.sum())
        if w.ddf_depth > 0:
            terms["ddf_depth"] = ls.ddf_depth_loss(self.ddf_batch, bd) \
                / self.ddf_batch.flat_depths.size
        if w.ddf_levelset > 0:
            terms["ddf_levelset"] = ls.ddf_levelset_loss(
                self.ddf_batch, bd, bf, to_sdf=cfg.ddf_losses_to_sdf,
            ) / self.ddf_batch.flat_depths.size
        # a grid SDF with no zero crossing yields no pairs, hence no term
        n_pairs = len(self.mv_pairs[0])
        if w.ddf_multiview > 0 and n_pairs:
            terms["ddf_multiview"] = ls.ddf_multiview_loss(self.mv_pairs, bd) \
                / n_pairs
        if w.ddf_sky > 0 and np.any(sky_mask):
            sky_term, _ = ls.ddf_sky_loss(
                batch.origins[sky_mask], batch.dirs[sky_mask], bd,
            )
            terms["ddf_sky"] = sky_term / int(sky_mask.sum())
        ground_mask = batch.classes == CLASS_GROUND
        if w.ground_plane > 0 and np.any(ground_mask):
            terms["ground_plane"] = ls.ground_plane_loss(
                out["weighted_normals"][ground_mask],
            ) / int(ground_mask.sum())
        if w.eps_anneal > 0:
            terms["eps_anneal"] = ls.eps_anneal_loss(bd.epsilon())

        total = None
        for name, term in terms.items():
            contrib = getattr(w, name) * term
            total = contrib if total is None else total + contrib
        if total is None:
            record = self._record(step, terms, 0.0)
        else:
            lrs = self.learning_rates(step)
            reason = self.adam.step(tape, total, {
                name: lrs[PARAM_GROUPS[name]] for name in tape.params})
            if reason is not None:
                self.rejected_steps.append(step)
            record = self._record(step, terms, float(total.data),
                                  rejected=reason is not None)
        self.step_count += 1
        return record

    def _record(self, step, terms, total, rejected=False):
        lrs = self.learning_rates(step)
        rec = {name: float(terms[name].data) if name in terms else 0.0
               for name in LOSS_TERMS}
        rec |= dict(step=step, total=total, epsilon=self.vis_params.epsilon,
                    rejected=rejected, **{f"lr_{k}": v for k, v in lrs.items()})
        self.history.append(rec)
        if self._log_fh:
            self._csv.writerow(
                [step, *[rec[t] for t in LOSS_TERMS], total, rec["epsilon"],
                 lrs["fields"], lrs["ddf"], lrs["illum"], lrs["eps"]]
            )
        return rec

    def train(self, n_steps=None, progress_every=0):
        n = self.cfg.steps if n_steps is None else n_steps
        for _ in range(n):
            rec = self.train_step()
            if progress_every and rec["step"] % progress_every == 0:
                print(f"step {rec['step']:6d}  total {rec['total']:.4f}  "
                      f"eps {rec['epsilon']:.3f}")
        if self._log_fh:
            self._log_fh.flush()
        return self.history

    def close(self):
        if self._log_fh:
            self._log_fh.close()
            self._log_fh = None

    def state(self, image_index):
        return self.bank.state(image_index)


def fit_holdout_illumination(scene_fields, ddf, vis_params, decoder, dataset,
                             view_index, steps=400, lr=1e-2, batch_size=256,
                             samples_per_ray=48, dir_level=2, seed=0,
                             init_state=None, freeze_latent=False):
    """Freeze all fields and fit only (Z, gamma) on one holdout view.

    The loss is the appearance error plus the sky-pixel color error (no
    density term). Visibility is off when no ``ddf`` is passed. Starts from
    the zero latent unless ``init_state`` is given. Returns (state, info);
    info flags a holdout without sky pixels and lists the losses of the
    accepted steps. Field gradients are exactly zero by construction since
    the fields are bound as constants.
    """
    rng = np.random.default_rng(seed)
    pool = build_pixel_pool(dataset, [view_index])
    bank = il.IlluminationBank(decoder, 1)
    if init_state is not None:
        bank.Z[0] = init_state.Z
        bank.log_gamma[0] = np.asarray(init_state.log_gamma).reshape(())
    adam = Adam()
    dir_set = icosphere_directions(dir_level)
    no_sky = not np.any(dataset.masks[view_index] == CLASS_SKY)
    history = []
    for step in range(steps):
        batch = sample_ray_batch(dataset, pool, batch_size, rng)
        jitter = so3_jitter(rng)

        tape = tp.Tape()
        bf = fd.BoundFields(tape, scene_fields, trainable=False)
        bi = il.BoundIllumination(tape, bank, trainable=True)
        bd = (None if ddf is None
              else vz.BoundDdf(tape, ddf, vis_params, trainable=False))
        out = rd.render_rays(
            tape, bf, bi, bd, batch.origins, batch.dirs,
            np.zeros(batch_size, dtype=np.int64), dir_set, jitter, rng,
            n_samples=samples_per_ray,
        )
        loss = ls.appearance_loss(out["rgb"], batch.gt) / batch_size
        sky_mask = batch.classes == CLASS_SKY
        if np.any(sky_mask):
            sky_err = ls.color_error(
                ls.tonemap(out["background"][sky_mask]), batch.gt[sky_mask],
            )
            loss = loss + sky_err / int(sky_mask.sum())
        rate = exponential_decay(lr, step, steps)
        rates = {"illum_log_gamma": rate} if freeze_latent else {
            "illum_Z": rate, "illum_log_gamma": rate}
        if adam.step(tape, loss, rates) is None:
            history.append(float(loss.data))
    info = {"no_sky_pixels": no_sky, "losses": history}
    return bank.state(0), info


def fit_ddf_to_scene(sdf_like, ddf=None, steps=3000, lr=5e-3, warmup=200,
                     n_positions=8, n_directions=128, multiview_pairs=64,
                     seed=0, w_levelset=1.0, progress_every=0):
    """Fit a DDF to frozen geometry with the three consistency losses
    (depth + levelset + multiview); fresh supervision batches every step.

    ``sdf_like`` exposes ``sdf_np`` (an analytic scene or a grid field); the
    levelset term runs against a 64^3 grid sampling of it. Batches come from
    the samplers' defaults (upper-hemisphere positions, vMF kappa 20).
    Returns (ddf, history).
    """
    if ddf is None:
        ddf = vz.DdfField.zero_init()
    grid_sdf = (
        sdf_like
        if isinstance(sdf_like, fd.SdfField)
        else fd.SdfField.from_function(sdf_like.sdf_np, resolution=64)
    )
    frozen = fd.SceneFields(grid_sdf, fd.AlbedoField.constant_init(2))
    params = vz.VisibilityParams.default()
    adam = Adam()
    rng = np.random.default_rng(seed)
    history = []
    for step in range(steps):
        batch = ls.sample_ddf_batch(sdf_like, rng, n_positions, n_directions)
        pairs = ls.sample_multiview_pairs(sdf_like, rng, multiview_pairs)
        tape = tp.Tape()
        bd = vz.BoundDdf(tape, ddf, params)
        bf = fd.BoundFields(tape, frozen, trainable=False)
        n = batch.flat_depths.size
        loss = (
            ls.ddf_depth_loss(batch, bd) / n
            + w_levelset * ls.ddf_levelset_loss(batch, bd, bf) / n
            + ls.ddf_multiview_loss(pairs, bd) / multiview_pairs
        )
        ramp = min(step / warmup, 1.0) if warmup else 1.0
        # hold the full rate for half the run (miss-ray chords need the raw
        # values to travel far through the sigmoid), then anneal
        half = steps // 2
        tail = 1.0 if step < half else 0.5 * (
            1.0 + np.cos(np.pi * (step - half) / max(steps - half, 1)))
        adam.step(tape, loss, {"ddf_grid": lr * ramp * tail})
        history.append(float(loss.data))
        if progress_every and step % progress_every == 0:
            print(f"ddf fit step {step:5d} loss {history[-1]:.5f}")
    return ddf, history


# -- checkpoints ----------------------------------------------------------


def save_checkpoint(out_dir, trainer):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "fields.bin"), "wb") as fh:
        fileio.write_blob(fh, trainer.fields.sdf.grid,
                          meta=[trainer.fields.sdf.extent])
        fileio.write_blob(fh, trainer.fields.sdf.log_inv_s)
        fileio.write_blob(fh, trainer.fields.albedo.grid,
                          meta=[trainer.fields.albedo.extent])
    with open(os.path.join(out_dir, "ddf.bin"), "wb") as fh:
        fileio.write_blob(fh, trainer.ddf.grid)
        fileio.write_blob(fh, trainer.vis_params.eps_raw,
                          meta=[trainer.vis_params.eta])
    with open(os.path.join(out_dir, "illum.bin"), "wb") as fh:
        fileio.write_blob(fh, trainer.bank.Z)
        fileio.write_blob(fh, trainer.bank.log_gamma)
    with open(os.path.join(out_dir, "optimizer.bin"), "wb") as fh:
        names = sorted(trainer.adam.m)
        fh.write(np.uint32(len(names)).tobytes())
        for name in names:
            raw = name.encode()
            fh.write(np.uint32(len(raw)).tobytes())
            fh.write(raw)
            fh.write(np.uint32(trainer.adam.t[name]).tobytes())
            fileio.write_blob(fh, trainer.adam.m[name])
            fileio.write_blob(fh, trainer.adam.v[name])
    fileio.write_config(os.path.join(out_dir, "config.txt"),
                        trainer.cfg.to_entries())


def load_checkpoint(ckpt_dir, dataset):
    cfg = TrainConfig.from_entries(
        fileio.read_config(os.path.join(ckpt_dir, "config.txt")))
    trainer = Trainer(dataset, cfg)
    with open(os.path.join(ckpt_dir, "fields.bin"), "rb") as fh:
        grid, meta = fileio.read_blob(fh)
        log_inv_s, _ = fileio.read_blob(fh)
        albedo, meta_a = fileio.read_blob(fh)
    trainer.fields = fd.SceneFields(
        sdf=fd.SdfField(grid, extent=meta[0]),
        albedo=fd.AlbedoField(albedo, extent=meta_a[0]),
    )
    trainer.fields.sdf.log_inv_s = np.asarray(log_inv_s.reshape(()))
    with open(os.path.join(ckpt_dir, "ddf.bin"), "rb") as fh:
        dgrid, _ = fileio.read_blob(fh)
        eps_raw, meta_d = fileio.read_blob(fh)
    trainer.ddf = vz.DdfField(dgrid)
    trainer.vis_params = vz.VisibilityParams(
        eps_raw=np.asarray(eps_raw.reshape(())), eta=meta_d[0])
    with open(os.path.join(ckpt_dir, "illum.bin"), "rb") as fh:
        z, _ = fileio.read_blob(fh)
        log_gamma, _ = fileio.read_blob(fh)
    trainer.bank.Z = np.asarray(z)
    trainer.bank.log_gamma = np.asarray(log_gamma)
    opt_path = os.path.join(ckpt_dir, "optimizer.bin")
    if os.path.exists(opt_path):
        with open(opt_path, "rb") as fh:
            (count,) = np.frombuffer(fh.read(4), dtype=np.uint32)
            for _ in range(count):
                (nlen,) = np.frombuffer(fh.read(4), dtype=np.uint32)
                name = fh.read(int(nlen)).decode()
                (t_step,) = np.frombuffer(fh.read(4), dtype=np.uint32)
                m, _ = fileio.read_blob(fh)
                v, _ = fileio.read_blob(fh)
                trainer.adam.m[name] = np.asarray(m)
                trainer.adam.v[name] = np.asarray(v)
                trainer.adam.t[name] = int(t_step)
    return trainer
