"""Optimization loop: schedules, batch construction from non-transient
pixels, gravity alignment, concurrent DDF supervision, the stop-gradient
ablation switch, and the holdout relighting fit.

Field/DDF groups follow a 500-step warmup into cosine decay; illumination
latents and the visibility threshold use exponentially decaying rates. The
trainer, the holdout fit and the DDF fit all step through ``Adam.step``: a
non-finite loss or gradient rejects the step (parameters and moments
untouched) instead of clipping, and the trainer logs it. ``Adam`` gives the
textbook update bit for bit, with optimizer state only for the entries
whose gradient was ever non-zero.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from . import fields as fd
from . import fileio
from . import illumination as il
from . import losses as ls
from . import render as rd
from . import tape as tp
from . import visibility as vz
from .cameras import Camera
from .geometry import VMF_KAPPA_MIN, ConfigError, icosphere_directions, so3_jitter
from .scenes import CLASS_GROUND, CLASS_SKY, CLASS_TRANSIENT


_BOOLS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}

# how from_entries reads a value of each declared type
_PARSERS = {"bool": lambda s: _BOOLS[s.strip().lower()], "int": int,
            "float": float, "str": str}

# loss terms, each weighted by TrainConfig's weight_<term>
LOSS_TERMS = ("appearance", "prior", "sky", "ddf_depth", "ddf_levelset",
              "ddf_multiview", "ddf_sky", "ground_plane", "eps_anneal")


def _key(default, range_, meaning):
    """One TrainConfig field: its default, the interval its value must lie
    in ("[lo, hi)" notation, inf allowed; None where the type admits every
    value) and a one-line meaning. README's configuration table repeats all
    three, and a test holds it to them."""
    return field(default=default, metadata={"range": range_, "meaning": meaning})


def _in_range(value, range_):
    """Whether ``value`` lies in an interval written "[lo, hi)"; NaN never
    does."""
    lo, hi = (float(x) for x in range_[1:-1].split(","))
    above = lo <= value if range_[0] == "[" else lo < value
    below = value <= hi if range_[-1] == "]" else value < hi
    return above and below


_RATE = "(0, 1]"       # an Adam rate: about the largest step per entry
_WEIGHT = "[0, 1000]"  # a loss multiplier; 0 switches its term off


@dataclass
class TrainConfig:
    """Every training setting, each declared once with its range.

    Two rules span keys or values: warmup_steps < steps, and illum_lobes =
    2 + 2 * ring_size (two polar caps and two azimuthal rings), so even.
    """

    steps: int = _key(10000, "[1, inf)", "optimization steps")
    rays_per_batch: int = _key(
        128, "[1, inf)", "rays per step, drawn from non-transient pixels")
    samples_per_ray: int = _key(
        48, "[2, inf)", "stratified samples per ray; NeuS weights need two")
    dir_level: int = _key(
        3, "[0, 6]", "icosphere level of the light quadrature (3: 642 directions)")
    near: float = _key(
        0.02, "[0, 1)", "distance along each ray where its samples start")
    lr_fields: float = _key(
        1e-2, _RATE, "Adam rate of the SDF and albedo grids: warmup, cosine decay")
    lr_ddf: float = _key(1e-3, _RATE, "Adam rate of the DDF grid: warmup, cosine decay")
    lr_illum: float = _key(
        1e-2, _RATE, "Adam rate of the illumination latents: exponential decay")
    lr_eps: float = _key(
        1e-3, _RATE, "Adam rate of the visibility threshold: exponential decay")
    warmup_steps: int = _key(
        500, "[0, inf)", "steps of linear warmup of the field and DDF rates")
    seed: int = _key(0, "[0, inf)", "seed of ray batches, jitter and DDF supervision")
    stop_gradient: bool = _key(
        False, None, "detach visibility in the backward pass (ablation)")
    use_visibility: bool = _key(True, None, "evaluate DDF sky visibility in the renderer")
    sdf_resolution: int = _key(
        64, "[2, inf)", "nodes per axis of the SDF and albedo grids")
    illum_lobes: int = _key(16, "[2, inf)", "lobes of the sky decoder")
    ddf_pos_res_theta: int = _key(
        32, "[2, inf)", "DDF nodes over the sphere point's polar angle")
    ddf_pos_res_phi: int = _key(
        64, "[1, inf)", "DDF nodes over the sphere point's azimuth")
    ddf_dir_res_theta: int = _key(
        16, "[2, inf)", "DDF nodes over the direction's local polar angle")
    ddf_dir_res_phi: int = _key(
        32, "[1, inf)", "DDF nodes over the direction's local azimuth")
    ddf_positions: int = _key(8, "[1, inf)", "sphere points per DDF supervision batch")
    ddf_directions: int = _key(
        128, "[1, inf)", "inward directions per point of that batch")
    vmf_kappa: float = _key(
        20.0, f"[{VMF_KAPPA_MIN}, inf)", "vMF concentration of those directions")
    ddf_min_z: float = _key(
        0.0, "[0, 1)", "lowest height of those points (0: the horizon)")
    ddf_refresh_every: int = _key(
        50, "[1, inf)", "steps between fresh DDF supervision batches")
    ddf_multiview_pairs: int = _key(
        64, "[1, inf)", "point pairs per DDF multiview-consistency batch")
    weight_appearance: float = _key(
        1.0, _WEIGHT, "multiplier of the tonemapped color loss")
    weight_prior: float = _key(1.0, _WEIGHT, "multiplier of the latents' squared norm")
    weight_sky: float = _key(
        1.0, _WEIGHT, "multiplier of the sky pixels' color and density loss")
    weight_ddf_depth: float = _key(
        1.0, _WEIGHT, "multiplier of the DDF's traced-depth loss")
    weight_ddf_levelset: float = _key(
        1.0, _WEIGHT, "multiplier of the DDF's SDF level-set loss")
    weight_ddf_multiview: float = _key(
        1.0, _WEIGHT, "multiplier of the DDF's multiview-consistency loss")
    weight_ddf_sky: float = _key(
        1.0, _WEIGHT, "multiplier of the sky rays' DDF see-through loss")
    weight_ground_plane: float = _key(
        0.0, _WEIGHT, "multiplier of the ground normals' world-up loss")
    weight_eps_anneal: float = _key(
        0.05, _WEIGHT, "multiplier of the visibility threshold's pull to 0")
    data_dir: str = _key("", None, "dataset directory, read when --data is not given")

    def __post_init__(self):
        for f in dc_fields(self):
            value, range_ = getattr(self, f.name), f.metadata["range"]
            if range_ and not _in_range(value, range_):
                raise ConfigError(f"{f.name} must lie in {range_}, got {value!r}")
        if self.warmup_steps >= self.steps:
            raise ConfigError("warmup_steps must be < steps")
        if self.illum_lobes % 2:
            raise ConfigError("illum_lobes must be 2 + 2 * ring_size, so even")

    def to_entries(self):
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}

    @classmethod
    def from_entries(cls, entries):
        """A config from 'key = value' entries, typed by the declaration;
        a value may be a string, as read from a file, or already typed."""
        types = {f.name: f.type for f in dc_fields(cls)}
        kwargs = {}
        for key, raw in entries.items():
            if key not in types:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                kwargs[key] = _PARSERS[types[key]](str(raw))
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"bad value for config key {key!r}: {raw!r}") from exc
        return cls(**kwargs)


def warmup_cosine(base, step, total, warmup=500):
    ramp = min(step / warmup, 1.0) if warmup > 0 else 1.0
    return base * ramp * 0.5 * (1.0 + np.cos(np.pi * min(step / total, 1.0)))


def exponential_decay(base, step, total):
    return base * 0.1 ** (step / total)


ADAM_BLOCK = 16384  # live entries per block of Adam.update; 128 KiB per array
# Adam._insert moves old entries run by run while each new entry has at
# least this many old entries behind the first insertion point, and in one
# masked merge beyond: a run costs about as much as merging 400 entries
# (measured crossovers: about 256 new entries behind 100k, 2,300 behind 850k)
ADAM_TAIL_PER_RUN = 400


class Adam:
    """Adam with bias correction (Kingma & Ba, arXiv 1412.6980); updates
    parameters in place, bit for bit the textbook update of every entry.

    The textbook update leaves an entry exactly as it is (``-0.0``
    included) while its gradient and both moments are 0, so each slot
    keeps state only for the entries that have ever had a non-zero
    gradient: ``seen[name]`` marks them over the flat slot, ``live[name]``
    holds their sorted flat indices and ``m[name]``, ``v[name]`` their
    moments, aligned with ``live``. Every live entry gets the full update
    every step, moment decay included.

    ``live``, ``m`` and ``v`` are views of the leading entries of buffers
    that grow by a quarter when full, and new entries are merged into them
    in place: new arrays each step fragment the heap, so that over a long
    run the process's peak memory grows past that of dense moments.
    """

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.seen = {}
        self.live = {}
        self.m = {}
        self.v = {}
        self.t = {}
        self._buffers = {}  # slot -> [live, m, v] buffers with room to grow
        self._a = np.empty(ADAM_BLOCK)  # work buffers for one block
        self._b = np.empty(ADAM_BLOCK)

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
        if not param.flags.c_contiguous:
            raise ValueError(f"slot {name!r}: parameter must be contiguous")
        param_flat, grad_flat = param.reshape(-1), grad.reshape(-1)
        if name not in self.seen:
            self.seen[name] = np.zeros(param.size, dtype=bool)
            self._buffers[name] = [np.empty(0, dtype=np.intp), np.empty(0), np.empty(0)]
            self.live[name], self.m[name], self.v[name] = self._buffers[name]
        new = grad_flat != 0
        np.greater(new, self.seen[name], out=new)
        if new.any():  # first non-zero gradients: insert them with zero moments
            new = np.flatnonzero(new)
            self.seen[name][new] = True
            self._insert(name, new)
        live, m, v = self.live[name], self.m[name], self.v[name]
        t = self.t.get(name, 0) + 1
        self.t[name] = t
        c1, c2 = 1.0 - self.beta1**t, 1.0 - self.beta2**t
        # in cache-sized blocks of live entries, with the textbook update's
        # operations in its order, so every value is its bit for bit
        for lo in range(0, live.size, ADAM_BLOCK):
            idx = live[lo:lo + ADAM_BLOCK]
            p, g = param_flat[idx], grad_flat[idx]
            mb, vb = m[lo:lo + ADAM_BLOCK], v[lo:lo + ADAM_BLOCK]
            a, b = self._a[:g.size], self._b[:g.size]
            mb *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=a)
            mb += a
            np.multiply(g, 1.0 - self.beta2, out=b)
            b *= g
            vb *= self.beta2
            vb += b
            np.divide(mb, c1, out=a)
            a *= lr
            np.divide(vb, c2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p -= a
            param_flat[idx] = p

    def _insert(self, name, new):
        """Merge the sorted flat indices ``new`` into slot ``name``'s
        ``live``, with zero moments, keeping ``live`` sorted.

        Up to one new entry per ``ADAM_TAIL_PER_RUN`` old entries behind the
        first insertion point: the old entries between two insertion points
        form a run, and each run moves right once, by the number of new
        entries before it, last run first so that no move overwrites a run
        still to move; the new entries then fill the gaps. More new entries:
        one masked merge of everything from the first insertion point on, as
        ``np.insert`` does, whose cost grows with that tail, not the count.
        Both give the same bits.
        """
        n, k = self.live[name].size, new.size
        at = np.searchsorted(self.live[name], new)
        first = at[0]
        gaps = at + np.arange(k)
        merge = k * ADAM_TAIL_PER_RUN > n - first
        if merge:
            old = np.ones(n + k - first, dtype=bool)
            old[gaps - first] = False
        else:
            ends = at.tolist() + [n]
        buffers = self._buffers[name]
        size = min(max(n + k, buffers[0].size * 5 // 4), self.seen[name].size)
        for i, (state, value) in enumerate(zip((self.live, self.m, self.v),
                                               (new, 0.0, 0.0))):
            src = state[name]
            grow = n + k > buffers[i].size
            if grow:
                # one array at a time, so the old one is freed before the next grows
                buffers[i] = np.empty(size, dtype=src.dtype)
                buffers[i][:first] = src[:first]
            dst = buffers[i]
            if merge:
                tail = dst[first:n + k]
                # a masked write does not see the overlap
                tail[old] = src[first:] if grow else src[first:].copy()
                tail[~old] = value
            else:
                for j in range(k, 0, -1):
                    lo, hi = ends[j - 1], ends[j]
                    if hi > lo:
                        dst[lo + j:hi + j] = src[lo:hi]
                dst[gaps] = value
            state[name] = dst[:n + k]


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


_VIEWS = "the dataset's view count (load the dataset it was trained on)"

# each tape slot: its optimizer group, and what sets each axis of its array
PARAM_GROUPS = {
    "sdf_grid": ("fields", ("sdf_resolution",) * 3),
    "sdf_log_inv_s": ("fields", ()),
    "albedo_grid": ("fields", ("sdf_resolution",) * 3 + ("RGB",)),
    "ddf_grid": ("ddf", ("ddf_pos_res_theta", "ddf_pos_res_phi",
                         "ddf_dir_res_theta", "ddf_dir_res_phi")),
    "illum_Z": ("illum", (_VIEWS, "RGB", "illum_lobes")),
    "illum_log_gamma": ("illum", (_VIEWS,)),
    "vis_eps_raw": ("eps", ()),
}


class Trainer:
    """End-to-end optimization of fields, DDF, illumination, and epsilon."""

    def __init__(self, dataset, config, log_path=None):
        self.dataset = dataset
        self.cfg = config
        self.rng = np.random.default_rng(config.seed)
        self.fields = fd.SceneFields.default(config.sdf_resolution)
        self.ddf = vz.DdfField.zero_init(
            (config.ddf_pos_res_theta, config.ddf_pos_res_phi),
            (config.ddf_dir_res_theta, config.ddf_dir_res_phi),
        )
        self.vis_params = vz.VisibilityParams.default()
        self.decoder = il.LobeDecoder.default(config.illum_lobes)
        self.bank = il.IlluminationBank.zeros(self.decoder, dataset.n_views)
        self.adam = Adam()
        self.pool = build_pixel_pool(dataset)
        self.dir_set = icosphere_directions(config.dir_level)
        self.step_count = 0
        self.ddf_batch = None
        self.mv_pairs = None
        self.history = []
        self.log_path = log_path
        self._log_fh = open(log_path, "w", encoding="utf-8") if log_path else None

    @property
    def rejected_steps(self):
        return [rec["step"] for rec in self.history if rec["rejected"]]

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
            bf, bi, bd if cfg.use_visibility else None,
            batch.origins, batch.dirs, batch.image_idx, dir_set=self.dir_set,
            jitter=jitter, rng=self.rng, n_samples=cfg.samples_per_ray,
            stop_grad_vis=cfg.stop_gradient, near=cfg.near,
        )

        # each term is its batch's mean (an empty batch gives an on-tape 0)
        sky = batch.classes == CLASS_SKY
        ground = batch.classes == CLASS_GROUND
        compute = {
            "appearance": lambda: ls.appearance_loss(out["rgb"], batch.gt),
            "prior": lambda: il.prior_loss(bi.Z),
            "sky": lambda: ls.sky_loss(out["background"][sky], batch.gt[sky],
                                       out["W"][sky]),
            "ddf_depth": lambda: ls.ddf_depth_loss(self.ddf_batch, bd),
            "ddf_levelset": lambda: ls.ddf_levelset_loss(self.ddf_batch, bd, bf),
            "ddf_multiview": lambda: ls.ddf_multiview_loss(self.mv_pairs, bd),
            "ddf_sky": lambda: ls.ddf_sky_loss(batch.origins[sky],
                                               batch.dirs[sky], bd),
            "ground_plane": lambda: ls.ground_plane_loss(
                out["weighted_normals"][ground]),
            "eps_anneal": lambda: ls.eps_anneal_loss(bd.epsilon()),
        }
        terms = {name: compute[name]() for name in LOSS_TERMS
                 if getattr(cfg, f"weight_{name}") > 0}

        total = None
        for name, term in terms.items():
            contrib = getattr(cfg, f"weight_{name}") * term
            total = contrib if total is None else total + contrib
        if total is None:
            record = self._record(step, terms, 0.0, None)
        else:
            lrs = self.learning_rates(step)
            reason = self.adam.step(tape, total, {
                name: lrs[PARAM_GROUPS[name][0]] for name in tape.params})
            record = self._record(step, terms, float(total.data), reason)
        self.step_count += 1
        return record

    def _record(self, step, terms, total, rejected):
        """One step's record: every loss term (0.0 where its weight is 0),
        the total, epsilon, the rates, and why the step was rejected (None
        when it was applied or had no term). With ``log_path`` it is also
        written as one JSON line."""
        rec = {name: float(terms[name].data) if name in terms else 0.0
               for name in LOSS_TERMS}
        rec |= dict(step=step, total=total, epsilon=self.vis_params.epsilon,
                    rejected=rejected,
                    **{f"lr_{k}": v for k, v in self.learning_rates(step).items()})
        self.history.append(rec)
        if self._log_fh:
            self._log_fh.write(json.dumps(rec) + "\n")
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


def fit_holdout_illumination(scene_fields, ddf, vis_params, decoder, dataset,
                             view_index, steps=400, lr=1e-2, batch_size=256,
                             samples_per_ray=48, dir_level=2, seed=0,
                             init=None, freeze_latent=False):
    """Freeze all fields and fit only (Z, gamma) on one holdout view.

    The loss is the appearance error over the batch plus the same error
    over its sky pixels alone, the sky color term (no density term), each a
    mean. Visibility is off when no ``ddf`` is passed. Starts from
    the zero latent, or from a copy of the one-row bank ``init``. Returns
    (one-row bank, info); info flags a holdout without sky pixels and lists
    the losses of the accepted steps. Field gradients are exactly zero by
    construction since the fields are bound as constants.
    """
    rng = np.random.default_rng(seed)
    pool = build_pixel_pool(dataset, [view_index])
    bank = (il.IlluminationBank.zeros(decoder, 1) if init is None
            else il.IlluminationBank(decoder, init.Z, init.log_gamma))
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
            bf, bi, bd, batch.origins, batch.dirs,
            np.zeros(batch_size, dtype=np.int64), dir_set=dir_set,
            jitter=jitter, rng=rng, n_samples=samples_per_ray,
        )
        sky = batch.classes == CLASS_SKY
        loss = (ls.appearance_loss(out["rgb"], batch.gt)
                + ls.appearance_loss(out["background"][sky], batch.gt[sky]))
        rate = exponential_decay(lr, step, steps)
        rates = {"illum_log_gamma": rate} if freeze_latent else {
            "illum_Z": rate, "illum_log_gamma": rate}
        if adam.step(tape, loss, rates) is None:
            history.append(float(loss.data))
    info = {"no_sky_pixels": no_sky, "losses": history}
    return bank, info


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
        loss = (ls.ddf_depth_loss(batch, bd)
                + w_levelset * ls.ddf_levelset_loss(batch, bd, bf)
                + ls.ddf_multiview_loss(pairs, bd))
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


def slot_arrays(trainer):
    """The trainer's array behind each tape slot, bound as a training step
    binds them: writing into one changes the trainer."""
    tape = tp.Tape()
    fd.BoundFields(tape, trainer.fields)
    il.BoundIllumination(tape, trainer.bank)
    vz.BoundDdf(tape, trainer.ddf, trainer.vis_params)
    return {name: var.data for name, var in tape.params.items()}


def save_checkpoint(out_dir, trainer):
    """``config.txt`` and ``params.npz``, which holds every slot in float64."""
    os.makedirs(out_dir, exist_ok=True)
    np.savez(os.path.join(out_dir, "params.npz"), **slot_arrays(trainer))
    fileio.write_config(os.path.join(out_dir, "config.txt"),
                        trainer.cfg.to_entries())


def load_checkpoint(ckpt_dir, dataset):
    """The trainer saved in ``ckpt_dir``, for the dataset it was trained on.
    ConfigError when ``params.npz`` is unreadable, lacks a slot, or holds an
    array of another shape than its config (or the dataset's view count)
    gives; the error names the first axis that disagrees."""
    cfg = TrainConfig.from_entries(
        fileio.read_config(os.path.join(ckpt_dir, "config.txt")))
    trainer = Trainer(dataset, cfg)
    path = os.path.join(ckpt_dir, "params.npz")
    stored = fileio.read_npz(path)
    for name, fresh in slot_arrays(trainer).items():
        if name not in stored:
            raise ConfigError(f"{path}: no slot {name!r}")
        value = stored[name]
        if value.shape != fresh.shape:
            axes = zip(PARAM_GROUPS[name][1], value.shape, fresh.shape)
            key = next((k for k, a, b in axes if a != b), "the config")
            raise ConfigError(f"{path}: slot {name!r} has shape {value.shape}, "
                              f"but {key} gives {fresh.shape}")
        np.copyto(fresh, value)
    return trainer
