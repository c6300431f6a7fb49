"""The benchmark workloads, driven through skylit's public API.

Each workload builds its inputs from the seed (``setup``), runs a fixed
number of ops (``run``), checks every op's output, and computes a
deterministic, lower-is-better ``quality`` off the clock. Op counts depend
only on ``--seconds``, never on measured speed, so a given seed and run
length always do the same work and ``quality_err`` is reproducible.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import tempfile
import time

import numpy as np

from skylit import fileio
from skylit import losses as ls
from skylit import scenes as sc
from skylit import tape as tp
from skylit import train as tr
from skylit import visibility as vz

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class OpLog:
    """Per-op wall times and failures of one timed window."""

    def __init__(self):
        self.times = []
        self.failed = 0
        self.errors = []
        self.window_s = 0.0

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def timed_ops(n_ops, op):
    """Call ``op(i)`` n_ops times; an op fails if it raises or returns a
    message. A failure never stops the run."""
    log = OpLog()
    begin = time.perf_counter()
    for i in range(n_ops):
        t0 = time.perf_counter()
        try:
            problem = op(i)
        except Exception as exc:  # noqa: BLE001 - count it and keep going
            problem = f"{type(exc).__name__}: {exc}"
        log.times.append(time.perf_counter() - t0)
        if problem:
            log.fail(f"op {i}: {problem}")
    log.window_s = time.perf_counter() - begin
    return log


class TrainDefault:
    """``Trainer.train_step`` with configs/default.txt on a sphere-plane
    dataset (20 views, 64x48), gravity-aligned as ``skylit train`` does."""

    name = "train-default"
    item = "rays"
    period = 50          # ddf_refresh_every in configs/default.txt
    nominal_op_s = 0.5   # one step at the parent commit on a 2-vCPU host
    quality_bound = smoke_quality_bound = 3.0  # total loss; ~1.5 observed
    replay_ops = 2
    setup_reps = 3       # each set-up ray-traces 20 views (~5 s)

    def n_ops(self, seconds, smoke):
        if smoke:
            return 3
        # whole DDF refresh periods, so every run has the same refresh share
        return self.period * max(1, round(seconds / (self.period * self.nominal_op_s)))

    def setup(self, seed, workdir):
        scene = sc.make_scene("sphere-plane", seed=0)
        out = tempfile.mkdtemp(dir=workdir)
        dataset = sc.generate_dataset(scene, 20, seed=seed, out_dir=out,
                                      width=64, height=48, quad_level=3)
        dataset.cameras, _ = tr.apply_gravity_align(dataset.cameras)
        entries = fileio.read_config(os.path.join(REPO_ROOT, "configs", "default.txt"))
        entries["seed"] = seed
        cfg = tr.TrainConfig.from_entries(entries)
        return {"dataset": dataset, "cfg": cfg, "dir": out,
                "trainer": tr.Trainer(dataset, cfg)}

    def fingerprint(self, state):
        ds = state["dataset"]
        return [ds.images, ds.masks, np.stack([c.E for c in ds.cameras])]

    def cleanup(self, state):
        shutil.rmtree(state["dir"], ignore_errors=True)

    def replay(self, state):
        """A fresh trainer's first steps, to compare with the run's."""
        trainer = tr.Trainer(state["dataset"], state["cfg"])
        for _ in range(self.replay_ops):
            trainer.train_step()
        return trainer.history

    def run(self, state, n_ops):
        trainer = state["trainer"]

        def op(i):
            rec = trainer.train_step()
            if rec["rejected"]:
                return "step rejected (non-finite loss or gradient)"
            if not math.isfinite(rec["total"]):
                return f"non-finite loss {rec['total']}"
            return None

        return timed_ops(n_ops, op)

    def checks(self, state, replay):
        history = state["trainer"].history
        same = history[:len(replay)] == replay
        return [("replay_bit_identical", same,
                 "first steps of a fresh trainer repeat the run's loss terms")]

    def quality(self, state):
        return state["trainer"].history[-1]["total"]

    def items(self, state, n_ops):
        return n_ops * state["cfg"].rays_per_batch


class _LineClock:
    """stdout stand-in that timestamps each progress line."""

    def __init__(self):
        self.lines = []

    def write(self, text):
        if text.strip():
            self.lines.append((time.perf_counter(), text.strip()))
        return len(text)

    def flush(self):
        pass


class DdfFit:
    """``fit_ddf_to_scene`` on the analytic two-sphere scene with the
    ``fitted_two_sphere_ddf`` fixture's settings."""

    name = "ddf-fit"
    item = "DDF supervision queries"
    nominal_op_s = 0.055
    quality_bound = 0.6   # depth MAE: ~0.44 after 364 steps, ~0.25 after 727
    smoke_quality_bound = 0.75  # a zero-init DDF scores 0.737
    replay_ops = 2
    setup_reps = 25      # a set-up takes ~20 ms, so take the median of many
    fit_args = dict(lr=1.5e-2, warmup=150, n_positions=24, n_directions=128,
                    multiview_pairs=64, w_levelset=3.0)

    def n_ops(self, seconds, smoke):
        return 8 if smoke else max(8, round(seconds / self.nominal_op_s))

    def setup(self, seed, workdir):
        scene = sc.make_scene("two-sphere", seed=0)
        heldout = ls.sample_ddf_batch(scene, np.random.default_rng(2024), 16, 128)
        return {"scene": scene, "seed": seed, "heldout": heldout,
                "ddf": vz.DdfField.zero_init((24, 48), (12, 24))}

    def fingerprint(self, state):
        return [state["ddf"].grid, state["heldout"].directions,
                state["heldout"].depths]

    def cleanup(self, state):
        pass

    def _fit(self, state, ddf, steps):
        clock = _LineClock()
        with contextlib.redirect_stdout(clock):
            tr.fit_ddf_to_scene(state["scene"], ddf=ddf, steps=steps,
                                seed=state["seed"], progress_every=1,
                                **self.fit_args)
        return clock.lines

    def replay(self, state):
        # with twice the steps, the first half shares the timed run's
        # learning-rate schedule, so its printed losses must match
        lines = self._fit(state, vz.DdfField.zero_init((24, 48), (12, 24)),
                          2 * self.replay_ops)
        return [text for _, text in lines[:self.replay_ops]]

    def run(self, state, n_ops):
        log = OpLog()
        begin = time.perf_counter()
        try:
            lines = self._fit(state, state["ddf"], n_ops)
        except Exception as exc:  # noqa: BLE001 - the rest of the fit is lost
            lines = []
            log.fail(f"fit raised {type(exc).__name__}: {exc}")
        log.window_s = time.perf_counter() - begin
        prev = begin
        for stamp, text in lines:
            log.times.append(stamp - prev)
            prev = stamp
            try:
                loss = float(text.rsplit(" ", 1)[-1])
            except ValueError:
                loss = math.nan
            if not math.isfinite(loss):
                log.fail(f"{text!r}: no finite loss")
        for _ in range(n_ops - len(lines)):
            log.fail("step not run")
        if not np.all(np.isfinite(state["ddf"].grid)):
            log.fail("DDF grid is non-finite after the fit")
        state["lines"] = [text for _, text in lines]
        return log

    def checks(self, state, replay):
        same = state.get("lines", [])[:len(replay)] == replay
        return [("replay_losses_match", same,
                 "first steps of a fresh fit print the run's losses")]

    def quality(self, state):
        """Depth MAE against sphere-traced depths on a fixed held-out batch."""
        batch = state["heldout"]
        bound = vz.BoundDdf(tp.Tape(), state["ddf"], vz.VisibilityParams.default(),
                            trainable=False)
        pred = vz.ddf_eval(bound, batch.flat_positions, batch.flat_directions)
        return float(np.mean(np.abs(pred.data - batch.flat_depths)))

    def items(self, state, n_ops):
        return n_ops * self.fit_args["n_positions"] * self.fit_args["n_directions"]


WORKLOADS = {w.name: w for w in (TrainDefault(), DdfFit())}
