"""Command line interface driving every experiment.

Subcommands: generate, train, render, relight, eval, ddf-viz, ao, shadow.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import fileio, metrics
from . import scenes as sc
from . import train as tr
from . import visibility as vz
from .cameras import Camera
from .geometry import ConfigError, normalize, srgb
from .render import render_image
from .scenes import CLASS_TRANSIENT


def _cmd_generate(args):
    scene = sc.make_scene(args.scene, seed=args.scene_seed)
    sc.generate_dataset(scene, args.views, args.seed, args.out,
                        width=args.width, height=args.height,
                        quad_level=args.quad_level)
    print(f"wrote {args.views} views to {args.out}")
    return 0


def _cmd_train(args):
    entries = fileio.read_config(args.config)
    cfg = tr.TrainConfig.from_entries(entries)
    data_dir = args.data or cfg.data_dir
    if not data_dir:
        raise ConfigError("no dataset: set data_dir in the config or pass --data")
    dataset = _load_aligned(data_dir)
    os.makedirs(args.out, exist_ok=True)
    trainer = tr.Trainer(dataset, cfg,
                         log_path=os.path.join(args.out, "losses.csv"))
    trainer.train(progress_every=args.progress_every)
    trainer.close()
    tr.save_checkpoint(args.out, trainer)
    print(f"checkpoint written to {args.out}")
    return 0


def _load_aligned(path):
    """The dataset with its cameras gravity-aligned. The alignment is a
    deterministic function of the camera centers, so every command recovers
    the frame that training used without storing it in the checkpoint."""
    dataset = sc.load_dataset(path)
    dataset.cameras, _ = tr.apply_gravity_align(dataset.cameras)
    return dataset


def _load(args):
    dataset = _load_aligned(args.dataset)
    trainer = tr.load_checkpoint(args.ckpt, dataset)
    return dataset, trainer


def _write_render(out_dir, stem, result):
    os.makedirs(out_dir, exist_ok=True)
    fileio.write_pfm(os.path.join(out_dir, f"{stem}.pfm"), result.rgb)
    fileio.write_ppm(os.path.join(out_dir, f"{stem}.ppm"), result.srgb)
    fileio.write_pfm(os.path.join(out_dir, f"{stem}_albedo.pfm"), result.albedo)
    fileio.write_pfm(os.path.join(out_dir, f"{stem}_normal.pfm"),
                     (result.normal + 1.0) / 2.0)
    fileio.write_pfm(os.path.join(out_dir, f"{stem}_depth.pfm"), result.depth)
    fileio.write_pfm(os.path.join(out_dir, f"{stem}_weight.pfm"), result.weight)
    if result.ao is not None:
        fileio.write_pfm(os.path.join(out_dir, f"{stem}_ao.pfm"), result.ao)


def _cmd_render(args):
    dataset, trainer = _load(args)
    cam = dataset.cameras[args.view]
    result = render_image(cam, trainer.fields, trainer.state(args.view),
                          ddf=trainer.ddf, params=trainer.vis_params,
                          dir_level=args.dir_level, with_ao=args.ao)
    _write_render(args.out, f"view_{args.view:03d}", result)
    print(f"render written to {args.out}")
    return 0


def _cmd_relight(args):
    dataset, trainer = _load(args)
    state, info = tr.fit_holdout_illumination(
        trainer.fields, trainer.ddf, trainer.vis_params, trainer.decoder,
        dataset, args.holdout, steps=args.fit_steps,
    )
    if info["no_sky_pixels"]:
        print("warning: holdout view has no sky pixels; used appearance only")
    result = render_image(dataset.cameras[args.test], trainer.fields, state,
                          ddf=trainer.ddf, params=trainer.vis_params,
                          dir_level=args.dir_level)
    _write_render(args.out, f"relit_{args.test:03d}", result)
    gt = srgb(dataset.images[args.test])
    mask = dataset.masks[args.test] != CLASS_TRANSIENT
    print(f"relit view {args.test}: PSNR "
          f"{metrics.psnr(result.srgb, gt, mask):.2f} dB")
    return 0


def _cmd_eval(args):
    dataset, trainer = _load(args)
    views = [args.holdout] if args.holdout is not None else range(dataset.n_views)
    print(f"{'view':>4}  {'PSNR (dB)':>9}  {'MSE':>9}")
    for i in views:
        result = render_image(dataset.cameras[i], trainer.fields,
                              trainer.state(i), ddf=trainer.ddf,
                              params=trainer.vis_params,
                              dir_level=args.dir_level)
        gt = srgb(dataset.images[i])
        mask = dataset.masks[i] != CLASS_TRANSIENT
        print(f"{i:>4}  {metrics.psnr(result.srgb, gt, mask):>9.2f}  "
              f"{metrics.mse(result.srgb, gt, mask):>9.5f}")
    return 0


def _cmd_ddf_viz(args):
    dataset, trainer = _load(args)
    os.makedirs(args.out, exist_ok=True)
    bound = vz.BoundDdf(None, trainer.ddf, trainer.vis_params, trainable=False)
    for i in range(args.views):
        az = 2.0 * np.pi * i / args.views
        eye = normalize(np.array([np.cos(az), np.sin(az), 0.7]))
        cam = Camera.look_at(eye, np.zeros(3), args.width, args.height)
        dirs = cam.ray_dirs(cam.all_pixels())
        depth = vz.ddf_eval(bound, np.broadcast_to(eye, dirs.shape), dirs,
                            strict=False)
        img = depth.data.reshape(args.height, args.width)
        fileio.write_pfm(os.path.join(args.out, f"ddf_{i:03d}.pfm"), img)
    print(f"{args.views} DDF depth maps written to {args.out}")
    return 0


def _cmd_ao(args):
    dataset, trainer = _load(args)
    cam = dataset.cameras[args.view]
    result = render_image(cam, trainer.fields, trainer.state(args.view),
                          ddf=trainer.ddf, params=trainer.vis_params,
                          dir_level=args.dir_level, with_ao=True)
    os.makedirs(args.out, exist_ok=True)
    fileio.write_pfm(os.path.join(args.out, f"ao_{args.view:03d}.pfm"), result.ao)
    fileio.write_pgm(os.path.join(args.out, f"ao_{args.view:03d}.pgm"),
                     np.rint(np.clip(result.ao, 0, 1) * 255).astype(np.uint8))
    print(f"ambient occlusion written to {args.out}")
    return 0


def _cmd_shadow(args):
    dataset, trainer = _load(args)
    cam = dataset.cameras[args.view]
    sun = np.array([float(x) for x in args.sun.split(",")])
    img = vz.shadow_map(trainer.ddf, trainer.vis_params, sun, cam,
                        trainer.fields)
    os.makedirs(args.out, exist_ok=True)
    fileio.write_pfm(os.path.join(args.out, f"shadow_{args.view:03d}.pfm"), img)
    fileio.write_pgm(os.path.join(args.out, f"shadow_{args.view:03d}.pgm"),
                     np.rint(np.clip(img, 0, 1) * 255).astype(np.uint8))
    print(f"shadow map written to {args.out}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="skylit",
                                description="differentiable outdoor inverse renderer")
    sub = p.add_subparsers(dest="command")

    g = sub.add_parser("generate", help="ray-trace a synthetic dataset")
    g.add_argument("--scene", required=True,
                   choices=["two-sphere", "sphere-plane", "blocker"])
    g.add_argument("--views", type=int, default=20)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--scene-seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--width", type=int, default=96)
    g.add_argument("--height", type=int, default=64)
    g.add_argument("--quad-level", type=int, default=4)
    g.set_defaults(fn=_cmd_generate)

    t = sub.add_parser("train", help="optimize a scene from a dataset")
    t.add_argument("--config", required=True)
    t.add_argument("--data", default="")
    t.add_argument("--out", required=True)
    t.add_argument("--progress-every", type=int, default=500)
    t.set_defaults(fn=_cmd_train)

    def ckpt_cmd(name, help_):
        c = sub.add_parser(name, help=help_)
        c.add_argument("--ckpt", required=True)
        c.add_argument("--dataset", required=True)
        c.add_argument("--dir-level", type=int, default=3)
        return c

    r = ckpt_cmd("render", "render a checkpoint view with aux buffers")
    r.add_argument("--view", type=int, required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--ao", action="store_true")
    r.set_defaults(fn=_cmd_render)

    rl = ckpt_cmd("relight", "fit illumination on a holdout view, render a test view")
    rl.add_argument("--holdout", type=int, required=True)
    rl.add_argument("--test", type=int, required=True)
    rl.add_argument("--fit-steps", type=int, default=300)
    rl.add_argument("--out", required=True)
    rl.set_defaults(fn=_cmd_relight)

    e = ckpt_cmd("eval", "print PSNR/MSE per view")
    e.add_argument("--holdout", type=int, default=None)
    e.set_defaults(fn=_cmd_eval)

    d = ckpt_cmd("ddf-viz", "write DDF depth maps from sphere viewpoints")
    d.add_argument("--views", type=int, default=4)
    d.add_argument("--width", type=int, default=96)
    d.add_argument("--height", type=int, default=96)
    d.add_argument("--out", required=True)
    d.set_defaults(fn=_cmd_ddf_viz)

    a = ckpt_cmd("ao", "write an ambient-occlusion image")
    a.add_argument("--view", type=int, required=True)
    a.add_argument("--out", required=True)
    a.set_defaults(fn=_cmd_ao)

    s = ckpt_cmd("shadow", "write a single-direction shadow map")
    s.add_argument("--view", type=int, required=True)
    s.add_argument("--sun", required=True, help="sun direction 'x,y,z'")
    s.add_argument("--out", required=True)
    s.set_defaults(fn=_cmd_shadow)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "fn", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
