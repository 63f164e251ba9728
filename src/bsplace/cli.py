"""Command-line pipeline.

Subcommands: build-scene (grids -> scene JSON), optimize (scene -> archive),
evaluate (placement -> coverage/throughput CSVs), compare (methods table),
synth (random scene grids). Every run drops a manifest.json recording the
effective seed, the thread count, the tool version and, as `inputs`, the
parsed command line (every other argument, paths as strings), so a run
replays from it. Exit codes: 0 success, 1 bad data or config, 2 usage.
Bad data is a `config_json.DataError` (whose message names the file it
came from) or an OSError such as a missing file; a bad command line is a
`UsageError` or an argparse error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import optimizer as opt
from .baselines import METHODS, compare_methods, run_method, save_comparison_csv
from .config_json import DataError, check_object, is_kind, read_json, write_json
from .eval_report import (GeneratorConfig, coverage_curve, generate_synthetic_scene,
                          save_coverage_csv, save_placement_csv, save_throughput_csv,
                          throughput_cdf)
from .optimizer import GaConfig
from .radio import RadioParams, attach_and_evaluate, build_link_table, sectors_for_sites
from .scene import (CellClass, SceneConfig, build_scene, finite_points, load_dsm,
                    load_raster, load_scene, reject_coincident_masts, save_dsm, save_raster,
                    save_scene)

DATA_ERRORS = (DataError, OSError)


class UsageError(Exception):
    pass


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--seed", type=int, default=None, metavar="U64",
                     help="RNG seed; overrides any config file (default 0)")
    sub.add_argument("--threads", type=int, default=1, metavar="N",
                     help="must be >= 1; recorded in the manifest, every step runs in one thread")
    sub.add_argument("--out", type=Path, default=Path("."), metavar="DIR",
                     help="output directory (created if missing)")


@functools.cache  # built once per process; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsplace",
        description="Base-station placement over 2.5D urban scenes",
    )
    parser.add_argument("--version", action="version", version=f"bsplace {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build-scene", help="derive a scene from raster + DSM grids")
    p.add_argument("raster", type=Path)
    p.add_argument("dsm", type=Path)
    p.add_argument("--config", type=Path, help="SceneConfig JSON")
    _add_common(p)
    p.set_defaults(func=cmd_build_scene)

    p = subs.add_parser("optimize", help="search BS placements on a scene")
    p.add_argument("scene", type=Path)
    p.add_argument("--radio-config", type=Path)
    p.add_argument("--ga-config", type=Path)
    p.add_argument("--method", choices=METHODS, default="nsga2")
    p.add_argument("--m", type=int, help="site count for ga/kmeans (nsga2 searches 1..m_max)")
    p.add_argument("--no-blockages", action="store_true",
                   help="optimize as if buildings were transparent")
    _add_common(p)
    p.set_defaults(func=cmd_optimize)

    p = subs.add_parser("evaluate", help="link-level report for a placement")
    p.add_argument("scene", type=Path)
    p.add_argument("--sites", type=str, help="comma-separated candidate ids")
    p.add_argument("--placement", type=Path,
                   help="JSON with 'sites' ids and/or explicit 'positions'")
    p.add_argument("--radio-config", type=Path)
    p.add_argument("--ga-config", type=Path,
                   help="GaConfig JSON; its sinr_threshold_db sets the reported threshold")
    p.add_argument("--tag", default="eval", help="suffix for output CSV names")
    p.add_argument("--no-blockages", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("compare", help="coverage table across placement methods")
    p.add_argument("scene", type=Path)
    p.add_argument("--methods", type=str, required=True,
                   help=f"comma-separated subset of {','.join(METHODS)}")
    p.add_argument("--m", type=str, default="3,4,5", dest="bs_counts",
                   help="comma-separated site counts")
    p.add_argument("--radio-config", type=Path)
    p.add_argument("--ga-config", type=Path)
    p.add_argument("--no-blockages", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("synth", help="generate a synthetic raster + DSM pair")
    p.add_argument("--width", type=int, default=200)
    p.add_argument("--height", type=int, default=200)
    p.add_argument("--cell-size", type=float, default=1.0)
    p.add_argument("--density", type=float, default=0.3,
                   help="target Building cell fraction")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    return parser


# ---------------------------------------------------------------------------
# Command handlers. Each returns the effective seed for the manifest.

def _effective_seed(args, config_seed: int = 0) -> int:
    return args.seed if args.seed is not None else config_seed


def _load_radio(args) -> RadioParams:
    if args.radio_config:
        return RadioParams.from_json(args.radio_config)
    return RadioParams()


def _load_ga(args) -> GaConfig:
    if args.ga_config:
        return GaConfig.from_json(args.ga_config)
    return GaConfig()


def cmd_build_scene(args):
    config = SceneConfig.from_json(args.config) if args.config else SceneConfig()
    raster = load_raster(args.raster)
    dsm = load_dsm(args.dsm)
    scene = build_scene(raster, dsm, config)
    save_scene(scene, args.out / "scene.json")
    print(f"scene: {len(scene.buildings)} buildings, {len(scene.users)} users "
          f"({int(scene.priority_mask().sum())} priority), "
          f"{len(scene.candidates)} candidate sites, {len(scene.fixed_bs)} fixed BS")
    return _effective_seed(args)


def cmd_optimize(args):
    if args.method == "nsga2" and args.m is not None:
        raise UsageError("--m sets the site count for ga/kmeans; nsga2 searches 1..m_max")
    if args.method == "kmeans" and args.m is None:
        raise UsageError("--method kmeans requires --m")
    if args.m is not None and args.m < 1:
        raise UsageError(f"--m must be >= 1, got {args.m}")
    scene = load_scene(args.scene)
    params = _load_radio(args)
    ga = _load_ga(args)
    seed = _effective_seed(args, ga.seed)
    table = build_link_table(scene, params, not args.no_blockages)
    archive, history = run_method(args.method, args.m if args.m is not None else ga.m_max,
                                  scene, params, replace(ga, seed=seed), table)

    opt.save_archive(archive, len(scene.fixed_bs), args.out / "archive.json")
    write_json(args.out / "history.json", history)

    print(f"{args.method}: {len(archive)} archived solution(s)")
    print(f"{'m':>3} {'f1':>12} {'f3':>8}  sites")
    for ind in archive:
        f1, f2, f3 = ind.objectives
        print(f"{int(f2):>3} {f1:>12.3f} {int(f3):>8}  {ind.sites}")
    return seed


def cmd_evaluate(args):
    scene = load_scene(args.scene)
    params = _load_radio(args)
    threshold = _load_ga(args).sinr_threshold_db
    use_blockages = not args.no_blockages

    site_ids: list[int] = []
    extra_positions = np.empty((0, 3))
    if args.sites:
        try:
            site_ids = [int(s) for s in args.sites.split(",") if s.strip()]
        except ValueError:
            raise UsageError(f"--sites must be comma-separated integers, got {args.sites!r}")
    if args.placement:
        where = args.placement
        raw = check_object(read_json(where), {"sites": (list,), "positions": (list,)}, (), where)
        sites = raw.get("sites", [])
        for k, i in enumerate(sites):
            if not is_kind(i, int):
                raise DataError(f"{where}: sites[{k}] must be an integer, got {i!r}")
        extra_positions = finite_points(raw.get("positions", []), 3,
                                        lambda k: f"{where}: positions[{k}]")
        if not sites and not len(extra_positions):
            raise DataError(f"{where}: names no site and no position")
        site_ids += sites
    if not site_ids and not len(extra_positions):
        raise UsageError("evaluate needs --sites and/or --placement")
    for i in site_ids:
        if not 0 <= i < len(scene.candidates):
            raise DataError(f"site id {i} not in scene (0..{len(scene.candidates) - 1})")

    positions = [scene.candidates[i].position for i in site_ids] + list(extra_positions)
    masts = positions + list(scene.fixed_bs)
    reject_coincident_masts(
        masts, [f"site {i}" for i in site_ids]
        + [f"positions[{k}]" for k in range(len(extra_positions))]
        + [f"fixed_bs[{k}]" for k in range(len(scene.fixed_bs))])
    sectors = sectors_for_sites(masts, params)
    serving, sinr = attach_and_evaluate(scene.users, sectors, scene, params, use_blockages)

    tag = args.tag
    save_coverage_csv(coverage_curve(sinr), args.out / f"coverage_{tag}.csv")
    save_throughput_csv(throughput_cdf(sinr, serving, params),
                        args.out / f"throughput_{tag}.csv")
    save_placement_csv(scene, positions, args.out / f"placement_{tag}.csv")
    print(f"evaluated {len(positions)} BS (+{len(scene.fixed_bs)} fixed): "
          f"{int((sinr > threshold).sum())}/{len(sinr)} users above {threshold:g} dB, "
          f"mean SINR {float(sinr.mean()):.2f} dB")
    return _effective_seed(args)


def cmd_compare(args):
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods must name at least one method")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise UsageError(f"unknown method(s): {', '.join(unknown)}")
    try:
        bs_counts = [int(m) for m in args.bs_counts.split(",") if m.strip()]
    except ValueError:
        raise UsageError(f"--m must be comma-separated integers, got {args.bs_counts!r}")
    if not bs_counts:
        raise UsageError("--m must name at least one site count")
    if min(bs_counts) < 1:
        raise UsageError(f"--m must be >= 1, got {min(bs_counts)}")

    scene = load_scene(args.scene)
    params = _load_radio(args)
    ga = _load_ga(args)
    seed = _effective_seed(args, ga.seed)
    ga = replace(ga, seed=seed)
    rows = compare_methods(scene, params, bs_counts, methods, ga_config=ga,
                           use_blockages=not args.no_blockages)
    save_comparison_csv(rows, args.out / "comparison.csv")
    print(f"{'method':>8} {'m':>3} {'%>thr':>8} {'mean dB':>9}")
    for r in rows:
        print(f"{r['method']:>8} {r['m']:>3} {r['pct_users_above_threshold']:>8.2f} "
              f"{r['mean_sinr_db']:>9.2f}")
    return seed


def cmd_synth(args):
    seed = _effective_seed(args)
    cfg = GeneratorConfig(width=args.width, height=args.height,
                           cell_size=args.cell_size, building_density=args.density)
    raster, dsm = generate_synthetic_scene(cfg, seed)
    save_raster(raster, args.out / "raster.asc")
    save_dsm(dsm, args.out / "dsm.asc")
    frac = float((raster.classes == CellClass.BUILDING).mean())
    print(f"synthetic scene {args.width}x{args.height}: building fraction {frac:.3f}, "
          f"elevation span {dsm.elevation.min():.1f}..{dsm.elevation.max():.1f} m")
    return seed


# ---------------------------------------------------------------------------

def _write_manifest(args, seed: int, duration_s: float):
    inputs = {key: str(value) if isinstance(value, Path) else value
              for key, value in vars(args).items()
              if key not in ("func", "command", "seed", "threads", "out")}
    manifest = {
        "command": args.command,
        "inputs": inputs,
        "seed": int(seed),
        "threads": int(args.threads),
        "out_dir": str(args.out),
        "tool_version": __version__,
        "duration_s": duration_s,
    }
    write_json(args.out / "manifest.json", manifest)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")
    if args.seed is not None and args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    start = time.perf_counter()
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        seed = args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except DATA_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    _write_manifest(args, seed, time.perf_counter() - start)
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
