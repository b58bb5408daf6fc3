"""Command-line surface: reproducible batch runs over cell cloud files.

One binary, subcommand style. Every run resolves all defaults, executes,
and writes a JSON manifest (command, resolved config, inputs, outputs,
seed, version, duration) so the run can be reproduced bit-for-bit. Exit
codes: 0 success, 1 usage error, 2 data error; data errors additionally
print a machine-parseable ``error_code=<token>`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, nie
from .core import (
    CellCloud,
    CellCloudError,
    CellType,
    read_cloud,
    read_features,
    validate_cloud,
    write_cells_csv,
    write_cloud,
    write_features,
)
from .ingest import grid_sample, load_patch_dir, merge_boundary_cells, parse_cells_csv
from .spatial import build_index, count_in_radii, count_in_radii_brute, mean_nn_distance
from .nie import NieParams, embed, radii_schedule
from .hsp import HspConfig, combine_appearance, hsp_forward, init_weights, load_weights, save_weights
from .clinical import (
    ALPHA_PRESETS,
    AlphaWeights,
    BoxSpec,
    SurvivalCohort,
    cps,
    km_curve,
    logrank,
    c_index,
    mcps,
    median_split,
    read_cohort_csv,
    synth_cohort,
    synth_toy_set,
    write_cohort_csv,
    write_km_csv,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that signals usage problems instead of exiting 2."""

    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


class _InvalidCloud(CellCloudError):
    error_code = "invalid_cloud"


def _threads_default() -> int:
    env = os.environ.get("CELLCLOUD_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def _load_cloud(path: str) -> CellCloud:
    p = Path(path)
    if not p.exists():
        raise CellCloudError(f"input not found: {path}")
    with open(p, "rb") as fh:
        magic = fh.read(4)
    if magic == b"CC5B":
        return read_cloud(p, slide_id=p.stem)
    return parse_cells_csv(p, slide_id=p.stem)


def _load_valid_cloud(path: str) -> CellCloud:
    cloud = _load_cloud(path)
    problems = validate_cloud(cloud)
    if problems:
        shown = "; ".join(problems[:5])
        raise _InvalidCloud(f"{path}: {shown}" + ("; ..." if len(problems) > 5 else ""))
    return cloud


def _parse_alpha(text: str) -> AlphaWeights:
    if text in ALPHA_PRESETS:
        return ALPHA_PRESETS[text]
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError(
            f"--alpha must be one of {sorted(ALPHA_PRESETS)} or a1,a2,a3"
        )
    try:
        vals = [float(v) for v in parts]
    except ValueError:
        raise _UsageError(f"--alpha components must be numeric: {text!r}") from None
    try:
        return AlphaWeights(*vals)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _parse_ratio(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError("--ratio expects low,high")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise _UsageError(f"--ratio components must be numeric: {text!r}") from None
    return lo, hi


def _write_manifest(
    args, command: str, config: dict, inputs: list, outputs: list, seed, t0: float
) -> None:
    path = getattr(args, "manifest", None)
    if path is None:
        if outputs:
            path = str(outputs[0]) + ".manifest.json"
        else:
            path = f"cellcloud-{command}.manifest.json"
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "inputs": [str(i) for i in inputs],
        "outputs": [str(o) for o in outputs],
        "seed": seed,
        "duration_s": round(time.monotonic() - t0, 6),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_ingest(args) -> int:
    t0 = time.monotonic()
    src = Path(args.input)
    if src.is_dir():
        patches = load_patch_dir(src, patch_size=args.patch_size)
        cloud = merge_boundary_cells(
            patches,
            d_boundary=args.d_boundary,
            d_merge=args.d_merge,
            slide_id=src.name,
        )
    else:
        cloud = _load_cloud(args.input)
    if args.grid_size is not None:
        cloud = grid_sample(cloud, grid_size=args.grid_size)
    write_cloud(args.output, cloud)
    print(f"cells={cloud.n_total}")
    config = {
        "patch_size": args.patch_size,
        "d_boundary": args.d_boundary,
        "d_merge": args.d_merge,
        "grid_size": args.grid_size,
    }
    _write_manifest(args, "ingest", config, [args.input], [args.output], None, t0)
    return 0


def _cmd_nie(args) -> int:
    t0 = time.monotonic()
    params = _nie_params(args)
    cloud = _load_valid_cloud(args.input)
    features = embed(cloud, params, d_mean=args.d_mean, threads=args.threads)
    write_features(args.output, features)
    print(f"rows={features.shape[0]} dim={features.shape[1]}")
    config = {
        "lambda_r": args.lambda_r,
        "nd": args.nd,
        "d_mean": args.d_mean,
        "threads": args.threads,
    }
    _write_manifest(args, "nie", config, [args.input], [args.output], None, t0)
    return 0


def _nie_params(args) -> NieParams:
    try:
        return NieParams(lambda_r=args.lambda_r, n_d=args.nd)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _hsp_config(args) -> HspConfig:
    try:
        return HspConfig(
            levels=args.levels,
            initial_anchors=args.anchors,
            n_basic=args.n_basic,
            lambda_sim=args.lambda_sim,
            updates_per_level=args.updates,
            encode_dim=args.encode_dim,
            dim_multiplier=args.dim_multiplier,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _cmd_forward(args) -> int:
    t0 = time.monotonic()
    params = _nie_params(args)
    config = None if args.weights else _hsp_config(args)
    cloud = _load_valid_cloud(args.input)
    # One mean-NN per run: it scales the level-1 anchors even when --d-mean
    # pins the embedding's radii. It is looked up on nie, the layer whose
    # scale it is, where perfbench's tracer records it as spatial.mean_nn.
    d_cloud = nie.mean_nn_distance(cloud)
    d_mean = d_cloud if args.d_mean is None else args.d_mean
    features = embed(cloud, params, d_mean=d_mean, threads=args.threads)
    if args.weights:
        weights = load_weights(args.weights)
        config = weights.config
        if weights.input_dim != features.shape[1]:
            raise CellCloudError(
                f"weight file expects input dim {weights.input_dim}, "
                f"embedding has {features.shape[1]}"
            )
    else:
        weights = init_weights(config, input_dim=features.shape[1], seed=args.seed)
    descriptor = hsp_forward(cloud.xy, features, cloud.types, config, weights, gamma=d_cloud)
    if args.appearance:
        f_app = read_features(args.appearance).ravel()
        descriptor = combine_appearance(descriptor, f_app, args.beta)
    write_features(args.output, descriptor[None, :])
    if args.save_weights:
        save_weights(args.save_weights, weights)
    print(f"dim={descriptor.size}")
    outputs = [args.output] + ([args.save_weights] if args.save_weights else [])
    cfg = {
        "levels": config.levels,
        "anchors": config.initial_anchors,
        "n_basic": config.n_basic,
        "lambda_sim": config.lambda_sim,
        "updates": config.updates_per_level,
        "encode_dim": config.encode_dim,
        "dim_multiplier": config.dim_multiplier,
        "lambda_r": args.lambda_r,
        "nd": args.nd,
        "d_mean": args.d_mean,
        "weights": args.weights,
        "beta": args.beta if args.appearance else None,
        "threads": args.threads,
    }
    inputs = [args.input] + ([args.appearance] if args.appearance else [])
    _write_manifest(args, "forward", cfg, inputs, outputs, args.seed, t0)
    return 0


def _score_command(args, name: str, scorer) -> int:
    t0 = time.monotonic()
    rows = []
    for path in args.inputs:
        cloud = _load_valid_cloud(path)
        rows.append((path, scorer(cloud)))
    if len(rows) == 1 and not args.output:
        print(rows[0][1])
    else:
        for path, score in rows:
            print(f"{path},{score!r}")
    outputs = []
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("input,score\n")
            for path, score in rows:
                fh.write(f"{path},{score!r}\n")
        outputs.append(args.output)
    config = {"alpha": args.alpha}
    seed = None
    if name == "mcps":
        config.update({"n_box": args.n_box, "ratio": args.ratio})
        seed = args.seed
    _write_manifest(args, name, config, list(args.inputs), outputs, seed, t0)
    return 0


def _cmd_cps(args) -> int:
    alpha = _parse_alpha(args.alpha)
    return _score_command(args, "cps", lambda cloud: cps(cloud, alpha))


def _cmd_mcps(args) -> int:
    alpha = _parse_alpha(args.alpha)
    lo, hi = _parse_ratio(args.ratio)
    try:
        boxes = BoxSpec(n_box=args.n_box, ratio_low=lo, ratio_high=hi, seed=args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return _score_command(args, "mcps", lambda cloud: mcps(cloud, alpha, boxes))


def _cmd_km(args) -> int:
    t0 = time.monotonic()
    cohort = read_cohort_csv(args.cohort)
    if args.split == "median":
        high, low = median_split(cohort)
    else:
        try:
            thr = float(args.split)
        except ValueError:
            raise _UsageError("--split must be 'median' or a numeric threshold") from None
        mask = cohort.scores > thr
        high, low = cohort.subset(mask), cohort.subset(~mask)
    high_path = f"{args.output}_high.csv"
    low_path = f"{args.output}_low.csv"
    write_km_csv(high_path, km_curve(high))
    write_km_csv(low_path, km_curve(low))
    p = logrank(high, low)
    print(f"n_high={len(high)} n_low={len(low)}")
    print(f"logrank_p={p!r}")
    _write_manifest(
        args, "km", {"split": args.split}, [args.cohort], [high_path, low_path], None, t0
    )
    return 0


def _cmd_cindex(args) -> int:
    t0 = time.monotonic()
    cohort = read_cohort_csv(args.cohort)
    value = c_index(cohort)
    print(f"c_index={value!r}")
    _write_manifest(args, "cindex", {}, [args.cohort], [], None, t0)
    return 0


def _cmd_synth(args) -> int:
    t0 = time.monotonic()
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []
    if args.kind == "toy":
        cloud, labels = synth_toy_set(seed=args.seed)
        cloud_path = outdir / "toy.cc5b"
        write_cloud(cloud_path, cloud)
        labels_path = outdir / "toy_labels.csv"
        with open(labels_path, "w", encoding="utf-8") as fh:
            fh.write("index,population\n")
            names = {0: "core", 1: "boundary", 2: "outlier"}
            for i, lab in enumerate(labels):
                fh.write(f"{i},{names[int(lab)]}\n")
        outputs += [str(cloud_path), str(labels_path)]
        print(f"cells={cloud.n_total}")
    else:
        clouds, cohort = synth_cohort(args.n, seed=args.seed)
        for i, cloud in enumerate(clouds):
            path = outdir / f"patient_{i:04d}.cc5b"
            write_cloud(path, cloud)
            outputs.append(str(path))
        cohort_path = outdir / "cohort.csv"
        write_cohort_csv(cohort_path, cohort)
        outputs.append(str(cohort_path))
        print(f"patients={len(clouds)} events={cohort.n_events}")
    _write_manifest(
        args, "synth", {"kind": args.kind, "n": args.n}, [], outputs, args.seed, t0
    )
    return 0


def _cmd_bench(args) -> int:
    t0 = time.monotonic()
    params = _nie_params(args)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    extent = float(np.sqrt(args.cells)) * args.spacing
    xy = rng.uniform(0.0, extent, size=(args.cells, 2))
    types = rng.integers(0, 3, size=args.cells).astype(np.uint8)
    cloud = CellCloud(xy=xy, types=types, slide_id="bench")
    d_mean = mean_nn_distance(cloud)
    sched = radii_schedule(d_mean, params)
    t_build = time.perf_counter()
    index = build_index(cloud, bin_size=sched.r_max)
    t_count = time.perf_counter()
    counts = count_in_radii(index, sched.r, threads=args.threads)
    t_done = time.perf_counter()
    print(f"cells={args.cells}")
    print(f"d_mean={d_mean:.4f} r_max={sched.r_max:.4f}")
    print(f"index_s={t_count - t_build:.3f}")
    print(f"count_s={t_done - t_count:.3f}")
    print(f"cells_per_s={args.cells / (t_done - t_count):.0f}")
    if args.brute_cells:
        sub = cloud.subset(np.arange(min(args.brute_cells, cloud.n_total)))
        sub_index = build_index(sub, bin_size=sched.r_max)
        t1 = time.perf_counter()
        fast = count_in_radii(sub_index, sched.r, threads=args.threads)
        t2 = time.perf_counter()
        brute = count_in_radii_brute(sub, sched.r)
        t3 = time.perf_counter()
        same = bool(np.array_equal(fast.counts, brute.counts))
        print(f"brute_cells={sub.n_total}")
        print(f"fast_s={t2 - t1:.3f}")
        print(f"brute_s={t3 - t2:.3f}")
        print(f"speedup={(t3 - t2) / max(t2 - t1, 1e-9):.1f}")
        print(f"match={same}")
    if args.hsp_cells:
        m = min(args.hsp_cells, cloud.n_total)
        sub = cloud.subset(np.arange(m))
        feats = embed(sub, params, threads=args.threads)
        config = HspConfig()
        weights = init_weights(config, input_dim=feats.shape[1], seed=args.seed)
        levels: list = []
        t4 = time.perf_counter()
        hsp_forward(sub.xy, feats, sub.types, config, weights, trace=levels)
        t5 = time.perf_counter()
        print(f"hsp_cells={m}")
        print(f"hsp_forward_s={t5 - t4:.3f}")
        for t in levels:
            members = t.n_anchors * t.group_size
            print(f"hsp_l{t.level}_retained_frac={t.retained / members:.4f}")
            print(f"hsp_l{t.level}_rescued={t.rescued}/{t.n_anchors}")
    config = {
        "cells": args.cells,
        "spacing": args.spacing,
        "lambda_r": args.lambda_r,
        "nd": args.nd,
        "threads": args.threads,
        "brute_cells": args.brute_cells,
        "hsp_cells": args.hsp_cells,
    }
    assert counts.n_cells == args.cells
    _write_manifest(args, "bench", config, [], [], args.seed, t0)
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="cellcloud", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cellcloud {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--manifest", help="manifest path (default: derived from output)")

    p = sub.add_parser("ingest", help="parse detections, merge patch seams, write CC5B")
    p.add_argument("input", help="cells CSV, CC5B file, or directory of patch_{x}_{y}.csv")
    p.add_argument("-o", "--output", required=True, help="output CC5B path")
    p.add_argument("--patch-size", type=float, default=512.0, help="patch side in px (default 512)")
    p.add_argument("--d-boundary", type=float, default=24.0, help="seam band in px (default 24)")
    p.add_argument("--d-merge", type=float, default=12.0, help="merge distance in px (default 12)")
    p.add_argument("--grid-size", type=float, default=None,
                   help="optional per-type grid downsampling bin in px (e.g. 256)")
    add_common(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("nie", help="neighborhood density embedding, write CCEM")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True, help="output CCEM path")
    p.add_argument("--lambda-r", type=float, default=4.0, help="radius scale (default 4)")
    p.add_argument("--nd", type=int, default=3, help="radius count (default 3)")
    p.add_argument("--d-mean", type=float, default=None,
                   help="override mean nearest-neighbor distance (default: per-cloud)")
    p.add_argument("--threads", type=int, default=_threads_default(),
                   help="worker threads (default $CELLCLOUD_THREADS or 1)")
    add_common(p)
    p.set_defaults(func=_cmd_nie)

    p = sub.add_parser("forward", help="full descriptor pass (embed + hierarchical attention)")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True, help="output descriptor (CCEM, 1 row)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--weights", help="CCWT weight file (config read from file)")
    group.add_argument("--seed", type=int, help="draw weights from this seed")
    p.add_argument("--save-weights", help="also write the used weights as CCWT")
    p.add_argument("--levels", type=int, default=3, help="hierarchy levels L (default 3)")
    p.add_argument("--anchors", type=int, default=2048, help="initial anchors Nk (default 2048)")
    p.add_argument("--n-basic", type=int, default=16, help="anchor divisor Nbasic (default 16)")
    p.add_argument("--lambda-sim", type=float, default=0.5,
                   help="filter threshold lambda_sim (default 0.5)")
    p.add_argument("--updates", type=int, default=2, help="attention rounds per level (default 2)")
    p.add_argument("--encode-dim", type=int, default=64, help="encoder width D0 (default 64)")
    p.add_argument("--dim-multiplier", type=int, default=2, help="width growth per level (default 2)")
    p.add_argument("--lambda-r", type=float, default=4.0, help="embedding radius scale (default 4)")
    p.add_argument("--nd", type=int, default=3, help="embedding radius count (default 3)")
    p.add_argument("--d-mean", type=float, default=None, help="override embedding d_mean")
    p.add_argument("--appearance", help="optional appearance CCEM to blend in")
    p.add_argument("--beta", type=float, default=0.5,
                   help="appearance blend weight (default 0.5, used with --appearance)")
    p.add_argument("--threads", type=int, default=_threads_default(),
                   help="worker threads for the embedding only; the attention pass "
                        "runs on one thread (default $CELLCLOUD_THREADS or 1)")
    add_common(p)
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("cps", help="cell proportion score of cloud(s)")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--alpha", default="equal",
                   help=f"preset {sorted(ALPHA_PRESETS)} or a1,a2,a3 (default equal)")
    p.add_argument("-o", "--output", help="optional CSV score table")
    add_common(p)
    p.set_defaults(func=_cmd_cps)

    p = sub.add_parser("mcps", help="multi-scale cell proportion score of cloud(s)")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--alpha", default="equal",
                   help=f"preset {sorted(ALPHA_PRESETS)} or a1,a2,a3 (default equal)")
    p.add_argument("--n-box", type=int, default=20, help="number of boxes (default 20)")
    p.add_argument("--ratio", default="0.6,1.0",
                   help="per-axis box side ratio range low,high (default 0.6,1.0)")
    p.add_argument("--seed", type=int, default=0, help="box sampling seed (default 0)")
    p.add_argument("-o", "--output", help="optional CSV score table")
    add_common(p)
    p.set_defaults(func=_cmd_mcps)

    p = sub.add_parser("km", help="Kaplan-Meier curves and log-rank test for a cohort CSV")
    p.add_argument("cohort", help="CSV with patient_id,score,time,event")
    p.add_argument("--split", default="median",
                   help="'median' or a numeric score threshold (default median)")
    p.add_argument("-o", "--output", default="km",
                   help="output prefix for <prefix>_high.csv/_low.csv (default 'km')")
    add_common(p)
    p.set_defaults(func=_cmd_km)

    p = sub.add_parser("cindex", help="concordance index of a cohort CSV")
    p.add_argument("cohort")
    add_common(p)
    p.set_defaults(func=_cmd_cindex)

    p = sub.add_parser("synth", help="write synthetic fixtures (toy cloud or survival cohort)")
    p.add_argument("--kind", choices=["toy", "cohort"], default="toy")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--n", type=int, default=200, help="cohort size (default 200)")
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("bench", help="throughput report for counting and the forward pass")
    p.add_argument("--cells", type=int, default=1_000_000, help="bench cloud size (default 1e6)")
    p.add_argument("--spacing", type=float, default=10.0,
                   help="mean cell spacing in px (default 10)")
    p.add_argument("--lambda-r", type=float, default=4.0)
    p.add_argument("--nd", type=int, default=3)
    p.add_argument("--brute-cells", type=int, default=0,
                   help="also time the quadratic reference at this size (0 = skip)")
    p.add_argument("--hsp-cells", type=int, default=0,
                   help="also time the forward pass at this size (0 = skip)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=_threads_default(),
                   help="worker threads (default $CELLCLOUD_THREADS or 1)")
    add_common(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print("error_code=usage", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CellCloudError as exc:
        print(f"error_code={exc.error_code}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print("error_code=io", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
