"""Command-line surface: reproducible batch runs over cell cloud files.

One binary, subcommand style. Each subcommand does its work and returns
the paths it read and wrote; ``main`` then writes the run's JSON manifest
(command, every parsed option, inputs, outputs, seed, version, duration)
so the run can be reproduced bit-for-bit. Exit codes: 0 success, 1 usage
error, 2 data error; errors additionally print a machine-parseable
``error_code=<token>`` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__, nie
from .core import (
    _CC5B_MAGIC,
    CellCloud,
    CellCloudError,
    DimMismatch,
    read_cloud,
    read_features,
    validate_cloud,
    write_cloud,
    write_features,
)
from .ingest import grid_sample, load_patch_dir, merge_boundary_cells, parse_cells_csv
from .nie import NieParams, embed
from .hsp import HspConfig, combine_appearance, hsp_forward, init_weights, load_weights, save_weights
from .clinical import (
    ALPHA_PRESETS,
    AlphaWeights,
    BoxSpec,
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


def _load_cloud(path: str) -> CellCloud:
    p = Path(path)
    if not p.exists():
        raise CellCloudError(f"input not found: {path}")
    with open(p, "rb") as fh:
        is_cc5b = fh.read(len(_CC5B_MAGIC)) == _CC5B_MAGIC
    return read_cloud(p) if is_cc5b else parse_cells_csv(p)


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
    return _usage(AlphaWeights, *vals)


def _parse_ratio(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError("--ratio expects low,high")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise _UsageError(f"--ratio components must be numeric: {text!r}") from None
    return lo, hi


def _usage(build, *args, **kwargs):
    """``build(*args, **kwargs)``, with the ValueError of an out-of-range
    parameter turned into a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


# Parsed options the manifest's config leaves out: the parser's own fields,
# --seed (a top-level field of its own) and the paths a command returns as
# its inputs or outputs.
_NOT_CONFIG = frozenset(
    {"func", "command", "manifest", "seed",
     "input", "inputs", "output", "cohort", "appearance", "save_weights"}
)


def _write_manifest(args, inputs: list, outputs: list, t0: float) -> None:
    """Write the run record. A path the run did not use is None and left out."""
    inputs = [str(i) for i in inputs if i is not None]
    outputs = [str(o) for o in outputs if o is not None]
    path = args.manifest
    if path is None:
        path = (outputs[0] if outputs else f"cellcloud-{args.command}") + ".manifest.json"
    manifest = {
        "command": args.command,
        "version": __version__,
        "config": {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG},
        "inputs": inputs,
        "outputs": outputs,
        "seed": getattr(args, "seed", None),
        "duration_s": round(time.monotonic() - t0, 6),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands: each returns (inputs, outputs), the paths main() records
# ---------------------------------------------------------------------------


def _cmd_ingest(args):
    src = Path(args.input)
    if src.is_dir():
        patches = load_patch_dir(src, patch_size=args.patch_size)
        cloud = merge_boundary_cells(patches, d_boundary=args.d_boundary, d_merge=args.d_merge)
    else:
        cloud = _load_cloud(args.input)
    if args.grid_size is not None:
        cloud = grid_sample(cloud, grid_size=args.grid_size)
    write_cloud(args.output, cloud)
    print(f"cells={cloud.n_total}")
    return [args.input], [args.output]


def _cmd_nie(args):
    params = _usage(NieParams, lambda_r=args.lambda_r, n_d=args.nd)
    cloud = _load_valid_cloud(args.input)
    features = embed(cloud, params, d_mean=args.d_mean, threads=args.threads)
    write_features(args.output, features)
    print(f"rows={features.shape[0]} dim={features.shape[1]}")
    return [args.input], [args.output]


# forward's option for each HspConfig field. Each defaults to None: a flag
# left out takes HspConfig's default, or under --weights the file's value.
_HSP_FLAGS = {
    "levels": "levels",
    "anchors": "initial_anchors",
    "n_basic": "n_basic",
    "lambda_sim": "lambda_sim",
    "updates": "updates_per_level",
    "encode_dim": "encode_dim",
    "dim_multiplier": "dim_multiplier",
}


def _cmd_forward(args):
    params = _usage(NieParams, lambda_r=args.lambda_r, n_d=args.nd)
    given = {dest: v for dest in _HSP_FLAGS if (v := getattr(args, dest)) is not None}
    if args.weights:
        # The file is the model: a flag may only repeat its value, as a
        # replayed manifest does.
        weights = load_weights(args.weights)
        config = weights.config
        for dest, v in given.items():
            if v != (held := getattr(config, _HSP_FLAGS[dest])):
                raise _UsageError(f"--{dest.replace('_', '-')} {v} differs from {args.weights}'s {held}")
    else:
        config = _usage(HspConfig, **{_HSP_FLAGS[dest]: v for dest, v in given.items()})
    if args.appearance:
        f_app = read_features(args.appearance)
        if f_app.shape != (1, config.output_dim):
            raise DimMismatch(
                f"{args.appearance}: appearance CCEM is {f_app.shape[0]} x {f_app.shape[1]}, "
                f"the descriptor 1 x {config.output_dim}"
            )
    cloud = _load_valid_cloud(args.input)
    # One mean-NN per run: it scales the level-1 anchors even when --d-mean
    # pins the embedding's radii. It is looked up on nie, the layer whose
    # scale it is, where perfbench's tracer records it as spatial.mean_nn.
    d_cloud = nie.mean_nn_distance(cloud, threads=args.threads)
    d_mean = d_cloud if args.d_mean is None else args.d_mean
    features = embed(cloud, params, d_mean=d_mean, threads=args.threads)
    if not args.weights:
        weights = init_weights(config, input_dim=features.shape[1], seed=args.seed)
    descriptor = hsp_forward(cloud.xy, features, cloud.types, weights, gamma=d_cloud)
    if args.appearance:
        descriptor = combine_appearance(descriptor, f_app[0], args.beta)
    write_features(args.output, descriptor[None, :])
    if args.save_weights:
        save_weights(args.save_weights, weights)
    print(f"dim={descriptor.size}")
    # The manifest records the config the pass ran with: under --weights, the file's.
    for dest, f in _HSP_FLAGS.items():
        setattr(args, dest, getattr(config, f))
    if not args.appearance:
        args.beta = None
    return [args.input, args.appearance], [args.output, args.save_weights]


def _score_command(args, scorer):
    rows = []
    for path in args.inputs:
        cloud = _load_valid_cloud(path)
        rows.append((path, scorer(cloud)))
    if len(rows) == 1 and not args.output:
        print(rows[0][1])
    else:
        for path, score in rows:
            print(f"{path},{score!r}")
    if args.output:
        with open(args.output, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["input", "score"])
            w.writerows((path, repr(score)) for path, score in rows)
    return args.inputs, [args.output]


def _cmd_cps(args):
    alpha = _parse_alpha(args.alpha)
    return _score_command(args, lambda cloud: cps(cloud, alpha))


def _cmd_mcps(args):
    alpha = _parse_alpha(args.alpha)
    lo, hi = _parse_ratio(args.ratio)
    boxes = _usage(BoxSpec, n_box=args.n_box, ratio_low=lo, ratio_high=hi, seed=args.seed)
    return _score_command(args, lambda cloud: mcps(cloud, alpha, boxes))


def _cmd_km(args):
    cohort = read_cohort_csv(args.cohort)
    if args.split == "median":
        high, low = median_split(cohort)
    else:
        mask = cohort.scores > float(args.split)
        high, low = cohort.subset(mask), cohort.subset(~mask)
    high_curve, low_curve = km_curve(high), km_curve(low)
    p = logrank(high, low)
    high_path = f"{args.output}_high.csv"
    low_path = f"{args.output}_low.csv"
    write_km_csv(high_path, high_curve)
    write_km_csv(low_path, low_curve)
    print(f"n_high={len(high)} n_low={len(low)}")
    print(f"logrank_p={p!r}")
    return [args.cohort], [high_path, low_path]


def _cmd_cindex(args):
    cohort = read_cohort_csv(args.cohort)
    value = c_index(cohort)
    print(f"c_index={value!r}")
    return [args.cohort], []


def _cmd_synth(args):
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
    return [], outputs


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _checked(convert, ok, what):
    """An argparse type: ``convert`` the text and refuse a value that is not
    ``ok``. The parser reports the refusal as a usage error before any
    subcommand runs."""

    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return parse


_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number")
_NON_NEGATIVE = _checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_FINITE = _checked(float, math.isfinite, "a finite number")
_AT_LEAST_1 = _checked(int, lambda v: v >= 1, "an integer >= 1")
_AT_LEAST_0 = _checked(int, lambda v: v >= 0, "an integer >= 0")
# synth holds every patient's cloud (about 20 KB) in memory before writing one
_MAX_PATIENTS = 10_000
_PATIENTS = _checked(int, lambda v: 0 <= v <= _MAX_PATIENTS, f"an integer in [0, {_MAX_PATIENTS}]")


def _build_parser() -> _Parser:
    """The command-line parser for the current $CELLCLOUD_THREADS."""
    return _parser_for(os.environ.get("CELLCLOUD_THREADS") or "1")


@functools.lru_cache(maxsize=4)
def _parser_for(env_threads: str) -> _Parser:
    """The parser whose --threads default is ``env_threads``, built once per
    value: a build takes 1-4 ms, which every command would otherwise pay."""
    parser = _Parser(prog="cellcloud", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cellcloud {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse runs a string default through the flag's type, so a bad
    # $CELLCLOUD_THREADS is a usage error, as a bad --threads is.

    def add_common(p):
        p.add_argument("--manifest", help="manifest path (default: derived from output)")

    p = sub.add_parser("ingest", help="parse detections, merge patch seams, write CC5B")
    p.add_argument("input", help="cells CSV, CC5B file, or directory of patch_{x}_{y}.csv")
    p.add_argument("-o", "--output", required=True, help="output CC5B path")
    p.add_argument("--patch-size", type=_POSITIVE, default=512.0, help="patch side in px (default 512)")
    p.add_argument("--d-boundary", type=_NON_NEGATIVE, default=24.0, help="seam band in px (default 24)")
    p.add_argument("--d-merge", type=_NON_NEGATIVE, default=12.0, help="merge distance in px (default 12)")
    p.add_argument("--grid-size", type=_POSITIVE, default=None,
                   help="optional per-type grid downsampling bin in px (e.g. 256)")
    add_common(p)
    p.set_defaults(func=_cmd_ingest)

    radii = NieParams()
    p = sub.add_parser("nie", help="neighborhood density embedding, write CCEM")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True, help="output CCEM path")
    p.add_argument("--lambda-r", type=float, default=radii.lambda_r,
                   help=f"radius scale (default {radii.lambda_r})")
    p.add_argument("--nd", type=int, default=radii.n_d, help=f"radius count (default {radii.n_d})")
    p.add_argument("--d-mean", type=_POSITIVE, default=None,
                   help="override mean nearest-neighbor distance (default: per-cloud)")
    p.add_argument("--threads", type=_AT_LEAST_1, default=env_threads,
                   help="worker threads (default $CELLCLOUD_THREADS or 1)")
    add_common(p)
    p.set_defaults(func=_cmd_nie)

    p = sub.add_parser("forward", help="full descriptor pass (embed + hierarchical attention)")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True, help="output descriptor (CCEM, 1 row)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--weights", help="CCWT weight file (config read from file)")
    group.add_argument("--seed", type=_AT_LEAST_0, help="draw weights from this seed")
    p.add_argument("--save-weights", help="also write the used weights as CCWT")
    hsp = HspConfig()
    p.add_argument("--levels", type=int, help=f"hierarchy levels L (default {hsp.levels})")
    p.add_argument("--anchors", type=int, help=f"initial anchors Nk (default {hsp.initial_anchors})")
    p.add_argument("--n-basic", type=int, help=f"anchor divisor Nbasic (default {hsp.n_basic})")
    p.add_argument("--lambda-sim", type=float,
                   help=f"filter threshold lambda_sim (default {hsp.lambda_sim})")
    p.add_argument("--updates", type=int,
                   help=f"attention rounds per level (default {hsp.updates_per_level})")
    p.add_argument("--encode-dim", type=int, help=f"encoder width D0 (default {hsp.encode_dim})")
    p.add_argument("--dim-multiplier", type=int,
                   help=f"width growth per level (default {hsp.dim_multiplier})")
    p.add_argument("--lambda-r", type=float, default=radii.lambda_r,
                   help=f"embedding radius scale (default {radii.lambda_r})")
    p.add_argument("--nd", type=int, default=radii.n_d,
                   help=f"embedding radius count (default {radii.n_d})")
    p.add_argument("--d-mean", type=_POSITIVE, default=None, help="override embedding d_mean")
    p.add_argument("--appearance", help="optional appearance CCEM to blend in")
    p.add_argument("--beta", type=_FINITE, default=0.5,
                   help="appearance blend weight (default 0.5, used with --appearance)")
    p.add_argument("--threads", type=_AT_LEAST_1, default=env_threads,
                   help="worker threads for the mean-NN and the embedding; the "
                        "attention pass runs on one thread (default $CELLCLOUD_THREADS or 1)")
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
    boxes = BoxSpec()
    ratio = f"{boxes.ratio_low},{boxes.ratio_high}"
    p.add_argument("--n-box", type=int, default=boxes.n_box,
                   help=f"number of boxes (default {boxes.n_box})")
    p.add_argument("--ratio", default=ratio,
                   help=f"per-axis box side ratio range low,high (default {ratio})")
    p.add_argument("--seed", type=_AT_LEAST_0, default=boxes.seed,
                   help=f"box sampling seed (default {boxes.seed})")
    p.add_argument("-o", "--output", help="optional CSV score table")
    add_common(p)
    p.set_defaults(func=_cmd_mcps)

    p = sub.add_parser("km", help="Kaplan-Meier curves and log-rank test for a cohort CSV")
    p.add_argument("cohort", help="CSV with patient_id,score,time,event")
    p.add_argument("--split", default="median",
                   type=_checked(str, lambda t: t == "median" or math.isfinite(float(t)),
                                 "'median' or a finite number"),
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
    p.add_argument("--n", type=_PATIENTS, default=200, help="cohort size (default 200)")
    p.add_argument("--seed", type=_AT_LEAST_0, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        t0 = time.monotonic()
        inputs, outputs = args.func(args)
        _write_manifest(args, inputs, outputs, t0)
        return 0
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
