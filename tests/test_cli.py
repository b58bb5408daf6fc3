import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cellcloud
from cellcloud.cli import main
from cellcloud.clinical import (
    ALPHA_PRESETS,
    BoxSpec,
    SurvivalCohort,
    c_index,
    cps,
    km_curve,
    logrank,
    mcps,
    median_split,
    synth_toy_set,
    write_cohort_csv,
)
from cellcloud.core import read_cloud, read_features, write_cells_csv, write_cloud
from cellcloud import spatial
from cellcloud.hsp import HspConfig, combine_appearance, hsp_forward, init_weights, load_weights
from cellcloud.ingest import grid_sample, load_patch_dir, merge_boundary_cells
from cellcloud.nie import embed

from conftest import make_cloud, random_cloud

SMALL_FWD = [
    "--levels", "2", "--anchors", "16", "--n-basic", "4", "--encode-dim", "16",
]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def _run_in_tmp(tmp_path, monkeypatch):
    # Commands without -o drop their manifest in the working directory.
    # A relative import path (PYTHONPATH=src) does not survive this chdir,
    # so a subprocess must be given an absolute one.
    monkeypatch.chdir(tmp_path)


@pytest.fixture()
def cloud_file(tmp_path):
    rng = np.random.Generator(np.random.Philox(0))
    cloud = random_cloud(rng, 120)
    path = tmp_path / "cloud.cc5b"
    write_cloud(path, cloud)
    return path, cloud


@pytest.fixture()
def cohort_file(tmp_path):
    rng = np.random.Generator(np.random.Philox(1))
    n = 30
    cohort = SurvivalCohort(
        scores=rng.normal(size=n),
        times=rng.exponential(5.0, size=n) + 0.01,
        events=rng.uniform(size=n) < 0.7,
    )
    path = tmp_path / "cohort.csv"
    write_cohort_csv(path, cohort)
    return path, cohort


# ---------------------------------------------------------------------------
# plumbing: exit codes, error lines, manifests, help
# ---------------------------------------------------------------------------


def test_no_command_is_usage_error(capsys):
    code, _, err = run(capsys, [])
    assert code == 1
    assert "error_code=usage" in err


def test_unknown_flag_is_usage_error(capsys, cloud_file):
    path, _ = cloud_file
    code, _, err = run(capsys, ["cps", str(path), "--frobnicate"])
    assert code == 1
    assert "error_code=usage" in err


def test_missing_input_is_data_error(capsys, tmp_path):
    code, _, err = run(capsys, ["cps", str(tmp_path / "nope.cc5b")])
    assert code == 2
    assert err.startswith("error_code=")


def test_invalid_cloud_is_data_error(capsys, tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("x,y,type\n-5,5,neoplastic\n1,1,other\n")
    code, _, err = run(capsys, ["cps", str(path)])
    assert code == 2
    assert "error_code=invalid_cloud" in err


def test_duplicate_csv_row_is_parse_error(capsys, tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("x,y,type\n5,5,neoplastic\n5,5,neoplastic\n")
    code, _, err = run(capsys, ["cps", str(path)])
    assert code == 2
    assert "error_code=duplicate_cell" in err


def test_help_documents_defaults(capsys):
    for cmd, needles in [
        ("nie", ["default 4", "default 3"]),
        ("forward", ["default 3", "default 2048", "default 16", "default 0.5"]),
        ("mcps", ["default 20", "default 0.6,1.0"]),
        ("ingest", ["default 512", "default 24", "default 12"]),
    ]:
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        for needle in needles:
            assert needle in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "cellcloud" in capsys.readouterr().out


def test_console_script_installed():
    """`python -m cellcloud.cli --version` runs and prints the version, from the suite's package copy."""
    package_root = str(Path(cellcloud.__file__).resolve().parent.parent)
    search_path = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(search_path)}
    proc = subprocess.run(
        [sys.executable, "-m", "cellcloud.cli", "--version"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "cellcloud" in proc.stdout


def test_manifest_written_next_to_output(capsys, cloud_file, tmp_path):
    path, _ = cloud_file
    out = tmp_path / "emb.ccem"
    code, _, _ = run(capsys, ["nie", str(path), "-o", str(out)])
    assert code == 0
    manifest = json.loads((tmp_path / "emb.ccem.manifest.json").read_text())
    assert manifest["command"] == "nie"
    assert manifest["inputs"] == [str(path)]
    assert manifest["outputs"] == [str(out)]
    assert manifest["config"]["lambda_r"] == 4.0
    assert manifest["config"]["nd"] == 3
    assert "version" in manifest and "duration_s" in manifest


def test_manifest_custom_path(capsys, cloud_file, tmp_path):
    path, _ = cloud_file
    out = tmp_path / "emb.ccem"
    man = tmp_path / "run.json"
    code, _, _ = run(capsys, ["nie", str(path), "-o", str(out), "--manifest", str(man)])
    assert code == 0
    assert json.loads(man.read_text())["command"] == "nie"


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def test_ingest_csv_to_cc5b(capsys, tmp_path):
    cloud = make_cloud([(1.0, 2.0, 0), (3.5, 4.25, 1), (10.0, 20.0, 2)])
    src = tmp_path / "cells.csv"
    write_cells_csv(src, cloud)
    out = tmp_path / "cells.cc5b"
    code, stdout, _ = run(capsys, ["ingest", str(src), "-o", str(out)])
    assert code == 0
    assert "cells=3" in stdout
    back = read_cloud(out)
    assert np.array_equal(back.xy, cloud.xy)
    assert np.array_equal(back.types, cloud.types)


def test_ingest_patch_dir_matches_library(capsys, tmp_path):
    patches = tmp_path / "patches"
    patches.mkdir()
    (patches / "patch_0_0.csv").write_text(
        "x,y,type\n507.0,100.0,neoplastic\n100.0,300.0,inflammatory\n"
    )
    (patches / "patch_512_0.csv").write_text("x,y,type\n5.0,100.0,neoplastic\n")
    out = tmp_path / "merged.cc5b"
    code, stdout, _ = run(capsys, ["ingest", str(patches), "-o", str(out)])
    assert code == 0
    assert "cells=2" in stdout
    want = merge_boundary_cells(load_patch_dir(patches))
    back = read_cloud(out)
    assert np.array_equal(back.xy, want.xy)
    assert np.array_equal(back.types, want.types)
    assert [tuple(p) for p in back.xy] == [(512.0, 100.0), (100.0, 300.0)]


def test_ingest_grid_sample(capsys, cloud_file, tmp_path):
    path, cloud = cloud_file
    out = tmp_path / "sampled.cc5b"
    code, _, _ = run(capsys, ["ingest", str(path), "-o", str(out), "--grid-size", "256"])
    assert code == 0
    want = grid_sample(cloud, grid_size=256.0)
    back = read_cloud(out)
    assert np.array_equal(back.xy, want.xy)
    assert np.array_equal(back.types, want.types)


def test_ingest_overlapping_patches_data_error(capsys, tmp_path):
    patches = tmp_path / "patches"
    patches.mkdir()
    (patches / "patch_0_0.csv").write_text("x,y,type\n1.0,1.0,other\n")
    (patches / "patch_256_0.csv").write_text("x,y,type\n1.0,1.0,other\n")
    code, _, err = run(
        capsys, ["ingest", str(patches), "-o", str(tmp_path / "x.cc5b")]
    )
    assert code == 2
    assert "error_code=overlapping_patches" in err


# ---------------------------------------------------------------------------
# nie
# ---------------------------------------------------------------------------


def test_nie_matches_library(capsys, cloud_file, tmp_path):
    path, cloud = cloud_file
    out = tmp_path / "emb.ccem"
    code, stdout, _ = run(capsys, ["nie", str(path), "-o", str(out)])
    assert code == 0
    assert "rows=120 dim=21" in stdout
    assert np.array_equal(read_features(out), embed(cloud))


def test_nie_too_few_cells(capsys, tmp_path):
    src = tmp_path / "one.csv"
    src.write_text("x,y,type\n1.0,1.0,other\n")
    code, _, err = run(capsys, ["nie", str(src), "-o", str(tmp_path / "e.ccem")])
    assert code == 2
    assert "error_code=too_few_cells" in err


def test_nie_grid_overflow_is_data_error(capsys, tmp_path):
    # With --d-mean 3 the far cell's bin index leaves int64.
    src = tmp_path / "huge.csv"
    src.write_text("x,y,type\n1e300,1e300,neoplastic\n0,0,neoplastic\n5,5,other\n")
    code, _, err = run(capsys, ["nie", str(src), "-o", str(tmp_path / "o.bin"), "--d-mean", "3"])
    assert code == 2
    assert "error_code=grid_overflow" in err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("forward", "--anchors"),
        ("forward", "--updates"),
        ("forward", "--nd"),
        ("forward", "--lambda-r"),
        ("nie", "--nd"),
        ("nie", "--lambda-r"),
    ],
)
def test_bad_config_flag_is_usage_error(capsys, cloud_file, tmp_path, command, flag):
    path, _ = cloud_file
    argv = [command, str(path), "-o", str(tmp_path / "d.ccem"), flag, "0"]
    if command == "forward":
        argv += ["--seed", "1"]
    code, _, err = run(capsys, argv)
    assert code == 1
    assert "error_code=usage" in err


def test_nie_threads_env_fallback(capsys, cloud_file, tmp_path, monkeypatch):
    path, _ = cloud_file
    a = tmp_path / "a.ccem"
    b = tmp_path / "b.ccem"
    run(capsys, ["nie", str(path), "-o", str(a), "--threads", "1"])
    monkeypatch.setenv("CELLCLOUD_THREADS", "4")
    code, _, _ = run(capsys, ["nie", str(path), "-o", str(b)])
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    manifest = json.loads((tmp_path / "b.ccem.manifest.json").read_text())
    assert manifest["config"]["threads"] == 4


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_seeded_runs_are_byte_identical(capsys, cloud_file, tmp_path):
    path, _ = cloud_file
    a = tmp_path / "a.ccem"
    b = tmp_path / "b.ccem"
    argv = ["forward", str(path), "--seed", "7", *SMALL_FWD]
    code, stdout, _ = run(capsys, [*argv, "-o", str(a)])
    assert code == 0
    assert "dim=64" in stdout
    run(capsys, [*argv, "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_forward_d_mean_reaches_only_the_embedding(capsys, cloud_file, tmp_path):
    # --d-mean pins the embedding's radii; level-1 anchors keep the cloud's
    # own mean nearest-neighbor distance as their label scale.
    path, cloud = cloud_file
    out = tmp_path / "d.ccem"
    code, _, _ = run(
        capsys, ["forward", str(path), "--seed", "7", *SMALL_FWD, "--d-mean", "400", "-o", str(out)]
    )
    assert code == 0
    feats = embed(cloud, d_mean=400.0)
    config = HspConfig(levels=2, initial_anchors=16, n_basic=4, encode_dim=16)
    w = init_weights(config, feats.shape[1], 7)
    expected = hsp_forward(cloud.xy, feats, cloud.types, config, w)
    assert read_features(out)[0].tobytes() == expected.tobytes()
    pinned = hsp_forward(cloud.xy, feats, cloud.types, config, w, gamma=400.0)
    assert not np.array_equal(pinned, expected)


def test_forward_threads_do_not_change_bytes(capsys, cloud_file, tmp_path, monkeypatch):
    # Small query chunks so that the neighbor count really splits over threads.
    monkeypatch.setattr(spatial, "_QUERY_CHUNK", 16)
    path, _ = cloud_file
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.ccem"
        code, _, _ = run(
            capsys, ["forward", str(path), "--seed", "7", *SMALL_FWD, "--threads", threads, "-o", str(out)]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_forward_weight_file_round_trip(capsys, cloud_file, tmp_path):
    path, _ = cloud_file
    first = tmp_path / "first.ccem"
    again = tmp_path / "again.ccem"
    wfile = tmp_path / "w.ccwt"
    code, _, _ = run(
        capsys,
        ["forward", str(path), "--seed", "3", *SMALL_FWD,
         "--save-weights", str(wfile), "-o", str(first)],
    )
    assert code == 0
    loaded = load_weights(wfile)
    assert loaded.config == HspConfig(
        levels=2, initial_anchors=16, n_basic=4, encode_dim=16, dim_multiplier=2
    )
    code, _, _ = run(
        capsys, ["forward", str(path), "--weights", str(wfile), "-o", str(again)]
    )
    assert code == 0
    assert first.read_bytes() == again.read_bytes()


def test_forward_weights_and_seed_are_exclusive(capsys, cloud_file, tmp_path):
    path, _ = cloud_file
    code, _, err = run(
        capsys,
        ["forward", str(path), "--seed", "1", "--weights", "w.ccwt",
         "-o", str(tmp_path / "d.ccem")],
    )
    assert code == 1
    assert "error_code=usage" in err


def test_forward_requires_weights_or_seed(capsys, cloud_file, tmp_path):
    path, _ = cloud_file
    code, _, err = run(capsys, ["forward", str(path), "-o", str(tmp_path / "d.ccem")])
    assert code == 1
    assert "error_code=usage" in err


def test_forward_weight_dim_mismatch(capsys, cloud_file, tmp_path):
    path, _ = cloud_file
    wfile = tmp_path / "w.ccwt"
    run(
        capsys,
        ["forward", str(path), "--seed", "3", *SMALL_FWD,
         "--save-weights", str(wfile), "-o", str(tmp_path / "d.ccem")],
    )
    code, _, err = run(
        capsys,
        ["forward", str(path), "--weights", str(wfile), "--nd", "1",
         "-o", str(tmp_path / "e.ccem")],
    )
    assert code == 2
    assert "error_code=error" in err


def test_forward_appearance_blend(capsys, cloud_file, tmp_path):
    path, _ = cloud_file
    plain = tmp_path / "plain.ccem"
    run(capsys, ["forward", str(path), "--seed", "5", *SMALL_FWD, "-o", str(plain)])
    desc = read_features(plain).ravel()

    rng = np.random.Generator(np.random.Philox(2))
    f_app = rng.normal(size=desc.size).astype(np.float32)
    app_path = tmp_path / "app.ccem"
    from cellcloud.core import write_features

    write_features(app_path, f_app[None, :])
    blended = tmp_path / "blend.ccem"
    code, _, _ = run(
        capsys,
        ["forward", str(path), "--seed", "5", *SMALL_FWD,
         "--appearance", str(app_path), "--beta", "0.25", "-o", str(blended)],
    )
    assert code == 0
    want = combine_appearance(desc, f_app, 0.25)
    assert np.array_equal(read_features(blended).ravel(), want)


# ---------------------------------------------------------------------------
# cps / mcps
# ---------------------------------------------------------------------------


def test_cps_all_neoplastic_prints_one(capsys, tmp_path):
    cloud = make_cloud([(float(i), 0.0, 0) for i in range(5)])
    path = tmp_path / "neo.cc5b"
    write_cloud(path, cloud)
    code, stdout, _ = run(capsys, ["cps", str(path), "--alpha", "1,0,0"])
    assert code == 0
    assert stdout.strip() == "1.0"


def test_cps_preset_matches_library(capsys, cloud_file):
    path, cloud = cloud_file
    code, stdout, _ = run(capsys, ["cps", str(path), "--alpha", "inflammatory"])
    assert code == 0
    assert float(stdout.strip()) == cps(cloud, ALPHA_PRESETS["inflammatory"])


def test_cps_multiple_inputs_and_table(capsys, cloud_file, tmp_path):
    path, cloud = cloud_file
    table = tmp_path / "scores.csv"
    code, stdout, _ = run(
        capsys, ["cps", str(path), str(path), "-o", str(table)]
    )
    assert code == 0
    want = cps(cloud, ALPHA_PRESETS["equal"])
    lines = stdout.strip().splitlines()
    assert lines == [f"{path},{want!r}", f"{path},{want!r}"]
    assert table.read_text() == f"input,score\n{path},{want!r}\n{path},{want!r}\n"


def test_cps_bad_alpha_usage(capsys, cloud_file):
    path, _ = cloud_file
    for alpha in ("nope", "1,2", "a,b,c", "-1,0,0"):
        code, _, err = run(capsys, ["cps", str(path), "--alpha", alpha])
        assert code == 1
        assert "error_code=usage" in err


def test_cps_degenerate_ratio_exit(capsys, tmp_path):
    cloud = make_cloud([(1.0, 1.0, 0), (2.0, 2.0, 2)])
    path = tmp_path / "noinf.cc5b"
    write_cloud(path, cloud)
    code, _, err = run(capsys, ["cps", str(path), "--alpha", "ratio"])
    assert code == 2
    assert "error_code=degenerate_ratio" in err


def test_mcps_full_ratio_equals_cps(capsys, cloud_file):
    path, _ = cloud_file
    _, cps_out, _ = run(capsys, ["cps", str(path)])
    code, mcps_out, _ = run(capsys, ["mcps", str(path), "--ratio", "1.0,1.0"])
    assert code == 0
    assert float(mcps_out.strip()) == float(cps_out.strip())


def test_mcps_deterministic_and_seed_sensitive(capsys, cloud_file):
    path, cloud = cloud_file
    _, a, _ = run(capsys, ["mcps", str(path), "--seed", "4"])
    _, b, _ = run(capsys, ["mcps", str(path), "--seed", "4"])
    _, c, _ = run(capsys, ["mcps", str(path), "--seed", "5"])
    assert a == b
    assert a != c
    want = mcps(cloud, ALPHA_PRESETS["equal"], BoxSpec(seed=4))
    assert float(a.strip()) == want


def test_mcps_bad_ratio_usage(capsys, cloud_file):
    path, _ = cloud_file
    for ratio in ("1.0", "0,1.0", "0.8,0.6", "x,y"):
        code, _, err = run(capsys, ["mcps", str(path), "--ratio", ratio])
        assert code == 1
        assert "error_code=usage" in err


# ---------------------------------------------------------------------------
# km / cindex
# ---------------------------------------------------------------------------


def test_km_median_split(capsys, cohort_file, tmp_path):
    path, cohort = cohort_file
    prefix = str(tmp_path / "km")
    code, stdout, _ = run(capsys, ["km", str(path), "-o", prefix])
    assert code == 0
    high, low = median_split(cohort)
    p = logrank(high, low)
    assert f"n_high={len(high)} n_low={len(low)}" in stdout
    assert f"logrank_p={p!r}" in stdout
    high_lines = (tmp_path / "km_high.csv").read_text().strip().splitlines()
    assert len(high_lines) == 1 + len(km_curve(high))


def test_km_numeric_split(capsys, cohort_file, tmp_path):
    path, cohort = cohort_file
    prefix = str(tmp_path / "thr")
    code, stdout, _ = run(capsys, ["km", str(path), "--split", "0.0", "-o", prefix])
    assert code == 0
    n_high = int(np.count_nonzero(cohort.scores > 0.0))
    assert f"n_high={n_high}" in stdout


def test_km_bad_split_usage(capsys, cohort_file):
    path, _ = cohort_file
    code, _, err = run(capsys, ["km", str(path), "--split", "middle"])
    assert code == 1
    assert "error_code=usage" in err


def test_km_no_events_data_error(capsys, tmp_path):
    cohort = SurvivalCohort(
        scores=np.array([1.0, 2.0]), times=np.array([3.0, 4.0]),
        events=np.array([False, False]),
    )
    path = tmp_path / "censored.csv"
    write_cohort_csv(path, cohort)
    code, _, err = run(capsys, ["km", str(path), "-o", str(tmp_path / "km")])
    assert code == 2
    assert "error_code=no_events" in err


def test_cindex_matches_library(capsys, cohort_file):
    path, cohort = cohort_file
    code, stdout, _ = run(capsys, ["cindex", str(path)])
    assert code == 0
    assert stdout.strip() == f"c_index={c_index(cohort)!r}"


def test_cindex_no_comparable_pairs(capsys, tmp_path):
    cohort = SurvivalCohort(
        scores=np.array([1.0, 2.0]), times=np.array([3.0, 3.0]),
        events=np.array([True, True]),
    )
    path = tmp_path / "tied.csv"
    write_cohort_csv(path, cohort)
    code, _, err = run(capsys, ["cindex", str(path)])
    assert code == 2
    assert "error_code=no_comparable_pairs" in err


# ---------------------------------------------------------------------------
# synth / bench
# ---------------------------------------------------------------------------


def test_synth_toy_outputs(capsys, tmp_path):
    outdir = tmp_path / "toy"
    code, stdout, _ = run(capsys, ["synth", "--kind", "toy", "-o", str(outdir), "--seed", "3"])
    assert code == 0
    cloud, labels = synth_toy_set(seed=3)
    assert f"cells={cloud.n_total}" in stdout
    back = read_cloud(outdir / "toy.cc5b")
    assert np.array_equal(back.xy, cloud.xy)
    lines = (outdir / "toy_labels.csv").read_text().strip().splitlines()
    assert lines[0] == "index,population"
    assert len(lines) == 1 + cloud.n_total
    assert lines[1 + int(np.flatnonzero(labels == 2)[0])].endswith(",outlier")


def test_synth_cohort_outputs_reproducible(capsys, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code, stdout, _ = run(
            capsys, ["synth", "--kind", "cohort", "--n", "3", "-o", str(out), "--seed", "2"]
        )
        assert code == 0
        assert "patients=3" in stdout
    for name in ("patient_0000.cc5b", "patient_0001.cc5b", "patient_0002.cc5b", "cohort.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_bench_small_run(capsys):
    code, stdout, _ = run(
        capsys,
        ["bench", "--cells", "2000", "--brute-cells", "400", "--hsp-cells", "300"],
    )
    assert code == 0
    assert "cells=2000" in stdout
    assert "match=True" in stdout
    assert "hsp_cells=300" in stdout
    # Default config on 300 cells: 300, 128 and 8 groups of k = 2, 4 and 32.
    # No member clears lambda_sim = 0.5, so each group keeps one member.
    lines = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    for level, groups, k in ((1, 300, 2), (2, 128, 4), (3, 8, 32)):
        assert lines[f"hsp_l{level}_retained_frac"] == f"{1 / k:.4f}"
        assert lines[f"hsp_l{level}_rescued"] == f"{groups}/{groups}"
    assert "hsp_l4_rescued" not in lines
