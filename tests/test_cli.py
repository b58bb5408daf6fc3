import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cellcloud
from cellcloud.cli import _build_parser, main
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
from cellcloud.core import (
    CellCloudError,
    read_cloud,
    read_features,
    write_cloud,
    write_features,
)
from cellcloud import spatial
from cellcloud.hsp import HspConfig, combine_appearance, hsp_forward, init_weights, load_weights
from cellcloud.ingest import grid_sample, load_patch_dir, merge_boundary_cells
from cellcloud.nie import embed

from conftest import make_cloud, random_cloud, write_cells_csv

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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_cloud_never_reaches_the_queries(capsys, tmp_path, bad):
    # A CC5B cloud with a non-finite coordinate is refused as invalid, a
    # cells CSV with one as malformed, before any mean-NN or grid query.
    cloud = random_cloud(np.random.Generator(np.random.Philox(2)), 40)
    xy = cloud.xy.copy()
    xy[7, 1] = bad
    write_cloud(tmp_path / "bad.cc5b", make_cloud((x, y, t) for (x, y), t in zip(xy, cloud.types)))
    (tmp_path / "bad.csv").write_text(f"x,y,type\n1,1,other\n{bad},2,other\n3,3,neoplastic\n")
    for name, code in (("bad.cc5b", "invalid_cloud"), ("bad.csv", "malformed_row")):
        for argv in (["nie"], ["forward", "--seed", "1", *SMALL_FWD]):
            out = tmp_path / "out.ccem"
            got, _, err = run(capsys, [argv[0], str(tmp_path / name), "-o", str(out), *argv[1:]])
            assert got == 2 and f"error_code={code}" in err
            assert not out.exists()


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


def test_pipeline_loads_no_scipy(tmp_path):
    """ingest, nie, forward and cps run through ``cli.main`` in a fresh
    interpreter without importing any scipy module: the library needs
    numpy alone."""
    patches = tmp_path / "patches"
    patches.mkdir()
    rng = np.random.Generator(np.random.Philox(2))
    for x0 in (0, 512):
        xy = rng.uniform(0.0, 512.0, size=(150, 2))
        kinds = rng.choice(["neoplastic", "inflammatory", "other"], size=150)
        rows = "".join(f"{x!r},{y!r},{t}\n" for (x, y), t in zip(xy.tolist(), kinds))
        (patches / f"patch_{x0}_0.csv").write_text("x,y,type\n" + rows)
    commands = [
        ["ingest", "patches", "-o", "cloud.cc5b"],
        ["nie", "cloud.cc5b", "-o", "cloud.ccem", "--threads", "2"],
        ["forward", "cloud.cc5b", "--seed", "3", *SMALL_FWD, "-o", "cloud.desc"],
        ["cps", "cloud.cc5b"],
    ]
    script = (
        "import sys\n"
        "from cellcloud.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
    )
    package_root = str(Path(cellcloud.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


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


# Parsed options a manifest's config leaves out: --manifest, --seed (a
# top-level field) and the paths the command lists as inputs or outputs.
NOT_CONFIG = {"manifest", "seed", "input", "inputs", "output", "cohort", "appearance", "save_weights"}


def test_manifest_config_is_every_parsed_option(capsys, cloud_file, cohort_file, tmp_path):
    cloud, _ = cloud_file
    cohort, _ = cohort_file
    cases = {
        "ingest": [str(cloud), "-o", "i.cc5b"],
        "nie": [str(cloud), "-o", "e.ccem"],
        "forward": [str(cloud), "--seed", "3", *SMALL_FWD, "-o", "f.ccem"],
        "cps": [str(cloud)],
        "mcps": [str(cloud), "--seed", "4"],
        "km": [str(cohort), "-o", "km"],
        "cindex": [str(cohort)],
        "synth": ["--kind", "cohort", "--n", "2", "--seed", "2", "-o", "syn"],
    }
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(cases) == set(commands.choices)
    for name, sub in commands.choices.items():
        argv = [name, *cases[name], "--manifest", str(tmp_path / f"{name}.json")]
        code, _, _ = run(capsys, argv)
        assert code == 0, name
        manifest = json.loads((tmp_path / f"{name}.json").read_text())
        dests = {a.dest for a in sub._actions if a.dest != "help"}
        assert set(manifest["config"]) == dests - NOT_CONFIG, name
        assert manifest["command"] == name
        assert manifest["seed"] == getattr(parser.parse_args(argv), "seed", None), name


def test_forward_manifest_records_weight_file_config(capsys, cloud_file, tmp_path):
    path, _ = cloud_file
    wfile = tmp_path / "w.ccwt"
    code, _, _ = run(
        capsys,
        ["forward", str(path), "--seed", "7", "--levels", "2", "--anchors", "512",
         "--lambda-sim", "0.25", "--save-weights", str(wfile), "-o", str(tmp_path / "a.ccem")],
    )
    assert code == 0
    code, _, _ = run(capsys, ["forward", str(path), "--weights", str(wfile), "-o", str(tmp_path / "b.ccem")])
    assert code == 0
    manifest = json.loads((tmp_path / "b.ccem.manifest.json").read_text())
    config = manifest["config"]
    assert (config["anchors"], config["levels"], config["lambda_sim"]) == (512, 2, 0.25)
    assert manifest["seed"] is None and config["weights"] == str(wfile)


def test_forward_manifest_beta_only_with_appearance(capsys, cloud_file, tmp_path):
    path, _ = cloud_file
    argv = ["forward", str(path), "--seed", "5", *SMALL_FWD, "--beta", "0.25"]
    code, _, _ = run(capsys, [*argv, "-o", str(tmp_path / "plain.ccem")])
    assert code == 0
    plain = json.loads((tmp_path / "plain.ccem.manifest.json").read_text())
    assert plain["config"]["beta"] is None
    assert plain["inputs"] == [str(path)]
    code, _, _ = run(
        capsys, [*argv, "--appearance", str(tmp_path / "plain.ccem"), "-o", str(tmp_path / "blend.ccem")]
    )
    assert code == 0
    blend = json.loads((tmp_path / "blend.ccem.manifest.json").read_text())
    assert blend["config"]["beta"] == 0.25
    assert blend["inputs"] == [str(path), str(tmp_path / "plain.ccem")]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_readme_lists_every_error_code():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = iter(readme.read_text(encoding="utf-8").splitlines())
    for line in lines:
        if line == "| code | exit | raised by |":
            break
    next(lines)  # the separator row
    table = {}
    for line in lines:
        if not line.startswith("|"):
            break
        token, exit_status = (cell.strip() for cell in line.split("|")[1:3])
        table[token.strip("`")] = int(exit_status)
    codes = {c.error_code for c in [CellCloudError, *_subclasses(CellCloudError)]}
    assert set(table) == codes | {"usage", "io"}
    assert {t for t, status in table.items() if status == 1} == {"usage"}
    assert set(table.values()) == {1, 2}


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


@pytest.mark.filterwarnings("error")
def test_forward_far_spread_cloud(capsys, tmp_path):
    # 300 cells on [0, 100)^2, half of them scaled by 1e153: member distances
    # overflow float64. The default pass warns nothing and writes a finite
    # descriptor; with every member kept the descriptor passes float32's
    # range and is refused, with nothing written.
    rng = np.random.Generator(np.random.Philox(0))
    cloud = random_cloud(rng, 300, extent=100.0)
    xy = cloud.xy.copy()
    xy[150:] *= 1e153
    write_cloud(tmp_path / "far.cc5b", make_cloud((x, y, t) for (x, y), t in zip(xy, cloud.types)))
    argv = ["forward", str(tmp_path / "far.cc5b"), "--seed", "7", "--d-mean", "1e152"]
    code, out, _ = run(capsys, argv + ["-o", str(tmp_path / "d.ccem")])
    assert code == 0 and out.strip() == "dim=512"
    assert np.isfinite(read_features(tmp_path / "d.ccem")).all()
    code, _, err = run(capsys, argv + ["-o", str(tmp_path / "inf.ccem"), "--lambda-sim=-1e9"])
    assert code == 2 and "error_code=descriptor_overflow" in err
    assert not (tmp_path / "inf.ccem").exists()


def test_ingest_grid_sample(capsys, cloud_file, tmp_path):
    path, cloud = cloud_file
    out = tmp_path / "sampled.cc5b"
    code, _, _ = run(capsys, ["ingest", str(path), "-o", str(out), "--grid-size", "256"])
    assert code == 0
    want = grid_sample(cloud, grid_size=256.0)
    back = read_cloud(out)
    assert np.array_equal(back.xy, want.xy)
    assert np.array_equal(back.types, want.types)


def test_ingest_grid_overflow_is_data_error(capsys, tmp_path):
    # A grid this fine puts every bin index beyond int64.
    src = tmp_path / "three.csv"
    src.write_text("x,y,type\n1,1,other\n5000,7000,other\n9000,20,other\n")
    out = tmp_path / "t.cc5b"
    code, _, err = run(capsys, ["ingest", str(src), "-o", str(out), "--grid-size", "1e-300"])
    assert code == 2
    assert "error_code=grid_overflow" in err
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["nie", "forward"])
@pytest.mark.parametrize(
    "rows",
    [
        # all cells coincide: mean-NN 0
        "1,1,other\n1,1,neoplastic\n1,1,inflammatory\n",
        # the far cell's nearest-neighbor distance overflows to inf
        "0,0,neoplastic\n5,5,other\n1e300,1e300,neoplastic\n",
    ],
)
def test_degenerate_cloud_scale_is_data_error(capsys, tmp_path, command, rows):
    src = tmp_path / "cloud.csv"
    src.write_text("x,y,type\n" + rows)
    argv = [command, str(src), "-o", str(tmp_path / "o.bin")]
    if command == "forward":
        argv += ["--seed", "1", *SMALL_FWD]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "error_code=degenerate_scale" in err


@pytest.mark.parametrize("command", ["nie", "forward"])
@pytest.mark.parametrize("value", ["0", "-2", "nan", "inf"])
def test_bad_d_mean_is_usage_error(capsys, cloud_file, tmp_path, command, value):
    path, _ = cloud_file
    argv = [command, str(path), "-o", str(tmp_path / "o.bin"), f"--d-mean={value}"]
    if command == "forward":
        argv += ["--seed", "1"]
    code, _, err = run(capsys, argv)
    assert code == 1
    assert "error_code=usage" in err


def test_oversized_config_is_rejected_before_weights(capsys, cloud_file, tmp_path, monkeypatch):
    # 1e8 channels would size a 15.6 GiB weight set; the config cap must
    # refuse it before anything is allocated.
    def no_weights(*args, **kwargs):
        raise AssertionError("init_weights ran")

    monkeypatch.setattr("cellcloud.cli.init_weights", no_weights)
    path, _ = cloud_file
    code, _, err = run(
        capsys, ["forward", str(path), "--seed", "1", "--encode-dim", "100000000", "-o", str(tmp_path / "d")]
    )
    assert code == 1
    assert "error_code=usage" in err
    assert "weights" in err


def test_ingest_imprecise_origin_is_data_error(capsys, tmp_path):
    d = tmp_path / "patches"
    d.mkdir()
    for name in ("patch_100000000000000000000_0.csv", "patch_100000000000000000001_0.csv"):
        (d / name).write_text("x,y,type\n5,5,other\n")
    code, _, err = run(capsys, ["ingest", str(d), "-o", str(tmp_path / "s.cc5b")])
    assert code == 2
    assert "error_code=imprecise_origin" in err
    assert "patch_100000000000000000000_0.csv" in err
    assert not (tmp_path / "s.cc5b").exists()


def test_ingest_out_of_patch_is_data_error(capsys, tmp_path):
    d = tmp_path / "patches"
    d.mkdir()
    (d / "patch_0_0.csv").write_text("x,y,type\n1,1,other\n512,2,other\n")
    code, _, err = run(capsys, ["ingest", str(d), "-o", str(tmp_path / "s.cc5b")])
    assert code == 2
    assert "error_code=out_of_patch" in err
    assert "patch_0_0.csv: line 3: patch-local" in err


@pytest.mark.parametrize(
    "argv, error_code",
    [
        (["ingest", "long.csv", "-o", "o.cc5b"], "malformed_row"),
        (["cps", "long.csv"], "malformed_row"),
        (["km", "cohort_long.csv"], "malformed_cohort"),
        (["cindex", "cohort_long.csv"], "malformed_cohort"),
    ],
    ids=["ingest", "cps", "km", "cindex"],
)
def test_oversized_csv_field_is_data_error(tmp_path, argv, error_code):
    # csv.reader refuses a field over csv.field_size_limit() (131,072 characters)
    long = "0" * 200_000
    (tmp_path / "long.csv").write_text(f"x,y,type\n1,1,other\n{long}1,2,other\n")
    (tmp_path / "cohort_long.csv").write_text(
        f"patient_id,score,time,event\np0,0.5,2.0,1\np{long},0.5,2.0,1\n"
    )
    package_root = str(Path(cellcloud.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "cellcloud.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
        cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert f"error_code={error_code}" in proc.stderr
    assert f"{argv[1]}: line 3:" in proc.stderr
    assert "Traceback" not in proc.stderr


_BAD_FLAGS = [
    ("forward", "--anchors", "0"),
    ("forward", "--updates", "0"),
    ("forward", "--nd", "0"),
    ("forward", "--nd", "1000000000000"),
    ("forward", "--lambda-r", "0"),
    ("nie", "--nd", "0"),
    ("nie", "--nd", "1000000000000"),
    ("nie", "--lambda-r", "0"),
    ("ingest", "--patch-size", "nan"),
    ("ingest", "--patch-size", "inf"),
    ("ingest", "--patch-size", "0"),
    ("ingest", "--patch-size", "-512"),
    ("ingest", "--grid-size", "nan"),
    ("ingest", "--grid-size", "inf"),
    ("ingest", "--grid-size", "0"),
    ("ingest", "--grid-size", "-1"),
    ("ingest", "--d-boundary", "nan"),
    ("ingest", "--d-boundary", "inf"),
    ("ingest", "--d-boundary", "-1"),
    ("ingest", "--d-merge", "nan"),
    ("ingest", "--d-merge", "inf"),
    ("ingest", "--d-merge", "-1"),
    ("nie", "--threads", "0"),
    ("nie", "--threads", "-2"),
    ("forward", "--threads", "0"),
    ("forward", "--threads", "-2"),
    ("forward", "--seed", "-1"),
    ("mcps", "--seed", "-1"),
    ("forward", "--beta", "nan"),
    ("forward", "--beta", "inf"),
]

# Numeric flags whose range a parameter object (NieParams, HspConfig, BoxSpec)
# checks, for library callers too. Every other numeric flag is range-checked
# by its argparse type, when parsed.
PARAM_OBJECT_FLAGS = {
    "--lambda-r", "--nd", "--levels", "--anchors", "--n-basic", "--lambda-sim",
    "--updates", "--encode-dim", "--dim-multiplier", "--n-box",
}


@pytest.mark.parametrize(
    "command, flag, value",
    _BAD_FLAGS,
    # The parameter-object cases at 0 keep the ids they had when every value was 0.
    ids=["-".join(case[:2] if case[1] in PARAM_OBJECT_FLAGS and case[2] == "0" else case) for case in _BAD_FLAGS],
)
def test_bad_config_flag_is_usage_error(capsys, cloud_file, tmp_path, command, flag, value):
    path, _ = cloud_file
    argv = [command, str(path), "-o", str(tmp_path / "d.ccem"), flag, value]
    if command == "forward" and flag != "--seed":
        argv += ["--seed", "1"]
    if flag == "--beta":
        # an appearance vector that fits the default 512-dim descriptor
        write_features(tmp_path / "app.ccem", np.ones((1, 512), np.float32))
        argv += ["--appearance", str(tmp_path / "app.ccem")]
    if command == "ingest":
        # Checked before any input is read: a missing input is not reported.
        argv[1] = str(tmp_path / "missing")
    before = sorted(tmp_path.iterdir())
    code, out, err = run(capsys, argv)
    assert code == 1
    assert "error_code=usage" in err
    # Checked before any work: nothing is printed or written.
    assert out == ""
    assert sorted(tmp_path.iterdir()) == before


def test_numeric_flags_are_range_checked_when_parsed():
    (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    raw = {
        action.option_strings[-1]
        for sub in commands.choices.values()
        for action in sub._actions
        if action.type in (int, float)
    }
    assert raw == PARAM_OBJECT_FLAGS


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
    # an explicit flag wins over the variable, and an empty one means 1
    code, _, _ = run(capsys, ["nie", str(path), "-o", str(b), "--threads", "2"])
    assert code == 0
    assert json.loads((tmp_path / "b.ccem.manifest.json").read_text())["config"]["threads"] == 2
    monkeypatch.setenv("CELLCLOUD_THREADS", "")
    code, _, _ = run(capsys, ["nie", str(path), "-o", str(b)])
    assert code == 0
    assert json.loads((tmp_path / "b.ccem.manifest.json").read_text())["config"]["threads"] == 1
    # a bad value is a usage error, as the same --threads value is
    for bad in ("0", "-3", "two"):
        monkeypatch.setenv("CELLCLOUD_THREADS", bad)
        for argv in (["nie", str(path)], ["forward", str(path), "--seed", "1"]):
            code, _, err = run(capsys, [*argv, "-o", str(tmp_path / "c.ccem")])
            assert code == 1
            assert "error_code=usage" in err
            assert not (tmp_path / "c.ccem").exists()


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
    expected = hsp_forward(cloud.xy, feats, cloud.types, w)
    assert read_features(out)[0].tobytes() == expected.tobytes()
    pinned = hsp_forward(cloud.xy, feats, cloud.types, w, gamma=400.0)
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
    assert "error_code=dim_mismatch" in err


def test_forward_weights_flags_must_match_the_file(capsys, cloud_file, tmp_path, monkeypatch):
    # A weight file is the whole model. A flag that repeats its value passes,
    # so a manifest's config replays; one that differs is a usage error,
    # raised before any embedding.
    path, _ = cloud_file
    wfile = tmp_path / "w.ccwt"
    first = tmp_path / "first.ccem"
    code, _, _ = run(
        capsys,
        ["forward", str(path), "--seed", "3", *SMALL_FWD,
         "--save-weights", str(wfile), "-o", str(first)],
    )
    assert code == 0
    same = [*SMALL_FWD, "--lambda-sim", "0.5", "--updates", "2", "--dim-multiplier", "2"]
    again = tmp_path / "again.ccem"
    code, _, _ = run(capsys, ["forward", str(path), "--weights", str(wfile), *same, "-o", str(again)])
    assert code == 0
    assert again.read_bytes() == first.read_bytes()

    def no_embed(*args, **kwargs):
        raise AssertionError("embed ran")

    monkeypatch.setattr("cellcloud.cli.embed", no_embed)
    for flag, value in [
        ("--levels", "3"), ("--anchors", "32"), ("--n-basic", "2"), ("--lambda-sim", "0.02"),
        ("--updates", "1"), ("--encode-dim", "8"), ("--dim-multiplier", "3"),
    ]:
        out = tmp_path / "differs.ccem"
        code, _, err = run(capsys, ["forward", str(path), "--weights", str(wfile), flag, value, "-o", str(out)])
        assert code == 1, flag
        assert "error_code=usage" in err and flag in err
        assert not out.exists()


def test_forward_appearance_must_be_one_row(capsys, cloud_file, tmp_path, monkeypatch):
    # 2 x 32 values hold as many floats as the 64-dim descriptor, but they
    # are two vectors, not one. The shape is checked before any embedding.
    def no_embed(*args, **kwargs):
        raise AssertionError("embed ran")

    monkeypatch.setattr("cellcloud.cli.embed", no_embed)
    path, _ = cloud_file
    app = tmp_path / "app.ccem"
    for shape in [(2, 32), (1, 63)]:
        write_features(app, np.ones(shape, np.float32))
        code, _, err = run(
            capsys,
            ["forward", str(path), "--seed", "5", *SMALL_FWD,
             "--appearance", str(app), "-o", str(tmp_path / "d.ccem")],
        )
        assert code == 2, shape
        assert "error_code=dim_mismatch" in err


def test_forward_appearance_blend(capsys, cloud_file, tmp_path):
    path, _ = cloud_file
    plain = tmp_path / "plain.ccem"
    run(capsys, ["forward", str(path), "--seed", "5", *SMALL_FWD, "-o", str(plain)])
    desc = read_features(plain).ravel()

    rng = np.random.Generator(np.random.Philox(2))
    f_app = rng.normal(size=desc.size).astype(np.float32)
    app_path = tmp_path / "app.ccem"
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


@pytest.mark.parametrize("command", ["km", "cindex"])
@pytest.mark.parametrize(
    "row, message",
    [
        ("p1,abc,3.0,1", "could not convert string to float: 'abc'"),
        ("p1,nan,3.0,1", "score must be finite"),
        ("p1,1.0,-1,1", "time must be finite and positive"),
        ("p1,1.0,inf,0", "time must be finite and positive"),
        ("p1,1.0,2.0,yes", "malformed cohort row"),
        ("p1,1.0,2.0", "malformed cohort row"),
    ],
)
def test_cohort_data_error_names_line(capsys, tmp_path, command, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"patient_id,score,time,event\np0,0.5,2.0,1\n\n{row}\n")
    code, _, err = run(capsys, [command, str(path)])
    assert code == 2
    assert "error_code=malformed_cohort" in err
    assert f"bad.csv: line 4: {message}" in err


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
# synth
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


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--kind", "cohort", "-o", "d", "--n", "-1"],
        ["synth", "--kind", "cohort", "-o", "d", "--n", "1000000000000"],
        ["synth", "--kind", "toy", "-o", "d", "--seed", "-1"],
        # nothing is read: the cohort file need not exist
        ["km", "cohort.csv", "--split", "nan"],
        ["km", "cohort.csv", "--split", "inf"],
        ["km", "cohort.csv", "--split=-inf"],  # "-inf" alone would parse as an option
        ["km", "cohort.csv", "--split", "abc"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_synth_and_km_range_is_usage_error(capsys, tmp_path, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert "error_code=usage" in err
    # Checked before any work: nothing is printed or written.
    assert out == ""
    assert list(tmp_path.iterdir()) == []
