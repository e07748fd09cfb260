import filecmp
import io
import itertools
import os
import struct
import sys
import warnings

import numpy as np
import pytest

from pointmixer import autodiff, cli, cloudio, config, geom, net, nn, tasks

from test_net import degenerate_positions


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tiny_train_config(tmp_path, out_name="run", **overrides):
    base = {
        "data.task": "cls",
        "data.points": 48,
        "data.train_clouds": 6,
        "data.test_clouds": 3,
        "data.classes": 3,
        "data.seed": 3,
        "net.widths": "8,12",
        "net.blocks": "1,1",
        "net.ratios": "1.0,0.25",
        "net.k": 4,
        "net.dropout": 0.0,
        "train.epochs": 2,
        "train.batch": 2,
        "train.lr": 0.02,
        "train.out": str(tmp_path / out_name),
    }
    base.update(overrides)
    path = tmp_path / f"{out_name}.cfg"
    path.write_text("\n".join(f"{k} = {v}" for k, v in base.items()) + "\n")
    return path


# -- gen ------------------------------------------------------------------------


def test_gen_writes_manifest_listing_all_files(tmp_path, capsys):
    out = tmp_path / "ds"
    code, stdout, _ = run_cli(capsys, "gen", "--task", "cls", "--out", str(out),
                              "--clouds", "4", "--test-clouds", "2", "--points", "32")
    assert code == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    listed = [line for line in manifest[1:] if line]
    assert len(listed) == 6
    for rel in listed:
        assert (out / rel).exists()


def test_gen_missing_out_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "--task", "cls")
    assert code == 2
    assert "usage" in err.lower() or "--out" in err


def test_gen_same_seed_byte_identical_trees(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code, _, _ = run_cli(capsys, "gen", "--task", "seg", "--out", str(out),
                             "--clouds", "3", "--test-clouds", "1",
                             "--points", "32", "--seed", "9")
        assert code == 0
    for root, _, files in os.walk(a):
        rel = os.path.relpath(root, a)
        for f in files:
            pa = os.path.join(root, f)
            pb = os.path.join(b, rel, f)
            assert filecmp.cmp(pa, pb, shallow=False), f
    code, _, _ = run_cli(capsys, "gen", "--task", "seg", "--out", str(tmp_path / "c"),
                         "--clouds", "3", "--test-clouds", "1",
                         "--points", "32", "--seed", "10")
    assert not filecmp.cmp(a / "train/cloud_00000.pmc",
                           tmp_path / "c/train/cloud_00000.pmc", shallow=False)


def test_pmix_seed_env_overrides(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PMIX_SEED", "9")
    code, _, _ = run_cli(capsys, "gen", "--task", "cls", "--out", str(tmp_path / "env"),
                         "--clouds", "2", "--test-clouds", "1", "--points", "32", "--seed", "1")
    assert code == 0
    monkeypatch.delenv("PMIX_SEED")
    code, _, _ = run_cli(capsys, "gen", "--task", "cls", "--out", str(tmp_path / "plain"),
                         "--clouds", "2", "--test-clouds", "1", "--points", "32", "--seed", "9")
    assert code == 0
    assert filecmp.cmp(tmp_path / "env/train/cloud_00000.pmc",
                       tmp_path / "plain/train/cloud_00000.pmc", shallow=False)


# -- train ----------------------------------------------------------------------


def test_train_zero_epochs_checkpoint_equals_fresh_network(tmp_path, capsys):
    cfg_path = tiny_train_config(tmp_path, "zero", **{"train.epochs": 0})
    code, _, err = run_cli(capsys, "train", str(cfg_path))
    assert code == 0, err
    state = nn.load_checkpoint(tmp_path / "zero" / "model.pmix")
    cfg = config.load(cfg_path)
    dataset = cli._load_dataset(cfg)
    fresh = cli._network_from_config(cfg, dataset).state()
    assert set(state) == set(fresh)
    for k in state:
        assert np.array_equal(state[k], fresh[k])


def test_train_writes_config_echo_log_and_checkpoint(tmp_path, capsys):
    cfg_path = tiny_train_config(tmp_path, "full")
    code, stdout, err = run_cli(capsys, "train", str(cfg_path))
    assert code == 0, err
    out = tmp_path / "full"
    assert (out / "config.txt").exists()
    assert (out / "model.pmix").exists()
    log = (out / "log.csv").read_text().splitlines()
    assert log[0] == "epoch,lr,loss,train_metric"
    assert len(log) == 3
    echoed = config.load(out / "config.txt")
    assert echoed["train.epochs"] == 2


def test_train_log_matches_golden_rerun(tmp_path, capsys):
    p1 = tiny_train_config(tmp_path, "g1")
    p2 = tiny_train_config(tmp_path, "g2")
    assert run_cli(capsys, "train", str(p1))[0] == 0
    assert run_cli(capsys, "train", str(p2))[0] == 0
    assert (tmp_path / "g1/log.csv").read_text() == (tmp_path / "g2/log.csv").read_text()
    assert filecmp.cmp(tmp_path / "g1/model.pmix", tmp_path / "g2/model.pmix", shallow=False)


def test_train_unreadable_config_and_data_exit_3(tmp_path, capsys):
    code, _, err = run_cli(capsys, "train", str(tmp_path / "missing.cfg"))
    assert code == 3
    bad = tmp_path / "bad.cfg"
    bad.write_text("data.task = cls\nnot a key = 7\n")
    assert run_cli(capsys, "train", str(bad))[0] == 3
    cfg_path = tiny_train_config(tmp_path, "baddata", **{"data.dir": str(tmp_path / "nope")})
    assert run_cli(capsys, "train", str(cfg_path))[0] == 3


@pytest.mark.parametrize("target, header", [("train/cloud_00001.pmc", "pmcloud 64x 6 1"),
                                            ("manifest.txt", "pmdataset seg two 64 0.02 0")],
                         ids=["cloud", "manifest"])
def test_train_malformed_header_number_exits_3_naming_the_file(tmp_path, capsys, target, header):
    data_dir = tmp_path / "segds"
    assert run_cli(capsys, "gen", "--task", "seg", "--out", str(data_dir), "--clouds", "4",
                   "--test-clouds", "1", "--points", "64", "--seed", "3")[0] == 0
    path = data_dir / target
    lines = path.read_text().splitlines()
    assert len(lines[0].split()) == len(header.split())
    path.write_text("\n".join([header] + lines[1:]) + "\n")
    cfg_path = tiny_train_config(tmp_path, **{"data.dir": str(data_dir), "data.task": "seg", "data.classes": 2})
    code, out, err = run_cli(capsys, "train", str(cfg_path))
    assert code == 3
    assert_one_line_error(err, f"{path}: malformed header")
    assert out == ""
    assert not (tmp_path / "run").exists()


def test_train_resume_restores_values(tmp_path, capsys):
    cfg_path = tiny_train_config(tmp_path, "first")
    assert run_cli(capsys, "train", str(cfg_path))[0] == 0
    resume_cfg = tiny_train_config(
        tmp_path, "resumed",
        **{"train.resume": str(tmp_path / "first" / "model.pmix"), "train.epochs": 0},
    )
    assert run_cli(capsys, "train", str(resume_cfg))[0] == 0
    a = nn.load_checkpoint(tmp_path / "first" / "model.pmix")
    b = nn.load_checkpoint(tmp_path / "resumed" / "model.pmix")
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_train_grid_emits_eight_rows(tmp_path, capsys):
    cfg_path = tiny_train_config(
        tmp_path, "grid",
        **{"data.task": "seg", "data.classes": 2, "train.epochs": 1,
           "data.train_clouds": 4, "data.test_clouds": 2},
    )
    code, stdout, err = run_cli(capsys, "train", str(cfg_path), "--grid")
    assert code == 0, err
    grid = (tmp_path / "grid" / "grid.csv").read_text().splitlines()
    assert grid[0] == "intra,inter,hier,miou"
    assert len(grid) == 9
    combos = {tuple(line.split(",")[:3]) for line in grid[1:]}
    assert len(combos) == 8


def assert_one_line_error(err, message):
    assert message in err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("grid", [False, True])
def test_train_clouds_with_fewer_than_2k_points_exit_2(tmp_path, capsys, grid):
    cfg_path = tiny_train_config(tmp_path, **{"data.task": "seg", "data.classes": 2,
                                              "data.points": 16, "net.k": 16})
    code, _, err = run_cli(capsys, "train", str(cfg_path), *(["--grid"] if grid else []))
    assert code == 2
    assert_one_line_error(err, "clouds of 16 points are too small for k=16")


def test_train_tokenmlp_on_a_deepest_level_below_k_exits_2(tmp_path, capsys):
    # default levels keep 512, 128, 32 and 8 points; the last has fewer than k = 16
    cfg_path = tiny_train_config(tmp_path, **{
        "data.task": "seg", "data.classes": 2, "data.points": 512, "data.train_clouds": 2,
        "data.test_clouds": 1, "net.widths": "32,64,128,256", "net.blocks": "1,1,1,1",
        "net.ratios": "1.0,0.25,0.25,0.25", "net.k": 16, "net.variant": "tokenmlp",
        "net.use_inter": "false"})
    code, _, err = run_cli(capsys, "train", str(cfg_path))
    assert code == 2
    assert_one_line_error(err, "clouds of 512 points keep 8 points at level 3")


@pytest.mark.parametrize("grid", [False, True])
def test_train_tokenmlp_with_inter_set_mixing_exits_2(tmp_path, capsys, grid):
    # --grid turns inter-set mixing on in four cells even when the config turns it off
    inter = "false" if grid else "true"
    cfg_path = tiny_train_config(tmp_path, **{"data.task": "seg", "data.classes": 2,
                                              "net.variant": "tokenmlp", "net.use_inter": inter})
    code, out, err = run_cli(capsys, "train", str(cfg_path), *(["--grid"] if grid else []))
    assert code == 2
    assert_one_line_error(err, "token-MLP mixing cannot run over inverse maps")
    assert out == ""  # no grid cell trained before the check
    assert not (tmp_path / "run" / "model.pmix").exists()
    assert not (tmp_path / "run" / "grid.csv").exists()


def test_train_grid_refuses_resume_before_any_cell_trains(tmp_path, capsys):
    # eight cells with different parameter sets: one checkpoint cannot seed them all
    cfg_path = tiny_train_config(tmp_path, **{"data.task": "seg", "data.classes": 2,
                                              "train.resume": str(tmp_path / "missing.pmix")})
    code, out, err = run_cli(capsys, "train", str(cfg_path), "--grid")
    assert code == 2
    assert_one_line_error(err, "train.resume")
    assert out == ""
    assert not (tmp_path / "run").exists()


def test_train_cosine_log_writes_lr_as_plain_floats(tmp_path, capsys):
    cfg_path = tiny_train_config(tmp_path, "cos", **{"train.epochs": 3})
    assert run_cli(capsys, "train", str(cfg_path))[0] == 0
    rows = (tmp_path / "cos" / "log.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        field = row.split(",")[1]
        assert repr(float(field)) == field


# -- eval ------------------------------------------------------------------------


def eval_fixture(tmp_path, capsys):
    data_dir = tmp_path / "evalds"
    run_cli(capsys, "gen", "--task", "cls", "--out", str(data_dir), "--clouds", "6",
            "--test-clouds", "3", "--points", "48", "--seed", "3")
    cfg_path = tiny_train_config(tmp_path, "evaltrain", **{"data.dir": str(data_dir)})
    assert run_cli(capsys, "train", str(cfg_path))[0] == 0
    return cfg_path, tmp_path / "evaltrain" / "model.pmix", data_dir


def test_eval_formats_agree(tmp_path, capsys):
    cfg_path, ckpt, data_dir = eval_fixture(tmp_path, capsys)
    code, kv, _ = run_cli(capsys, "eval", "--config", str(cfg_path),
                          "--checkpoint", str(ckpt), "--data", str(data_dir))
    assert code == 0
    code, csv_text, _ = run_cli(capsys, "eval", "--config", str(cfg_path),
                                "--checkpoint", str(ckpt), "--data", str(data_dir),
                                "--format", "csv")
    assert code == 0
    kv_vals = dict(line.split("=") for line in kv.strip().splitlines())
    header, values = csv_text.strip().splitlines()
    csv_vals = dict(zip(header.split(","), values.split(",")))
    assert kv_vals == csv_vals


def test_eval_mismatched_task_exits_2(tmp_path, capsys):
    cfg_path, ckpt, _ = eval_fixture(tmp_path, capsys)
    seg_dir = tmp_path / "segds"
    run_cli(capsys, "gen", "--task", "seg", "--out", str(seg_dir), "--clouds", "3",
            "--test-clouds", "2", "--points", "48", "--seed", "0")
    code, _, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                           "--checkpoint", str(ckpt), "--data", str(seg_dir))
    assert code == 2
    assert "mismatch" in err


def test_eval_tokenmlp_on_clouds_too_small_for_k_exits_2(tmp_path, capsys):
    cfg_path = tiny_train_config(tmp_path, "tok", **{"net.variant": "tokenmlp",
                                                     "net.use_inter": "false", "train.epochs": 0})
    assert run_cli(capsys, "train", str(cfg_path))[0] == 0
    small = tmp_path / "small"  # 12-point clouds: 3 points on level 1, below k = 4
    run_cli(capsys, "gen", "--task", "cls", "--out", str(small), "--clouds", "2",
            "--test-clouds", "1", "--points", "12", "--seed", "0")
    code, out, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                             "--checkpoint", str(tmp_path / "tok" / "model.pmix"), "--data", str(small))
    assert code == 2
    assert_one_line_error(err, "layer declared K=4 but map has K=3")
    assert out == ""


def test_eval_tokenmlp_with_inter_set_mixing_exits_2(tmp_path, capsys):
    _, ckpt, data_dir = eval_fixture(tmp_path, capsys)
    cfg_path = tiny_train_config(tmp_path, "tokinter", **{"data.dir": str(data_dir),
                                                          "net.variant": "tokenmlp"})
    code, out, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                             "--checkpoint", str(ckpt), "--data", str(data_dir))
    assert code == 2
    assert_one_line_error(err, "token-MLP mixing cannot run over inverse maps")
    assert out == ""


def test_eval_missing_checkpoint_exits_3(tmp_path, capsys):
    cfg_path, _, data_dir = eval_fixture(tmp_path, capsys)
    code, _, _ = run_cli(capsys, "eval", "--config", str(cfg_path),
                         "--checkpoint", str(tmp_path / "no.pmix"), "--data", str(data_dir))
    assert code == 3


def test_eval_truncated_checkpoint_exits_3(tmp_path, capsys):
    cfg_path, ckpt, data_dir = eval_fixture(tmp_path, capsys)
    cut = tmp_path / "cut.pmix"
    cut.write_bytes(ckpt.read_bytes()[:9])
    code, _, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                           "--checkpoint", str(cut), "--data", str(data_dir))
    assert code == 3
    assert "truncated checkpoint" in err


def test_train_resume_from_truncated_checkpoint_exits_3(tmp_path, capsys):
    cfg_path = tiny_train_config(tmp_path, "first", **{"train.epochs": 0})
    assert run_cli(capsys, "train", str(cfg_path))[0] == 0
    whole = (tmp_path / "first" / "model.pmix").read_bytes()
    cut = tmp_path / "cut.pmix"
    cut.write_bytes(whole[: len(whole) // 2])
    resume_cfg = tiny_train_config(tmp_path, "resumed", **{"train.resume": str(cut)})
    code, _, err = run_cli(capsys, "train", str(resume_cfg))
    assert code == 3
    assert "truncated checkpoint" in err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_checkpoint_from_another_network_exits_2(tmp_path, capsys, command):
    _, ckpt, data_dir = eval_fixture(tmp_path, capsys)  # trained at widths 8,12
    other = tiny_train_config(tmp_path, "other", **{"data.dir": str(data_dir), "net.widths": "8,8",
                                                     "train.resume": str(ckpt)})
    argv = (["train", str(other)] if command == "train" else
            ["eval", "--config", str(other), "--checkpoint", str(ckpt), "--data", str(data_dir)])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert_one_line_error(err, "checkpoint does not fit this network: shape mismatch for ")
    assert out == ""
    assert not (tmp_path / "other").exists()


def test_eval_non_finite_feature_exits_3(tmp_path, capsys):
    cfg_path, ckpt, data_dir = eval_fixture(tmp_path, capsys)
    cloud_path = data_dir / "test" / "cloud_00000.pmc"
    lines = cloud_path.read_text().splitlines()
    fields = lines[1].split()
    fields[3] = "nan"  # the first feature channel of the first point
    lines[1] = " ".join(fields)
    cloud_path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                             "--checkpoint", str(ckpt), "--data", str(data_dir))
    assert code == 3
    assert "non-finite features" in err
    assert out == ""


def test_eval_cloud_header_beyond_the_file_size_exits_3(tmp_path, capsys):
    cfg_path, ckpt, data_dir = eval_fixture(tmp_path, capsys)
    cloud_path = data_dir / "test" / "cloud_00000.pmc"
    lines = cloud_path.read_text().splitlines()
    lines[0] = "pmcloud 1000000000000 " + " ".join(lines[0].split()[2:])
    cloud_path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                             "--checkpoint", str(ckpt), "--data", str(data_dir))
    assert code == 3
    assert "more than the file holds" in err
    assert out == ""


def _short_middle_line(lines):
    lines[10] = lines[10].rsplit(" ", 1)[0]
    return "\n".join(lines) + "\n"


def _truncated_last_line(lines):
    lines[-1] = " ".join(lines[-1].split()[:2])
    return "\n".join(lines)


def _trailing_data(lines):
    return "\n".join(lines + [lines[-1]]) + "\n"


def _missing_point(lines):
    return "\n".join(lines[:-1]) + "\n"


def _non_numeric_field(lines):
    lines[5] = "abc " + lines[5].split(" ", 1)[1]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("edit, message", [
    (_short_middle_line, "line 11 has {short} fields, expected {fields}"),
    (_truncated_last_line, "line 49 has 2 fields, expected {fields}"),
    (_trailing_data, "trailing data after 48 points"),
    (_missing_point, "line 49 has 0 fields, expected {fields}"),
    (_non_numeric_field, "could not convert string to float: 'abc'"),
])
def test_eval_malformed_cloud_body_exits_3_naming_the_fault(tmp_path, capsys, edit, message):
    data_dir = tmp_path / "evalds"
    run_cli(capsys, "gen", "--task", "cls", "--out", str(data_dir), "--clouds", "2",
            "--test-clouds", "1", "--points", "48", "--seed", "3")
    cfg_path = tiny_train_config(tmp_path, "evaltrain", **{"data.dir": str(data_dir)})
    cloud_path = data_dir / "test" / "cloud_00000.pmc"
    lines = cloud_path.read_text().splitlines()
    fields = len(lines[1].split())
    cloud_path.write_text(edit(lines))
    # the body is read before the checkpoint, which therefore need not exist
    code, out, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                             "--checkpoint", str(tmp_path / "none.pmix"), "--data", str(data_dir))
    assert code == 3
    assert message.format(short=fields - 1, fields=fields) in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("column, value, fault", [
    (4, "1.5e", "could not convert string to float: '1.5e'"),
    (-1, "99999999999999999999", "label 99999999999999999999 does not fit in int64"),
])
def test_eval_unconvertible_field_exits_3_naming_the_file_and_line(tmp_path, capsys, column, value, fault):
    data_dir = tmp_path / "evalds"
    run_cli(capsys, "gen", "--task", "cls", "--out", str(data_dir), "--clouds", "2",
            "--test-clouds", "1", "--points", "48", "--seed", "3")
    cfg_path = tiny_train_config(tmp_path, "evaltrain", **{"data.dir": str(data_dir)})
    cloud_path = data_dir / "test" / "cloud_00000.pmc"
    lines = cloud_path.read_text().splitlines()
    fields = lines[6].split()
    fields[column] = value
    lines[6] = " ".join(fields)
    cloud_path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                             "--checkpoint", str(tmp_path / "none.pmix"), "--data", str(data_dir))
    assert code == 3
    assert f"{cloud_path}: line 7: {fault}" in err
    assert "Traceback" not in err
    assert out == ""


def edit_first_point(cloud_path, column, value):
    """Replace one field of the first point's line of a .pmc file."""
    lines = cloud_path.read_text().splitlines()
    fields = lines[1].split()
    fields[column] = value
    lines[1] = " ".join(fields)
    cloud_path.write_text("\n".join(lines) + "\n")


def test_eval_label_outside_the_classes_exits_3(tmp_path, capsys):
    cfg_path, ckpt, data_dir = eval_fixture(tmp_path, capsys)
    edit_first_point(data_dir / "test" / "cloud_00000.pmc", -1, "7")  # the manifest declares 3 classes
    code, out, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                             "--checkpoint", str(ckpt), "--data", str(data_dir))
    assert code == 3
    assert "cloud_00000.pmc: label out of range" in err
    assert out == ""


def test_train_label_outside_the_classes_exits_3(tmp_path, capsys):
    data_dir = tmp_path / "segds"
    run_cli(capsys, "gen", "--task", "seg", "--out", str(data_dir), "--clouds", "3",
            "--test-clouds", "1", "--points", "48", "--seed", "0")
    edit_first_point(data_dir / "train" / "cloud_00002.pmc", -1, "-1")
    cfg_path = tiny_train_config(tmp_path, "segtrain", **{"data.task": "seg", "data.classes": 2,
                                                          "data.dir": str(data_dir)})
    code, _, err = run_cli(capsys, "train", str(cfg_path))
    assert code == 3
    assert "cloud_00002.pmc: label out of range" in err


def test_eval_coordinate_beyond_the_limit_exits_3(tmp_path, capsys):
    cfg_path, ckpt, data_dir = eval_fixture(tmp_path, capsys)
    edit_first_point(data_dir / "test" / "cloud_00000.pmc", 0, "1e155")  # its squares overflow to inf
    code, out, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                             "--checkpoint", str(ckpt), "--data", str(data_dir))
    assert code == 3
    assert "squared distances would overflow" in err
    assert out == ""


def nan_checkpoint(good, path):
    state = nn.load_checkpoint(good)
    name = sorted(state)[0]
    state[name] = state[name].copy()
    state[name].flat[0] = np.nan
    nn.save_checkpoint(path, state)
    return path


def test_eval_non_finite_checkpoint_exits_3(tmp_path, capsys):
    cfg_path, ckpt, data_dir = eval_fixture(tmp_path, capsys)
    bad = nan_checkpoint(ckpt, tmp_path / "nan.pmix")
    code, out, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                             "--checkpoint", str(bad), "--data", str(data_dir))
    assert code == 3
    assert "non-finite values in checkpoint" in err
    assert out == ""


def test_train_resume_from_non_finite_checkpoint_exits_3(tmp_path, capsys):
    cfg_path = tiny_train_config(tmp_path, "first", **{"train.epochs": 0})
    assert run_cli(capsys, "train", str(cfg_path))[0] == 0
    bad = nan_checkpoint(tmp_path / "first" / "model.pmix", tmp_path / "nan.pmix")
    code, _, err = run_cli(capsys, "train", str(tiny_train_config(tmp_path, "resumed", **{"train.resume": str(bad)})))
    assert code == 3
    assert "non-finite values in checkpoint" in err


def diverged_seg_fixture(tmp_path, capsys):
    """A tiny seg dataset, its config, and a checkpoint of that network with
    every weight matrix scaled by 1e200, so its outputs are non-finite."""
    data_dir = tmp_path / "segds"
    run_cli(capsys, "gen", "--task", "seg", "--out", str(data_dir), "--clouds", "3",
            "--test-clouds", "2", "--points", "48", "--seed", "0")
    cfg_path = tiny_train_config(tmp_path, "segzero", **{"data.task": "seg", "data.classes": 2,
                                                         "data.dir": str(data_dir), "train.epochs": 0})
    assert run_cli(capsys, "train", str(cfg_path))[0] == 0
    state = nn.load_checkpoint(tmp_path / "segzero" / "model.pmix")
    nn.save_checkpoint(tmp_path / "huge.pmix",
                       {k: v * 1e200 if k.endswith(".W") else v for k, v in state.items()})
    return cfg_path, tmp_path / "huge.pmix", data_dir


def test_eval_non_finite_output_exits_3(tmp_path, capsys):
    cfg_path, huge, data_dir = diverged_seg_fixture(tmp_path, capsys)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                                 "--checkpoint", str(huge), "--data", str(data_dir))
    assert caught == []  # numpy's overflow warnings would print beside the one line
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "non-finite network output on cloud 0" in err


def test_train_non_finite_test_output_exits_4(tmp_path, capsys):
    cfg_path, huge, data_dir = diverged_seg_fixture(tmp_path, capsys)
    resume_cfg = tiny_train_config(tmp_path, "resumed", **{
        "data.task": "seg", "data.classes": 2, "data.dir": str(data_dir),
        "train.epochs": 0, "train.resume": str(huge),
    })
    code, _, err = run_cli(capsys, "train", str(resume_cfg))
    assert code == 4
    assert "test evaluation diverged: non-finite network output on cloud 0" in err


def test_eval_checkpoint_with_overflowing_extents_exits_3(tmp_path, capsys):
    cfg_path, ckpt, data_dir = eval_fixture(tmp_path, capsys)
    bad = tmp_path / "extents.pmix"
    name = b"embed.W"
    bad.write_bytes(nn.CHECKPOINT_MAGIC + struct.pack("<Q", 1) + struct.pack("<I", len(name)) + name
                    + struct.pack("<I", 40) + struct.pack("<40Q", *(1, 2**63) * 20))
    with pytest.raises(ValueError, match="truncated checkpoint"):
        nn.load_checkpoint(bad)
    code, out, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                             "--checkpoint", str(bad), "--data", str(data_dir))
    assert code == 3
    assert "truncated checkpoint" in err
    assert out == ""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a flipped exponent byte can overflow
def test_eval_fuzzed_inputs_exit_0_2_or_3(tmp_path, capsys):
    """Seeded byte flips and truncations of one cloud file and of the
    checkpoint: each run exits 0, 2 (a flipped parameter name reads as a
    checkpoint for another network) or 3, and none raises."""
    cfg_path, ckpt, data_dir = eval_fixture(tmp_path, capsys)
    cloud = data_dir / "test" / "cloud_00000.pmc"
    originals = {cloud: cloud.read_bytes(), ckpt: ckpt.read_bytes()}
    rng = np.random.default_rng(11)
    codes = []
    for case in range(400):
        target = cloud if case % 2 else ckpt
        data = bytearray(originals[target])
        if rng.random() < 0.25:
            data = data[: int(rng.integers(0, len(data)))]
        else:
            for pos in rng.integers(0, len(data), int(rng.integers(1, 4))):
                data[pos] = int(rng.integers(0, 256))
        target.write_bytes(bytes(data))
        codes.append(cli.main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                               "--data", str(data_dir)]))
        target.write_bytes(originals[target])
    capsys.readouterr()
    assert set(codes) <= {0, 2, 3}, sorted(set(codes))


# -- gradcheck ---------------------------------------------------------------------


def test_gradcheck_stock_build_passes(capsys):
    code, stdout, _ = run_cli(capsys, "gradcheck", "--seed", "7")
    assert code == 0
    assert "worst:" in stdout
    assert "FAIL" not in stdout


def test_gradcheck_reproducible_output(capsys):
    _, out1, _ = run_cli(capsys, "gradcheck", "--h", "1e-5", "--seed", "7")
    _, out2, _ = run_cli(capsys, "gradcheck", "--h", "1e-5", "--seed", "7")
    assert out1 == out2


def test_gradcheck_injected_fault_names_the_op(capsys):
    autodiff.inject_backward_fault("gelu")
    try:
        code, stdout, err = run_cli(capsys, "gradcheck", "--seed", "7")
    finally:
        autodiff.inject_backward_fault(None)
    assert code != 0
    assert "FAIL" in stdout
    assert "gelu" in err or "gelu" in stdout


def tape_ops(out) -> set[str]:
    """The ``_op`` names on the tape behind ``out``."""
    ops, seen, stack = set(), set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops.add(node._op)
            stack.extend(node._parents)
    return ops - {""}


def test_gradcheck_probes_cover_every_op_the_network_runs():
    cloud_pos = np.random.default_rng(0).uniform(-1, 1, (64, 3))
    cloud = geom.PointCloud(cloud_pos, cloud_pos.copy(), np.zeros(64, dtype=np.int64))
    levels = [net.LevelSpec(8, 1, 1.0), net.LevelSpec(8, 1, 0.25)]
    network_ops = set()
    for variant in ("softmax", "maxpool", "attention", "tokenmlp"):
        for use_hier in (True, False):
            for head in (net.DenseHead(2), net.ClassificationHead(2, 0.5)):
                cfg = net.NetworkConfig(levels=levels, head=head, k=4, variant=variant, use_hier=use_hier,
                                        use_inter=variant != "tokenmlp")
                network = net.build_network(cfg, nn.Rng(0))
                out = (net.forward_dense(network, cloud) if isinstance(head, net.DenseHead)
                       else net.forward_classify(network, cloud, training=True, rng=nn.Rng(1)))
                network_ops |= tape_ops(out)
    probe_ops = set()
    for _, f, _ in cli._gradcheck_cases(0):
        probe_ops |= tape_ops(f())
    assert {"linear", "edge_scores", "segment_softmax", "segment_max"} <= network_ops
    assert network_ops - probe_ops == set()


# -- bench and rfield ------------------------------------------------------------------


def test_bench_lists_all_variants_and_param_ordering(capsys):
    code, stdout, err = run_cli(capsys, "bench", "--points", "64", "--width", "16",
                                "--k", "8", "--iters", "20")
    assert code == 0, err
    for variant in ("maxpool", "attention", "softmax", "tokenmlp"):
        assert variant in stdout
    lines = {l.split()[0]: l.split() for l in stdout.splitlines() if l and l.split()[0] in
             ("maxpool", "attention", "softmax", "tokenmlp")}
    assert int(lines["softmax"][1]) < int(lines["tokenmlp"][1])


def test_rfield_reports_monotone_influence_sets(capsys):
    # the inverse-vs-trilinear claim is about K=16 downsampling maps
    code, stdout, _ = run_cli(capsys, "rfield", "--points", "96", "--k", "16",
                              "--hierarchies", "5", "--queries", "16", "--seed", "1")
    assert code == 0
    sizes = {}
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] in ("intra", "intra+inter", "up_inverse", "up_trilinear"):
            sizes[parts[0]] = float(parts[1])
    assert sizes["intra"] <= 16
    assert sizes["intra+inter"] >= sizes["intra"]
    assert sizes["up_inverse"] >= sizes["up_trilinear"]


def test_train_recon_task_end_to_end(tmp_path, capsys):
    cfg_path = tiny_train_config(
        tmp_path, "recon",
        **{"data.task": "recon", "data.points": 64, "data.train_clouds": 4,
           "data.test_clouds": 2, "train.epochs": 1, "net.k": 4},
    )
    code, stdout, err = run_cli(capsys, "train", str(cfg_path))
    assert code == 0, err
    assert "cd=" in stdout


def test_bench_float32_mode(capsys):
    code, stdout, _ = run_cli(capsys, "bench", "--points", "48", "--width", "8",
                              "--k", "4", "--iters", "20", "--dtype", "f32")
    assert code == 0
    assert "f32" in stdout


def test_eval_overfit_run_reaches_high_train_accuracy(tmp_path, capsys):
    cfg_path = tiny_train_config(
        tmp_path, "overfit",
        **{"data.points": 96, "data.train_clouds": 9, "data.test_clouds": 3,
           "data.seed": 4, "net.widths": "12,24", "net.k": 6, "net.use_inter": "false",
           "train.epochs": 25, "train.lr": 0.02, "train.seed": 1},
    )
    assert run_cli(capsys, "train", str(cfg_path))[0] == 0
    data_dir = tmp_path / "overfit_ds"
    run_cli(capsys, "gen", "--task", "cls", "--out", str(data_dir), "--clouds", "9",
            "--test-clouds", "3", "--points", "96", "--seed", "4")
    code, out, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                             "--checkpoint", str(tmp_path / "overfit" / "model.pmix"),
                             "--data", str(data_dir), "--split", "train")
    assert code == 0, err
    oa = float(dict(line.split("=") for line in out.strip().splitlines())["oa"])
    assert oa >= 0.99


def test_gen_io_failure_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code, _, err = run_cli(capsys, "gen", "--task", "cls",
                           "--out", str(blocker / "nested"), "--clouds", "1",
                           "--test-clouds", "0", "--points", "32")
    assert code == 3


# -- clouds a network cannot take ---------------------------------------------------


def repeat_first_point(cloud_path, copies):
    """Overwrite the first ``copies`` point lines of a .pmc file with its first one."""
    lines = cloud_path.read_text().splitlines()
    lines[1 : 1 + copies] = [lines[1]] * copies
    cloud_path.write_text("\n".join(lines) + "\n")


def maxpool_seg_config(tmp_path, data_dir, out_name, **overrides):
    return tiny_train_config(tmp_path, out_name, **{
        "data.dir": str(data_dir), "data.task": "seg", "data.classes": 2, "net.widths": "8,8",
        "net.variant": "maxpool", **overrides})


def test_train_maxpool_on_a_point_repeated_beyond_k_exits_2(tmp_path, capsys):
    data_dir = tmp_path / "dup"
    run_cli(capsys, "gen", "--task", "seg", "--out", str(data_dir), "--clouds", "2",
            "--test-clouds", "1", "--points", "64", "--seed", "0")
    repeat_first_point(data_dir / "train" / "cloud_00001.pmc", 7)  # k = 4: three copies in no neighbourhood
    code, out, err = run_cli(capsys, "train", str(maxpool_seg_config(tmp_path, data_dir, "mp")))
    assert code == 2
    assert_one_line_error(err, "3 points at level 0 lie in no neighbourhood")
    assert not (tmp_path / "mp" / "model.pmix").exists()
    # without inter-set mixing nothing takes a max over an empty row
    cfg_path = maxpool_seg_config(tmp_path, data_dir, "mp_intra", **{"net.use_inter": "false"})
    assert run_cli(capsys, "train", str(cfg_path))[0] == 0


def test_eval_maxpool_on_a_point_repeated_beyond_k_exits_2(tmp_path, capsys):
    data_dir = tmp_path / "clean"
    run_cli(capsys, "gen", "--task", "seg", "--out", str(data_dir), "--clouds", "2",
            "--test-clouds", "2", "--points", "64", "--seed", "0")
    cfg_path = maxpool_seg_config(tmp_path, data_dir, "mp", **{"train.epochs": 0})
    assert run_cli(capsys, "train", str(cfg_path))[0] == 0
    repeat_first_point(data_dir / "test" / "cloud_00001.pmc", 7)
    code, out, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                             "--checkpoint", str(tmp_path / "mp" / "model.pmix"), "--data", str(data_dir))
    assert code == 2
    assert_one_line_error(err, "3 points at level 0 lie in no neighbourhood")
    assert out == ""


def drop_feature_channels(cloud_path, keep):
    from pointmixer.geom import PointCloud

    cloud = cloudio.read_cloud(cloud_path)
    cloudio.write_cloud(cloud_path, PointCloud(cloud.positions, cloud.features[:, :keep], cloud.labels))


def test_train_clouds_of_differing_channel_counts_exit_3(tmp_path, capsys):
    data_dir = tmp_path / "mixed"
    run_cli(capsys, "gen", "--task", "seg", "--out", str(data_dir), "--clouds", "2",
            "--test-clouds", "1", "--points", "64", "--seed", "0")
    drop_feature_channels(data_dir / "test" / "cloud_00000.pmc", 3)
    cfg_path = tiny_train_config(tmp_path, **{"data.dir": str(data_dir), "data.task": "seg", "data.classes": 2})
    code, out, err = run_cli(capsys, "train", str(cfg_path))
    assert code == 3
    assert_one_line_error(err, "cannot load data: ")
    assert "test/cloud_00000.pmc: 3 feature channels, but" in err and err.rstrip().endswith("has 6")


def test_eval_clouds_of_differing_channel_counts_exit_3(tmp_path, capsys):
    cfg_path, ckpt, data_dir = eval_fixture(tmp_path, capsys)
    drop_feature_channels(data_dir / "test" / "cloud_00002.pmc", 2)
    code, out, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                             "--checkpoint", str(ckpt), "--data", str(data_dir))
    assert code == 3
    assert_one_line_error(err, "bad inputs: ")
    assert "test/cloud_00002.pmc: 2 feature channels, but" in err
    assert out == ""


# -- data directories that disagree with themselves or the config -------------------


def gen_dir(capsys, data_dir, task):
    run_cli(capsys, "gen", "--task", task, "--out", str(data_dir), "--clouds", "2",
            "--test-clouds", "2", "--points", "64", "--seed", "0")
    return data_dir / "manifest.txt"


def drop_manifest_entries(manifest, prefix, keep=0):
    """Remove every manifest entry under ``prefix`` past the first ``keep``."""
    lines = manifest.read_text().splitlines()
    under = [line for line in lines if line.startswith(prefix)]
    manifest.write_text("\n".join(line for line in lines if line not in under[keep:]) + "\n")


def dir_config(tmp_path, data_dir, task, **overrides):
    return tiny_train_config(tmp_path, **{
        "data.dir": str(data_dir), "data.task": task, "data.classes": 2, "net.widths": "8,8", **overrides})


@pytest.mark.parametrize("case", ["train_targets", "test_targets", "task"])
def test_train_on_an_inconsistent_manifest_exits_3(tmp_path, capsys, case):
    manifest = gen_dir(capsys, tmp_path / "ds", "recon")
    if case == "task":
        manifest.write_text(manifest.read_text().replace("pmdataset recon ", "pmdataset foo ", 1))
        expected = "unknown task 'foo'"
    else:
        drop_manifest_entries(manifest, f"{case}/", keep=1)
        expected = f"1 {case} for 2 {case.split('_')[0]} clouds"
    code, out, err = run_cli(capsys, "train", str(dir_config(tmp_path, tmp_path / "ds", "recon")))
    assert code == 3
    assert_one_line_error(err, f"cannot load data: {manifest}: {expected}")
    assert not (tmp_path / "run").exists()


def test_eval_with_a_test_target_missing_exits_3(tmp_path, capsys):
    manifest = gen_dir(capsys, tmp_path / "ds", "recon")
    cfg_path = dir_config(tmp_path, tmp_path / "ds", "recon", **{"train.epochs": 0})
    assert run_cli(capsys, "train", str(cfg_path))[0] == 0
    drop_manifest_entries(manifest, "test_targets/", keep=1)
    code, out, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                             "--checkpoint", str(tmp_path / "run" / "model.pmix"), "--data", str(tmp_path / "ds"))
    assert code == 3
    assert_one_line_error(err, f"bad inputs: {manifest}: 1 test_targets for 2 test clouds")
    assert out == ""


def test_train_without_train_clouds_exits_3(tmp_path, capsys):
    manifest = gen_dir(capsys, tmp_path / "ds", "seg")
    drop_manifest_entries(manifest, "train/")
    code, out, err = run_cli(capsys, "train", str(dir_config(tmp_path, tmp_path / "ds", "seg")))
    assert code == 3
    assert_one_line_error(err, f"cannot load data: {tmp_path / 'ds'}: no train clouds")


@pytest.mark.parametrize("task", ["cls", "seg", "recon"])
def test_eval_on_an_empty_split_exits_3_and_on_a_test_only_directory_runs(tmp_path, capsys, task):
    manifest = gen_dir(capsys, tmp_path / "ds", task)
    cfg_path = dir_config(tmp_path, tmp_path / "ds", task, **{"data.classes": 3 if task == "cls" else 2,
                                                              "train.epochs": 0})
    assert run_cli(capsys, "train", str(cfg_path))[0] == 0
    ckpt = str(tmp_path / "run" / "model.pmix")
    drop_manifest_entries(manifest, "train")  # train clouds and, for recon, their targets
    code, out, err = run_cli(capsys, "eval", "--config", str(cfg_path), "--checkpoint", ckpt,
                             "--data", str(tmp_path / "ds"))
    assert code == 0, err
    drop_manifest_entries(manifest, "test")
    code, out, err = run_cli(capsys, "eval", "--config", str(cfg_path), "--checkpoint", ckpt,
                             "--data", str(tmp_path / "ds"))
    assert code == 3
    assert_one_line_error(err, f"bad inputs: {tmp_path / 'ds'} has no test clouds")
    assert out == ""


@pytest.mark.parametrize("grid", [False, True])
def test_train_mismatched_task_exits_2(tmp_path, capsys, grid):
    gen_dir(capsys, tmp_path / "ds", "seg")
    cfg_path = dir_config(tmp_path, tmp_path / "ds", "cls")
    code, out, err = run_cli(capsys, "train", str(cfg_path), *(["--grid"] if grid else []))
    assert code == 2
    assert_one_line_error(err, "head/task mismatch: config trains a 'cls' head but the data directory "
                               "holds 'seg' clouds")
    assert out == ""
    assert not (tmp_path / "run" / "model.pmix").exists()


# -- refused runs leave no run directory; manifest entries the task has no use for ----------


def add_target_entry(manifest, split):
    """List a copy of the first train cloud as ``<split>/cloud_00000.pmc``."""
    target = manifest.parent / split / "cloud_00000.pmc"
    target.parent.mkdir(exist_ok=True)
    target.write_text((manifest.parent / "train" / "cloud_00000.pmc").read_text())
    manifest.write_text(manifest.read_text() + f"{split}/cloud_00000.pmc\n")


def refused_train_config(tmp_path, capsys, case):
    """A config that ``pmix train`` refuses, its exit code and its message."""
    if case == "mismatch":
        gen_dir(capsys, tmp_path / "ds", "seg")
        return dir_config(tmp_path, tmp_path / "ds", "cls"), 2, "head/task mismatch"
    if case == "tokenmlp_inter":
        return (tiny_train_config(tmp_path, **{"net.variant": "tokenmlp", "net.use_inter": "true"}), 2,
                "token-MLP mixing cannot run over inverse maps")
    if case == "too_small":
        return (tiny_train_config(tmp_path, **{"data.points": 16, "net.k": 16}), 2,
                "clouds of 16 points are too small for k=16")
    if case == "uncovered":
        gen_dir(capsys, tmp_path / "ds", "seg")
        repeat_first_point(tmp_path / "ds" / "train" / "cloud_00001.pmc", 7)
        return (maxpool_seg_config(tmp_path, tmp_path / "ds", "run"), 2,
                "3 points at level 0 lie in no neighbourhood")
    if case == "unreadable":
        return tiny_train_config(tmp_path, **{"data.dir": str(tmp_path / "nope")}), 3, "cannot load data: "
    if case == "target_entry":
        manifest = gen_dir(capsys, tmp_path / "ds", "cls")
        add_target_entry(manifest, "train_targets")
        return (dir_config(tmp_path, tmp_path / "ds", "cls", **{"data.classes": 3}), 3,
                f"cannot load data: {manifest}: entry 'train_targets/cloud_00000.pmc' is a reconstruction target, "
                "but the task is 'cls'")
    assert case == "resume"
    return (tiny_train_config(tmp_path, **{"train.resume": str(tmp_path / "none.pmix")}), 3,
            "cannot resume: ")


# --grid trains every cell from fresh weights and reads no train.resume
@pytest.mark.parametrize("case, grid", [
    (case, grid)
    for case in ("mismatch", "tokenmlp_inter", "too_small", "uncovered", "unreadable", "target_entry", "resume")
    for grid in (False, True)
    if not (grid and case == "resume")
])
def test_train_refused_run_creates_no_run_directory(tmp_path, capsys, case, grid):
    cfg_path, expected_code, message = refused_train_config(tmp_path, capsys, case)
    code, _, err = run_cli(capsys, "train", str(cfg_path), *(["--grid"] if grid else []))
    assert code == expected_code
    assert_one_line_error(err, message)
    assert not (tmp_path / "run").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow on the way to a non-finite loss
def test_train_diverged_run_keeps_its_config_echo(tmp_path, capsys):
    code, _, err = run_cli(capsys, "train", str(tiny_train_config(tmp_path, **{"train.lr": 1e300})))
    assert code == 4
    assert "training diverged" in err
    assert (tmp_path / "run" / "config.txt").exists()
    assert not (tmp_path / "run" / "model.pmix").exists()


@pytest.mark.parametrize("grid", [False, True])
def test_train_diverged_run_prints_one_line_and_no_numpy_warning(tmp_path, capsys, grid):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, "train", str(tiny_train_config(tmp_path, **{"train.lr": 1e300})),
                               *(["--grid"] if grid else []))
    assert code == 4
    assert caught == []  # numpy's overflow warnings would print before the one line
    assert_one_line_error(err, "training diverged")


def zero_spacing_target(path, kind):
    """Rewrite a target cloud so its nearest-neighbour spacing is 0: one
    repeated point, or the cloud at 1e-200, whose squared spacings underflow."""
    cloud = cloudio.read_cloud(path)
    pos = np.repeat(cloud.positions[:1], cloud.n, axis=0) if kind == "coincident" else cloud.positions * 1e-200
    cloudio.write_cloud(path, geom.PointCloud(pos, cloud.features, cloud.labels))


@pytest.mark.parametrize("kind", ["coincident", "tiny"])
def test_recon_target_with_zero_spacing_exits_3_in_one_line(tmp_path, capsys, kind):
    gen_dir(capsys, tmp_path / "ds", "recon")
    cfg_path = dir_config(tmp_path, tmp_path / "ds", "recon", **{"train.epochs": 0})
    assert run_cli(capsys, "train", str(cfg_path))[0] == 0
    zero_spacing_target(tmp_path / "ds" / "test_targets" / "cloud_00001.pmc", kind)
    message = "reconstruction target 1 of the split has zero nearest-neighbour spacing"
    code, out, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                             "--checkpoint", str(tmp_path / "run" / "model.pmix"), "--data", str(tmp_path / "ds"))
    assert code == 3
    assert_one_line_error(err, f"cannot evaluate: {message}")
    assert out == ""
    for grid in ([], ["--grid"]):  # refused before anything trains
        cfg_path = dir_config(tmp_path, tmp_path / "ds", "recon", **{"train.out": str(tmp_path / "refused")})
        code, out, err = run_cli(capsys, "train", str(cfg_path), *grid)
        assert code == 3
        assert_one_line_error(err, f"cannot load data: {message}")
        assert out == "" and not (tmp_path / "refused").exists()


DEGENERATE_CASES = ["uniform", "repeated", "coincident", "collinear", "coplanar", "two_k", "tiny", "huge"]


def degenerate_dataset(data_dir, case, task):
    """Two train clouds and one test cloud, each on ``degenerate_positions(case)``
    with its positions as features and, for recon, as its target."""
    pos = degenerate_positions(case)
    labels = {"cls": np.zeros(len(pos), dtype=np.int64), "seg": np.arange(len(pos)) % 2}.get(task)
    cloud = geom.PointCloud(pos, pos.copy(), labels)
    spec = tasks.DatasetSpec(task=task, classes=2, points=len(pos), train_clouds=2, test_clouds=1)
    recon = task == "recon"
    cloudio.write_dataset(data_dir, tasks.Dataset(spec, [cloud, cloud], [cloud],
                                                  [pos, pos] if recon else None, [pos] if recon else None))


@pytest.mark.parametrize("case", DEGENERATE_CASES)
def test_degenerate_clouds_through_train_and_eval_exit_with_one_line(tmp_path, capsys, case):
    for task, variant in itertools.product(["cls", "seg", "recon"], ["softmax", "maxpool"]):
        data_dir, name = tmp_path / f"{task}-data", f"{task}-{variant}"
        if not data_dir.exists():
            degenerate_dataset(data_dir, case, task)
        cfg_path = dir_config(tmp_path, data_dir, task, **{"train.out": str(tmp_path / name), "net.variant": variant,
                                                           "train.epochs": 1, "train.batch": 1})
        checkpoint = tmp_path / name / "model.pmix"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runs = [("train", *run_cli(capsys, "train", str(cfg_path)))]
            if checkpoint.exists():
                runs.append(("eval", *run_cli(capsys, "eval", "--config", str(cfg_path),
                                              "--checkpoint", str(checkpoint), "--data", str(data_dir))))
        numpy_warnings = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not numpy_warnings, (name, numpy_warnings)
        for command, code, _, err in runs:
            assert code in ((0, 2, 3, 4) if command == "train" else (0, 2, 3)), (name, command, err)
            if code:
                assert len(err.splitlines()) == 1 and "Traceback" not in err, (name, command, err)
            else:
                assert err == "", (name, command, err)
        if case == "uniform":
            assert [code for _, code, _, _ in runs] == [0, 0], name


def test_eval_on_a_seg_manifest_listing_a_target_exits_3(tmp_path, capsys):
    manifest = gen_dir(capsys, tmp_path / "ds", "seg")
    cfg_path = dir_config(tmp_path, tmp_path / "ds", "seg", **{"train.epochs": 0})
    assert run_cli(capsys, "train", str(cfg_path))[0] == 0
    add_target_entry(manifest, "test_targets")
    code, out, err = run_cli(capsys, "eval", "--config", str(cfg_path),
                             "--checkpoint", str(tmp_path / "run" / "model.pmix"), "--data", str(tmp_path / "ds"))
    assert code == 3
    assert_one_line_error(err, f"bad inputs: {manifest}: entry 'test_targets/cloud_00000.pmc' is a "
                               "reconstruction target, but the task is 'seg'")
    assert out == ""


# -- removed config keys: network widths, the step schedule and the SGD knobs ----------------


@pytest.mark.parametrize("key, default", [("net.expansion", 2), ("net.reduction", 4), ("net.pe_width", 0),
                                          ("train.schedule", "cosine"), ("train.milestones", "40,50"),
                                          ("train.factor", 0.1), ("train.momentum", 0.9),
                                          ("train.weight_decay", 0.0001)])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_removed_network_width_keys_exit_3(tmp_path, capsys, key, default, command):
    cfg_path, ckpt, data_dir = eval_fixture(tmp_path, capsys)
    named = tmp_path / "named.cfg"
    named.write_text(cfg_path.read_text().replace("evaltrain", "named") + f"{key} = {default}\n")
    argv = (["train", str(named)] if command == "train" else
            ["eval", "--config", str(named), "--checkpoint", str(ckpt), "--data", str(data_dir)])
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert_one_line_error(err, f"unknown key {key!r}")
    assert out == ""
    assert not (tmp_path / "named").exists()
