import re

import numpy as np
import pytest

from pointmixer import cloudio, config, tasks
from pointmixer.geom import PointCloud


# -- config -------------------------------------------------------------------


def test_defaults_cover_every_key():
    cfg = config.defaults()
    assert set(cfg.values) == set(config.SCHEMA)
    assert cfg["net.k"] == 16
    assert cfg["net.widths"] == (32, 64, 128, 256)
    assert cfg["train.batch"] == 2


def test_parse_overrides_and_comments():
    cfg = config.parse("""
# run settings
data.task = seg     # parts
data.classes = 2
train.lr = 0.075
net.use_hier = false
net.widths = 8,16
""")
    assert cfg["data.task"] == "seg"
    assert cfg["train.lr"] == 0.075
    assert cfg["net.use_hier"] is False
    assert cfg["net.widths"] == (8, 16)
    assert cfg["train.momentum"] == 0.9  # untouched default


def test_parse_rejects_unknown_and_duplicate_keys():
    with pytest.raises(config.ConfigError):
        config.parse("data.tasks = cls")
    with pytest.raises(config.ConfigError):
        config.parse("data.seed = 1\ndata.seed = 2")
    with pytest.raises(config.ConfigError):
        config.parse("just some words")
    with pytest.raises(config.ConfigError):
        config.parse("net.k = not_an_int")


def test_render_parse_roundtrip():
    cfg = config.parse("train.lr = 0.12345678901234567\nnet.ratios = 1.0,0.33\ndata.noise = 0.001")
    again = config.parse(config.render(cfg))
    assert again == cfg


def test_validate_cross_field_rules():
    with pytest.raises(config.ConfigError):
        config.validate(config.parse("net.widths = 8,16\nnet.blocks = 1"))
    with pytest.raises(config.ConfigError):
        config.validate(config.parse("data.task = foo"))
    config.validate(config.defaults())


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    cfg = config.defaults().with_overrides(train__lr=0.25)
    config.dump(cfg, path)
    assert config.load(path) == cfg


# -- cloud files ----------------------------------------------------------------


def test_cloud_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.normal(size=(17, 3)), rng.normal(size=(17, 5)),
                       labels=rng.integers(0, 4, 17))
    path = tmp_path / "c.pmc"
    cloudio.write_cloud(path, cloud)
    back = cloudio.read_cloud(path)
    assert np.array_equal(back.positions, cloud.positions)
    assert np.array_equal(back.features, cloud.features)
    assert np.array_equal(back.labels, cloud.labels)


def test_cloud_without_labels_or_features(tmp_path):
    cloud = PointCloud(np.random.default_rng(1).normal(size=(5, 3)), np.zeros((5, 0)))
    path = tmp_path / "bare.pmc"
    cloudio.write_cloud(path, cloud)
    back = cloudio.read_cloud(path)
    assert back.labels is None
    assert back.channels == 0
    assert np.array_equal(back.positions, cloud.positions)


def test_cloud_header_and_count_validation(tmp_path):
    path = tmp_path / "bad.pmc"
    path.write_text("nope 1 0 0\n0 0 0\n")
    with pytest.raises(ValueError):
        cloudio.read_cloud(path)
    path.write_text("pmcloud 2 0 0\n0 0 0\n")  # missing a point
    with pytest.raises(ValueError):
        cloudio.read_cloud(path)
    path.write_text("pmcloud 1 0 0\n0 0 0\n1 1 1\n")  # trailing data
    with pytest.raises(ValueError):
        cloudio.read_cloud(path)


def test_cloud_rejects_text_after_blank_lines_past_the_points(tmp_path):
    path = tmp_path / "tail.pmc"
    path.write_text("pmcloud 2 0 0\n0 0 0\n1 1 1\n\nextra\n")
    with pytest.raises(ValueError, match="trailing data after 2 points"):
        cloudio.read_cloud(path)
    path.write_text("pmcloud 2 0 0\n0 0 0\n1 1 1\n \n\t\n")  # blank lines and spaces still read
    assert cloudio.read_cloud(path).n == 2


def test_cloud_with_a_trailing_newline_reads(tmp_path):
    path = tmp_path / "newline.pmc"
    path.write_text("pmcloud 2 0 1\n0 0 0 1\n1 1 1 0\n")
    cloud = cloudio.read_cloud(path)
    assert cloud.positions.tolist() == [[0, 0, 0], [1, 1, 1]] and cloud.labels.tolist() == [1, 0]


def test_cloud_fields_are_counted_per_line(tmp_path):
    path = tmp_path / "shifted.pmc"
    # right total of fields, wrong split between lines 2 and 3
    path.write_text("pmcloud 3 1 1\n0 0 0 1.5\n1 1 1 2.5 1 0\n2 2 2 3.5 1\n")
    with pytest.raises(ValueError, match="line 2 has 4 fields, expected 5"):
        cloudio.read_cloud(path)
    path.write_text("pmcloud 2 0 1\n0 0 0 1\n1 1 1 1.0\n")  # labels convert with int()
    with pytest.raises(ValueError, match="invalid literal for int"):
        cloudio.read_cloud(path)


def test_cloud_reader_is_exact_and_names_bad_lines_past_the_first_chunk(tmp_path):
    rng = np.random.default_rng(2)
    n = 3 * cloudio._CHUNK + 5
    cloud = PointCloud(rng.normal(size=(n, 3)) * 1e-3, rng.normal(size=(n, 2)), rng.integers(0, 4, n))
    path = tmp_path / "long.pmc"
    cloudio.write_cloud(path, cloud)
    back = cloudio.read_cloud(path)
    for a, b in ((back.positions, cloud.positions), (back.features, cloud.features), (back.labels, cloud.labels)):
        assert np.array_equal(a, b)
    lines = path.read_text().splitlines()
    lines[n - 1] += " 7"  # one field too many on the second to last point
    lines[n] = lines[n].rsplit(" ", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line {n} has 7 fields, expected 6"):
        cloudio.read_cloud(path)


def test_cloud_header_count_is_bounded_by_the_file_size(tmp_path):
    path = tmp_path / "huge.pmc"
    path.write_text("pmcloud 1000000000000 0 0\n0 0 0\n")
    with pytest.raises(ValueError, match="more than the file holds"):
        cloudio.read_cloud(path)
    path.write_text("pmcloud 1 1000000000000 0\n0 0 0\n")  # an absurd channel count
    with pytest.raises(ValueError, match="more than the file holds"):
        cloudio.read_cloud(path)
    path.write_text("pmcloud 2 0 1\n0 0 0 1\n1 1 1 0")  # the tightest file still reads
    assert cloudio.read_cloud(path).labels.tolist() == [1, 0]


@pytest.mark.parametrize("header", ["pmcloud 2x 0 0", "pmcloud 2 zero 0", "pmcloud 2 0 1.0"])
def test_cloud_header_number_that_does_not_parse_names_the_file(tmp_path, header):
    path = tmp_path / "bad.pmc"
    path.write_text(f"{header}\n0 0 0\n1 1 1\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: malformed header$"):
        cloudio.read_cloud(path)


def test_dataset_directory_roundtrip(tmp_path):
    spec = tasks.DatasetSpec(task="seg", classes=2, points=32, train_clouds=3,
                             test_clouds=2, seed=5)
    ds = tasks.gen_dataset(spec)
    out = tmp_path / "ds"
    cloudio.write_dataset(out, ds)
    back = cloudio.read_dataset(out)
    assert back.spec.task == "seg"
    assert len(back.train) == 3 and len(back.test) == 2
    for a, b in zip(ds.train, back.train):
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


def test_recon_dataset_directory_keeps_targets(tmp_path):
    spec = tasks.DatasetSpec(task="recon", points=32, train_clouds=2, test_clouds=1, seed=6)
    ds = tasks.gen_dataset(spec)
    out = tmp_path / "ds"
    cloudio.write_dataset(out, ds)
    back = cloudio.read_dataset(out)
    assert len(back.train_targets) == 2
    for a, b in zip(ds.train_targets, back.train_targets):
        assert np.array_equal(a, b)


def _per_value_cloud_text(cloud) -> str:
    """A cloud file as one ``%.17g`` call per value writes it."""
    has_labels = 1 if cloud.labels is not None else 0
    lines = [f"pmcloud {cloud.n} {cloud.channels} {has_labels}"]
    for i in range(cloud.n):
        row = " ".join("%.17g" % v for v in cloud.positions[i])
        if cloud.channels:
            row += " " + " ".join("%.17g" % v for v in cloud.features[i])
        if has_labels:
            row += f" {int(cloud.labels[i])}"
        lines.append(row)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("channels,labels", [(0, False), (0, True), (3, False), (4, True)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_write_cloud_bytes_equal_the_per_value_formatter(tmp_path, channels, labels, dtype):
    rng = np.random.default_rng(70 + channels)
    pos = rng.normal(size=(9, 3)) * 10.0 ** rng.integers(-5, 5, (9, 3))
    if dtype == np.float64:
        pos[0] = [-0.0, 5e-324, 1e300]
        pos[1] = [-1e-300, 0.0, 1.0 / 3.0]
    else:
        pos[0] = [-0.0, 1e-45, 3e38]
    feats = rng.normal(size=(9, channels))
    if channels:
        feats[2, 0] = -0.0
    cloud = PointCloud(pos.astype(dtype), feats.astype(dtype),
                       rng.integers(0, 99999, 9) if labels else None)
    path = tmp_path / "c.pmc"
    cloudio.write_cloud(path, cloud)
    assert path.read_text(encoding="ascii") == _per_value_cloud_text(cloud)


def test_read_dataset_rejects_clouds_of_another_channel_count(tmp_path):
    spec = tasks.DatasetSpec(task="seg", classes=2, points=32, train_clouds=2, test_clouds=1, seed=0)
    cloudio.write_dataset(tmp_path, tasks.gen_dataset(spec))
    odd = tmp_path / "test" / "cloud_00000.pmc"
    back = cloudio.read_cloud(odd)
    cloudio.write_cloud(odd, PointCloud(back.positions, back.features[:, :3], back.labels))
    with pytest.raises(ValueError, match="3 feature channels, but .*cloud_00000.pmc has 6"):
        cloudio.read_dataset(tmp_path)
    recon = tmp_path / "recon"  # targets carry no features, and are not compared
    cloudio.write_dataset(recon, tasks.gen_dataset(tasks.DatasetSpec(task="recon", points=32, train_clouds=2,
                                                                     test_clouds=1, seed=0)))
    assert cloudio.read_dataset(recon).train[0].channels == 3


def _recon_dir(tmp_path):
    spec = tasks.DatasetSpec(task="recon", points=32, train_clouds=2, test_clouds=2, seed=0)
    cloudio.write_dataset(tmp_path, tasks.gen_dataset(spec))
    return tmp_path / "manifest.txt"


def _drop_manifest_entry(manifest, entry):
    lines = manifest.read_text().splitlines()
    lines.remove(entry)
    manifest.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("split", ["train", "test"])
def test_read_dataset_rejects_a_missing_target(tmp_path, split):
    manifest = _recon_dir(tmp_path)
    _drop_manifest_entry(manifest, f"{split}_targets/cloud_00001.pmc")
    with pytest.raises(ValueError, match=rf"manifest.txt: 1 {split}_targets for 2 {split} clouds"):
        cloudio.read_dataset(tmp_path)


def test_read_dataset_rejects_an_unknown_task(tmp_path):
    manifest = _recon_dir(tmp_path)
    manifest.write_text(manifest.read_text().replace("pmdataset recon ", "pmdataset foo ", 1))
    with pytest.raises(ValueError, match=r"manifest.txt: unknown task 'foo'"):
        cloudio.read_dataset(tmp_path)


@pytest.mark.parametrize("task", ["cls", "seg"])
@pytest.mark.parametrize("split", ["train_targets", "test_targets"])
def test_read_dataset_rejects_target_entries_outside_recon(tmp_path, task, split):
    spec = tasks.DatasetSpec(task=task, classes=2, points=32, train_clouds=2, test_clouds=1, seed=0)
    cloudio.write_dataset(tmp_path, tasks.gen_dataset(spec))
    (tmp_path / split).mkdir()
    (tmp_path / split / "cloud_00000.pmc").write_text((tmp_path / "train" / "cloud_00000.pmc").read_text())
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(manifest.read_text() + f"{split}/cloud_00000.pmc\n")
    with pytest.raises(ValueError, match=rf"manifest.txt: entry '{split}/cloud_00000.pmc' is a reconstruction "
                                         rf"target, but the task is '{task}'"):
        cloudio.read_dataset(tmp_path)


@pytest.mark.parametrize("field, bad", [(2, "two"), (3, "64x"), (4, "0.02.1"), (5, "0.5")])
def test_read_dataset_manifest_number_that_does_not_parse_names_the_file(tmp_path, field, bad):
    manifest = _recon_dir(tmp_path)
    lines = manifest.read_text().splitlines()
    header = lines[0].split()
    header[field] = bad
    manifest.write_text("\n".join([" ".join(header)] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(manifest))}: malformed header$"):
        cloudio.read_dataset(tmp_path)
