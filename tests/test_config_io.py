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
    with pytest.raises(config.ConfigError):
        config.validate(config.parse("train.schedule = linear"))
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
