import struct

import numpy as np
import pytest

from nwlearn import Rng
from nwlearn.data import Dataset, LabeledExample
from nwlearn.errors import ContractError, FormatError, ParseError
from nwlearn.featnet import FeatureNet, linear_head
from nwlearn.io import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, load_checkpoint, load_csv, save_checkpoint, save_csv
from nwlearn.scmgen import spurious_benchmark


def small_dataset(n=6, dim=3, seed=0):
    gen = np.random.default_rng(seed)
    return Dataset([
        LabeledExample(x=gen.normal(size=dim), y=int(i % 2), e=int(i % 3))
        for i in range(n)
    ])


def test_csv_round_trip(tmp_path):
    ds = small_dataset()
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert len(back) == len(ds)
    assert (back.y == ds.y).all()
    assert (back.e == ds.e).all()
    assert np.abs(back.X - ds.X).max() == 0.0  # repr round-trips float64 exactly


def test_two_row_file(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("x_0,x_1,y,e\n0.5,1.5,0,0\n-2.0,0.25,1,1\n")
    ds = load_csv(path)
    assert len(ds) == 2
    assert ds.X.tolist() == [[0.5, 1.5], [-2.0, 0.25]]


def test_short_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x_0,x_1,y,e\n0.5,1.5,0,0\n1.0,1,0\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert exc.value.line == 3


def test_unparseable_value_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x_0,y,e\noops,0,0\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert exc.value.line == 2


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,y,e\n1,2,0,0\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert exc.value.line == 1


def _row_by_row_csv(ds):
    """The CSV text written one example at a time."""
    d = ds.input_dim
    lines = [",".join([f"x_{i}" for i in range(d)] + ["y", "e"])]
    for ex in ds.examples:
        lines.append(",".join([repr(float(v)) for v in ex.x] + [str(int(ex.y)), str(int(ex.e))]))
    return "\n".join(lines) + "\n"


def test_save_csv_matches_a_row_by_row_writer(tmp_path):
    train, _, _ = spurious_benchmark(True, Rng(3), n_train=300, n_val=30, n_test=30)
    path = tmp_path / "train.csv"
    save_csv(train, path)
    assert path.read_bytes() == _row_by_row_csv(train).encode("utf-8")


def test_csv_round_trips_extreme_floats_exactly(tmp_path):
    x = np.array([[-0.0, 5e-324], [1.7976931348623157e308, -1.7976931348623157e308], [0.1, -2.5e-308]])
    ds = Dataset.from_arrays(x, [0, 1, 0], [0, 2, 1])
    path = tmp_path / "edge.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert back.X.tobytes() == x.tobytes()  # -0.0 keeps its sign
    assert back.y.tolist() == [0, 1, 0] and back.e.tolist() == [0, 2, 1]


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("x_0,x_1,y,e\n\n0.5,1.5,0,0\n\n-2.0,0.25,1,1\n   \n")
    ds = load_csv(path)
    assert ds.X.tolist() == [[0.5, 1.5], [-2.0, 0.25]]
    assert ds.y.tolist() == [0, 1] and ds.e.tolist() == [0, 1]


@pytest.mark.parametrize("body, line", [
    ("0.5,1.5,0,0\n\n1.0,1,0\n", 4),          # short row
    ("0.5,1.5,0,0\n0.5,1.5,0,0,\n", 3),        # long row
    ("0.5,1.5,0,0\n0.5,1.5x,1,0\n", 3),        # bad float
    ("0.5,1.5,0,0\n0.5,2.5,1.5,0\n", 3),       # fractional label
    ("0.5,1.5,1.0,0\n", 2),                     # label written as a float
    ("0.5,1.5,0,0\n0.5,1.5,1,0\n1,1,0,-1\n", 4),  # negative environment
    ("0.5,1.5,0,0#note\n", 2),                  # '#' is no comment marker
    ("0.5,1.5,0,0\n0.5,nan,1,0\n", 3),          # non-finite features
    ("0.5,1.5,0,0\n-inf,1.5,1,0\n", 3),
    ("0.5,1.5,0,0\n0.5,1.5,1,0\n1e999,0,1,1\n", 4),
    ("inf,1.5,0,0\n0.5,1.5,0,0,\n", 2),        # ... before a row that loadtxt refuses
])
def test_parse_errors_report_their_line(tmp_path, body, line):
    path = tmp_path / "bad.csv"
    path.write_text("x_0,x_1,y,e\n" + body)
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert exc.value.line == line


@pytest.mark.parametrize("blob, line", [
    (b"x_0,x_1,y,e\n0.5,1.5,0,0\n0.5,1\xff.5,1,0\n", 3),
    (b"x_0,x_\xff1,y,e\n0.5,1.5,0,0\n", 1),
], ids=["row", "header"])
def test_a_csv_that_is_not_utf8_reports_the_line_of_its_first_bad_byte(tmp_path, blob, line):
    path = tmp_path / "bad.csv"
    path.write_bytes(blob)
    with pytest.raises(ParseError, match="not UTF-8") as exc:
        load_csv(path)
    assert exc.value.line == line


@pytest.mark.parametrize("text, line", [("", 1), ("x_0,y,e\n", 1), ("x_0,y,e\n\n\n", 3)])
def test_empty_files_are_rejected(tmp_path, text, line):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert exc.value.line == line


def test_checkpoint_round_trip(tmp_path):
    net = FeatureNet((4, 8, 3), Rng(1))
    probe = linear_head(3, 2)
    probe.weights[0].data = np.random.default_rng(2).normal(size=(3, 2))
    meta = {"seed": 7, "variant": "nw_implicit", "epoch": 3}
    path = tmp_path / "model.nwck"
    save_checkpoint(path, net, probe=probe, metadata=meta)
    net2, probe2, meta2 = load_checkpoint(path)
    assert net2.layer_dims == net.layer_dims
    for a, b in zip(net.weights, net2.weights):
        assert (a.data == b.data).all()
    for a, b in zip(net.biases, net2.biases):
        assert (a.data == b.data).all()
    assert (probe2.weights[0].data == probe.weights[0].data).all()
    assert meta2 == meta


@pytest.mark.parametrize("probe_dims", [(5, 2), (3, 4, 2), (2, 2)])
def test_checkpoint_with_a_probe_that_does_not_fit_the_net_is_not_written(tmp_path, probe_dims):
    path = tmp_path / "model.nwck"
    with pytest.raises(ContractError, match="probe"):
        save_checkpoint(path, FeatureNet((4, 8, 3), Rng(1)), probe=FeatureNet(probe_dims, Rng(2)))
    assert not path.exists()


def test_checkpoint_without_probe(tmp_path):
    net = FeatureNet((2, 3), Rng(3))
    path = tmp_path / "model.nwck"
    save_checkpoint(path, net)
    _, probe, meta = load_checkpoint(path)
    assert probe is None
    assert meta == {}


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.nwck"
    path.write_bytes(b"WXYZ" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    net = FeatureNet((4, 8, 3), Rng(1))
    path = tmp_path / "model.nwck"
    save_checkpoint(path, net)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_wrong_version_rejected(tmp_path):
    net = FeatureNet((2, 2), Rng(0))
    path = tmp_path / "model.nwck"
    save_checkpoint(path, net)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_with_a_zero_width_layer_rejected(tmp_path):
    # dims (16, 0): a (16, 0) weight and a (0,) bias hold no bytes
    path = tmp_path / "zero.nwck"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IIII", CHECKPOINT_VERSION, 2, 16, 0)
                     + struct.pack("<II", 0, 2) + b"{}")
    with pytest.raises(FormatError, match="layer dims"):
        load_checkpoint(path)


def _checkpoint_blob(dims, probe_dims=None, meta=b"{}"):
    """A checkpoint written by hand: zero weights, an optional probe of
    (feature_dim, n_classes), then the length-prefixed metadata."""
    blob = CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(dims))
    blob += struct.pack(f"<{len(dims)}I", *dims)
    for din, dout in zip(dims[:-1], dims[1:]):
        blob += bytes(8 * (din * dout + dout))
    if probe_dims is None:
        blob += struct.pack("<I", 0)
    else:
        fd, nc = probe_dims
        blob += struct.pack("<III", 1, fd, nc) + bytes(8 * (fd * nc + nc))
    return blob + struct.pack("<I", len(meta)) + meta


def test_hand_built_checkpoint_loads(tmp_path):
    path = tmp_path / "model.nwck"
    path.write_bytes(_checkpoint_blob((4, 3), probe_dims=(3, 2), meta=b'{"seed": 1}'))
    net, probe, meta = load_checkpoint(path)
    assert net.layer_dims == [4, 3]
    assert probe.layer_dims == [3, 2]
    assert meta == {"seed": 1}


@pytest.mark.parametrize("fd", [2, 4])
def test_checkpoint_whose_probe_does_not_fit_the_net_rejected(tmp_path, fd):
    path = tmp_path / "model.nwck"
    path.write_bytes(_checkpoint_blob((4, 3), probe_dims=(fd, 2)))
    with pytest.raises(FormatError, match="probe"):
        load_checkpoint(path)


@pytest.mark.parametrize("nc", [0, 1])
def test_checkpoint_whose_probe_has_fewer_than_two_classes_rejected(tmp_path, nc):
    path = tmp_path / "model.nwck"
    path.write_bytes(_checkpoint_blob((4, 3), probe_dims=(3, nc)))
    with pytest.raises(FormatError, match="probe"):
        load_checkpoint(path)


@pytest.mark.parametrize("tail", [b"\x00", b"{}", b"\x00" * 64])
def test_checkpoint_with_bytes_after_the_metadata_rejected(tmp_path, tail):
    path = tmp_path / "model.nwck"
    path.write_bytes(_checkpoint_blob((4, 3), probe_dims=(3, 2)) + tail)
    with pytest.raises(FormatError, match="after the metadata"):
        load_checkpoint(path)


@pytest.mark.parametrize("dims", [(4, 0), (0, 3), (4, 0, 3)])
def test_checkpoint_with_a_zero_layer_dim_is_a_format_error(tmp_path, dims):
    path = tmp_path / "model.nwck"
    path.write_bytes(_checkpoint_blob(dims))
    with pytest.raises(FormatError, match="layer dims"):
        load_checkpoint(path)


def test_checkpoint_whose_dims_multiply_past_2_63_is_truncated(tmp_path):
    # (2**32 - 1)**2 weights: a count that np.prod would wrap in int64
    path = tmp_path / "huge.nwck"
    path.write_bytes(_checkpoint_blob((4, 3))[:12] + struct.pack("<II", 2**32 - 1, 2**32 - 1) + bytes(64))
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)
