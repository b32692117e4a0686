"""Dataset CSV format and the binary checkpoint format.

CSV schema: header ``x_0,...,x_{d-1},y,e`` with finite decimal features
and non-negative integer class/env ids. Checkpoints are little-endian binary:
magic ``NWCK``, a u32 format version, the layer-dim list, each layer's
weight matrix and bias as float64, an optional linear probe (a one-layer
net: a u32 flag, its two dims, its weight and bias), then a
length-prefixed UTF-8 JSON metadata blob that ends the file.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import ContractError, FormatError, ParseError
from .featnet import FeatureNet

CHECKPOINT_MAGIC = b"NWCK"
CHECKPOINT_VERSION = 1


def _csv_header(d: int) -> str:
    return ",".join([f"x_{i}" for i in range(d)] + ["y", "e"])


def save_csv(ds: Dataset, path):
    columns = zip(ds.X.tolist(), ds.y.tolist(), ds.e.tolist())
    rows = (",".join(map(repr, x)) + f",{y},{e}" for x, y, e in columns)
    Path(path).write_text("\n".join([_csv_header(ds.input_dim), *rows]) + "\n", encoding="utf-8")


def load_csv(path) -> Dataset:
    """Parse a dataset CSV; errors carry the 1-based offending line.

    One ``np.loadtxt`` pass parses the body, the label columns as integers.
    Only a file that pass refuses, or whose features hold a ``nan`` or
    ``inf``, is scanned line by line (``_scan_csv``).
    """
    try:
        with open(path, encoding="utf-8") as f, warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty body only warns
            header = f.readline()
            d = header.count(",") - 1
            if d < 1 or header.rstrip("\n") != _csv_header(d):
                raise ValueError(f"unexpected header {header!r}")
            rows = np.loadtxt(f, delimiter=",", comments=None, ndmin=1,
                              dtype=[("x", "f8", (d,)), ("y", "i8"), ("e", "i8")])
        if np.isfinite(rows["x"]).all():
            return Dataset.from_arrays(rows["x"], rows["y"], rows["e"])
    except (ValueError, Warning, ContractError):
        pass
    return _scan_csv(path)


def read_utf8(path) -> str:
    """The text of a UTF-8 file; ParseError carrying the line (counted by
    ``\\n``) of the first byte that is not UTF-8."""
    blob = Path(path).read_bytes()
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"line {line} is not UTF-8: byte {blob[exc.start]:#04x}", line=line) from None


def _scan_csv(path) -> Dataset:
    lines = read_utf8(path).splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    d = lines[0].count(",") - 1
    if d < 1 or lines[0] != _csv_header(d):
        raise ParseError(f"header must be x_0,...,x_d-1,y,e; got {lines[0]!r}", line=1)
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        fields = raw.split(",")
        if len(fields) != d + 2:
            raise ParseError(f"expected {d + 2} fields, got {len(fields)}", line=lineno)
        try:
            x, y, e = [float(v) for v in fields[:d]], int(fields[d]), int(fields[d + 1])
        except ValueError as exc:
            raise ParseError(f"unparseable value: {exc}", line=lineno) from None
        if not all(map(math.isfinite, x)):
            raise ParseError(f"features must be finite, got {raw!r}", line=lineno)
        if y < 0 or e < 0:
            raise ParseError(f"y and e must be non-negative, got y={y}, e={e}", line=lineno)
        rows.append((x, y, e))
    if not rows:
        raise ParseError("no data rows", line=max(len(lines), 1))
    xs, ys, es = zip(*rows)
    return Dataset.from_arrays(np.array(xs, dtype=np.float64), ys, es)


def _write_array(out: bytearray, arr: np.ndarray):
    out.extend(arr.astype("<f8").tobytes())


def save_checkpoint(path, net: FeatureNet, probe: FeatureNet | None = None,
                    metadata: dict | None = None):
    """Write ``net`` and an optional probe, a one-layer net over the net's
    features; a probe of another shape raises ContractError and writes
    nothing."""
    if probe is not None and (len(probe.layer_dims) != 2 or probe.input_dim != net.feature_dim):
        raise ContractError(f"a probe is one layer over {net.feature_dim} features, got dims {probe.layer_dims}")
    out = bytearray()
    out.extend(CHECKPOINT_MAGIC)
    out.extend(struct.pack("<I", CHECKPOINT_VERSION))
    dims = net.layer_dims
    out.extend(struct.pack("<I", len(dims)))
    for dim in dims:
        out.extend(struct.pack("<I", dim))
    for w, b in zip(net.weights, net.biases):
        _write_array(out, w.data)
        _write_array(out, b.data)
    if probe is None:
        out.extend(struct.pack("<I", 0))
    else:
        out.extend(struct.pack("<I", 1))
        out.extend(struct.pack("<II", *probe.layer_dims))
        _write_array(out, probe.weights[0].data)
        _write_array(out, probe.biases[0].data)
    meta = json.dumps(metadata or {}, sort_keys=True).encode("utf-8")
    out.extend(struct.pack("<I", len(meta)))
    out.extend(meta)
    Path(path).write_bytes(bytes(out))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError(f"truncated checkpoint: wanted {n} bytes at offset {self.pos}")
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64_array(self, shape) -> np.ndarray:
        count = math.prod(shape)  # Python ints: np.prod wraps past 2**63
        arr = np.frombuffer(self.take(8 * count), dtype="<f8").astype(np.float64)
        return arr.reshape(shape)


def load_checkpoint(path) -> tuple[FeatureNet, FeatureNet | None, dict]:
    reader = _Reader(Path(path).read_bytes())
    if reader.take(4) != CHECKPOINT_MAGIC:
        raise FormatError("bad magic; not a checkpoint file")
    version = reader.u32()
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    n_dims = reader.u32()
    if n_dims < 2 or n_dims > 64:
        raise FormatError(f"implausible layer count {n_dims}")
    dims = [reader.u32() for _ in range(n_dims)]
    if 0 in dims:
        raise FormatError(f"layer dims must be positive, got {dims}")
    weights, biases = [], []
    for din, dout in zip(dims[:-1], dims[1:]):
        weights.append(reader.f64_array((din, dout)))
        biases.append(reader.f64_array((dout,)))
    net = FeatureNet.from_weights(dims, weights, biases)
    probe = None
    if reader.u32():
        fd, nc = reader.u32(), reader.u32()
        if fd != dims[-1] or nc < 2:
            raise FormatError(f"probe reads {fd} features into {nc} classes, the net gives {dims[-1]} features")
        probe = FeatureNet.from_weights([fd, nc], [reader.f64_array((fd, nc))], [reader.f64_array((nc,))])
    meta_len = reader.u32()
    try:
        metadata = json.loads(reader.take(meta_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"bad metadata blob: {exc}") from None
    if reader.pos != len(reader.blob):
        raise FormatError(f"{len(reader.blob) - reader.pos} bytes after the metadata blob")
    return net, probe, metadata
