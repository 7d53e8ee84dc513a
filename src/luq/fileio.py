"""File formats and model persistence.

Two little-endian binary containers: "LUQ1" matrix files (raw float64
feature matrices) and "LUQM" model files (typed, length-prefixed, CRC-32
checked sections holding an optional PCA, the density model, and the
output prior).  The section readers check the byte layout only.  The
constructors of the parts (``PcaModel``, ``CholeskyFactor``,
``GaussianComponent``, ``Gmm``, ``ClassConditionalGmm``, ``ConditionalFlow``
and the priors) check the values read: shapes, finite values, the coupling
partition.  ``ModelBundle`` owns the rules across parts: one density
section, a prior that fits it (categorical over the same classes for GMMs,
over outputs for a flow) and a PCA as wide as the density.  ``read_model``
reports their errors as ``DataFormatError``s naming the file and section.
Feature readers return plain (n, d) float64 arrays.  CSV is accepted as an
alternate feature input and is the output format for scores and metrics:
`.` decimal, LF line endings, 17 significant digits so every float64
round-trips exactly.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataFormatError, LuqError
from .gmm import ClassConditionalGmm, GaussianComponent, Gmm
from .linalg import CholeskyFactor, PcaModel
from .priors import (
    BetaPrimePrior,
    CategoricalPrior,
    HistogramPrior,
    OutputPrior,
    UniformPrior,
)

if TYPE_CHECKING:  # flow loads where a FLOW section is read, not for GMM models
    from .flow import ConditionalFlow, ReluNet

MATRIX_MAGIC = b"LUQ1"
MODEL_MAGIC = b"LUQM"
FORMAT_VERSION = 1

SECTION_PCA = b"PCA "
SECTION_GMMS = b"GMMS"
SECTION_FLOW = b"FLOW"
SECTION_PRIOR = b"PRIR"


def _truncated(name, at: int, needed: int, size: int) -> DataFormatError:
    return DataFormatError(f"{name}: truncated at byte offset {at} "
                           f"(needed {needed} more bytes, file has {size})")


class _Reader:
    """Cursor over bytes that reports the offset of any short read."""

    def __init__(self, data: bytes, name: str):
        self.data = data
        self.name = name
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise _truncated(self.name, self.pos, n, len(self.data))
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))


def _pack_array(a: np.ndarray) -> bytes:
    a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    parts = [struct.pack("<B", a.ndim)]
    for d in a.shape:
        parts.append(struct.pack("<I", d))
    parts.append(a.tobytes())
    return b"".join(parts)


def _unpack_array(r: _Reader) -> np.ndarray:
    (ndim,) = r.unpack("B")
    shape = tuple(r.unpack("I" * ndim)) if ndim else ()
    count = int(np.prod(shape)) if shape else 1
    raw = r.take(8 * count)
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


def write_matrix(path, data) -> None:
    """Write a feature matrix in the binary container."""
    arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"matrix file holds 2-D data, got shape {arr.shape}")
    rows, cols = arr.shape
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<HII", FORMAT_VERSION, rows, cols))
        fh.write(arr.tobytes())


def _matrix_from(fh, path) -> np.ndarray:
    """The array of the open container file ``fh`` whose magic is read.
    The sizes are checked against the file's before the payload is read,
    straight into the returned array."""
    size = os.fstat(fh.fileno()).st_size
    header = fh.read(10)
    if len(header) < 10:
        raise _truncated(path, 4, 10, size)
    version, rows, cols = struct.unpack("<HII", header)
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unrecognized version {version}")
    end = 14 + 8 * rows * cols
    if end > size:
        raise _truncated(path, 14, end - 14, size)
    if end < size:
        raise DataFormatError(f"{path}: {size - end} trailing bytes after payload "
                              f"(offset {end})")
    out = np.empty((rows, cols), dtype="<f8")
    if fh.readinto(out) != end - 14:
        raise _truncated(path, 14, end - 14, size)  # the file shrank while it was read
    return out


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, split as file iteration splits them
    (universal newlines); undecodable bytes are a data error naming the
    file."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text (byte offset {exc.start})") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _as_float(tok: str) -> float | None:
    try:
        return float(tok)
    except ValueError:
        return None


def _read_csv(path) -> tuple[list[str] | None, np.ndarray]:
    """The header (None if there is none) and the (rows, cols) float64 data
    of a CSV file.

    The first line is a header when none of its cells is a finite number
    and at least one is not a number at all.  Every row has the first
    line's cell count, and at least one data row follows the header.
    Errors name the file and the row, counting the first line as row 1.
    """
    path = Path(path)
    lines = [ln.strip() for ln in _read_lines(path) if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty CSV")
    first = lines[0].split(",")
    values = [_as_float(tok) for tok in first]
    is_header = None in values and not any(v is not None and np.isfinite(v) for v in values)
    header = [h.strip() for h in first] if is_header else None
    start = 0 if header is None else 1
    rows = []
    for i, line in enumerate(lines[start:], start=start + 1):
        toks = line.split(",")
        if len(toks) != len(first):
            raise DataFormatError(f"{path}: row {i} has {len(toks)} cells, expected {len(first)}")
        try:
            rows.append([float(tok) for tok in toks])
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {i}: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=np.float64)


def read_features(path) -> np.ndarray:
    """Read an (n, d) float64 feature array from either the binary container
    or a CSV file; a NaN or infinite entry is a data error naming the first
    data row holding one."""
    with open(path, "rb") as fh:
        x = _matrix_from(fh, Path(path)) if fh.read(4) == MATRIX_MAGIC else None
    if x is None:
        x = _read_csv(path)[1]
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise DataFormatError(
            f"{path}: data row {int(np.argmax(bad)) + 1} holds a NaN or infinite value"
        )
    return x


def read_values(path) -> np.ndarray:
    """Read a single column of values (predictions or labels)."""
    x = read_features(path)
    if x.shape[1] != 1:
        raise DataFormatError(f"{path}: expected a single column, found {x.shape[1]}")
    return x[:, 0]


# --- model file sections -------------------------------------------------


def _pack_pca(p: PcaModel) -> bytes:
    return (
        struct.pack("<B", int(p.whiten))
        + _pack_array(p.mean)
        + _pack_array(p.basis)
        + _pack_array(p.eigenvalues)
    )


def _unpack_pca(r: _Reader) -> PcaModel:
    (whiten,) = r.unpack("B")
    mean = _unpack_array(r)
    basis = _unpack_array(r)
    eig = _unpack_array(r)
    return PcaModel(mean=mean, basis=basis, eigenvalues=eig, whiten=bool(whiten))


def _pack_gmms(m: ClassConditionalGmm) -> bytes:
    parts = [struct.pack("<I", len(m.classes))]
    for c in m.classes:
        g = m.per_class[c]
        parts.append(struct.pack("<qII", c, len(g.components), g.dim))
        for comp in g.components:
            parts.append(struct.pack("<d", comp.log_weight))
            parts.append(_pack_array(comp.mean))
            parts.append(_pack_array(comp.cov_chol.lower))
    return b"".join(parts)


def _unpack_gmms(r: _Reader) -> ClassConditionalGmm:
    (n_classes,) = r.unpack("I")
    per_class = {}
    classes = []
    dim = None
    for _ in range(n_classes):
        c, n_comp, d = r.unpack("qII")
        comps = []
        for _ in range(n_comp):
            (log_w,) = r.unpack("d")
            mean = _unpack_array(r)
            lower = _unpack_array(r)
            comps.append(
                GaussianComponent(
                    log_weight=log_w, mean=mean,
                    cov_chol=CholeskyFactor(dim=d, lower=lower),
                )
            )
        classes.append(int(c))
        per_class[int(c)] = Gmm(dim=int(d), components=tuple(comps))
        dim = int(d)
    return ClassConditionalGmm(dim=dim, classes=tuple(classes), per_class=per_class)


def _pack_net(net: ReluNet) -> bytes:
    parts = [struct.pack("<B", len(net.weights))]
    for w, b in zip(net.weights, net.biases):
        parts.append(_pack_array(w))
        parts.append(_pack_array(b))
    if net.lift is not None:
        parts.append(_pack_array(net.lift))
    return b"".join(parts)


def _unpack_net(r: _Reader, lifted: bool) -> tuple:
    """The ``ReluNet`` arguments: weights, biases and the lift or None."""
    (n,) = r.unpack("B")
    weights, biases = [], []
    for _ in range(n):
        weights.append(_unpack_array(r))
        biases.append(_unpack_array(r))
    return weights, biases, _unpack_array(r) if lifted else None


def _pack_flow(f: ConditionalFlow) -> bytes:
    parts = [struct.pack("<III", f.dim, f.cond_dim, len(f.layers))]
    for layer in f.layers:
        parts.append(struct.pack("<d", layer.scale_clamp))
        for part in (layer.part1, layer.part2):
            parts.append(struct.pack("<I", part.size))
            parts.append(np.asarray(part, dtype="<u4").tobytes())
        for net in (layer.scale_net, layer.translate_net, layer.cond_net):
            parts.append(_pack_net(net))
    return b"".join(parts)


def _unpack_flow(r: _Reader) -> ConditionalFlow:
    from .flow import ConditionalFlow, CouplingLayer, ReluNet

    dim, cond_dim, n_layers = r.unpack("III")
    layers = []
    for _ in range(n_layers):
        (clamp,) = r.unpack("d")
        parts = []
        for _ in range(2):
            (size,) = r.unpack("I")
            raw = r.take(4 * size)
            parts.append(np.frombuffer(raw, dtype="<u4").astype(np.intp))
        scale, translate, cond = (ReluNet(*_unpack_net(r, lifted))
                                  for lifted in (True, True, False))
        layers.append(
            CouplingLayer(
                part1=parts[0], part2=parts[1], scale_net=scale,
                translate_net=translate, cond_net=cond, scale_clamp=float(clamp),
            )
        )
    return ConditionalFlow(dim=int(dim), cond_dim=int(cond_dim), layers=layers)


def _pack_prior(p: OutputPrior) -> bytes:
    if isinstance(p, CategoricalPrior):
        body = struct.pack("<I", len(p.classes))
        body += np.asarray(p.classes, dtype="<i8").tobytes()
        body += _pack_array(p.log_probs)
        return struct.pack("<B", 0) + body
    if isinstance(p, UniformPrior):
        return struct.pack("<Bdd", 1, p.lo, p.hi)
    if isinstance(p, BetaPrimePrior):
        return struct.pack("<Bdd", 2, p.alpha, p.beta)
    if isinstance(p, HistogramPrior):
        return struct.pack("<B", 3) + _pack_array(p.edges) + _pack_array(p.log_densities)
    raise TypeError(f"unknown prior type {type(p).__name__}")


def _unpack_prior(r: _Reader) -> OutputPrior:
    (kind,) = r.unpack("B")
    if kind == 0:
        (n,) = r.unpack("I")
        classes = tuple(int(c) for c in np.frombuffer(r.take(8 * n), dtype="<i8"))
        log_probs = _unpack_array(r)
        return CategoricalPrior(classes=classes, log_probs=log_probs)
    if kind == 1:
        lo, hi = r.unpack("dd")
        return UniformPrior(lo=lo, hi=hi)
    if kind == 2:
        a, b = r.unpack("dd")
        return BetaPrimePrior(alpha=a, beta=b)
    if kind == 3:
        edges = _unpack_array(r)
        log_d = _unpack_array(r)
        return HistogramPrior(edges=edges, log_densities=log_d)
    raise DataFormatError(f"{r.name}: unknown prior kind {kind}")


@dataclass
class ModelBundle:
    """Everything a scoring run needs: optional stored PCA, one density
    model (per-class GMMs or a conditional flow), and the output prior."""

    prior: OutputPrior
    class_gmms: ClassConditionalGmm | None = None
    flow: ConditionalFlow | None = None
    pca: PcaModel | None = None

    def __post_init__(self):
        found = (self.class_gmms is not None) + (self.flow is not None)
        if found != 1:
            raise ValueError(f"a model holds exactly one density section, GMMS or FLOW; "
                             f"found {found}")
        gmm = self.class_gmms is not None
        if isinstance(self.prior, CategoricalPrior) != gmm:
            raise ValueError(f"a {'gmm' if gmm else 'flow'} model cannot use a "
                             f"{type(self.prior).__name__}; gmm takes a categorical prior, "
                             "flow a prior over outputs")
        if gmm and set(self.prior.classes) != set(self.class_gmms.classes):
            raise ValueError(f"the prior's classes {sorted(self.prior.classes)} are not the "
                             f"density's {sorted(self.class_gmms.classes)}")
        if self.pca is not None and self.pca.out_dim != self.feature_dim:
            raise ValueError(f"the PCA gives {self.pca.out_dim} columns, the density "
                             f"takes {self.feature_dim}")

    @property
    def feature_dim(self) -> int:
        if self.class_gmms is not None:
            return self.class_gmms.dim
        return self.flow.dim


_UNPACK = {SECTION_PCA: _unpack_pca, SECTION_GMMS: _unpack_gmms, SECTION_FLOW: _unpack_flow,
           SECTION_PRIOR: _unpack_prior}


def write_model(path, bundle: ModelBundle) -> None:
    sections = []
    if bundle.pca is not None:
        sections.append((SECTION_PCA, _pack_pca(bundle.pca)))
    if bundle.class_gmms is not None:
        sections.append((SECTION_GMMS, _pack_gmms(bundle.class_gmms)))
    if bundle.flow is not None:
        sections.append((SECTION_FLOW, _pack_flow(bundle.flow)))
    sections.append((SECTION_PRIOR, _pack_prior(bundle.prior)))
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<HH", FORMAT_VERSION, len(sections)))
        for tag, payload in sections:
            fh.write(tag)
            fh.write(struct.pack("<QI", len(payload), zlib.crc32(payload)))
            fh.write(payload)


def read_model(path) -> ModelBundle:
    path = Path(path)
    r = _Reader(path.read_bytes(), str(path))
    magic = r.take(4)
    if magic != MODEL_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}, expected {MODEL_MAGIC!r}")
    version, n_sections = r.unpack("HH")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unrecognized version {version}")
    found = {}
    for _ in range(n_sections):
        tag = r.take(4)
        length, checksum = r.unpack("QI")
        at = r.pos
        payload = r.take(length)
        if zlib.crc32(payload) != checksum:
            raise DataFormatError(
                f"{path}: checksum mismatch in section {tag!r} at byte offset {at}"
            )
        if tag not in _UNPACK:
            raise DataFormatError(f"{path}: unknown section tag {tag!r}")
        sec = _Reader(payload, f"{path}[{tag.decode('latin-1').strip()}]")
        try:
            found[tag] = _UNPACK[tag](sec)
        except DataFormatError:
            raise
        except (ValueError, LuqError) as exc:  # values that pass the checksum but no constructor
            raise DataFormatError(f"{sec.name}: {exc}") from exc
    if r.pos != len(r.data):
        raise DataFormatError(
            f"{path}: {len(r.data) - r.pos} trailing bytes after the last section "
            f"(offset {r.pos})"
        )
    if SECTION_PRIOR not in found:
        raise DataFormatError(f"{path}: missing prior section")
    try:
        return ModelBundle(prior=found[SECTION_PRIOR], class_gmms=found.get(SECTION_GMMS),
                           flow=found.get(SECTION_FLOW), pca=found.get(SECTION_PCA))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


# --- text formats --------------------------------------------------------


def format_float(x: float) -> str:
    """17 significant digits: exact round-trip for any float64."""
    return f"{x:.17g}"


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """CSV with `.` decimals, LF endings, and round-trip-exact floats.

    Integer columns print as integers, every other column through
    ``format_float``; columns are formatted whole, one at a time.
    """
    cells = [list(map(str if col.dtype.kind in "iu" else format_float, col.tolist()))
             for col in map(np.asarray, columns)]
    lines = [",".join(header), *map(",".join, zip(*cells, strict=True))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_scores_csv(path, epistemic, aleatoric) -> None:
    index = np.arange(len(epistemic))
    write_csv(path, ["index", "epistemic_nats", "aleatoric_nats"],
              [index, np.asarray(epistemic), np.asarray(aleatoric)])


def read_csv_columns(path, required: list[str]) -> dict[str, np.ndarray]:
    """The columns of a CSV file with a header, by name; the ``required``
    names must be among them.  Cells may be NaN or infinite."""
    header, data = _read_csv(path)
    missing = [c for c in required if c not in (header or ())]
    if header is None or missing:
        raise DataFormatError(f"{path}: missing columns {missing}, "
                              f"found {header or 'no header'}")
    if len(set(header)) < len(header):
        raise DataFormatError(f"{path}: a column name repeats in {header}")
    return dict(zip(header, np.ascontiguousarray(data.T)))


# --- run configuration ---------------------------------------------------


def parse_config(path) -> list[tuple[int, str, str]]:
    """Parse `key = value` lines; returns (line number, key, value) tuples.

    Blank lines and `#` comments are skipped; malformed lines raise with
    their line number.
    """
    path = Path(path)
    out = []
    for i, raw in enumerate(_read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}: line {i}: expected `key = value`")
        key, value = line.split("=", 1)
        out.append((i, key.strip(), value.strip()))
    return out
