"""Per-video input handling, and the JSON-lines format of every stage file.

Every stage file holds one JSON object per line, written by :func:`write_records`:

* regions:    ``{"id": int, "frame": int, "feature": [float...], "area": int,
  "bbox": [x, y, w, h]}`` (bbox optional)
* detections: ``{"frame": int, "bbox": [x, y, w, h], "class": int,
  "confidence": float}``
* ground truth / labelings: ``{"id": int, "class": int}``; ``infer
  --summary`` appends one ``{"energy": float, "sweeps": int}`` record
* hypotheses: ``{"class": int, "seed_confidence": float, "entries":
  [{"frame": int, "bbox": [x, y, w, h], "source": "det" | "trk"}...]}``
* links / scores, one per class pair (:func:`dump_class_pairs`):
  ``{"m": int, "n": int, "links": [[i, j]...]}`` / ``"scores": [[i, j, s]...]``

In memory a class pair's links or scores, and the graph's matrices, are a
:class:`SparseMatrix`.

Floats are written with Python's shortest round-trip repr (>= 9 significant
digits), so a load -> save -> load cycle reproduces features bitwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

Box = tuple[float, float, float, float]


class IngestError(ValueError):
    """Raised for malformed or inconsistent input files."""


@dataclass(eq=False)
class Region:
    """Atomic labeling unit: one segment of one frame with a feature vector."""

    region_id: int
    frame: int
    feature: np.ndarray
    area: int
    bbox: Optional[Box] = None


@dataclass(frozen=True)
class Detection:
    frame: int
    bbox: Box
    class_id: int
    confidence: float


class VideoSequence:
    """Immutable, validated container for one video's regions and detections.

    Regions are ordered by ascending ``region_id``; the position of a region
    in that order is its vertex index for every matrix built downstream.
    """

    def __init__(self, regions: Sequence[Region], detections: Sequence[Detection],
                 frame_count: Optional[int] = None):
        regions = sorted(regions, key=lambda r: r.region_id)
        seen: set[int] = set()
        for r in regions:
            if r.region_id in seen:
                raise IngestError(f"duplicate region id {r.region_id}")
            seen.add(r.region_id)
            if r.region_id < 0:
                raise IngestError(f"negative region id {r.region_id}")
            if r.area <= 0:
                raise IngestError(f"region {r.region_id}: area must be positive")
            if r.bbox is not None and (r.bbox[2] <= 0 or r.bbox[3] <= 0):
                raise IngestError(f"region {r.region_id}: bbox extents must be positive")

        d = regions[0].feature.shape[0] if regions else 0
        for r in regions:
            if r.feature.shape != (d,):
                raise IngestError(
                    f"region {r.region_id}: feature dimension {r.feature.shape[0]} != {d}")

        max_frame = max(
            [r.frame for r in regions] + [d.frame for d in detections],
            default=-1)
        if frame_count is None:
            frame_count = max_frame + 1
        if frame_count <= 0:
            raise IngestError("sequence must span at least one frame")
        if max_frame >= frame_count:
            raise IngestError(
                f"frame index {max_frame} out of range for frame_count {frame_count}")
        for obj in list(regions) + list(detections):
            if obj.frame < 0:
                raise IngestError("negative frame index")

        if any(d.class_id < 0 for d in detections):
            raise IngestError("negative detection class")
        for det in detections:
            if not (0.0 <= det.confidence <= 1.0):
                raise IngestError(f"detection confidence {det.confidence} not in [0,1]")
            if det.bbox[2] <= 0 or det.bbox[3] <= 0:
                raise IngestError("detection bbox extents must be positive")

        self.regions: list[Region] = list(regions)
        self.detections: list[Detection] = list(detections)
        self.frame_count = frame_count
        self._index = {r.region_id: i for i, r in enumerate(self.regions)}

    @property
    def n(self) -> int:
        return len(self.regions)

    def index_of(self, region_id: int) -> int:
        """Vertex index of a region id."""
        try:
            return self._index[region_id]
        except KeyError:
            raise KeyError(f"unknown region id {region_id}") from None

    def region(self, region_id: int) -> Region:
        return self.regions[self.index_of(region_id)]

    def feature_matrix(self) -> np.ndarray:
        """Stacked (n, d) feature matrix in vertex order."""
        if not self.regions:
            return np.zeros((0, 0))
        return np.stack([r.feature for r in self.regions])


def normalize_feature(raw: np.ndarray) -> np.ndarray:
    """L2-normalize a feature; all-zero vectors are kept as they are.

    Vectors already unit within 1e-9 pass through untouched so that a
    save/load cycle is bitwise idempotent.
    """
    nrm = float(np.linalg.norm(raw))
    if nrm == 0.0 or abs(nrm - 1.0) < 1e-9:
        return raw
    return raw / nrm


# what converting a record's fields can raise: a missing key, a wrong type,
# a bad literal, or int() of an Infinity
FIELD_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


def _ints(where: str, rec, *keys: str) -> list[int]:
    """The fields ``keys`` of the record at ``where``, each a nonnegative integer.

    An integral float reads as its int. A missing field, a fraction, a
    non-finite or negative number, a boolean or a string raises IngestError.
    """
    out = []
    for key in keys:
        value = rec.get(key)
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if not isinstance(value, int) or isinstance(value, bool):
            raise IngestError(f"{where}: missing or invalid field "
                              f"({key} must be an integer, got {value!r})")
        if value < 0:
            raise IngestError(f"{where}: negative {key} {value}")
        out.append(value)
    return out


def _iter_records(path):
    """Yield ``("file:line", record)`` for each non-blank line of a stage file."""
    # a byte that is not UTF-8 decodes to a lone surrogate, so its line can be named
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise IngestError(f"{where}: not UTF-8 (byte 0x{byte:02x} "
                                      f"at column {exc.start + 1})") from None
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError(f"{where}: malformed JSON ({exc.msg})") from None
            if not isinstance(rec, dict):
                raise IngestError(f"{where}: record is not an object")
            yield where, rec


def write_records(path, records) -> None:
    """Write a stage file: one ``json.dumps`` line per record."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


@dataclass(eq=False)
class SparseMatrix:
    """A float matrix kept as its stored entries, sorted by (row, col).

    Each position is stored at most once; a stored entry may hold 0.0. This
    is the layout of SciPy's canonical CSR matrix, and every product or sum
    over it elsewhere in the package rounds as the ``scipy.sparse`` one does.
    """

    row: np.ndarray     # (nnz,) int, nondecreasing
    col: np.ndarray     # (nnz,) int, increasing within a row
    data: np.ndarray    # (nnz,) float
    shape: tuple[int, int]

    @classmethod
    def from_entries(cls, row, col, data, shape) -> "SparseMatrix":
        """Entries in any order; a position given twice raises ValueError."""
        row, col = np.asarray(row, dtype=np.intp), np.asarray(col, dtype=np.intp)
        data = np.asarray(data, dtype=float)
        order = np.lexsort((col, row))
        row, col, data = row[order], col[order], data[order]
        repeats = np.flatnonzero((row[1:] == row[:-1]) & (col[1:] == col[:-1]))
        if repeats.size:
            i = repeats[0]
            raise ValueError(f"position ({row[i]}, {col[i]}) repeats an earlier entry")
        return cls(row, col, data, (int(shape[0]), int(shape[1])))

    @classmethod
    def from_dense(cls, a) -> "SparseMatrix":
        """The nonzero entries of a 2-D array."""
        a = np.asarray(a, dtype=float)
        row, col = np.nonzero(a)
        return cls(row, col, a[row, col], a.shape)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.row, self.col] += self.data  # a stored -0.0 reads 0.0, as in SciPy
        return out


def dump_class_pairs(matrices: Mapping[tuple[int, int], SparseMatrix], path,
                     key: str, width: int) -> None:
    """One record ``{"m":, "n":, key: [[i, j(, v)]...]}`` per class pair.

    Pairs and entries are sorted; a ``width`` of 3 also writes the values.
    """
    def records():
        for (m, n) in sorted(matrices):
            M = matrices[(m, n)]
            columns = [c.tolist() for c in (M.row, M.col, M.data)[:width]]
            yield {"m": m, "n": n, key: list(zip(*columns))}
    write_records(path, records())


def load_class_pairs(path, key: str, n: int, width: int
                     ) -> dict[tuple[int, int], SparseMatrix]:
    """Read :func:`dump_class_pairs` records back as sorted ``{(m, n): matrix}``.

    Entries of ``width`` 2 read as 1.0. A missing field, a class that is not
    a nonnegative integer, a class pair read before, a non-finite value, an
    index that is not an integer in [0, n), or a position (i, j) given twice
    raises :class:`IngestError` at its file:line.
    """
    out = {}
    for where, rec in _iter_records(path):
        pair = tuple(_ints(where, rec, "m", "n"))
        try:
            entries = np.array(rec[key], dtype=float)
            if entries.size and entries.shape[1:] != (width,):
                raise ValueError(f"{key} rows must hold {width} numbers")
        except FIELD_ERRORS as exc:
            raise IngestError(f"{where}: missing or invalid field ({exc})") from None
        entries = entries.reshape(-1, width)
        if not np.isfinite(entries).all():
            raise IngestError(f"{where}: {key} hold a non-finite value")
        index = entries[:, :2]
        bad = index[index != np.floor(index)]
        if bad.size:
            raise IngestError(f"{where}: region index {bad[0]} is not an integer")
        bad = index[(index < 0) | (index >= n)]
        if bad.size:
            raise IngestError(f"{where}: region index {int(bad[0])} out of range [0, {n})")
        if pair in out:
            raise IngestError(f"{where}: class pair {pair} repeats an earlier record")
        values = entries[:, 2] if width > 2 else np.ones(len(index))
        try:
            out[pair] = SparseMatrix.from_entries(index[:, 0], index[:, 1], values, (n, n))
        except ValueError as exc:
            raise IngestError(f"{where}: {exc}") from None
    return dict(sorted(out.items()))


def _parse_box(raw, where: str) -> Box:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise IngestError(f"{where}: bbox must be [x, y, w, h]")
    try:
        box = (float(raw[0]), float(raw[1]), float(raw[2]), float(raw[3]))
    except FIELD_ERRORS as exc:
        raise IngestError(f"{where}: invalid bbox ({exc})") from None
    if not all(math.isfinite(v) for v in box):
        raise IngestError(f"{where}: bbox holds a non-finite value")
    return box


def load_sequence(regions_path, detections_path=None) -> VideoSequence:
    """Load and validate a sequence from JSON-lines files.

    Features are L2-normalized; all-zero features are admitted as they are.
    Raises :class:`IngestError` with the offending file
    and line number on malformed input.
    """
    regions: list[Region] = []
    dim: Optional[int] = None
    for where, rec in _iter_records(regions_path):
        rid, frame, area = _ints(where, rec, "id", "frame", "area")
        try:
            feat = np.asarray(rec["feature"], dtype=np.float64)
        except FIELD_ERRORS as exc:
            raise IngestError(f"{where}: missing or invalid field ({exc})") from None
        if feat.ndim != 1 or feat.size == 0:
            raise IngestError(f"{where}: feature must be a non-empty flat list")
        if not np.isfinite(feat).all():
            raise IngestError(f"{where}: feature holds a non-finite value")
        if dim is None:
            dim = feat.size
        elif feat.size != dim:
            raise IngestError(
                f"{where}: feature dimension {feat.size} != {dim} "
                f"(set by first record)")
        bbox = _parse_box(rec["bbox"], where) if rec.get("bbox") is not None else None
        regions.append(Region(rid, frame, normalize_feature(feat), area, bbox))
    if not regions:
        raise IngestError(f"{regions_path}: no region records")

    detections: list[Detection] = []
    if detections_path is not None:
        for where, rec in _iter_records(detections_path):
            bbox = _parse_box(rec.get("bbox"), where)
            frame, class_id = _ints(where, rec, "frame", "class")
            try:
                det = Detection(frame, bbox, class_id, float(rec["confidence"]))
            except FIELD_ERRORS as exc:
                raise IngestError(f"{where}: missing or invalid field ({exc})") from None
            if not math.isfinite(det.confidence):
                raise IngestError(f"{where}: confidence is not finite")
            detections.append(det)

    return VideoSequence(regions, detections)


def save_sequence(seq: VideoSequence, regions_path, detections_path=None) -> None:
    """Write a sequence back to the JSON-lines formats accepted by load."""
    def region_records():
        for r in seq.regions:
            rec = {"id": r.region_id, "frame": r.frame,
                   "feature": [float(x) for x in r.feature], "area": r.area}
            if r.bbox is not None:
                rec["bbox"] = [float(v) for v in r.bbox]
            yield rec
    write_records(regions_path, region_records())
    if detections_path is not None:
        write_records(detections_path, (
            {"frame": d.frame, "bbox": [float(v) for v in d.bbox],
             "class": d.class_id, "confidence": float(d.confidence)}
            for d in seq.detections))


def filter_detections(seq: VideoSequence, det_threshold: float) -> list[Detection]:
    """Detections with confidence strictly exceeding the threshold, order kept."""
    if not (0.0 <= det_threshold <= 1.0):
        raise ValueError(f"det_threshold {det_threshold} not in [0,1]")
    return [d for d in seq.detections if d.confidence > det_threshold]


def load_ground_truth(path, seq: VideoSequence) -> dict[int, int]:
    """Load a region_id -> class map: each id a region of ``seq``, each class >= 0.

    No upper class bound: a class that no detection has still loads."""
    out: dict[int, int] = {}
    for where, rec in _iter_records(path):
        rid, cls = _ints(where, rec, "id", "class")
        if rid not in seq._index:
            raise IngestError(f"{where}: unknown region id {rid}")
        out[rid] = cls
    return out


def load_labeling(path, seq: Optional[VideoSequence] = None) -> dict[int, int]:
    """Load a labeling file, skipping summary records (no id and no class).

    Classes must be >= 0; given ``seq``, every id must name one of its regions.
    """
    out: dict[int, int] = {}
    for where, rec in _iter_records(path):
        if "id" not in rec and "class" not in rec:
            continue
        rid, cls = _ints(where, rec, "id", "class")
        if seq is not None and rid not in seq._index:
            raise IngestError(f"{where}: unknown region id {rid}")
        out[rid] = cls
    return out


def save_labeling(labels: Mapping[int, int], path, summary: Optional[dict] = None) -> None:
    """Write region labels as JSON lines, optionally followed by a summary record."""
    records = [{"id": int(rid), "class": int(labels[rid])} for rid in sorted(labels)]
    write_records(path, records if summary is None else records + [summary])
