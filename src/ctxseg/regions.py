"""Per-video input handling, and the JSON-lines format of every stage file.

Every stage file holds one JSON object per line, written by :func:`write_records`,
or, when it ends in a list of rows (graph edges, links, scores), by
:func:`write_rows` a block of ``WRITE_ROWS`` rows at a time:

* regions:    ``{"id": int, "frame": int, "feature": [float...], "area": int,
  "bbox": [x, y, w, h]}`` (bbox optional)
* detections: ``{"frame": int, "bbox": [x, y, w, h], "class": int,
  "confidence": float}``
* ground truth / labelings: ``{"id": int, "class": int}``, one per id; ``infer
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
from itertools import chain
from typing import Mapping, Optional, Sequence

import numpy as np

Box = tuple[float, float, float, float]

WRITE_ROWS = 4096    # rows per block of a stage file's row list


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


def _check_region(r: Region, seen: set[int], dim: int, at: str = "") -> None:
    """Refuse an id in ``seen`` (then add it) or negative, an area, a bbox extent or
    the bbox's w * h <= 0, or a feature not ``dim`` long. A loader passes ``at``,
    "file:line: "."""
    if r.region_id in seen:
        raise IngestError(f"{at}duplicate region id {r.region_id}")
    seen.add(r.region_id)
    if r.region_id < 0:
        raise IngestError(f"{at}negative region id {r.region_id}")
    if r.area <= 0:
        raise IngestError(f"{at}region {r.region_id}: area must be positive")
    if r.bbox is not None and (r.bbox[2] <= 0 or r.bbox[3] <= 0):
        raise IngestError(f"{at}region {r.region_id}: bbox extents must be positive")
    if r.bbox is not None and not r.bbox[2] * r.bbox[3] > 0:  # w * h may underflow
        raise IngestError(f"{at}region {r.region_id}: bbox area must be positive")
    if r.feature.shape != (dim,):
        got = r.feature.shape[0] if r.feature.ndim == 1 else r.feature.shape
        raise IngestError(f"{at}region {r.region_id}: feature dimension {got} != {dim}")


def _check_detection(d: Detection, at: str = "") -> None:
    """Refuse a negative class, a confidence outside [0, 1] or a bbox extent <= 0."""
    if d.class_id < 0:
        raise IngestError(f"{at}negative detection class")
    if not (0.0 <= d.confidence <= 1.0):
        raise IngestError(f"{at}detection confidence {d.confidence} not in [0,1]")
    if d.bbox[2] <= 0 or d.bbox[3] <= 0:
        raise IngestError(f"{at}detection bbox extents must be positive")


class VideoSequence:
    """Immutable, validated container for one video's regions and detections.

    Regions are ordered by ascending ``region_id``; the position of a region
    in that order is its vertex index for every matrix built downstream. It
    spans frame 0 to the last frame a region or detection names (``frame_count``).
    """

    def __init__(self, regions: Sequence[Region], detections: Sequence[Detection]):
        regions = sorted(regions, key=lambda r: r.region_id)
        seen: set[int] = set()
        dim = regions[0].feature.size if regions else 0
        for r in regions:
            _check_region(r, seen, dim)

        frames = [r.frame for r in regions] + [d.frame for d in detections]
        self.frame_count = max(frames, default=-1) + 1
        if self.frame_count <= 0:
            raise IngestError("sequence must span at least one frame")
        if min(frames, default=0) < 0:
            raise IngestError("negative frame index")

        for det in detections:
            _check_detection(det)

        self.regions: list[Region] = list(regions)
        self.detections: list[Detection] = list(detections)
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


# One reader per kind of value in a stage file: _int for an integer, _float
# for a number; _ints, _floats and _entries read many of them at once.

def _int(where: str, key: str, value) -> int:
    """A nonnegative int; an integral float reads as its int. Anything else
    (missing, a fraction, non-finite, negative, a boolean, a string) raises."""
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise IngestError(f"{where}: missing or invalid field "
                          f"({key} must be an integer, got {value!r})")
    if value < 0:
        raise IngestError(f"{where}: negative {key} {value}")
    return value


def _ints(where: str, rec, *keys: str) -> list[int]:
    return [_int(where, key, rec.get(key)) for key in keys]


def _float(where: str, key: str, value) -> float:
    """An int or a float, never a boolean, a string or null, and finite (an
    int past the largest float is not)."""
    if type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
    if type(value) is not float:
        raise IngestError(f"{where}: missing or invalid field "
                          f"({key}: {value!r} is not a number)")
    if value - value != 0.0:  # inf - inf and nan - nan are nan
        raise IngestError(f"{where}: {key} holds a non-finite value")
    return value


def _floats(where: str, key: str, values, size: Optional[int] = None) -> list[float]:
    """A list of ``size`` numbers (one or more if None), each by :func:`_float`;
    a list of finite floats, as the writers produce, is returned as it is."""
    if type(values) is not list or (len(values) != size if size else not values):
        raise IngestError(f"{where}: missing or invalid field "
                          f"({key} must be a list of {size or 'one or more'} numbers)")
    for v in values:
        if type(v) is not float or v - v != 0.0:
            return [_float(where, key, v) for v in values]
    return values


def _entries(where: str, key: str, rows, n: int, width: int) -> np.ndarray:
    """Rows ``[i, j]`` or ``[i, j, v]`` as a (rows, width) float array: i and j
    by :func:`_int` and in [0, n), v by :func:`_float`. A whole-array screen
    passes what the writers produce; else each leaf is read by its rule."""
    if type(rows) is not list:
        raise IngestError(f"{where}: missing or invalid field ({key} must be a list)")
    try:
        a = np.array(rows, dtype=float).reshape(len(rows), width)
        index = a[:, :2]
        if (set(map(type, chain.from_iterable(rows))) <= {int, float} and np.isfinite(a).all()
                and (index == np.floor(index)).all() and ((index >= 0) & (index < n)).all()):
            return a
    except (TypeError, ValueError, OverflowError):  # a row not a list, or of another width
        pass
    out = []
    for row in rows:
        if type(row) is not list or len(row) != width:
            raise IngestError(f"{where}: missing or invalid field "
                              f"({key} rows must hold {width} numbers, got {row!r})")
        ij = [_int(where, "region index", v) for v in row[:2]]
        if max(ij) >= n:
            raise IngestError(f"{where}: region index {max(ij)} out of range [0, {n})")
        out.append(ij + [_float(where, key, v) for v in row[2:]])
    return np.array(out, dtype=float).reshape(len(rows), width)


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
            except ValueError as exc:  # JSONDecodeError, or an int past Python's digit limit
                msg = getattr(exc, "msg", exc)
                raise IngestError(f"{where}: malformed JSON ({msg})") from None
            if not isinstance(rec, dict):
                raise IngestError(f"{where}: record is not an object")
            yield where, rec


def write_records(path, records) -> None:
    """Write a stage file: one ``json.dumps`` line per record."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def write_rows(fh, head: dict, key: str, columns: Sequence[np.ndarray]) -> None:
    """Write the line ``json.dumps({**head, key: rows}) + "\n"``, where row r is
    ``[c[r] for c in columns]``, one block of ``WRITE_ROWS`` rows at a time, so
    no more than a block of rows is ever held as Python objects."""
    doc = json.dumps({**head, key: []})  # ends in "[]}"
    fh.write(doc[:-2])
    for start in range(0, len(columns[0]), WRITE_ROWS):
        block = zip(*(c[start:start + WRITE_ROWS].tolist() for c in columns))
        fh.write((", " if start else "") + json.dumps(list(block))[1:-1])
    fh.write(doc[-2:] + "\n")


@dataclass(eq=False)
class SparseMatrix:
    """A float matrix kept as its stored entries, sorted by (row, col).

    Each position is stored at most once; a stored entry may hold 0.0. This
    is the layout of SciPy's canonical CSR matrix, and every product or sum
    over it elsewhere in the package rounds as the ``scipy.sparse`` one does.
    Build one from entries in any order with :meth:`from_entries`, or from a
    dense array with :meth:`from_dense`, whose ``eps`` prunes what it gathers.
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
        M = cls(row[order], col[order], data[order], (int(shape[0]), int(shape[1])))
        M.refuse_repeats()
        return M

    def refuse_repeats(self) -> None:
        """ValueError naming the first position stored twice (next to its twin)."""
        twice = np.flatnonzero((self.row[1:] == self.row[:-1]) & (self.col[1:] == self.col[:-1]))
        if twice.size:
            i = twice[0]
            raise ValueError(f"position ({self.row[i]}, {self.col[i]}) repeats an earlier entry")

    @classmethod
    def from_dense(cls, a, eps: Optional[float] = None) -> "SparseMatrix":
        """The nonzero entries of a 2-D array (NaN kept, -0.0 not), none below ``eps``."""
        a = np.asarray(a, dtype=float)
        keep = a != 0.0
        if eps is not None:
            keep &= ~(a < eps)
        row, col = np.nonzero(keep)
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
    with open(path, "w", encoding="utf-8") as fh:
        for (m, n) in sorted(matrices):
            M = matrices[(m, n)]
            write_rows(fh, {"m": m, "n": n}, key, (M.row, M.col, M.data)[:width])


def load_class_pairs(path, key: str, n: int, width: int
                     ) -> dict[tuple[int, int], SparseMatrix]:
    """Read :func:`dump_class_pairs` records back as sorted ``{(m, n): matrix}``;
    entries of ``width`` 2 read as 1.0. A class or row that :func:`_ints` or
    :func:`_entries` refuse, a class pair read before, or a position (i, j)
    given twice raises :class:`IngestError` at its file:line."""
    out = {}
    for where, rec in _iter_records(path):
        pair = tuple(_ints(where, rec, "m", "n"))
        entries = _entries(where, key, rec.get(key), n, width)
        if pair in out:
            raise IngestError(f"{where}: class pair {pair} repeats an earlier record")
        values = entries[:, 2] if width > 2 else np.ones(len(entries))
        try:
            out[pair] = SparseMatrix.from_entries(entries[:, 0], entries[:, 1], values, (n, n))
        except ValueError as exc:
            raise IngestError(f"{where}: {exc}") from None
    return dict(sorted(out.items()))


def load_sequence(regions_path, detections_path=None) -> VideoSequence:
    """Load and validate a sequence from JSON-lines files.

    Features are kept as written, as an in-memory sequence keeps them, so a
    save/load cycle reproduces them bitwise. Raises :class:`IngestError` at
    the offending file:line.
    """
    regions: list[Region] = []
    seen: set[int] = set()
    for where, rec in _iter_records(regions_path):
        rid, frame, area = _ints(where, rec, "id", "frame", "area")
        feat = np.array(_floats(where, "feature", rec.get("feature")), dtype=float)
        box = rec.get("bbox")
        region = Region(rid, frame, feat, area,
                        None if box is None else tuple(_floats(where, "bbox", box, 4)))
        _check_region(region, seen, regions[0].feature.size if regions else feat.size,
                      f"{where}: ")
        regions.append(region)
    if not regions:
        raise IngestError(f"{regions_path}: no region records")

    detections: list[Detection] = []
    if detections_path is not None:
        for where, rec in _iter_records(detections_path):
            bbox = tuple(_floats(where, "bbox", rec.get("bbox"), 4))
            frame, class_id = _ints(where, rec, "frame", "class")
            det = Detection(frame, bbox, class_id,
                            _float(where, "confidence", rec.get("confidence")))
            _check_detection(det, f"{where}: ")
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


def filter_detections(seq: VideoSequence, det_threshold: float = 0.5) -> list[Detection]:
    """Detections with confidence strictly exceeding the threshold, order kept."""
    if not (0.0 <= det_threshold <= 1.0):
        raise ValueError(f"det_threshold {det_threshold} not in [0,1]")
    return [d for d in seq.detections if d.confidence > det_threshold]


def _region_classes(records, seq: Optional[VideoSequence]) -> dict[int, int]:
    """A region_id -> class map from ``(where, record)`` pairs: each class >= 0, no
    id twice, and given ``seq`` each id one of its regions."""
    out: dict[int, int] = {}
    for where, rec in records:
        rid, cls = _ints(where, rec, "id", "class")
        if seq is not None and rid not in seq._index:
            raise IngestError(f"{where}: unknown region id {rid}")
        if rid in out:
            raise IngestError(f"{where}: region id {rid} repeats an earlier record")
        out[rid] = cls
    return out


def load_ground_truth(path, seq: VideoSequence) -> dict[int, int]:
    """Load a region_id -> class map: each id a region of ``seq``, once; each class >= 0.

    No upper class bound: a class that no detection has still loads."""
    return _region_classes(_iter_records(path), seq)


def load_labeling(path, seq: Optional[VideoSequence] = None) -> dict[int, int]:
    """Load a labeling file, skipping summary records (keys among ``energy`` and
    ``sweeps``); the rest load as ground truth does, checked against ``seq`` if given."""
    return _region_classes(((where, rec) for where, rec in _iter_records(path)
                            if not (rec and rec.keys() <= {"energy", "sweeps"})), seq)


def save_labeling(labels: Mapping[int, int], path, summary: Optional[dict] = None) -> None:
    """Write region labels as JSON lines, optionally followed by a summary record."""
    records = ({"id": int(rid), "class": int(labels[rid])} for rid in sorted(labels))
    write_records(path, records if summary is None else chain(records, [summary]))
