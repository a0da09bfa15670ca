"""Dataset loading and synthesis.

Sources:
  * IDX files (the MNIST family container: big-endian u32 magic and
    dimensions, u8 payload). Loading scales pixels to [0, 1]; writing
    undoes the scaling, so fixture round trips are byte-exact.
  * Gaussian noise images (N(0,1), 3x32x32, 10 random classes) for
    memorization experiments.
  * Two deterministic rendered corpora, synthetic-digits and
    synthetic-shapes: 28x28 single-channel glyphs with per-sample warp
    and noise. They stand in for MNIST-class data in environments where
    the real files are not present (see tools/fetch_mnist.py).

Label corruption shuffles a uniformly chosen fraction of labels by a
cyclic permutation within the chosen subset, preserving the label
multiset. Test labels are never corrupted.
"""

import functools
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, FormatError
from .rng import seeded_rng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class LabeledDataset:
    inputs: np.ndarray   # (N, features) or (N, c, h, w), float64
    labels: np.ndarray   # (N,) int64 in [0, classes)
    classes: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise DataError(f"{self.inputs.shape[0]} inputs vs {self.labels.shape[0]} labels")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.classes):
            raise DataError(f"labels must lie in [0, {self.classes})")
        frac = self.provenance.get("corruption_fraction", 0.0)
        if not 0.0 <= frac <= 0.5:
            raise DataError(f"corruption fraction {frac} outside [0, 0.5]")

    def __len__(self):
        return self.inputs.shape[0]

    def subset(self, indices, provenance_update=None):
        """The rows at indices: copies for an index array or range, views for a slice."""
        prov = dict(self.provenance)
        prov.update(provenance_update or {})
        return LabeledDataset(self.inputs[indices], self.labels[indices], self.classes, prov)


def _read_idx(path, expected_magic, expected_ndim):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise FormatError(f"{path}: too short for an IDX header")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic != expected_magic:
        raise FormatError(f"{path}: bad IDX magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
    ndim = magic & 0xFF
    if ndim != expected_ndim:
        raise FormatError(f"{path}: expected {expected_ndim} dimensions, header says {ndim}")
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise FormatError(f"{path}: truncated dimension table")
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    payload = raw[header_len:]
    expected = int(np.prod(dims))
    if len(payload) != expected:
        raise FormatError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx(images_path, labels_path):
    """Load an IDX image/label pair as a LabeledDataset.

    Pixels are scaled to [0, 1]; images become (N, 1, h, w).
    """
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if images.shape[0] != labels.shape[0]:
        raise FormatError(f"{images_path}: {images.shape[0]} images vs "
                          f"{labels.shape[0]} labels in {labels_path}")
    n, h, w = images.shape
    inputs = images.astype(np.float64).reshape(n, 1, h, w) / 255.0
    classes = max(10, int(labels.max()) + 1) if n else 10
    return LabeledDataset(inputs, labels.astype(np.int64), classes,
                          {"source": str(images_path)})


def write_idx(ds, images_path, labels_path):
    """Write a dataset of [0,1] single-channel images back to IDX files."""
    arr = ds.inputs
    if arr.ndim != 4 or arr.shape[1] != 1:
        raise DataError("write_idx needs (N, 1, h, w) inputs")
    n, _, h, w = arr.shape
    pixels = np.round(arr * 255.0).astype(np.uint8).reshape(n, h, w)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write(ds.labels.astype(np.uint8).tobytes())


def gaussian_noise_dataset(n, seed):
    """n standard-normal 3x32x32 images with uniform random labels (10 classes)."""
    if n < 1:
        raise DataError("gaussian_noise_dataset needs n >= 1")
    inputs = seeded_rng(seed, "data").standard_normal((n, 3, 32, 32))
    labels = seeded_rng(seed, "labels").integers(0, 10, size=n)
    return LabeledDataset(inputs, labels, 10,
                          {"source": "gaussian-noise", "seed": int(seed)})


def corrupt_labels(ds, fraction, seed):
    """Return ds with floor(fraction*N) labels cyclically shuffled.

    The participating indices are chosen uniformly without replacement;
    their labels rotate by one position along the chosen order, so the
    label multiset is preserved. fraction must lie in [0, 0.5]. Only the
    labels are copied: the result shares the inputs array of ds.
    """
    if not 0.0 <= fraction <= 0.5:
        raise DataError(f"corruption fraction {fraction} outside [0, 0.5]")
    n = len(ds)
    m = int(np.floor(fraction * n))
    labels = ds.labels.copy()
    if m >= 2:
        idx = seeded_rng(seed, "corruption").choice(n, size=m, replace=False)
        labels[idx] = labels[np.roll(idx, -1)]
    prov = dict(ds.provenance)
    prov.update({"corruption_fraction": float(fraction), "corruption_seed": int(seed)})
    return LabeledDataset(ds.inputs, labels, ds.classes, prov)


def split(ds, train_fraction, seed):
    """Deterministic shuffle-then-cut into (train, test)."""
    if not 0.0 < train_fraction < 1.0:
        raise DataError("train fraction must lie strictly between 0 and 1")
    n = len(ds)
    n_train = int(train_fraction * n)
    if n_train == 0 or n_train == n:
        raise DataError(f"train fraction {train_fraction} leaves an empty side for N={n}")
    perm = seeded_rng(seed, "split").permutation(n)
    return (ds.subset(perm[:n_train], {"split": "train", "split_seed": int(seed)}),
            ds.subset(perm[n_train:], {"split": "test", "split_seed": int(seed)}))


# ---------------------------------------------------------------------------
# Rendered synthetic corpora
# ---------------------------------------------------------------------------

_SIZE = 28


def _arc(cx, cy, rx, ry, a0, a1, steps=10):
    ang = np.linspace(a0, a1, steps)
    return np.column_stack([cx + rx * np.cos(ang), cy + ry * np.sin(ang)])


def _polyline_segments(points):
    pts = np.asarray(points, dtype=np.float64)
    return np.stack([pts[:-1], pts[1:]], axis=1)


def _dot(x, y):
    p = np.array([[x, y], [x, y]], dtype=np.float64)
    return p[None, :, :]


# Stroke skeletons, unit square coordinates (x right, y down).
def _digit_strokes():
    g = {}
    g[0] = [_polyline_segments(_arc(0.5, 0.5, 0.21, 0.30, 0, 2 * np.pi, 20))]
    g[1] = [_polyline_segments([(0.36, 0.32), (0.52, 0.18), (0.52, 0.82)])]
    g[2] = [_polyline_segments(np.vstack([_arc(0.5, 0.33, 0.19, 0.15, -np.pi, 0.35, 10),
                                          [(0.32, 0.82), (0.72, 0.82)]]))]
    g[3] = [_polyline_segments(_arc(0.47, 0.33, 0.18, 0.14, -np.pi * 0.8, np.pi * 0.5, 10)),
            _polyline_segments(_arc(0.47, 0.66, 0.20, 0.16, -np.pi * 0.5, np.pi * 0.8, 10))]
    g[4] = [_polyline_segments([(0.62, 0.18), (0.30, 0.62), (0.74, 0.62)]),
            _polyline_segments([(0.62, 0.40), (0.62, 0.84)])]
    g[5] = [_polyline_segments(np.vstack([[(0.68, 0.20), (0.36, 0.20), (0.34, 0.48)],
                                          _arc(0.48, 0.63, 0.17, 0.17, -np.pi * 0.6, np.pi * 0.75, 10)]))]
    g[6] = [_polyline_segments(np.vstack([[(0.62, 0.18), (0.42, 0.42)],
                                          _arc(0.50, 0.64, 0.16, 0.18, -np.pi * 1.1, np.pi, 14)]))]
    g[7] = [_polyline_segments([(0.30, 0.20), (0.70, 0.20), (0.44, 0.82)])]
    g[8] = [_polyline_segments(_arc(0.5, 0.34, 0.15, 0.14, 0, 2 * np.pi, 14)),
            _polyline_segments(_arc(0.5, 0.66, 0.18, 0.17, 0, 2 * np.pi, 14))]
    g[9] = [_polyline_segments(_arc(0.5, 0.36, 0.16, 0.16, 0, 2 * np.pi, 14)),
            _polyline_segments([(0.66, 0.38), (0.60, 0.82)])]
    return g


# Silhouette classes with bolder ink coverage than the digit strokes.
def _shape_strokes():
    g = {}
    g[0] = [(_dot(0.5, 0.5), 0.30)]
    g[1] = [(_polyline_segments(_arc(0.5, 0.5, 0.26, 0.26, 0, 2 * np.pi, 20)), 0.055)]
    g[2] = [(_polyline_segments([(0.20, 0.5), (0.80, 0.5)]), 0.16)]
    g[3] = [(_polyline_segments([(0.5, 0.20), (0.5, 0.80)]), 0.16)]
    g[4] = [(_polyline_segments([(0.25, 0.25), (0.75, 0.75)]), 0.08),
            (_polyline_segments([(0.75, 0.25), (0.25, 0.75)]), 0.08)]
    g[5] = [(_polyline_segments([(0.22, 0.5), (0.78, 0.5)]), 0.09),
            (_polyline_segments([(0.5, 0.22), (0.5, 0.78)]), 0.09)]
    g[6] = [(_polyline_segments([(0.5, 0.22), (0.78, 0.75), (0.22, 0.75), (0.5, 0.22)]), 0.06)]
    g[7] = [(_polyline_segments([(0.25, 0.25), (0.75, 0.25), (0.75, 0.75),
                                 (0.25, 0.75), (0.25, 0.25)]), 0.06)]
    g[8] = [(_dot(0.34, 0.35), 0.14), (_dot(0.66, 0.65), 0.14)]
    g[9] = [(_polyline_segments([(0.20, 0.35), (0.38, 0.68), (0.55, 0.32),
                                 (0.72, 0.68), (0.82, 0.40)]), 0.07)]
    return g


_GRID = np.stack(np.meshgrid((np.arange(_SIZE) + 0.5) / _SIZE,
                             (np.arange(_SIZE) + 0.5) / _SIZE,
                             indexing="xy"), axis=-1).reshape(-1, 2)


def _strokes_ink(strokes, m, aa=0.02):
    """Soft ink of m images: per pixel, the max over the image's segments of
    clip((thickness - distance to segment) / aa, 0, 1).

    strokes lists (image, warped segments, thickness). The expression is
    only evaluated on (segment, pixel) pairs whose pixel centre lies in the
    segment's bounding box widened by thickness + 1/28; outside it the
    distance exceeds the thickness and the ink is exactly 0. The operations
    on each pair are the dense per-pixel ones in the same order, so the
    result is bit-identical to evaluating every pixel.
    """
    image, segs, thickness = zip(*strokes)
    counts = [len(s) for s in segs]
    image = np.repeat(image, counts)
    thickness = np.repeat(thickness, counts)
    segs = np.concatenate(segs)
    p, q = segs[:, 0], segs[:, 1]
    d = q - p
    len2 = np.maximum(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1], 1e-12)
    # pixel c has its centre at (c + 0.5) / _SIZE; boxes err one pixel wide
    reach = (thickness + 1.0 / _SIZE)[:, None]
    first = np.clip(np.floor((np.minimum(p, q) - reach) * _SIZE - 0.5), 0, _SIZE).astype(np.intp)
    last = np.clip(np.ceil((np.maximum(p, q) + reach) * _SIZE - 0.5), -1, _SIZE - 1).astype(np.intp)
    extent = np.maximum(last - first + 1, 0)          # (columns, rows) per segment
    area = extent[:, 0] * extent[:, 1]
    seg = np.repeat(np.arange(len(segs)), area)
    offset = np.arange(len(seg)) - np.repeat(np.cumsum(area) - area, area)
    width = extent[seg, 0]
    pixel = (first[seg, 1] + offset // width) * _SIZE + first[seg, 0] + offset % width
    gx, gy = _GRID[pixel, 0], _GRID[pixel, 1]
    px, py, dx, dy = p[seg, 0], p[seg, 1], d[seg, 0], d[seg, 1]
    t = np.clip(((gx - px) * dx + (gy - py) * dy) / len2[seg], 0.0, 1.0)
    ex = gx - (px + t * dx)
    ey = gy - (py + t * dy)
    value = np.clip((thickness[seg] - np.sqrt(ex * ex + ey * ey)) / aa, 0.0, 1.0)
    ink = np.zeros((m, _SIZE * _SIZE))
    np.maximum.at(ink.reshape(-1), image[seg] * (_SIZE * _SIZE) + pixel, value)
    return ink


def _warp(segments, rot, scale, shear, shift):
    c, s = np.cos(rot), np.sin(rot)
    mat = np.array([[c, -s], [s, c]]) @ np.array([[1.0, shear], [0.0, 1.0]]) * scale
    centered = segments - 0.5
    return centered @ mat.T + 0.5 + shift


# Images per _strokes_ink call: bounds its per-pair temporaries to about 2 MB.
_CHUNK = 16


def _render_corpus(n, seed, stream, glyphs, default_thickness, source):
    rng = seeded_rng(seed, "data", counter=stream)
    labels = seeded_rng(seed, "labels", counter=stream).integers(0, 10, size=n)
    images = np.empty((n, 1, _SIZE, _SIZE))
    pixels = images.reshape(n, _SIZE * _SIZE)
    sigma = np.empty(n)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        strokes = []
        for i in range(start, stop):
            hardness = rng.uniform()          # drives both warp strength and noise
            rot = rng.uniform(-1, 1) * 0.45 * hardness
            scale = 1.0 + rng.uniform(-1, 1) * 0.18 * hardness
            shear = rng.uniform(-1, 1) * 0.35 * hardness
            shift = rng.uniform(-0.07, 0.07, size=2)
            sigma[i] = 0.02 + 0.28 * hardness
            for entry in glyphs[labels[i]]:
                if isinstance(entry, tuple):
                    segs, thickness = entry
                else:
                    segs, thickness = entry, default_thickness * rng.uniform(0.8, 1.25)
                strokes.append((i - start, _warp(segs, rot, scale, shear, shift), thickness))
            rng.standard_normal(out=pixels[i])      # the noise, drawn in place
        chunk = pixels[start:stop]
        chunk *= sigma[start:stop, None]
        chunk += _strokes_ink(strokes, stop - start)
        np.clip(chunk, 0.0, 1.0, out=chunk)
        chunk *= 255.0
        np.round(chunk, out=chunk)
        chunk /= 255.0
    return LabeledDataset(images, labels, 10,
                          {"source": source, "seed": int(seed), "stream": int(stream)})


_CORPORA = {"synthetic-digits": (_digit_strokes, 0.045),
            "synthetic-shapes": (_shape_strokes, 0.07)}


# A suite's cells differ only in training labels, so each corpus is rendered
# once per process. Four entries hold a train and a test stream of two corpora.
@functools.lru_cache(maxsize=4)
def _cached_corpus(source, n, seed, stream):
    strokes, thickness = _CORPORA[source]
    ds = _render_corpus(n, seed, stream, strokes(), thickness, source)
    ds.inputs.flags.writeable = False
    ds.labels.flags.writeable = False
    return ds


def _synthetic(source, n, seed, stream):
    if n < 1:
        raise DataError(f"{source} needs n >= 1")
    ds = _cached_corpus(source, int(n), int(seed), int(stream))
    return LabeledDataset(ds.inputs, ds.labels, ds.classes, dict(ds.provenance))


def synthetic_digits(n, seed, stream=0):
    """Deterministic 28x28 rendered-digit corpus (10 classes).

    Per-sample warp strength and pixel noise share one hardness draw, so
    higher-entropy samples are also the harder ones, as with natural
    handwriting. stream picks a disjoint sample stream for the same seed
    (0 = train, 1 = test by convention). Corpora are memoised per process;
    the returned arrays are read-only.
    """
    return _synthetic("synthetic-digits", n, seed, stream)


def synthetic_shapes(n, seed, stream=0):
    """Deterministic 28x28 silhouette corpus (10 classes), bolder ink
    coverage than synthetic_digits. Memoised and read-only like
    synthetic_digits."""
    return _synthetic("synthetic-shapes", n, seed, stream)
