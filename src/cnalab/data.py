"""Dataset loading and synthesis.

Sources:
  * IDX files (the MNIST family container: big-endian u32 magic and
    dimensions, u8 payload). Loading keeps the payload as 8-bit codes;
    writing stores codes unchanged, so fixture round trips are byte-exact.
  * Gaussian noise images (N(0,1), 3x32x32, 10 random classes) for
    memorization experiments.
  * Two deterministic rendered corpora, synthetic-digits and
    synthetic-shapes: 28x28 single-channel glyphs with per-sample warp
    and noise. They stand in for MNIST-class data in environments where
    the real files are not present (see tools/fetch_mnist.py).

Label corruption shuffles a uniformly chosen fraction of labels by a
cyclic permutation within the chosen subset, preserving the label
multiset. Test labels are never corrupted.

8-bit images (IDX files and the rendered corpora) are kept as one
read-only uint8 array of codes: code k stands for the pixel k / 255, and
decode() is the one place that division is made. Any engine function reads
a uint8 array as codes, decoded by the layer walk (nn._walk) and the
entropy estimator alone; any other array holds float64 pixels.
"""

import functools
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, FormatError
from .rng import seeded_rng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def as_inputs(x):
    """x as the engine takes inputs: a uint8 array of codes as it is, anything
    else as float64 (the array itself when it already is)."""
    x = np.asarray(x)
    return x if x.dtype == np.uint8 else x.astype(np.float64, copy=False)


def decode(x):
    """The float64 pixels of x: codes / 255.0 for uint8 codes (the division that
    loading and rendering have always made, so the same bits), else x itself."""
    return x / 255.0 if x.dtype == np.uint8 else x


@dataclass
class LabeledDataset:
    """Inputs, labels and provenance of one dataset. pixels holds the inputs
    as stored, float64 or read-only uint8 codes; the engine decodes only the
    rows it reads. inputs is the float64 array for callers: pixels itself, or
    a fresh decode of the codes on each read."""

    pixels: np.ndarray   # (N, features) or (N, c, h, w): float64, or uint8 codes
    labels: np.ndarray   # (N,) int64 in [0, classes)
    classes: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.pixels = as_inputs(self.pixels)
        if self.pixels.dtype == np.uint8:
            self.pixels.flags.writeable = False
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.pixels.shape[0] != self.labels.shape[0]:
            raise DataError(f"{self.pixels.shape[0]} inputs vs {self.labels.shape[0]} labels")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.classes):
            raise DataError(f"labels must lie in [0, {self.classes})")
        frac = self.provenance.get("corruption_fraction", 0.0)
        if not 0.0 <= frac <= 0.5:
            raise DataError(f"corruption fraction {frac} outside [0, 0.5]")

    def __len__(self):
        return self.pixels.shape[0]

    @property
    def inputs(self):
        """The inputs as a float64 array (see the class docstring)."""
        return decode(self.pixels)

    def rows(self, indices):
        """The float64 inputs at indices, decoding only those rows: bitwise inputs[indices]."""
        return decode(self.pixels[indices])

    def subset(self, indices, provenance_update=None):
        """The rows at indices: copies for an index array or range, views for a slice."""
        prov = dict(self.provenance)
        prov.update(provenance_update or {})
        return LabeledDataset(self.pixels[indices], self.labels[indices], self.classes, prov)


def _read_idx(path, expected_magic):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise FormatError(f"{path}: too short for an IDX header")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic != expected_magic:
        raise FormatError(f"{path}: bad IDX magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
    ndim = magic & 0xFF       # the magic fixes it: 0x803 has 3 dimensions, 0x801 one
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

    The images become (N, 1, h, w) read-only uint8 codes, the file's
    bytes unchanged: 1 byte per pixel, each read as code / 255 in [0, 1].
    """
    images = _read_idx(images_path, IDX_IMAGES_MAGIC)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise FormatError(f"{images_path}: {images.shape[0]} images vs "
                          f"{labels.shape[0]} labels in {labels_path}")
    n, h, w = images.shape
    classes = max(10, int(labels.max()) + 1) if n else 10
    return LabeledDataset(images.reshape(n, 1, h, w), labels.astype(np.int64), classes,
                          {"source": str(images_path)})


# A suite's cells differ only in training labels, so each head of an IDX pair is
# read once per process while neither file's size or mtime changes.
@functools.lru_cache(maxsize=4)
def _cached_idx_head(images, labels, size):
    ds = load_idx(images[0], labels[0])
    ds = ds.subset(range(min(size or len(ds), len(ds))))      # an owned copy, made read-only
    ds.labels.flags.writeable = False
    return ds


def _idx_head(images_path, labels_path, size):
    """The first size examples of an IDX pair (all of them for size 0), memoised
    like the rendered corpora, with read-only arrays."""
    stamps = [(str(path), st.st_size, st.st_mtime_ns)
              for path in (images_path, labels_path) for st in [os.stat(path)]]
    return _shared(_cached_idx_head(*stamps, int(size)))


def _shared(ds):
    """A dataset over the (read-only) arrays of ds, with its own provenance."""
    return LabeledDataset(ds.pixels, ds.labels, ds.classes, dict(ds.provenance))


def write_idx(ds, images_path, labels_path):
    """Write a dataset of single-channel images to IDX files: codes unchanged,
    float pixels in [0, 1] as the codes round(255 x). A pixel outside [0, 1]
    or not finite, or a label outside 0..255, raises DataError."""
    arr = ds.pixels
    if arr.ndim != 4 or arr.shape[1] != 1:
        raise DataError("write_idx needs (N, 1, h, w) inputs")
    if arr.dtype != np.uint8:
        inside = ((arr >= 0.0) & (arr <= 1.0)).all(axis=(1, 2, 3))
        if not inside.all():
            raise DataError(f"write_idx: image {int(inside.argmin())} has a pixel "
                            "outside [0, 1] or not finite")
        arr = np.round(arr * 255.0).astype(np.uint8)
    if ds.labels.size and ds.labels.max() > 255:
        raise DataError(f"write_idx: label {int(ds.labels.max())} does not fit in a byte")
    n, _, h, w = arr.shape
    pixels = arr.reshape(n, h, w)
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
    labels are copied: the result shares the pixels array of ds.
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
    return LabeledDataset(ds.pixels, labels, ds.classes, prov)


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


_CENTRES = (np.arange(_SIZE) + 0.5) / _SIZE      # pixel c has its centre at (c + 0.5) / _SIZE
_GRID = np.stack(np.meshgrid(_CENTRES, _CENTRES, indexing="xy"), axis=-1).reshape(-1, 2)


def _pixel_spans(lo, hi):
    """(owner i, pixel) for each pixel whose centre lies in [lo[i], hi[i]], the
    bounds rounded outward by 1e-6 px; owners ascending."""
    first = np.clip(np.ceil(lo * _SIZE - 0.5 - 1e-6), 0, _SIZE).astype(np.intp)
    last = np.clip(np.floor(hi * _SIZE - 0.5 + 1e-6), -1, _SIZE - 1).astype(np.intp)
    count = np.maximum(last - first + 1, 0)
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(count) - count - first, count)


def _solve(a, lo, hi):
    """The interval of u with lo <= a * u <= hi; where a is 0, every u or none."""
    with np.errstate(divide="ignore", invalid="ignore"):
        u, w = lo / a, hi / a
    whole = np.where((lo <= 0) & (hi >= 0), np.inf, -np.inf)
    return np.where(a != 0, np.minimum(u, w), -whole), np.where(a != 0, np.maximum(u, w), whole)


def _strokes_ink(strokes, m, aa=0.02):
    """_ink of strokes listing (image, warped segments, thickness)."""
    image, segs, thickness = zip(*strokes)
    counts = [len(s) for s in segs]
    return _ink(np.repeat(image, counts), np.concatenate(segs), np.repeat(thickness, counts),
                m, aa)


def _ink(image, segs, thickness, m, aa=0.02):
    """Soft ink of m images: per pixel, the max over the image's segments of
    clip((thickness - distance to segment) / aa, 0, 1).

    segs is (S, 2, 2) warped segments; image and thickness give each its image
    and thickness. Only pixels whose centre can lie in a segment's capsule of
    radius R = thickness + 1e-7 are evaluated (elsewhere the ink is exactly 0):
    per row, the hull of the row's sections of the endpoint discs and of the
    band |d x (x - p)| <= R|d| cut by the slab 0 <= (x - p).d <= |d|^2. Kept
    pairs take the dense per-pixel operations in the same order, so the result
    is bit-identical to evaluating every pixel.
    """
    (px, py), (qx, qy) = segs.transpose(1, 2, 0)
    dx, dy, radius = qx - px, qy - py, thickness + 1e-7
    # per segment, contiguous: rows 0-6 are gathered per pixel row, rows 3-8 per pixel
    values = np.stack([qx, qy, radius, px, py, dx, dy,
                       np.maximum(dx * dx + dy * dy, 1e-12), thickness])
    seg, row = _pixel_spans(np.minimum(py, qy) - radius, np.maximum(py, qy) + radius)
    y, (qx, qy, r, px, py, dx, dy) = _CENTRES[row], values[:7].take(seg, axis=1)
    with np.errstate(invalid="ignore"):                 # NaN where the row misses a disc
        hp, hq = np.sqrt(r * r - (y - py) ** 2), np.sqrt(r * r - (y - qy) ** 2)
    v, dd = y - py, dx * dx + dy * dy                   # band and slab in u = x - px
    reach = r * np.sqrt(dd)
    band_lo, band_hi = _solve(dy, dx * v - reach, dx * v + reach)
    slab_lo, slab_hi = _solve(dx, -dy * v, dd - dy * v)
    u_lo, u_hi = np.maximum(band_lo, slab_lo), np.minimum(band_hi, slab_hi)
    cut = (u_lo <= u_hi) & (dd > 0)
    k, col = _pixel_spans(
        np.fmin(np.fmin(px - hp, qx - hq), np.where(cut, px + u_lo, np.inf)),
        np.fmax(np.fmax(px + hp, qx + hq), np.where(cut, px + u_hi, -np.inf)))
    seg, row = seg[k], row[k]
    gx, gy = _CENTRES[col], _CENTRES[row]
    px, py, dx, dy = values[3:7].take(seg, axis=1)
    t = np.clip(((gx - px) * dx + (gy - py) * dy) / values[7].take(seg), 0.0, 1.0)
    ex = gx - (px + t * dx)
    ey = gy - (py + t * dy)
    value = np.clip((values[8].take(seg) - np.sqrt(ex * ex + ey * ey)) / aa, 0.0, 1.0)
    ink = np.zeros((m, _SIZE * _SIZE))
    np.maximum.at(ink.reshape(-1), (image[seg] * _SIZE + row) * _SIZE + col, value)
    return ink


# Images per chunk: bounds a chunk's float buffer, ink and per-pair arrays to about 3 MB.
_CHUNK = 64


def _glyph_table(glyphs):
    """The glyphs as arrays. Per label: its draws per image (6, and one per stroke
    whose thickness is drawn) and its segment count. Per segment, labels in
    order: the segment less 0.5, its fixed thickness (0 where drawn), and the
    index of its thickness among its image's draws (0 where fixed)."""
    need, count, centred, fixed, slot = np.full(10, 6), np.zeros(10, int), [], [], []
    for label in range(10):
        for entry in glyphs[label]:
            segs, thickness = entry if isinstance(entry, tuple) else (entry, None)
            free = thickness is None
            centred.append(segs - 0.5)
            fixed += [0.0 if free else thickness] * len(segs)
            slot += [need[label] if free else 0] * len(segs)
            need[label] += free
            count[label] += len(segs)
    return need, count, np.concatenate(centred), np.array(fixed), np.array(slot)


def _warps(hardness, rot, scale, shear):
    """Each image's 2x2 warp from its uniform draws: its rotation times its shear
    (one 2x2 BLAS product per image), times its scale."""
    rot, ones, zeros = (-1 + 2 * rot) * 0.45 * hardness, np.ones(len(rot)), np.zeros(len(rot))
    c, s = np.cos(rot), np.sin(rot)
    shear = (-1 + 2 * shear) * 0.35 * hardness
    return (np.stack([c, -s, s, c], 1).reshape(-1, 2, 2)
            @ np.stack([ones, shear, zeros, ones], 1).reshape(-1, 2, 2)
            * (1.0 + (-1 + 2 * scale) * 0.18 * hardness)[:, None, None])


def _render_corpus(n, seed, stream, glyphs, default_thickness, source):
    """n glyph images as 8-bit codes, each warped by one 2x2 matrix. Per image in
    turn, one rng.random(6 + k) call draws hardness, rot, scale, shear, the shift
    and the k free stroke thicknesses, then the noise is drawn in place. The rest
    runs once per chunk on arrays, each image taking the IEEE operations of a
    per-image loop: uniform(lo, hi) as lo + (hi - lo) * u, and batched matmuls
    whose slices are that loop's 2x2 BLAS products. So the codes are that loop's."""
    rng = seeded_rng(seed, "data", counter=stream)
    labels = seeded_rng(seed, "labels", counter=stream).integers(0, 10, size=n)
    need, count, centred, fixed, slot = _glyph_table(glyphs)
    codes = np.empty((n, 1, _SIZE, _SIZE), dtype=np.uint8)
    pixels = np.empty((_CHUNK, _SIZE * _SIZE))      # one chunk, in float64
    for start in range(0, n, _CHUNK):
        label = labels[start:start + _CHUNK]
        m, chunk, base = len(label), pixels[:len(label)], np.cumsum(need[label]) - need[label]
        draws = np.empty(need[label].sum())         # each image's at base, need of them
        for i, (a, k) in enumerate(zip(base.tolist(), need[label].tolist())):
            rng.random(out=draws[a:a + k])
            rng.standard_normal(out=chunk[i])       # the noise, drawn in place
        warps = _warps(*(draws[base + j] for j in range(4)))
        shift = -0.07 + (0.07 - -0.07) * draws[base[:, None] + [4, 5]]
        owner = np.repeat(np.arange(m), count[label])
        seg = np.arange(len(owner)) + np.repeat(np.cumsum(count)[label] - np.cumsum(count[label]),
                                                count[label])
        moved = np.matmul(centred[seg], warps[owner].transpose(0, 2, 1)) + 0.5 + shift[owner, None]
        thickness = np.where(slot[seg] > 0, default_thickness * (
            0.8 + (1.25 - 0.8) * draws[base[owner] + slot[seg]]), fixed[seg])
        chunk *= (0.02 + 0.28 * draws[base])[:, None]     # sigma, from hardness
        chunk += _ink(owner, moved, thickness, m)
        np.clip(chunk, 0.0, 1.0, out=chunk)
        chunk *= 255.0
        codes.reshape(n, -1)[start:start + m] = np.round(chunk, out=chunk)     # whole: exact
    return LabeledDataset(codes, labels, 10,
                          {"source": source, "seed": int(seed), "stream": int(stream)})


_CORPORA = {"synthetic-digits": (_digit_strokes, 0.045),
            "synthetic-shapes": (_shape_strokes, 0.07)}


# A suite's cells differ only in training labels, so each corpus is rendered
# once per process. Four entries hold a train and a test stream of two corpora.
@functools.lru_cache(maxsize=4)
def _cached_corpus(source, n, seed, stream):
    strokes, thickness = _CORPORA[source]
    ds = _render_corpus(n, seed, stream, strokes(), thickness, source)
    ds.labels.flags.writeable = False
    return ds


def _synthetic(source, n, seed, stream):
    if n < 1:
        raise DataError(f"{source} needs n >= 1")
    return _shared(_cached_corpus(source, int(n), int(seed), int(stream)))


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
