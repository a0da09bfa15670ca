"""Dataset loading, synthesis, corruption, and split tests."""

import collections
import gc
import hashlib
import os
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnalab import data, nn
from cnalab.analysis import record_state
from cnalab.config import build_arch, resolve_datasets
from cnalab.data import (IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, LabeledDataset,
                         corrupt_labels, gaussian_noise_dataset, load_idx, split,
                         synthetic_digits, synthetic_shapes, write_idx)
from cnalab.errors import DataError, FormatError
from cnalab.harness import run_suite


def make_idx_fixture(tmp_path, pixels, labels):
    """Hand-built IDX byte pair; pixels is (n, h, w) uint8."""
    n, h, w = pixels.shape
    img_path = tmp_path / "imgs.idx"
    lab_path = tmp_path / "labs.idx"
    img_path.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w) + pixels.tobytes())
    lab_path.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, n) + bytes(labels))
    return img_path, lab_path


def test_idx_fixture_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(2, 4, 3), dtype=np.uint8)
    labels = [3, 9]
    img_path, lab_path = make_idx_fixture(tmp_path, pixels, labels)
    ds = load_idx(img_path, lab_path)
    assert ds.inputs.shape == (2, 1, 4, 3)
    assert np.array_equal(np.round(ds.inputs * 255).astype(np.uint8).reshape(2, 4, 3), pixels)
    assert list(ds.labels) == labels
    # write back: identical bytes
    out_img, out_lab = tmp_path / "o.idx", tmp_path / "ol.idx"
    write_idx(ds, out_img, out_lab)
    assert out_img.read_bytes() == img_path.read_bytes()
    assert out_lab.read_bytes() == lab_path.read_bytes()


def test_idx_bad_magic(tmp_path):
    pixels = np.zeros((1, 2, 2), dtype=np.uint8)
    img_path, lab_path = make_idx_fixture(tmp_path, pixels, [0])
    # labels file carrying the images magic must be rejected
    bad = tmp_path / "bad.idx"
    bad.write_bytes(struct.pack(">II", IDX_IMAGES_MAGIC, 1) + b"\x00")
    with pytest.raises(FormatError, match="magic"):
        load_idx(img_path, bad)


def test_idx_truncated_payload(tmp_path):
    img = tmp_path / "t.idx"
    img.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 2, 3, 3) + b"\x00" * 10)
    lab = tmp_path / "tl.idx"
    lab.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, 2) + b"\x00\x01")
    with pytest.raises(FormatError, match="payload"):
        load_idx(img, lab)


def test_idx_count_mismatch(tmp_path):
    pixels = np.zeros((2, 2, 2), dtype=np.uint8)
    img_path, _ = make_idx_fixture(tmp_path, pixels, [0, 1])
    lab = tmp_path / "one.idx"
    lab.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, 1) + b"\x00")
    with pytest.raises(FormatError, match="images vs"):
        load_idx(img_path, lab)


def test_gaussian_moments_and_determinism():
    ds = gaussian_noise_dataset(1000, seed=5)
    assert ds.inputs.shape == (1000, 3, 32, 32)
    assert -0.02 < ds.inputs.mean() < 0.02
    assert 0.97 < ds.inputs.var() < 1.03
    again = gaussian_noise_dataset(1000, seed=5)
    assert ds.inputs.tobytes() == again.inputs.tobytes()
    assert np.array_equal(ds.labels, again.labels)


def test_gaussian_label_histogram_within_binomial_bound():
    ds = gaussian_noise_dataset(10000, seed=6)
    counts = np.bincount(ds.labels, minlength=10)
    sigma = np.sqrt(10000 * 0.1 * 0.9)
    assert np.all(np.abs(counts - 1000) < 5 * sigma)


@pytest.mark.parametrize("sizes", [{"train_size": 30, "test_size": 20}, {"train_size": 25}])
def test_gaussian_split_is_row_views_with_the_copies_bytes_and_provenance(sizes):
    train, test = resolve_datasets({"name": "gaussian-noise", "seed": 4, **sizes})
    n_train, n_test = sizes["train_size"], sizes.get("test_size", sizes["train_size"])
    full = gaussian_noise_dataset(n_train + n_test, seed=4)
    for ds, rows, name in ((train, np.arange(n_train), "train"),
                           (test, np.arange(n_train, n_train + n_test), "test")):
        assert ds.inputs.tobytes() == full.inputs[rows].copy().tobytes()
        assert ds.labels.tobytes() == full.labels[rows].copy().tobytes()
        assert ds.provenance == {"source": "gaussian-noise", "seed": 4, "split": name}
        assert ds.classes == 10 and not ds.inputs.flags.owndata
    assert train.inputs.base is test.inputs.base
    assert not np.shares_memory(train.inputs, test.inputs)


def test_corrupt_zero_fraction_is_identity():
    ds = gaussian_noise_dataset(50, seed=1)
    out = corrupt_labels(ds, 0.0, seed=2)
    assert np.array_equal(out.labels, ds.labels)
    assert out is not ds


def test_corrupt_half_of_ten():
    labels = np.arange(10) % 10
    ds = LabeledDataset(np.random.default_rng(0).random((10, 4)), labels, 10)
    out = corrupt_labels(ds, 0.5, seed=3)
    assert np.array_equal(np.sort(out.labels), np.sort(ds.labels))     # multiset kept
    changed = int((out.labels != ds.labels).sum())
    assert changed == 5     # distinct labels: every cycled position changes
    assert np.array_equal(ds.labels, labels)       # original untouched
    assert out.provenance["corruption_fraction"] == 0.5


def test_corrupt_exact_count_on_distinct_labels():
    n = 1000
    ds = LabeledDataset(np.zeros((n, 2)), np.arange(n), n)
    out = corrupt_labels(ds, 0.3, seed=4)
    assert int((out.labels != ds.labels).sum()) == 300
    untouched = int((out.labels == ds.labels).sum())
    assert untouched >= int(np.ceil(0.7 * n))


def test_corrupt_fraction_out_of_range():
    ds = gaussian_noise_dataset(10, seed=0)
    with pytest.raises(DataError):
        corrupt_labels(ds, 0.6, seed=0)
    with pytest.raises(DataError):
        corrupt_labels(ds, -0.1, seed=0)


def test_split_partition():
    ds = gaussian_noise_dataset(100, seed=7)
    train, test = split(ds, 0.8, seed=8)
    assert len(train) == 80 and len(test) == 20
    train2, test2 = split(ds, 0.8, seed=8)
    assert train.inputs.tobytes() == train2.inputs.tobytes()
    # disjoint and exhaustive: every original row appears exactly once
    merged = np.vstack([train.inputs, test.inputs])
    key = lambda a: {row.tobytes() for row in a.reshape(len(a), -1)}
    assert key(merged) == key(ds.inputs)
    assert len(key(merged)) == 100


def test_split_empty_side_rejected():
    ds = gaussian_noise_dataset(5, seed=9)
    with pytest.raises(DataError):
        split(ds, 0.05, seed=0)


def test_synthetic_corpora_determinism_and_streams():
    a = synthetic_digits(30, seed=1, stream=0)
    b = synthetic_digits(30, seed=1, stream=0)
    c = synthetic_digits(30, seed=1, stream=1)
    assert a.inputs.tobytes() == b.inputs.tobytes()
    assert a.inputs.tobytes() != c.inputs.tobytes()
    assert a.inputs.shape == (30, 1, 28, 28)
    assert a.inputs.min() >= 0.0 and a.inputs.max() <= 1.0


def test_synthetic_shapes_distinct_from_digits():
    d = synthetic_digits(20, seed=2)
    s = synthetic_shapes(20, seed=2)
    assert s.inputs.shape == (20, 1, 28, 28)
    assert d.inputs.tobytes() != s.inputs.tobytes()


# sha256 of (inputs, labels) bytes as rendered before the chunked renderer,
# at the corpus sizes of configs/, the acceptance suite, the CLI tests and
# the benchmark (perfbench/workloads.py, default and shifted seeds).
GOLDEN_CORPORA = [
    ("digits", 10000, 7, 0,
     "f91e0d7f8cb8cb141d51a5baea718701b69b6ab3baeb5f7189ad51ef29e78056",
     "ffc4e500ae5c82e2e7cd6ee50ce7e741aeae3a83678a05e70e88d4052925aa49"),
    ("digits", 2000, 7, 1,
     "627a9824d6bc4732fe0e0403b0e692f40bdeee40c83f1d23cd7b46cd4713ecc0",
     "50d8a00410bd32bd76016461b626f281f04a70041320eaa1cab1b357a2d39ef8"),
    ("digits", 2000, 7, 0,
     "ff44c1aa004d19ff4934f926a18cdcf29da6a31612632853699e8fd6fe417064",
     "5084062f80b46ba7dbf1e01fb4dd2e9ba47ac8e254582e1160abab70b43616f5"),
    ("digits", 1000, 7, 1,
     "dad8e962c2f0d172048fd354a0f5e9c903702554696a0cf37b36f7a0237f6e3b",
     "954cef0cf24fe8b95e03d8f4ec711d0fe910504d3d94631a61798e2a66fd1f83"),
    ("digits", 500, 7, 1,
     "d4b1cbc4983bdc9c3e74e009011649005bf38406c08f41c1124ba0b651124a2c",
     "5dc49b316023858a7eecce14b19cae333aa66180f69abe73ead0c765dd6031ff"),
    ("digits", 300, 7, 0,
     "89d4a0d8b2fe2f95849956d6921d596d32067800d6cf4a987f886900d92f1174",
     "a1af22927335ff8738b972997c3a5e7299972fe0f8f02c07f0d5da8d6f9c4ec7"),
    ("digits", 200, 7, 0,
     "9838650a47fa5ee721dcd71c77b1a690d7795ce1037cc99043ba1c53afee2108",
     "ecb893a05b023439b86de6547b678ee222b0d08bde839dfed691ff689fc9c4e8"),
    ("digits", 100, 7, 1,
     "057f941268d641a85a1bac801a74440129870a358203b1b985f6e474707def20",
     "60d8c95fcaca4255a6d3bb696b7ee605a701cdaee2da73a598b8049094ae3e86"),
    ("digits", 60, 7, 1,
     "51d63a957358814eca8c3149279bbe048df8579440b0a929b1ab907d8ce30e93",
     "ce919cbbe48e9a90b3df49778022fdb3013b2f87a53622117ceef4e6ab1ca974"),
    ("digits", 40, 7, 0,
     "578f33118ea96c230652cbc2a805b4d47bfd041b5afaf59443dffc0b0da2de7c",
     "9e2286a56ed2fe2ca23f9a83f397367003f7f045f4e71160df5507a3aeab324e"),
    ("digits", 20, 7, 1,
     "ecdcf63c706c6968a792b3aceea4bde86595da380501f56633c95289964b5fc6",
     "5589c5c9d8e5f39469ef10bf1919c837c072a51ed5b9b7d7795e6f6aa934992c"),
    ("digits", 30, 1, 0,
     "16b845c94f55e3a02c9695a2ed9424f2ba31a2149356eae2bc96b1ffcb762ee3",
     "4fadb91ebfbbc9679840cb4964adc34b7ad4414cea35037ad6f08db9c88ac647"),
    ("digits", 30, 1, 1,
     "60bc5368f9a78ef37bf6524bc7cf0c0e12e43e13bee72af0a863536b56f2e6d5",
     "0aa97b9f17b05b92e26cfd44862f49e26b893a981bbede775987731a17a12be5"),
    ("digits", 20, 2, 0,
     "1945b9fd15b35049430ef94414b5f6962291525611799c85b9e49941afb2e2b3",
     "34b13c7f4b294e0a37b82b74a5466170aaaa6b2cc06f2f04ad8dd2423020252d"),
    ("digits", 200, 1007, 0,
     "e93b01288812d7fac75b0127c8123e20faf6cf9e9a7c4ac093e7eb44a7778831",
     "6a41663011fa06d8acc3485f261a3d575ad97d564f41b199d11a3783888d647b"),
    ("digits", 150, 7, 0,
     "331c26d0952c087b16a0453b83f8983872802a8ce250b560774b4df14407b7ab",
     "9517ada30ce03af46ebb9e755df7c5048148034b7ef73dfb66dd39396d71bb38"),
    ("digits", 80, 7, 1,
     "ba04790ac45d936f47fb6f7ddbef5e4c4281c65fd4135758d6f1fdbab894fa74",
     "9ac206b8433f970aa49be65bdf061e20e024cc266fb9085a267f0aba7da28afc"),
    ("digits", 120, 3, 0,
     "955121fa7859154106df2deb251b5c9db8511b4ab8863fefb04bc87a27d3dc7b",
     "39f54c62b889f6000aa793fddfdaa173fcef8a47aaefb2e0dd167b8418af5d72"),
    ("digits", 60, 3, 1,
     "4d67cf41229eac575ba5a2dc2e8d1e920c4d170e82269f911f658f0f208a9be8",
     "8d9de2956af09027dd9ee3dead8300f72d620aa80c510cc0f431fbc240a1daaf"),
    ("shapes", 2000, 8, 0,
     "6f912aec15c0d6170cb3e5177842f7caa4eebccb701027b35e185df4e76ca7e6",
     "7efe2ae190464397df7043438988a6cd371c807cf03c694e107612150faf808c"),
    ("shapes", 1000, 8, 1,
     "4a3347645e898f0ebdd5a554450f8aa1b1932ee2cc6bca49118947a4b5162e77",
     "b509a98cacf9f7ae0e90d3b9d04613f7ddac97bf6607b69d99ebc05157aa69b5"),
    ("shapes", 200, 8, 0,
     "a808d6e3e2db2db6dec3f5e9490518e8568582db8817bb3112455b8a82b147d6",
     "85123f2f4219d26d7cc259e6ebd7702a66f6a898852c13ce736000d497551670"),
    ("shapes", 100, 8, 1,
     "f5a75f603abb2770011c4d26548ada0f5f27b945949a3e2773dc88bf751b5353",
     "1535ae8fc89a95fa995fd994977345c05e15dd3661117a5e1edc853ec7ddd61b"),
    ("shapes", 40, 8, 0,
     "5929cc6921c14428e556557469f5b03c145254776041dc9c2093a93e853733b1",
     "e760b734ed063588874a6db68bb57d4f5acc7f0d29fe7581c6153a06cfd9afcc"),
    ("shapes", 20, 8, 1,
     "4aa4c179a92cc063051b656e364ec76fd6eb22fb4fe4c74bf90ae425aa7b0133",
     "088c46c3c0225ac1401f6ced450dc35a41bc157b7585787fefac182d3dd4f185"),
    ("shapes", 20, 2, 0,
     "ef212afcb8fc77bf62d5fcba25765a8763e55a02ca180e396cb748746c280d32",
     "34b13c7f4b294e0a37b82b74a5466170aaaa6b2cc06f2f04ad8dd2423020252d"),
    ("shapes", 100, 1008, 1,
     "158bbc7c19c54560b58a2ca4a162d2e14fd3f827065dae445aa6e5b90fe997f0",
     "349c8d0156906253f7e45eb266e0aabb3b547e0c4a29582f97ad7cc66946f8c9"),
]


@pytest.mark.parametrize("source,n,seed,stream,inputs_sha,labels_sha", GOLDEN_CORPORA)
def test_synthetic_corpora_pixel_golden(source, n, seed, stream, inputs_sha, labels_sha):
    gen = synthetic_digits if source == "digits" else synthetic_shapes
    ds = gen(n, seed, stream=stream)
    assert hashlib.sha256(ds.inputs.tobytes()).hexdigest() == inputs_sha
    assert hashlib.sha256(ds.labels.tobytes()).hexdigest() == labels_sha


@pytest.mark.parametrize("chunk", [1, 7, 16, data._CHUNK])
@pytest.mark.parametrize("source,n,seed,stream,inputs_sha,labels_sha",
                         [golden for golden in GOLDEN_CORPORA if golden[1] == 100])
def test_rendering_does_not_depend_on_the_chunk_size(monkeypatch, chunk, source, n, seed,
                                                     stream, inputs_sha, labels_sha):
    monkeypatch.setattr(data, "_CHUNK", chunk)
    name = f"synthetic-{source}"
    strokes, thickness = data._CORPORA[name]
    ds = data._render_corpus(n, seed, stream, strokes(), thickness, name)
    assert hashlib.sha256(ds.inputs.tobytes()).hexdigest() == inputs_sha
    assert hashlib.sha256(ds.labels.tobytes()).hexdigest() == labels_sha


def dense_ink(segments, thickness, aa=0.02):
    """Every pixel against every segment: the expression pixel culling skips."""
    grid = data._GRID[:, None, :]
    p, q = segments[:, 0][None], segments[:, 1][None]
    d = q - p
    len2 = np.maximum((d ** 2).sum(-1), 1e-12)
    t = np.clip(((grid - p) * d).sum(-1) / len2, 0.0, 1.0)
    dist = np.sqrt(((grid - (p + t[..., None] * d)) ** 2).sum(-1))
    return np.clip((thickness - dist) / aa, 0.0, 1.0).max(axis=1)


def test_culled_ink_equals_dense_ink_bitwise():
    rng = np.random.default_rng(0)
    strokes, expected = [], np.zeros((6, 28 * 28))
    for k in range(40):
        image = k % 6
        # segments reach past the canvas edges, some are points, some thick
        segs = rng.uniform(-0.3, 1.3, size=(int(rng.integers(1, 6)), 2, 2))
        segs[0, 1] = segs[0, 0] if k % 5 == 0 else segs[0, 1]
        thickness = float(rng.choice([0.03, 0.07, 0.3]))
        strokes.append((image, segs, thickness))
        expected[image] = np.maximum(expected[image], dense_ink(segs, thickness))
    assert data._strokes_ink(strokes, 6).tobytes() == expected.tobytes()


# free coordinates, or pixel centres (c + 0.5) / 28, on and past the canvas
COORD = st.one_of(st.floats(-0.3, 1.3), st.integers(-8, 35).map(lambda c: (c + 0.5) / 28))


@st.composite
def segment(draw):
    kind = draw(st.sampled_from(["any", "point", "horizontal", "vertical"]))
    x0, y0, x1, y1 = (draw(COORD) for _ in range(4))
    if kind in ("point", "vertical"):
        x1 = x0
    if kind in ("point", "horizontal"):
        y1 = y0
    return [[x0, y0], [x1, y1]]


STROKE = st.tuples(st.integers(0, 2), st.lists(segment(), min_size=1, max_size=4),
                   st.one_of(st.floats(0.03, 0.3), st.integers(1, 8).map(lambda k: k / 28)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(STROKE, min_size=1, max_size=5))
def test_culled_ink_equals_dense_ink_on_fuzzed_strokes(drawn):
    strokes, expected = [], np.zeros((3, 28 * 28))
    for image, segs, thickness in drawn:
        segs = np.array(segs, dtype=np.float64)
        strokes.append((image, segs, thickness))
        expected[image] = np.maximum(expected[image], dense_ink(segs, thickness))
    assert data._strokes_ink(strokes, 3).tobytes() == expected.tobytes()


@pytest.fixture
def fresh_corpus_cache():
    data._cached_corpus.cache_clear()
    yield
    data._cached_corpus.cache_clear()


def test_cached_corpus_is_read_only(fresh_corpus_cache):
    ds = synthetic_shapes(12, seed=4)
    assert not ds.pixels.flags.writeable and not ds.labels.flags.writeable
    with pytest.raises(ValueError):
        ds.pixels[0] = 0.0
    with pytest.raises(ValueError):
        ds.labels[0] = 0
    again = synthetic_shapes(12, seed=4)
    assert again is not ds and again.pixels is ds.pixels


def test_corrupted_spec_leaves_cached_clean_corpus_intact(fresh_corpus_cache):
    spec = {"name": "synthetic-digits", "train_size": 60, "test_size": 20, "seed": 5}
    corrupted, _ = resolve_datasets(dict(spec, corruption=0.3))
    clean, _ = resolve_datasets(dict(spec, corruption=0.0))
    fresh = data._render_corpus(60, 5, 0, data._digit_strokes(), 0.045, "synthetic-digits")
    assert np.array_equal(clean.labels, fresh.labels)
    assert clean.inputs.tobytes() == fresh.inputs.tobytes()
    assert not np.array_equal(corrupted.labels, fresh.labels)


def test_suite_renders_each_corpus_once(tmp_path, monkeypatch, fresh_corpus_cache):
    calls = []
    render = data._render_corpus

    def counting(n, seed, stream, glyphs, default_thickness, source):
        calls.append((source, n, seed, stream))
        return render(n, seed, stream, glyphs, default_thickness, source)

    monkeypatch.setattr(data, "_render_corpus", counting)
    suite = {"grid": {"datasets": [{"name": "synthetic-digits", "train_size": 30,
                                    "test_size": 20, "seed": 3},
                                   {"name": "synthetic-shapes", "train_size": 30,
                                    "test_size": 20, "seed": 4}],
                      "corruptions": [0.0, 0.3],
                      "archs": [{"name": "mlp", "hidden": [4, 4]},
                                {"name": "cnn", "channels": [2, 2]}]},
             "optimizer": {"kind": "sgd", "lr": 0.01, "batch_size": 16},
             "epochs": 1, "keep_checkpoints": "latest",
             "output_root": str(tmp_path / "suite")}
    summary, _ = run_suite(suite, log=lambda *_: None)
    assert summary["n_failed"] == 0 and len(summary["cells"]) == 8
    assert sorted(calls) == [("synthetic-digits", 20, 3, 1), ("synthetic-digits", 30, 3, 0),
                             ("synthetic-shapes", 20, 4, 1), ("synthetic-shapes", 30, 4, 0)]


def test_label_validation():
    with pytest.raises(DataError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 5]), 3)
    with pytest.raises(DataError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1]), 3)


def test_corrupted_suite_cell_shares_cached_inputs(fresh_corpus_cache):
    from cnalab.harness import build_suite_cells
    suite = {"grid": {"datasets": [{"name": "synthetic-shapes", "train_size": 40,
                                    "test_size": 10, "seed": 9}],
                      "corruptions": [0.0, 0.5], "archs": [{"name": "mlp", "hidden": [4, 4]}]},
             "output_root": "unused"}
    clean_cell, corrupted_cell = build_suite_cells(suite)
    clean, _ = resolve_datasets(clean_cell.dataset)
    labels_before = clean.labels.copy()
    corrupted, _ = resolve_datasets(corrupted_cell.dataset)
    assert corrupted.pixels is clean.pixels
    assert not corrupted.pixels.flags.writeable
    assert not np.array_equal(corrupted.labels, clean.labels)
    assert np.array_equal(clean.labels, labels_before)
    assert np.array_equal(synthetic_shapes(40, seed=9).labels, labels_before)


# --- 8-bit codes -------------------------------------------------------------

def coded_and_float_datasets(tmp_path):
    """A rendered, an IDX and a gaussian dataset, by name."""
    pixels = np.random.default_rng(8).integers(0, 256, size=(7, 5, 4), dtype=np.uint8)
    return {"rendered": synthetic_digits(40, seed=3),
            "idx": load_idx(*make_idx_fixture(tmp_path, pixels, [1, 2, 3, 4, 5, 6, 7])),
            "gaussian": gaussian_noise_dataset(9, seed=2)}


def test_rows_equal_the_float_inputs_bitwise(tmp_path, fresh_corpus_cache):
    for name, ds in coded_and_float_datasets(tmp_path).items():
        assert ds.pixels.dtype == (np.float64 if name == "gaussian" else np.uint8), name
        assert ds.inputs.dtype == np.float64 and ds.inputs.shape == ds.pixels.shape
        n = len(ds)
        for idx in (np.arange(n), np.array([n - 1, 0, 2, 2]), slice(1, 4), []):
            assert ds.rows(idx).dtype == np.float64
            assert ds.rows(idx).tobytes() == ds.inputs[idx].tobytes(), name
        want = ds.pixels if name == "gaussian" else ds.pixels / 255.0
        assert ds.rows(np.arange(n)).tobytes() == want.tobytes()


def test_codes_are_one_read_only_byte_per_pixel(tmp_path, fresh_corpus_cache):
    rendered = synthetic_shapes(30, seed=5)
    assert rendered.pixels.nbytes == 30 * 28 * 28
    for ds in coded_and_float_datasets(tmp_path).values():
        if ds.pixels.dtype == np.uint8:
            assert not ds.pixels.flags.writeable
            assert not ds.subset(np.array([2, 0])).pixels.flags.writeable
    # the float copy is made for a caller only, and freed with the caller's reference
    floats = weakref.ref(rendered.inputs)
    gc.collect()
    assert floats() is None


def test_idx_loads_the_files_bytes_as_codes(tmp_path):
    pixels = np.random.default_rng(1).integers(0, 256, size=(3, 4, 5), dtype=np.uint8)
    ds = load_idx(*make_idx_fixture(tmp_path, pixels, [0, 9, 4]))
    assert ds.pixels.shape == (3, 1, 4, 5)
    assert ds.pixels.tobytes() == pixels.tobytes()


def engine_outputs(net, x, labels):
    """{name: bytes} of every engine call that reads the input batch x."""
    logits, trace = nn.forward(net, x, record=True)
    loss, grads, step_logits = nn.loss_and_gradients(net, x, labels)
    out = {"forward.logits": logits, "forward.z": trace.z, "loss": np.float64(loss),
           "loss_and_gradients.logits": step_logits,
           "record_state": record_state(net, x[:5], 3, 0.5).state}
    out.update((f"loss_and_gradients.{idx}.{name}", g)
               for idx, p in grads.items() for name, g in p.items())
    out.update((f"backward.{idx}.{name}", g)
               for idx, p in nn.backward(net, x, labels).items() for name, g in p.items())
    out.update((f"layer_preactivations.{i}", a)
               for i, a in enumerate(nn.layer_preactivations(net, x)))
    return {name: arr.tobytes() for name, arr in out.items()}


def test_engine_calls_read_codes_as_their_decode_bitwise(tmp_path, fresh_corpus_cache):
    pixels = np.random.default_rng(9).integers(0, 256, size=(12, 9, 9), dtype=np.uint8)
    idx_ds = load_idx(*make_idx_fixture(tmp_path, pixels, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1]))
    for ds, arch in ((synthetic_digits(64, seed=3), {"name": "mlp", "hidden": [32, 16]}),
                     (idx_ds, {"name": "cnn", "channels": [4, 6], "kernel": 3, "stride": 1})):
        assert ds.pixels.dtype == np.uint8
        shape = ds.pixels.shape[1:]
        net = nn.build_network(build_arch(arch, shape, ds.classes), 4, shape)
        want = engine_outputs(net, ds.inputs, ds.labels)
        assert engine_outputs(net, ds.pixels, ds.labels) == want, arch["name"]
        # a float array is read as it is: raw 0-255 values are not pixels
        raw = ds.pixels.astype(np.float64)
        assert engine_outputs(net, raw, ds.labels)["forward.logits"] != want["forward.logits"]


def test_rendered_corpus_round_trips_through_idx_byte_exactly(tmp_path, fresh_corpus_cache):
    ds = synthetic_digits(25, seed=4)
    paths = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx(ds, *paths)
    back = load_idx(*paths)
    assert back.pixels.tobytes() == ds.pixels.tobytes()
    assert back.inputs.tobytes() == ds.inputs.tobytes()
    assert np.array_equal(back.labels, ds.labels)


@pytest.mark.parametrize("pixel, label, message", [
    (-0.1, 0, "outside"), (1.2, 0, "outside"), (np.nan, 0, "not finite"),
    (np.inf, 0, "not finite"), (0.5, 300, "label 300"),
], ids=["below-0", "above-1", "nan", "inf", "label-300"])
def test_write_idx_refuses_what_a_byte_cannot_hold(tmp_path, pixel, label, message):
    inputs = np.full((3, 1, 2, 2), 0.25)
    inputs[1, 0, 1, 0] = pixel
    ds = LabeledDataset(inputs, [0, label, 1], 301)
    with pytest.raises(DataError, match=message):
        write_idx(ds, tmp_path / "img.idx", tmp_path / "lab.idx")


def idx_spec(tmp_path, n_train, n_test, seed=0):
    """An mnist spec over fresh IDX files of n_train and n_test random images."""
    rng, spec = np.random.default_rng(seed), {"name": "mnist"}
    for part, n in (("train", n_train), ("test", n_test)):
        paths = (tmp_path / f"{part}-images.idx", tmp_path / f"{part}-labels.idx")
        write_idx(LabeledDataset(rng.integers(0, 256, size=(n, 1, 28, 28), dtype=np.uint8),
                                 rng.integers(0, 10, size=n), 10), *paths)
        spec[f"{part}_images"], spec[f"{part}_labels"] = map(str, paths)
    return spec


@pytest.fixture
def counted_idx_reads(monkeypatch):
    """An empty IDX cache and entropy memo; the lists of load_idx and estimator calls."""
    from cnalab import metrics
    data._cached_idx_head.cache_clear()
    monkeypatch.setattr(metrics, "_MEMO", collections.OrderedDict())
    loads, estimates, load, estimate = [], [], data.load_idx, metrics._entropies
    monkeypatch.setattr(data, "load_idx", lambda *a: loads.append(a) or load(*a))
    monkeypatch.setattr(metrics, "_entropies",
                        lambda rows, cfg: estimates.append(rows.shape) or estimate(rows, cfg))
    yield loads, estimates
    data._cached_idx_head.cache_clear()


def test_an_idx_suite_reads_each_file_pair_and_bins_each_split_once(tmp_path,
                                                                    counted_idx_reads):
    spec = dict(idx_spec(tmp_path, 60, 30), train_size=50, test_size=20)
    suite = {"grid": {"datasets": [spec], "corruptions": [0.0, 0.1, 0.3, 0.5],
                      "archs": [{"name": "mlp", "hidden": [4, 4]}]},
             "optimizer": {"kind": "sgd", "lr": 0.01, "batch_size": 16},
             "epochs": 1, "output_root": str(tmp_path / "suite")}
    summary, _ = run_suite(suite, log=lambda *_: None)
    assert summary["n_failed"] == 0 and len(summary["cells"]) == 4
    loads, estimates = counted_idx_reads
    assert len(loads) == 2 and sorted(estimates) == [(20, 784), (50, 784)]


def test_a_rewritten_idx_file_is_read_again(tmp_path, counted_idx_reads):
    spec = idx_spec(tmp_path, 12, 6)
    first, _ = resolve_datasets(spec)
    again, _ = resolve_datasets(spec)
    assert len(counted_idx_reads[0]) == 2 and again.pixels is first.pixels
    assert not first.pixels.flags.writeable and not first.labels.flags.writeable
    idx_spec(tmp_path, 9, 4, seed=1)                # new sizes: new stamps
    fresh, _ = resolve_datasets(spec)
    assert len(counted_idx_reads[0]) == 4 and len(fresh) == 9
    images = tmp_path / "train-images.idx"
    stamp, raw = os.stat(images).st_mtime_ns, bytearray(images.read_bytes())
    raw[-1] ^= 0xFF                                 # the same size, a later mtime
    images.write_bytes(raw)
    os.utime(images, ns=(stamp + 10**9, stamp + 10**9))
    latest, _ = resolve_datasets(spec)
    assert len(counted_idx_reads[0]) == 5
    assert latest.pixels.tobytes() == fresh.pixels.tobytes()[:-1] + bytes([raw[-1]])
