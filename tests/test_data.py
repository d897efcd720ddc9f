import gzip
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest

from tests.support import CORRUPT_GZIP, ROOT, checkout_env
from weightsep import (
    ConfigError,
    DataError,
    Dataset,
    FormatError,
    NumericError,
    WeightsepError,
    filter_classes,
    read_idx,
    synth_blobs,
    synth_digits,
    write_idx,
)
from weightsep.data import (
    _SCALED_GLYPHS,
    CANVAS_PIXELS,
    DIGIT_SIDE,
    RENDER_BLOCK_ROWS,
    batches,
    load_mnist_dir,
)
from weightsep.rng import STREAM_DATA, check_seed, generator


def author_idx_pair(tmp_path, pixels, labels, rows, cols, stem="a"):
    """Write a raw IDX image/label pair byte by byte."""
    n = len(labels)
    img = tmp_path / f"{stem}-img.idx"
    lab = tmp_path / f"{stem}-lab.idx"
    with open(img, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(bytes(pixels))
    with open(lab, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(bytes(labels))
    return img, lab


def test_hand_authored_pair_decodes_exactly(tmp_path):
    pixels = [0, 51, 102, 153, 204, 255, 0, 255]
    img, lab = author_idx_pair(tmp_path, pixels, [3, 1], rows=2, cols=2)
    ds = read_idx(img, lab)
    assert ds.features.shape == (2, 4)
    assert ds.features.dtype == np.uint8
    assert ds.features.tobytes() == bytes(pixels)  # the payload, as stored
    assert np.array_equal(ds.labels, [3, 1])
    expect = np.array(pixels, dtype=np.float64).reshape(2, 4) / 255.0
    assert ds.rows().dtype == np.float64
    assert np.array_equal(ds.rows(), expect)
    assert ds.rows()[1, 1] == 1.0  # byte 255 maps to exactly 1.0
    assert np.array_equal(ds.rows([1, 0]), expect[[1, 0]])
    assert ds.n_classes == 4
    # Every byte value decodes to exactly byte / 255.
    img, lab = author_idx_pair(tmp_path, range(256), [0], rows=16, cols=16,
                               stem="all-bytes")
    assert np.array_equal(read_idx(img, lab).rows()[0], np.arange(256) / 255.0)
    # A pair of zero images is refused: a split always has samples.
    img, lab = author_idx_pair(tmp_path, [], [], rows=28, cols=28,
                               stem="empty")
    with pytest.raises(DataError) as err:
        read_idx(img, lab)
    assert str(err.value).startswith(f"{img}: no images")


@pytest.mark.parametrize("n, rows, cols", [(0, 2, 2), (3, 0, 2), (3, 2, 0)],
                         ids=["no-images", "no-rows", "no-columns"])
def test_an_image_file_promising_no_pixels_is_a_data_error(tmp_path, n,
                                                            rows, cols):
    # The payload is present, so the header alone decides.
    _, lab = author_idx_pair(tmp_path, [], [0] * n, rows=2, cols=2)
    img = tmp_path / "img.idx"
    img.write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols)
                    + bytes(12))
    with pytest.raises(DataError) as err:
        read_idx(img, lab)
    assert str(err.value) == f"{img}: no images: dimensions {(n, rows, cols)}"


def test_a_label_file_of_no_labels_is_a_data_error(tmp_path):
    img, lab = author_idx_pair(tmp_path, [7] * 8, [0, 1], rows=2, cols=2)
    lab.write_bytes(struct.pack(">II", 0x00000801, 0))
    with pytest.raises(DataError) as err:
        read_idx(img, lab)
    assert str(err.value) == f"{lab}: no labels: dimensions (0,)"


def test_dataset_refuses_features_with_no_rows_or_columns():
    for shape in ((0, 784), (3, 0)):
        for dtype in (np.uint8, np.float64):
            with pytest.raises(DataError, match="no rows or no columns"):
                Dataset(np.zeros(shape, dtype=dtype),
                        np.zeros(shape[0], dtype=np.int64), 10)


def test_wrong_magic_reports_expected_and_found(tmp_path):
    img, lab = author_idx_pair(tmp_path, [0] * 4, [0], rows=2, cols=2)
    with open(img, "r+b") as f:
        f.write(struct.pack(">I", 0x00000801))
    with pytest.raises(FormatError) as err:
        read_idx(img, lab)
    msg = str(err.value)
    assert "0x00000803" in msg and "0x00000801" in msg


def test_truncated_image_file(tmp_path):
    img, lab = author_idx_pair(tmp_path, [7] * 8, [0, 1], rows=2, cols=2)
    data = img.read_bytes()
    img.write_bytes(data[:-3])
    with pytest.raises(FormatError) as err:
        read_idx(img, lab)
    assert "truncated" in str(err.value).lower()


def test_trailing_garbage_rejected(tmp_path):
    img, lab = author_idx_pair(tmp_path, [7] * 8, [0, 1], rows=2, cols=2)
    with open(img, "ab") as f:
        f.write(b"x")
    with pytest.raises(FormatError):
        read_idx(img, lab)


@pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
@pytest.mark.parametrize("dims, payload", [
    ((100000, 65536, 65536), 16),
    # 2 * 2147549185 * 4294836226 is 2**64 + 4: int64 wraps it to 4
    ((2, 2147549185, 4294836226), 4),
], ids=["huge", "wraps-int64"])
def test_header_promising_more_than_the_file_holds(tmp_path, gz, dims,
                                                     payload):
    _, lab = author_idx_pair(tmp_path, [7] * 8, [0, 1], rows=2, cols=2)
    data = struct.pack(">IIII", 0x00000803, *dims) + bytes(payload)
    img = tmp_path / ("img.idx.gz" if gz else "img.idx")
    img.write_bytes(gzip.compress(data) if gz else data)
    with pytest.raises(FormatError) as err:
        read_idx(img, lab)
    assert "truncated" in str(err.value)
    assert (f"wanted {math.prod(dims)} bytes, got {payload})"
            in str(err.value))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_reads_from_a_non_seekable_stream(tmp_path):
    pixels = [0, 51, 102, 153, 204, 255, 0, 255]
    img, lab = author_idx_pair(tmp_path, pixels, [3, 1], rows=2, cols=2)
    fifo = tmp_path / "img.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(
        target=lambda: fifo.write_bytes(img.read_bytes()), daemon=True)
    writer.start()
    ds = read_idx(fifo, lab)
    writer.join(timeout=5)
    assert np.array_equal(ds.features, read_idx(img, lab).features)


def _flip(data, bit):
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


def test_every_truncation_and_header_bit_flip_is_refused(tmp_path):
    pixels = [0, 51, 102, 153, 204, 255, 0, 255, 9, 8, 7, 6]
    img, lab = author_idx_pair(tmp_path, pixels, [3, 1, 0], rows=2, cols=2)
    n_empty = 0
    for path, header_len in ((img, 16), (lab, 8)):
        good = path.read_bytes()
        damaged = [good[:n] for n in range(len(good))]
        damaged += [_flip(good, bit) for bit in range(8 * header_len)]
        for data in damaged:
            path.write_bytes(data)
            # A flip that zeroes a dimension leaves a header that promises
            # no entries: a DataError naming the file. Every other damage
            # is a FormatError.
            empty = len(data) == len(good) and 0 in struct.unpack(
                f">{header_len // 4 - 1}I", data[4:header_len])
            with pytest.raises(DataError if empty else FormatError) as err:
                read_idx(img, lab)
            assert not empty or str(err.value).startswith(f"{path}: no ")
            n_empty += empty
        path.write_bytes(good)
    assert n_empty == 2  # the rows and the columns of the images, 2 -> 0


def test_every_payload_bit_flip_loads_or_is_a_typed_error(tmp_path):
    pixels = [0, 51, 102, 153, 204, 255, 0, 255, 9, 8, 7, 6]
    img, lab = author_idx_pair(tmp_path, pixels, [3, 1, 0], rows=2, cols=2)
    for path, header_len in ((img, 16), (lab, 8)):
        good = path.read_bytes()
        for bit in range(8 * header_len, 8 * len(good)):
            path.write_bytes(_flip(good, bit))
            try:
                ds = read_idx(img, lab)
            except WeightsepError:
                continue
            assert ds.features.shape == (3, 4)
        path.write_bytes(good)


def test_count_mismatch_between_files(tmp_path):
    img, _ = author_idx_pair(tmp_path, [7] * 8, [0, 1], rows=2, cols=2)
    _, lab = author_idx_pair(tmp_path, [7] * 4, [0], rows=2, cols=2, stem="b")
    with pytest.raises(FormatError) as err:
        read_idx(img, lab)
    assert "2" in str(err.value) and "1" in str(err.value)


def test_gzip_transparent(tmp_path):
    pixels = list(range(8))
    img, lab = author_idx_pair(tmp_path, pixels, [1, 0], rows=2, cols=2)
    gz_img = tmp_path / "img.idx.gz"
    gz_lab = tmp_path / "lab.idx.gz"
    gz_img.write_bytes(gzip.compress(img.read_bytes()))
    gz_lab.write_bytes(gzip.compress(lab.read_bytes()))
    a = read_idx(img, lab)
    b = read_idx(gz_img, gz_lab)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("kind", CORRUPT_GZIP)
def test_corrupt_gzip_is_a_format_error(tmp_path, kind):
    img, lab = author_idx_pair(tmp_path, list(range(8)), [1, 0], rows=2, cols=2)
    gz_img = tmp_path / "img.idx.gz"
    gz_img.write_bytes(CORRUPT_GZIP[kind](gzip.compress(img.read_bytes())))
    with pytest.raises(FormatError, match="corrupt gzip stream"):
        read_idx(gz_img, lab)


def test_idx_round_trip(tmp_path):
    ds = synth_digits(per_class=3, seed=5)
    img = tmp_path / "digits.idx"
    lab = tmp_path / "digits-labels.idx"
    write_idx(ds, img, lab, image_shape=(28, 28))
    back = read_idx(img, lab)
    # Both hold the pixel codes, and write_idx writes them as they are.
    assert back.features.dtype == ds.features.dtype == np.uint8
    assert np.array_equal(back.features, ds.features)
    assert img.read_bytes()[16:] == ds.features.tobytes()
    assert np.array_equal(back.labels, ds.labels)
    # A strided uint8 view is written in row order all the same.
    half = Dataset(ds.features[:, ::2], ds.labels, ds.n_classes)
    write_idx(half, img, lab, image_shape=(28, 14))
    assert np.array_equal(read_idx(img, lab).features, half.features)


def test_dataset_validation():
    feats = np.zeros((3, 2))
    with pytest.raises(DataError):
        Dataset(feats, np.array([0, 1, 3]), 3)
    with pytest.raises(DataError):
        Dataset(feats + 2.0, np.array([0, 1, 2]), 3)
    # uint8 features are codes k / 255, all in range, and need no scan.
    codes = Dataset(np.full((3, 2), 255, dtype=np.uint8), np.array([0, 1, 2]),
                    3)
    assert np.array_equal(codes.rows(), np.ones((3, 2)))


@pytest.mark.parametrize("bad, error", [
    (np.nan, NumericError), (np.inf, NumericError), (-np.inf, NumericError),
    (-0.1, DataError), (1.5, DataError),
], ids=["nan", "inf", "-inf", "below", "above"])
def test_dataset_names_the_error_of_a_bad_feature(bad, error):
    feats = np.full((3, 4), 0.5)
    feats[1, 2] = bad
    with pytest.raises(error) as err:
        Dataset(feats, np.array([0, 1, 2]), 3)
    assert type(err.value) is error


@pytest.mark.parametrize("features, labels, message", [
    (np.zeros(4), np.zeros(4, dtype=int),
     r"^features must be 2-D, got ndim=1$"),
    (np.zeros((4, 2)), np.zeros(3, dtype=int),
     r"^label count \(3,\) != sample count 4$"),
], ids=["1-D-features", "label-count"])
def test_dataset_rejects_a_bad_shape(features, labels, message):
    with pytest.raises(DataError, match=message):
        Dataset(features, labels, 2)


@pytest.mark.parametrize("n_classes, image_shape, message", [
    (2, (2, 3), r"^image shape \(2, 3\) does not cover 4 features$"),
    (257, (2, 2), r"^IDX labels are single bytes; need n_classes <= 256$"),
], ids=["image-shape", "too-many-classes"])
def test_write_idx_rejects_what_idx_cannot_hold(tmp_path, n_classes,
                                                image_shape, message):
    ds = Dataset(np.zeros((2, 4)), np.array([0, 1]), n_classes)
    with pytest.raises(FormatError, match=message):
        write_idx(ds, tmp_path / "images", tmp_path / "labels", image_shape)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("labels", [np.array([0.0, 1.0, 0.0, 1.0]),
                                    np.array([False, True, False, True])],
                         ids=["float", "bool"])
def test_dataset_rejects_non_integer_labels(labels):
    with pytest.raises(DataError, match="labels must be integers"):
        Dataset(np.zeros((4, 2)), labels, 2)


# --- filtering --------------------------------------------------------


def test_filter_keep_all_is_identity():
    ds = synth_blobs(3, 5, 4, 0.1, seed=1)
    out = filter_classes(ds, (0, 1, 2))
    assert np.array_equal(out.features, ds.features)
    assert np.array_equal(out.labels, ds.labels)


def test_filter_remaps_in_keep_order():
    ds = synth_digits(per_class=4, seed=2)
    out = filter_classes(ds, (0, 1, 5))
    assert out.n_classes == 3
    assert len(out) == 12
    assert set(np.unique(out.labels)) == {0, 1, 2}
    new = {0: 0, 1: 1, 5: 2}
    assert out.labels.tolist() == [new[c] for c in ds.labels.tolist() if c in new]
    # features preserved bit-exactly for the kept samples, still as codes
    kept = np.isin(ds.labels, (0, 1, 5))
    assert out.features.dtype == np.uint8
    assert np.array_equal(out.features, ds.features[kept])


def test_filter_single_class():
    ds = synth_digits(per_class=4, seed=2)
    out = filter_classes(ds, (7,))
    assert len(out) == 4
    assert np.all(out.labels == 0)


def test_filter_unknown_class():
    ds = synth_blobs(3, 5, 4, 0.1, seed=1)
    with pytest.raises(DataError):
        filter_classes(ds, (0, 9))


@pytest.mark.parametrize("keep, message", [
    ((), r"^keep list must be non-empty$"),
    ((0, 1, 0), r"^duplicate classes in keep list: \[0, 1, 0\]$"),
], ids=["empty", "duplicate"])
def test_filter_rejects_an_empty_or_repeating_keep_list(keep, message):
    ds = synth_blobs(3, 5, 4, 0.1, seed=1)
    with pytest.raises(DataError, match=message):
        filter_classes(ds, keep)


def test_filter_rejects_non_integer_classes():
    ds = synth_blobs(3, 5, 4, 0.1, seed=1)
    for keep in ((0, 1.7), (True, 2), (0, np.bool_(True)), (0, "1"),
                 (np.float64(1.0),)):
        with pytest.raises(DataError, match="must be integers"):
            filter_classes(ds, keep)


def test_filter_takes_numpy_integers_and_labels_int64():
    ds = synth_digits(per_class=4, seed=2)
    want = filter_classes(ds, (0, 1, 5))
    for keep in ((np.int64(0), np.uint8(1), np.int32(5)), np.array([0, 1, 5]),
                 iter([0, 1, 5])):
        out = filter_classes(ds, keep)
        assert out.labels.dtype == np.int64
        assert np.array_equal(out.labels, want.labels)
        assert np.array_equal(out.features, want.features)


# --- synthetic data ---------------------------------------------------


def test_blobs_deterministic_and_in_range():
    a = synth_blobs(4, 10, 6, 0.3, seed=3)
    b = synth_blobs(4, 10, 6, 0.3, seed=3)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert a.features.min() >= 0.0 and a.features.max() <= 1.0
    assert len(a) == 40


def test_blobs_zero_spread_sits_on_centers():
    ds = synth_blobs(3, 6, 5, 0.0, seed=4)
    for c in range(3):
        rows = ds.features[ds.labels == c]
        assert np.all(rows == rows[0])


def test_blobs_separable_by_nearest_centroid():
    ds = synth_blobs(3, 30, 8, 0.01, seed=6)
    centroids = np.stack(
        [ds.features[ds.labels == c].mean(axis=0) for c in range(3)]
    )
    d = np.linalg.norm(ds.features[:, None] - centroids[None], axis=2)
    assert np.array_equal(np.argmin(d, axis=1), ds.labels)


def test_digits_shape_and_determinism():
    a = synth_digits(per_class=3, seed=8)
    b = synth_digits(per_class=3, seed=8)
    assert a.features.shape == (30, 784)
    assert a.features.dtype == np.uint8
    assert np.array_equal(a.features, b.features)
    assert a.rows().min() >= 0.0 and a.rows().max() <= 1.0
    assert np.array_equal(np.sort(np.unique(a.labels)), np.arange(10))
    c = synth_digits(per_class=3, seed=9)
    assert not np.array_equal(a.features, c.features)


def test_digits_bytes_are_pinned():
    # Recorded before the glyph scale-ups were built once per module.
    # The digests are of the decoded float64 rows, recorded when the
    # features were stored decoded.
    ds = synth_digits(per_class=3, seed=5)
    assert ds.features.dtype == np.uint8 and ds.labels.dtype == np.int64
    assert ds.rows().dtype == np.float64
    assert hashlib.sha256(ds.rows().tobytes()).hexdigest() == (
        "5829fc568daf40daa775de41034ad43db8fa8ae0ed8a5b67ebbe1aa874467eb8")
    assert hashlib.sha256(ds.labels.tobytes()).hexdigest() == (
        "96c8c1fb23425f25e947b5a6706bf75d0779bc56c2f952ba7397350fc1e1f111")
    # Recorded with the per-sample renderer; 300 rows of a digit cross the
    # first render-block boundary.
    ds = synth_digits(per_class=300, seed=5)
    assert hashlib.sha256(ds.rows().tobytes()).hexdigest() == (
        "66d416313e7285cd00882bc505b8840a99ded4e8cf2ccd2e837b87ee89d74aed")
    assert hashlib.sha256(ds.labels.tobytes()).hexdigest() == (
        "10ec2f774651d4417a800af7cd0c932985a4ba69d04230047d3c28435bf20d18")


def render_digit(digit, rand):
    """One sample, drawn and drawn on one at a time: the oracle for the
    block renderer."""
    scaled = _SCALED_GLYPHS[digit]
    canvas = np.zeros((DIGIT_SIDE, DIGIT_SIDE))
    top = 3 + rand.integers(-3, 4)
    left = 6 + rand.integers(-3, 4)
    level = rand.integers(150, 256)
    body = scaled * np.clip(
        level - rand.integers(0, 60, size=scaled.shape), 0, 255
    )
    canvas[top : top + 21, left : left + 15] = body
    speckle = rand.random((DIGIT_SIDE, DIGIT_SIDE)) < 0.08
    canvas = np.where(
        speckle & (canvas == 0),
        rand.integers(0, 64, size=canvas.shape),
        canvas,
    )
    return canvas.reshape(-1) / 255.0


@pytest.mark.parametrize("per_class, seed", [
    (1, 0), (1, 2**64 - 1), (3, 5), (3, 12), (255, 1), (256, 2), (257, 3),
    (300, 2**64 - 1),
    # Digit 3, sample 0 of each has a jitter, level or stroke draw that
    # integers() redraws.
    (1, 15451), (1, 19849),
    (RENDER_BLOCK_ROWS - 1, 4), (RENDER_BLOCK_ROWS, 6),
    (RENDER_BLOCK_ROWS + 1, 7),
])
def test_digits_equal_the_per_sample_renderer(per_class, seed):
    ds = synth_digits(per_class, seed)
    for digit in range(10):
        rows = ds.rows(slice(digit * per_class, (digit + 1) * per_class))
        want = np.stack([
            render_digit(digit, generator(seed, STREAM_DATA, digit, j))
            for j in range(per_class)])
        assert rows.tobytes() == want.tobytes(), digit
    assert np.array_equal(ds.labels, np.repeat(np.arange(10), per_class))


def test_digits_hold_at_most_one_render_block_besides_the_features():
    import tracemalloc

    # A block row holds the sample's 1,335 raw stream words, its intensities
    # as 64-bit halves, the head draws, the glyph body and its canvas index
    # and two masks: about 4.2 float64 canvases. The bound allows 256 rows
    # of 4 canvases; a renderer that drew a whole digit at once would hold
    # 600 rows. The features live on their own mapping, which tracemalloc
    # does not see, so the traced peak is the render buffers alone.
    row_bytes = 4 * 8 * CANVAS_PIXELS
    tracemalloc.start()
    try:
        synth_digits(per_class=600, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * row_bytes


def _vm_rss_bytes():
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return 1024 * int(line.split()[1])
    raise AssertionError("no VmRSS line in /proc/self/status")


def freed_feature_rss(images_path, labels_path):
    """Run in a fresh process: [(name, features.nbytes, resident bytes given
    back when the dataset is freed)] for a rendered and an IDX-read set.

    A 32 MB array is freed first. That raises glibc's dynamic mmap threshold
    past the size of the feature arrays, so a feature array taken from the
    heap would stay resident after it is freed.
    """
    np.ones(4_000_000)  # 32 MB, freed as soon as it is made
    out = []
    for name, build in (("synth_digits", lambda: synth_digits(100, seed=1)),
                        ("read_idx", lambda: read_idx(images_path,
                                                      labels_path))):
        ds = build()
        nbytes = ds.features.nbytes
        held = _vm_rss_bytes()
        del ds
        out.append((name, nbytes, held - _vm_rss_bytes()))
    return out


def test_freed_features_go_back_to_the_os(tmp_path):
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read VmRSS from")
    images, labels = tmp_path / "img", tmp_path / "lab"
    write_idx(synth_digits(100, seed=1), images, labels, (28, 28))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json; from tests import test_data; print(json.dumps("
         f"test_data.freed_feature_rss({str(images)!r}, {str(labels)!r})))"],
        capture_output=True, text=True, env=checkout_env(), cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name, nbytes, given_back in json.loads(proc.stdout.splitlines()[-1]):
        assert given_back >= 0.9 * nbytes, (
            f"{name}: freeing {nbytes} feature bytes gave back {given_back}")


@pytest.mark.parametrize("bad", [-1, 2**64, 2.5, 2.0, True, np.bool_(False),
                                 "3", None],
                         ids=["-1", "2**64", "2.5", "2.0", "True",
                              "numpy-bool", "str", "None"])
def test_every_seeded_stream_rejects_a_seed_it_would_alias(bad):
    ds = synth_blobs(2, 3, 3, 0.1, seed=1)
    calls = (lambda: synth_digits(1, bad),
             lambda: synth_blobs(2, 3, 3, 0.1, seed=bad),
             lambda: list(batches(ds, 4, bad, 0)),
             lambda: check_seed(bad))
    for call in calls:
        with pytest.raises(ConfigError, match="seed must be"):
            call()


@pytest.mark.parametrize("key", [
    (0,), (0, 0), (5, 2, 9, 300), (2**32 - 1, 2**32, 2**32 + 1),
    (2**64 - 1, 3, 2**40 + 7), (7, 3, -1), (np.int64(4), np.uint8(2), 1),
])
def test_generator_streams_equal_seed_sequences_of_the_masked_ints(key):
    words = [int(k) & (2**64 - 1) for k in key]
    want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
    assert np.array_equal(generator(*key).integers(0, 2**63, size=16),
                          want.integers(0, 2**63, size=16))


def test_seeds_may_be_numpy_integers():
    for seed in (np.int64(7), np.uint64(2**64 - 1), np.uint8(7)):
        assert check_seed(seed) is seed
    assert np.array_equal(synth_digits(1, np.uint8(7)).features,
                          synth_digits(1, 7).features)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, np.float64(3.0), "3", 0, -1],
                         ids=["2.5", "2.0", "True", "numpy-float", "str", "0",
                              "-1"])
def test_synthetic_counts_must_be_positive_integers(bad):
    calls = (lambda: synth_digits(bad, 1),
             lambda: synth_blobs(bad, 3, 3, 0.1, seed=1),
             lambda: synth_blobs(2, bad, 3, 0.1, seed=1),
             lambda: synth_blobs(2, 3, bad, 0.1, seed=1))
    for call in calls:
        with pytest.raises(ConfigError, match="must be a positive integer"):
            call()


# --- batching ---------------------------------------------------------


def test_batch_sizes_last_short():
    ds = synth_blobs(2, 5, 3, 0.1, seed=10)  # N = 10
    sizes = [len(lab) for _, lab in batches(ds, 3, 0, epoch=0)]
    assert sizes == [3, 3, 3, 1]


def test_batches_cover_dataset_exactly_once():
    ds = synth_blobs(3, 7, 4, 0.1, seed=11)
    feats = np.concatenate([f for f, _ in batches(ds, 4, 1, epoch=2)])
    labs = np.concatenate([l for _, l in batches(ds, 4, 1, epoch=2)])
    assert sorted(map(tuple, feats)) == sorted(map(tuple, ds.features))
    assert np.array_equal(np.sort(labs), np.sort(ds.labels))


def test_batches_shuffle_by_epoch_and_replay():
    ds = synth_blobs(2, 10, 3, 0.1, seed=12)

    def order(epoch):
        return np.concatenate([l for _, l in batches(ds, 5, 2, epoch)])

    assert not np.array_equal(order(0), order(1))
    assert np.array_equal(order(0), order(0))


def test_batch_plan_validation():
    ds = synth_blobs(2, 3, 3, 0.1, seed=13)
    # a ConfigError, not the ValueError range() raises for a step of 0
    with pytest.raises(ConfigError, match="batch_size must be positive"):
        list(batches(ds, 0, 0, epoch=0))
    with pytest.raises(ConfigError, match="exceeds dataset size"):
        list(batches(ds, 7, 0, epoch=0))


def test_an_epoch_of_batches_holds_no_float_copy_of_the_split(tmp_path):
    import tracemalloc

    images, labels = tmp_path / "img", tmp_path / "lab"
    write_idx(synth_digits(300, seed=3), images, labels, (28, 28))
    ds = read_idx(images, labels)
    assert ds.features.dtype == np.uint8
    seen = 0
    tracemalloc.start()
    try:
        for feats, _ in batches(ds, 128, seed=0, epoch=0):
            assert feats.dtype == np.float64
            seen += len(feats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seen == len(ds)
    # Each batch is decoded alone: two batches at a time come to about 1.8
    # MB, where a float64 copy of the 3,000-row split is 18.8 MB.
    assert peak < len(ds) * ds.dim * 8 / 4


# --- directory loader -------------------------------------------------


def test_load_mnist_dir_missing_gives_fetch_hint(tmp_path):
    with pytest.raises(FormatError) as err:
        load_mnist_dir(tmp_path)
    assert "train-images-idx3-ubyte" in str(err.value)
    assert "http" in str(err.value)


def blocks_dataset(n_blocks, seed):
    """A dataset a few rows over ``n_blocks`` write blocks, whose first rows
    land on the half-way points that rounding must break to even."""
    from weightsep.data import WRITE_BLOCK_ROWS

    rng = np.random.default_rng(seed)
    n = n_blocks * WRITE_BLOCK_ROWS + 5
    features = rng.random((n, 6))
    features[:85] = np.arange(510).reshape(85, 6) / 510.0
    return Dataset(features, rng.integers(0, 3, size=n), 3)


def test_write_idx_bytes_equal_one_shot_conversion(tmp_path):
    ds = blocks_dataset(3, seed=24)
    img, lab = tmp_path / "img", tmp_path / "lab"
    write_idx(ds, img, lab, image_shape=(2, 3))
    header = struct.pack(">IIII", 0x00000803, len(ds), 2, 3)
    one_shot = np.rint(ds.rows() * 255.0).astype(np.uint8).tobytes()
    assert img.read_bytes() == header + one_shot


def test_write_idx_defaults_to_one_row_per_image(tmp_path):
    ds = synth_digits(per_class=2, seed=5)
    img, lab = tmp_path / "img", tmp_path / "lab"
    write_idx(ds, img, lab)
    written = img.read_bytes()
    assert written[:16] == struct.pack(">IIII", 0x00000803, len(ds), 1, ds.dim)
    back = read_idx(img, lab)
    assert back.features.dtype == np.uint8
    assert back.features.tobytes() == ds.features.tobytes()
    assert np.array_equal(back.labels, ds.labels)
    write_idx(back, tmp_path / "img2", tmp_path / "lab2")
    assert (tmp_path / "img2").read_bytes() == written
    assert (tmp_path / "lab2").read_bytes() == lab.read_bytes()


def test_write_idx_holds_no_float_copy_of_the_dataset(tmp_path):
    import tracemalloc

    ds = blocks_dataset(8, seed=25)
    tracemalloc.start()
    try:
        write_idx(ds, tmp_path / "img", tmp_path / "lab", image_shape=(2, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ds.features.nbytes / 2


def test_load_mnist_dir_reads_idx_pairs(tmp_path):
    train = synth_digits(per_class=2, seed=20)
    test = synth_digits(per_class=1, seed=21)
    write_idx(
        train,
        tmp_path / "train-images-idx3-ubyte",
        tmp_path / "train-labels-idx1-ubyte",
        image_shape=(28, 28),
    )
    write_idx(
        test,
        tmp_path / "t10k-images-idx3-ubyte",
        tmp_path / "t10k-labels-idx1-ubyte",
        image_shape=(28, 28),
    )
    got_train, got_test = load_mnist_dir(tmp_path)
    assert np.array_equal(got_train.features, train.features)
    assert np.array_equal(got_test.labels, test.labels)
