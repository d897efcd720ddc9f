"""Datasets: IDX container I/O, class filtering, synthetic fixtures, batching.

Features are row-per-sample, either float64 in [0, 1] or uint8 pixel codes,
where a code k means the value k / 255; :meth:`Dataset.rows` gives either as
float64. Labels are contiguous integers below ``n_classes``.

Two synthetic generators cover offline work: isotropic Gaussian blobs for
fast property tests, and a rendered-digit set (28 x 28 glyphs with placement
jitter and speckle noise) that exercises the full image pipeline when the
real digit files are not on disk.
"""

import gzip
import math
import mmap
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError, NumericError
from .losses import _check_labels
from .rng import STREAM_BATCH, STREAM_DATA, _is_int, generator

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Samples as feature rows, with their labels.

    ``features`` holds float64 values in [0, 1], or uint8 pixel codes, where
    a code k means k / 255 (what :func:`read_idx` and :func:`synth_digits`
    store). Read rows for arithmetic through :meth:`rows`, which decodes
    codes; the network refuses a uint8 batch.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        f = self.features
        l = self.labels
        if f.ndim != 2:
            raise DataError(f"features must be 2-D, got ndim={f.ndim}")
        if l.shape != (f.shape[0],):
            raise DataError(
                f"label count {l.shape} != sample count {f.shape[0]}"
            )
        _check_labels(l, self.n_classes)
        # Every uint8 code decodes into [0, 1]. NaN fails both comparisons,
        # so the finiteness pass runs only to name the error of a set already
        # out of range.
        if f.dtype != np.uint8 and f.size and not (
                f.min() >= 0.0 and f.max() <= 1.0):
            if not np.isfinite(f).all():
                raise NumericError("features contain non-finite values")
            raise DataError("features must lie in [0, 1]")

    def __len__(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    def rows(self, index=slice(None)):
        """``features[index]`` as float64 values: uint8 codes k are decoded
        to k / 255, the same division for every row."""
        rows = self.features[index]
        if rows.dtype == np.uint8:
            return np.divide(rows, 255.0)
        return rows


# Payloads are read in pieces of at most this many bytes, so a header
# promising more than the stream holds never triggers one huge allocation.
READ_CHUNK = 1 << 20

# Rows write_idx scales at a time, so it holds no float copy of the dataset.
WRITE_BLOCK_ROWS = 1024


def _own_mapping(shape, dtype):
    """A zeroed, writable, C-contiguous ``dtype`` array of ``shape`` on its
    own private anonymous mapping.

    Its pages go back to the OS when the last view of it dies. On the heap
    they would not: once glibc's dynamic mmap threshold has risen past the
    array's size, a freed block of that size stays resident. The pages are
    faulted in up front, which costs less than one fault per page as the
    array is first written.
    """
    count = math.prod(shape)
    # mmap refuses a zero length, which an empty IDX file asks for.
    buf = mmap.mmap(-1, max(np.dtype(dtype).itemsize * count, 1),
                    flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
                    | getattr(mmap, "MAP_POPULATE", 0))
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


def _read_exact(f, count, path, what):
    """``count`` bytes of ``f`` as a uint8 array on its own mapping (see
    :func:`_own_mapping`).

    The stream is read in chunks of at most ``READ_CHUNK`` bytes, and the
    array is made only once they add up to ``count``: a header promising a
    huge payload fails as truncated, not in one huge allocation, on any
    stream. The chunks are copied into the array, not joined first, which
    would fault in a second payload-sized block.
    """
    chunks = []
    got = 0
    while got < count:
        chunk = f.read(min(READ_CHUNK, count - got))
        if not chunk:
            break
        chunks.append(chunk)
        got += len(chunk)
    if got != count:
        raise FormatError(
            f"{path}: truncated while reading {what} "
            f"(wanted {count} bytes, got {got})"
        )
    out = _own_mapping((count,), np.uint8)
    got = 0
    for chunk in chunks:
        out[got:got + len(chunk)] = np.frombuffer(chunk, dtype=np.uint8)
        got += len(chunk)
    return out


def _open_binary(path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_idx_array(path, expected_magic, n_dims, what):
    try:
        with _open_binary(path) as f:
            (magic,) = struct.unpack(">I", _read_exact(f, 4, path, "magic"))
            if magic != expected_magic:
                raise FormatError(
                    f"{path}: bad magic for {what}: expected "
                    f"0x{expected_magic:08x}, found 0x{magic:08x}"
                )
            dims = struct.unpack(
                f">{n_dims}I", _read_exact(f, 4 * n_dims, path, "dimensions")
            )
            payload = _read_exact(f, math.prod(dims), path, "payload")
            if f.read(1):
                raise FormatError(f"{path}: trailing bytes after payload")
    # What gzip raises on a cut-short, damaged or non-gzip ``.gz`` file.
    except (EOFError, zlib.error, gzip.BadGzipFile) as e:
        raise FormatError(f"{path}: corrupt gzip stream: {e}") from e
    return dims, payload


def read_idx(images_path, labels_path):
    """Load an image/label IDX file pair into a :class:`Dataset`.

    Pixels stay uint8 codes (see :class:`Dataset`) and images are flattened
    to rows. Each file's big-endian header is checked (magic number,
    dimension sizes, exact payload length), and the image and label counts
    must agree.
    """
    (n_images, rows, cols), pixels = _read_idx_array(
        images_path, IDX_IMAGE_MAGIC, 3, "images"
    )
    (n_labels,), raw_labels = _read_idx_array(
        labels_path, IDX_LABEL_MAGIC, 1, "labels"
    )
    if n_images != n_labels:
        raise FormatError(
            f"image/label count mismatch: {images_path} has {n_images}, "
            f"{labels_path} has {n_labels}"
        )
    labels = raw_labels.astype(np.int64)
    n_classes = int(labels.max()) + 1 if labels.size else 1
    return Dataset(
        features=pixels.reshape(n_images, rows * cols),
        labels=labels,
        n_classes=n_classes,
    )


def write_idx(ds, images_path, labels_path, image_shape=None):
    """Write a dataset back to an IDX image/label pair.

    uint8 features are written as they are; float features are scaled by
    255 and rounded to bytes, so data that came from :func:`read_idx` or
    :func:`synth_digits` round-trips exactly. ``image_shape`` defaults to a
    single row per image.
    """
    n = len(ds)
    if image_shape is None:
        image_shape = (1, ds.dim)
    rows, cols = image_shape
    if rows * cols != ds.dim:
        raise FormatError(
            f"image shape {image_shape} does not cover {ds.dim} features"
        )
    if ds.n_classes > 256:
        raise FormatError("IDX labels are single bytes; need n_classes <= 256")
    if ds.features.dtype == np.uint8:
        pixels = np.ascontiguousarray(ds.features)
    else:
        pixels = np.empty(ds.features.shape, dtype=np.uint8)
        for start in range(0, n, WRITE_BLOCK_ROWS):
            block = ds.features[start:start + WRITE_BLOCK_ROWS] * 255.0
            pixels[start:start + WRITE_BLOCK_ROWS] = np.rint(block, out=block)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        f.write(pixels)
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        f.write(ds.labels.astype(np.uint8).tobytes())


def _check_counts(**counts):
    for name, value in counts.items():
        if not _is_int(value) or value < 1:
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")


def filter_classes(ds, keep):
    """Keep only samples of the listed classes, relabelled 0..k-1 in the
    order given; the features keep their dtype. ``keep`` lists Python or
    numpy integers; a bool or any other entry raises :class:`DataError`."""
    keep = list(keep)
    if not all(map(_is_int, keep)):
        raise DataError(f"classes to keep must be integers, got {keep}")
    keep = [int(c) for c in keep]
    if not keep:
        raise DataError("keep list must be non-empty")
    if len(set(keep)) != len(keep):
        raise DataError(f"duplicate classes in keep list: {keep}")
    present = set(np.unique(ds.labels).tolist())
    unknown = [c for c in keep if c not in present]
    if unknown:
        raise DataError(f"classes not present in dataset: {unknown}")

    new_label = np.zeros(ds.n_classes, dtype=np.int64)
    new_label[keep] = np.arange(len(keep))
    mask = np.isin(ds.labels, keep)
    return Dataset(
        features=ds.features[mask],
        labels=new_label[ds.labels[mask]],
        n_classes=len(keep),
    )


def synth_blobs(n_classes, per_class, dim, spread, seed):
    """Gaussian blob classes: one seeded random center per class, isotropic
    noise of scale ``spread``, samples clipped to [0, 1]. Deterministic."""
    _check_counts(n_classes=n_classes, per_class=per_class, dim=dim)
    rand = generator(seed, STREAM_DATA, n_classes, per_class, dim)
    centers = rand.uniform(0.0, 1.0, size=(n_classes, dim))
    # One draw holds every class's noise; each class block then takes its
    # center, in place, so no second array of the dataset's size is made.
    features = rand.standard_normal((n_classes, per_class, dim))
    features *= spread
    features += centers[:, None]
    features = features.reshape(n_classes * per_class, dim)
    return Dataset(
        features=np.clip(features, 0.0, 1.0, out=features),
        labels=np.repeat(np.arange(n_classes, dtype=np.int64), per_class),
        n_classes=n_classes,
    )


# 5 x 7 digit glyphs for the rendered-digit generator.
_GLYPHS = {
    0: (".###.", "#...#", "#..##", "#.#.#", "##..#", "#...#", ".###."),
    1: ("..#..", ".##..", "..#..", "..#..", "..#..", "..#..", ".###."),
    2: (".###.", "#...#", "....#", "...#.", "..#..", ".#...", "#####"),
    3: ("#####", "...#.", "..#..", "...#.", "....#", "#...#", ".###."),
    4: ("...#.", "..##.", ".#.#.", "#..#.", "#####", "...#.", "...#."),
    5: ("#####", "#....", "####.", "....#", "....#", "#...#", ".###."),
    6: ("..##.", ".#...", "#....", "####.", "#...#", "#...#", ".###."),
    7: ("#####", "....#", "...#.", "..#..", ".#...", ".#...", ".#..."),
    8: (".###.", "#...#", "#...#", ".###.", "#...#", "#...#", ".###."),
    9: (".###.", "#...#", "#...#", ".####", "....#", "...#.", ".##.."),
}

DIGIT_SIDE = 28
CANVAS_PIXELS = DIGIT_SIDE * DIGIT_SIDE


def _scaled_glyph(rows):
    glyph = np.array([[ch == "#" for ch in row] for row in rows],
                     dtype=np.float64)
    scaled = np.kron(glyph, np.ones((3, 3)))  # 21 x 15
    scaled.setflags(write=False)  # shared by every sample of the digit
    return scaled


# Built once: no random draw goes into a glyph or its scale-up.
_SCALED_GLYPHS = tuple(_scaled_glyph(_GLYPHS[d]) for d in range(10))


# The most samples of one digit synth_digits renders together: bounds its
# buffers at any ``per_class``.
RENDER_BLOCK_ROWS = 128

_GLYPH_SHAPE = _SCALED_GLYPHS[0].shape
_STROKES = math.prod(_GLYPH_SHAPE)
# Flat canvas index of each glyph pixel when the glyph sits at (0, 0).
_GLYPH_OFFSETS = (
    DIGIT_SIDE * np.arange(_GLYPH_SHAPE[0])[:, None]
    + np.arange(_GLYPH_SHAPE[1])
).reshape(-1)

# One sample's stream as 64-bit words (see synth_digits): the bounded draws
# before the speckle uniforms, two to a word, then one word per uniform,
# then the intensities, two to a word. The 318 head draws fill their words,
# so PCG64 keeps no spare half for the intensities.
_HEAD_WORDS = (3 + _STROKES) // 2
_SPECKLE_END = _HEAD_WORDS + CANVAS_PIXELS
_STREAM_WORDS = _SPECKLE_END + CANVAS_PIXELS // 2
# Range and lowest value of each head draw: row and column jitter, ink
# level, strokes.
_HEAD_RANGES = np.array([7, 7, 106] + [60] * _STROKES, dtype=np.uint64)
_HEAD_LOWS = np.array([-3, -3, 150] + [0] * _STROKES, dtype=np.int64)
# A bounded 32-bit draw u in range n is (u * n) >> 32, and is redrawn when
# the low 32 bits of u * n fall below (2**32 - n) % n.
_HEAD_REDRAW_BELOW = (2**32 - _HEAD_RANGES) % _HEAD_RANGES
_MASK32 = np.uint64(0xFFFFFFFF)
# A uniform is (w >> 11) * 2**-53, so it is below 0.08 exactly when the
# word w is below this.
_SPECKLE_BELOW = np.uint64(math.ceil(0.08 * 2**53) << 11)


def _halves(words):
    """The 32-bit draws PCG64 hands out from ``words``, low half first, in
    the last axis. Shifts and masks, so the host's byte order plays no
    part."""
    out = np.empty((*words.shape, 2), dtype=np.uint64)
    np.bitwise_and(words, _MASK32, out=out[..., 0])
    np.right_shift(words, 32, out=out[..., 1])
    return out.reshape(*words.shape[:-1], -1)


def synth_digits(per_class, seed):
    """Rendered 28 x 28 digit images, ten classes, deterministic per seed.

    Glyphs are placed with +-3 pixel jitter, per-pixel intensity variation,
    and background speckle, giving a learnable but non-trivial image task
    whose bytes survive an IDX round trip exactly. The features are the
    uint8 pixel codes (see :class:`Dataset`).

    Stream contract: sample ``j`` of ``digit`` draws only from its own
    ``generator(seed, STREAM_DATA, digit, j)``, in this order, by these
    ``Generator`` calls, which are the oracle for the bytes:
    ``integers(-3, 4)`` twice (row and column jitter), ``integers(150,
    256)`` (ink level), ``integers(0, 60, size=(21, 15))`` (stroke
    variation), ``random(784)`` (speckle uniforms) and ``integers(0, 64,
    size=784)`` (speckle intensities).

    The renderer reads those draws from the stream's first 1,335 raw 64-bit
    words instead. Each bounded draw takes one 32-bit half of a word, low
    half first: words 0-158 carry the 318 draws up to the strokes, words
    159-942 the uniforms, one each, and words 943-1334 the intensities. A
    draw u in a range of n values is ``(u * n) >> 32``. ``integers``
    redraws it when the low 32 bits of ``u * n`` fall below ``(2**32 - n)
    % n``, which moves every later draw; a sample with such a draw is drawn
    again by the ``Generator`` calls. Samples are rendered in blocks of at
    most ``RENDER_BLOCK_ROWS`` of one digit, so the temporary buffers stay a
    few MB at any ``per_class``.
    """
    _check_counts(per_class=per_class)
    features = _own_mapping((10 * per_class, CANVAS_PIXELS), np.uint8)
    block = min(per_class, RENDER_BLOCK_ROWS)
    words = np.empty((block, _STREAM_WORDS), dtype=np.uint64)
    for digit in range(10):
        for start in range(0, per_class, block):
            n = min(block, per_class - start)
            for b in range(n):
                words[b] = generator(
                    seed, STREAM_DATA, digit, start + b
                ).bit_generator.random_raw(_STREAM_WORDS)
            head = _halves(words[:n, :_HEAD_WORDS])
            head *= _HEAD_RANGES
            redrawn = (head & _MASK32) < _HEAD_REDRAW_BELOW
            head >>= 32
            head = head.view(np.int64)
            head += _HEAD_LOWS  # top, left, level, strokes
            speckle = words[:n, _HEAD_WORDS:_SPECKLE_END] < _SPECKLE_BELOW
            # A range of 64 never redraws, and (u * 64) >> 32 is u >> 26.
            intensities = _halves(words[:n, _SPECKLE_END:])
            intensities >>= 26
            for b in np.flatnonzero(redrawn.any(axis=1)):
                rand = generator(seed, STREAM_DATA, digit, start + b)
                head[b, 0] = rand.integers(-3, 4)
                head[b, 1] = rand.integers(-3, 4)
                head[b, 2] = rand.integers(150, 256)
                head[b, 3:] = rand.integers(0, 60, size=_STROKES)
                speckle[b] = rand.random(CANVAS_PIXELS) < 0.08
                intensities[b] = rand.integers(0, 64, size=CANVAS_PIXELS)
            s = head[:, 3:]
            np.subtract(head[:, 2, None], s, out=s)
            np.clip(s, 0, 255, out=s)
            body = _SCALED_GLYPHS[digit].reshape(-1) * s
            first = digit * per_class + start
            canvas = features[first:first + n]
            corner = (np.arange(n) * CANVAS_PIXELS
                      + DIGIT_SIDE * (3 + head[:, 0]) + 6 + head[:, 1])
            canvas.reshape(-1)[corner[:, None] + _GLYPH_OFFSETS] = body
            speckle &= canvas == 0
            np.copyto(canvas, intensities, casting="unsafe", where=speckle)
    return Dataset(
        features=features,
        labels=np.repeat(np.arange(10, dtype=np.int64), per_class),
        n_classes=10,
    )


def batches(ds, batch_size, seed, epoch):
    """Yield (features, labels) batches for one epoch of ``ds``, in a fresh
    permutation derived from (seed, epoch): every sample appears exactly once
    and the last batch may be short. Features come decoded, as
    :meth:`Dataset.rows` gives them."""
    n = len(ds)
    if batch_size < 1:
        raise ConfigError(f"batch_size must be positive, got {batch_size}")
    if batch_size > n:
        raise ConfigError(f"batch_size {batch_size} exceeds dataset size {n}")
    perm = generator(seed, STREAM_BATCH, epoch).permutation(n)
    for start in range(0, n, batch_size):
        idx = perm[start : start + batch_size]
        yield ds.rows(idx), ds.labels[idx]


_MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def _load_mnist_split(directory, split):
    """One ``split`` ("train" or "test") of :func:`load_mnist_dir`."""
    import os

    paths = []
    for name in _MNIST_FILES[split]:
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            path += ".gz"
        if not os.path.exists(path):
            raise FormatError(
                f"missing {name}[.gz] in {directory}; download the four "
                "MNIST IDX files (train/t10k images and labels) into that "
                "directory, e.g. from https://ossci-datasets.s3.amazonaws"
                ".com/mnist/"
            )
        paths.append(path)
    return read_idx(*paths)


def load_mnist_dir(directory):
    """Load the standard digit IDX file pair layout from ``directory``.

    Accepts plain or gzipped files under the conventional names. Raises
    :class:`FormatError` if a file is missing, with fetch instructions.
    """
    return tuple(_load_mnist_split(directory, s) for s in ("train", "test"))
