"""On-disk formats: feature files, label files, model bundles, index files.

All binary formats are little-endian with a 4-byte magic and a u32
version. Serialisation is fully deterministic (no timestamps, no
compression), so identical in-memory objects produce byte-identical
files. Writes go through a temp file in the target directory followed by
an atomic rename; a crash leaves either the old file or the new one.

Feature file ("OHWF"): magic, version u32, N u32, D u32, then N*D
float32 values, row-major.

Label file: UTF-8 text. First line "C=<n_classes>", line i+1 holds the
space-separated class indices of point i. Every point has at least one
label.

Model bundle ("OHWB"): every matrix, counter and seed of a trained
pipeline. Loading then saving reproduces the bytes exactly. Recorded
ledger streams are not persisted (only counters and r_max are).

Index file ("OHWI"): stored packed codes plus the projected cache and
its version/digest.
"""

from __future__ import annotations

import fcntl
import os
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .codes import words_per_code
from .errors import LockContentionError
from .index import CodeIndex
from .itq import HashModel
from .labelcodes import LabelHashMatrix
from .online import BoundLedger, ProjectionState

FEATURE_MAGIC = b"OHWF"
BUNDLE_MAGIC = b"OHWB"
INDEX_MAGIC = b"OHWI"
FORMAT_VERSION = 1

_DTYPE_CODES = {np.dtype("<f8"): 1, np.dtype("<i8"): 2, np.dtype("<u8"): 3}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


def atomic_write_bytes(path: str, data: bytes):
    """Write via temp file + rename so readers never see partial content."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextmanager
def bundle_lock(path: str):
    """Advisory exclusive lock: one mutating command per bundle at a time."""
    lock_path = path + ".lock"
    with open(lock_path, "w") as f:
        try:
            fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            raise LockContentionError(f"another command is mutating {path}") from None
        yield


class _Reader:
    def __init__(self, data: bytes, what: str):
        self.data = data
        self.off = 0
        self.what = what

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.off + size > len(self.data):
            raise ValueError(f"truncated {self.what}")
        out = struct.unpack_from(fmt, self.data, self.off)
        self.off += size
        return out

    def take_bytes(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise ValueError(f"truncated {self.what}")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def expect_end(self):
        if self.off != len(self.data):
            raise ValueError(f"{self.what} has {len(self.data) - self.off} trailing bytes")


def _array_bytes(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr)
    if arr.dtype == np.int64:
        arr = arr.astype("<i8")
    elif arr.dtype == np.uint64 or arr.dtype.str == "<u8":
        arr = arr.astype("<u8")
    else:
        arr = arr.astype("<f8")
    parts = [struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim)]
    parts.append(struct.pack("<" + "q" * arr.ndim, *arr.shape))
    parts.append(arr.tobytes())
    return b"".join(parts)


def _read_array(r: _Reader) -> np.ndarray:
    code, ndim = r.take("<BB")
    if code not in _CODE_DTYPES:
        raise ValueError(f"unknown array dtype code {code} in {r.what}")
    shape = r.take("<" + "q" * ndim) if ndim else ()
    dtype = _CODE_DTYPES[code]
    count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
    raw = r.take_bytes(count * dtype.itemsize)
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def _expect_shape(what: str, name: str, arr: np.ndarray, shape: tuple):
    if arr.shape != shape:
        raise ValueError(f"{what}: {name} has shape {arr.shape}, header implies {shape}")


# -- feature files ----------------------------------------------------------


def write_features(path: str, features: np.ndarray):
    features = np.asarray(features)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    n, d = features.shape
    header = FEATURE_MAGIC + struct.pack("<III", FORMAT_VERSION, n, d)
    atomic_write_bytes(path, header + features.astype("<f4").tobytes())


def read_features(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    r = _Reader(data, f"feature file {path}")
    if r.take_bytes(4) != FEATURE_MAGIC:
        raise ValueError(f"{path} is not a feature file (bad magic)")
    version, n, d = r.take("<III")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported feature file version {version}")
    payload = r.take_bytes(n * d * 4)
    r.expect_end()
    return np.frombuffer(payload, dtype="<f4").reshape(n, d).copy()


# -- label files ------------------------------------------------------------


def write_labels(path: str, labels_seq, n_classes: int):
    lines = [f"C={n_classes}"]
    for i, labels in enumerate(labels_seq):
        idx = sorted(int(c) for c in labels)
        if not idx:
            raise ValueError(f"point {i} has no labels")
        if idx[0] < 0 or idx[-1] >= n_classes:
            raise ValueError(f"point {i} has labels outside [0, {n_classes})")
        lines.append(" ".join(str(c) for c in idx))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


def read_labels(path: str) -> tuple[list, int]:
    """Returns (list of frozensets, n_classes)."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith("C="):
        raise ValueError(f"{path} is not a label file (missing C= header)")
    try:
        n_classes = int(lines[0][2:])
    except ValueError:
        raise ValueError(f"{path}: malformed class count {lines[0]!r}") from None
    if n_classes < 1:
        raise ValueError(f"{path}: class count must be positive")
    labels = []
    # Each distinct line is parsed and checked once, at its first line number.
    parsed = {}
    for ln, line in enumerate(lines[1:], start=2):
        if line not in parsed:
            parsed[line] = _parse_label_line(path, ln, line, n_classes)
        labels.append(parsed[line])
    return labels, n_classes


def _parse_label_line(path: str, ln: int, line: str, n_classes: int) -> frozenset:
    parts = line.split()
    if not parts:
        raise ValueError(f"{path}:{ln}: empty label line")
    try:
        idx = frozenset(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"{path}:{ln}: non-integer label") from None
    if any(c < 0 or c >= n_classes for c in idx):
        raise ValueError(f"{path}:{ln}: label outside [0, {n_classes})")
    return idx


# -- model bundles ----------------------------------------------------------


@dataclass(eq=False)
class ModelBundle:
    """A trained pipeline ready to persist: models, state, configuration."""

    hash_model: HashModel
    label_matrix: LabelHashMatrix
    state: ProjectionState
    config: dict = field(default_factory=dict)


def bundle_to_bytes(bundle: ModelBundle) -> bytes:
    hm, lm, st = bundle.hash_model, bundle.label_matrix, bundle.state
    cfg = bundle.config
    led = st.ledger
    parts = [
        BUNDLE_MAGIC,
        struct.pack("<I", FORMAT_VERSION),
        struct.pack(
            "<IIIIII",
            hm.nbits,
            hm.dim,
            lm.n_classes,
            int(cfg.get("init_size", 0)),
            int(cfg.get("chunk_size", 0)),
            int(cfg.get("itq_iters", 0)),
        ),
        struct.pack("<qqq", hm.seed, lm.seed, st.seed),
        struct.pack("<d", st.aggressiveness),
        struct.pack("<q", st.rounds_seen),
        struct.pack("<d", led.r_max),
        struct.pack("<q", led.rounds),
    ]
    for arr in (
        hm.W,
        hm.b,
        hm.feature_mean,
        hm.rotation,
        hm.itq_errors,
        hm.itq_orth_devs,
        lm.L,
        st.P,
        st.R,
        led.code_mistakes,
        led.feature_mistakes,
    ):
        parts.append(_array_bytes(arr))
    return b"".join(parts)


def bundle_from_bytes(data: bytes, what: str = "model bundle") -> ModelBundle:
    r = _Reader(data, what)
    if r.take_bytes(4) != BUNDLE_MAGIC:
        raise ValueError(f"{what}: bad magic, not a model bundle")
    (version,) = r.take("<I")
    if version != FORMAT_VERSION:
        raise ValueError(f"{what}: unsupported bundle version {version}")
    nbits, dim, n_classes, init_size, chunk_size, itq_iters = r.take("<IIIIII")
    seed_hash, seed_label, seed_proj = r.take("<qqq")
    (aggressiveness,) = r.take("<d")
    (rounds_seen,) = r.take("<q")
    (r_max,) = r.take("<d")
    (ledger_rounds,) = r.take("<q")
    arrays = [_read_array(r) for _ in range(11)]
    r.expect_end()
    W, b, mean, rotation, itq_errors, itq_orth, L, P, R, code_m, feat_m = arrays
    for name, arr, shape in (
        ("W", W, (dim, nbits)),
        ("b", b, (nbits,)),
        ("feature_mean", mean, (dim,)),
        ("rotation", rotation, (nbits, nbits)),
        ("L", L, (n_classes, nbits)),
        ("P", P, (nbits, nbits)),
        ("R", R, (dim, nbits)),
        ("code_mistakes", code_m, (nbits,)),
        ("feature_mistakes", feat_m, (nbits,)),
    ):
        _expect_shape(what, name, arr, shape)
    hm = HashModel(
        W=W,
        b=b,
        feature_mean=mean,
        rotation=rotation,
        nbits=nbits,
        dim=dim,
        seed=seed_hash,
        itq_errors=itq_errors,
        itq_orth_devs=itq_orth,
    )
    lm = LabelHashMatrix(L=L, n_classes=n_classes, nbits=nbits, seed=seed_label)
    ledger = BoundLedger(
        nbits=nbits,
        aggressiveness=aggressiveness,
        rounds=ledger_rounds,
        r_max=r_max,
        code_mistakes=code_m,
        feature_mistakes=feat_m,
    )
    state = ProjectionState(
        P=P,
        R=R,
        aggressiveness=aggressiveness,
        seed=seed_proj,
        rounds_seen=rounds_seen,
        ledger=ledger,
    )
    config = {
        "nbits": nbits,
        "dim": dim,
        "n_classes": n_classes,
        "init_size": init_size,
        "chunk_size": chunk_size,
        "itq_iters": itq_iters,
        "aggressiveness": aggressiveness,
        "seed": seed_hash,
    }
    return ModelBundle(hash_model=hm, label_matrix=lm, state=state, config=config)


def save_bundle(path: str, bundle: ModelBundle):
    atomic_write_bytes(path, bundle_to_bytes(bundle))


def load_bundle(path: str) -> ModelBundle:
    with open(path, "rb") as f:
        return bundle_from_bytes(f.read(), what=path)


# -- index files ------------------------------------------------------------


def index_to_bytes(index: CodeIndex) -> bytes:
    words = index._words[: len(index)]
    parts = [
        INDEX_MAGIC,
        struct.pack("<I", FORMAT_VERSION),
        struct.pack("<I", index.nbits),
        struct.pack("<Q", len(index)),
        struct.pack("<Q", index.projection_version),
        struct.pack("<B", 0 if index._projected is None else 1),
    ]
    digest = index._projection_digest or b""
    parts.append(struct.pack("<I", len(digest)))
    parts.append(digest)
    parts.append(_array_bytes(words))
    if index._projected is not None:
        parts.append(_array_bytes(index._projected))
    return b"".join(parts)


def index_from_bytes(data: bytes, what: str = "index file") -> CodeIndex:
    r = _Reader(data, what)
    if r.take_bytes(4) != INDEX_MAGIC:
        raise ValueError(f"{what}: bad magic, not an index file")
    (version,) = r.take("<I")
    if version != FORMAT_VERSION:
        raise ValueError(f"{what}: unsupported index version {version}")
    (nbits,) = r.take("<I")
    (size,) = r.take("<Q")
    (proj_version,) = r.take("<Q")
    (has_projected,) = r.take("<B")
    (digest_len,) = r.take("<I")
    digest = r.take_bytes(digest_len) if digest_len else None
    words = _read_array(r)
    projected = _read_array(r) if has_projected else None
    r.expect_end()
    width = words_per_code(nbits)
    if words.shape != (size, width):
        raise ValueError(
            f"{what}: header claims {size} codes of {width} words, payload has {words.shape}"
        )
    if projected is not None and not (
        projected.ndim == 2 and projected.shape[0] <= size and projected.shape[1] == width
    ):
        raise ValueError(
            f"{what}: projected cache has shape {projected.shape}, "
            f"header allows at most {size} rows of {width} words"
        )
    index = CodeIndex(nbits)
    index._words = words.astype("<u8")
    index._size = size
    index._projected = None if projected is None else projected.astype("<u8")
    index.projection_version = proj_version
    index._projection_digest = digest
    return index


def save_index(path: str, index: CodeIndex):
    atomic_write_bytes(path, index_to_bytes(index))


def load_index(path: str) -> CodeIndex:
    with open(path, "rb") as f:
        return index_from_bytes(f.read(), what=path)
