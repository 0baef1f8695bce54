"""Dataset container, simulated generators, parsers, and split helpers.

Text is spelled here for the whole package: ``_fmt`` writes a float at 17
significant digits, and ``_csv`` joins a CSV document. Models, records,
predictions and tables are written through them and read back exactly.

Randomness policy: every generator takes an explicit seed and draws from a
named PCG64 stream; normal deviates come from a Box-Muller transform of
uniforms. The uniform stream is the same on every platform, but numpy's
``log1p``, ``cos`` and ``exp`` may round differently in the last place on
CPUs with different SIMD kernels, so a simulated table (and every fit on
it) is byte-identical across reruns on one machine, not across machines.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, islice

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """Dense feature matrix plus targets and provenance metadata.

    ``clean_targets`` carries the noise-free regression function values for
    simulated data; test-set evaluation on simulations always scores
    against it.
    """

    features: np.ndarray
    targets: np.ndarray
    meta: dict = field(default_factory=dict)
    clean_targets: np.ndarray | None = None

    def __post_init__(self):
        X = np.array(self.features, dtype=np.float64, order="C")
        y = np.array(self.targets, dtype=np.float64).reshape(-1)
        if X.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"features have {X.shape[0]} rows but targets have length {y.shape[0]}")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains non-finite values")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", y)
        if self.clean_targets is not None:
            f = np.array(self.clean_targets, dtype=np.float64).reshape(-1)
            if f.shape[0] != y.shape[0]:
                raise ValueError("clean_targets length mismatch")
            if not np.all(np.isfinite(f)):
                raise ValueError("clean_targets contain non-finite values")
            f.flags.writeable = False
            object.__setattr__(self, "clean_targets", f)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        clean = self.clean_targets[idx] if self.clean_targets is not None else None
        return Dataset(self.features[idx], self.targets[idx],
                       meta=dict(self.meta), clean_targets=clean)


@dataclass(frozen=True)
class SplitAssignment:
    """Disjoint train/test row indices covering a dataset exactly once."""

    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self):
        tr = np.asarray(self.train_indices, dtype=np.intp)
        te = np.asarray(self.test_indices, dtype=np.intp)
        object.__setattr__(self, "train_indices", tr)
        object.__setattr__(self, "test_indices", te)
        if np.intersect1d(tr, te).size:
            raise ValueError("train/test indices overlap")


def normal_from_uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normals via Box-Muller on two uniform draws.

    Consumes a fixed number of uniforms per call, so the stream is
    replayable: the same seed gives the same bytes on one machine. The
    uniforms are the same everywhere, but the transform's ``log1p`` and
    ``cos`` go through numpy's SIMD kernels, which can round differently
    in the last place on another CPU.
    """
    u = rng.random((2, size))
    r = np.sqrt(-2.0 * np.log1p(-u[0]))
    return r * np.cos(2.0 * np.pi * u[1])


def _relu(z):
    return np.maximum(z, 0.0)


# the column groups of the five ridge terms of both simulated functions;
# each term is a link of its group's mean
_SIM_RIDGES = ((0,), (1, 2), (3, 4, 5), (6, 7, 8, 9), (0, 2, 4, 6, 8))


def _ridge_means(X):
    """The mean of each ``_SIM_RIDGES`` group of columns of ``X``, its
    columns summed left to right as the formula reads."""
    X = np.asarray(X, dtype=np.float64)
    return (reduce(np.add, (X[:, j] for j in cols)) / len(cols) for cols in _SIM_RIDGES)


def sim1_function(X: np.ndarray) -> np.ndarray:
    """Sum of five rectified averaged-coordinate ridge terms."""
    return reduce(np.add, map(_relu, _ridge_means(X)))


def sim2_function(X: np.ndarray) -> np.ndarray:
    """Same ridge structure as sim1 with exponential links."""
    return reduce(np.add, map(np.exp, _ridge_means(X)))


def _gen_sim(name: str, fn, n: int, sigma: float, seed: int) -> Dataset:
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma!r}")
    rng = np.random.default_rng(seed)
    X = rng.random((n, 10)) * 6.0 - 3.0
    f = fn(X)
    y = f + sigma * normal_from_uniform(rng, n) if sigma > 0 else f.copy()
    meta = {"name": name, "seed": int(seed), "noise_sigma": float(sigma),
            "source": "simulated"}
    return Dataset(X, y, meta=meta, clean_targets=f)


def gen_sim1(n: int, sigma: float, seed: int) -> Dataset:
    return _gen_sim("sim1", sim1_function, n, sigma, seed)


def gen_sim2(n: int, sigma: float, seed: int) -> Dataset:
    return _gen_sim("sim2", sim2_function, n, sigma, seed)


# the one spelling of a float in text: 17 significant digits, which
# float() reads back to the same bits
_FLOAT = "%.17g"
_fmt = _FLOAT.__mod__


def _csv(header, rows) -> str:
    """A CSV document: the ``header`` cells, then each row's cells. Each
    row is joined into its line as it is drawn from ``rows``, so no more
    than the lines and then the document are held; the trailing ``""``
    ends the last line."""
    return "\n".join(chain([",".join(header)], map(",".join, rows), [""]))


def _lines(source):
    """The lines of a table source, a string or an iterable of lines (an
    open file). A string, held whole already, is split by
    ``str.splitlines``. An open file is iterated one line at a time, so
    its whole text is never held; opened in ``open``'s default newline
    mode, it ends lines at ``\\n``, ``\\r\\n`` or ``\\r`` only. A line may
    keep its line end: the readers strip a line and its cells of
    surrounding whitespace, and numpy's reader ends the line there."""
    return source.splitlines() if isinstance(source, str) else source


def _rereader(source):
    """A function that gives the ``_lines`` of ``source`` from its start
    each time it is called: a string is split again, and a seekable file
    is sought back to where it stood. Any other source can be read only
    once, so its lines are listed up front; so is a text file that is
    being iterated, which cannot tell where it stands."""
    if isinstance(source, str):
        return lambda: _lines(source)
    try:
        start = source.tell() if isinstance(source, io.IOBase) and source.seekable() else None
    except OSError:
        start = None
    if start is not None:

        def lines():
            source.seek(start)
            return _lines(source)

        return lines
    listed = list(source)
    return lambda: listed


def _numbered(lines):
    """(1-based line number, line) of each non-blank line of ``lines``."""
    return ((no, ln) for no, ln in enumerate(lines, start=1) if ln.strip())


def parse_libsvm(source, expected_dim: int | None = None,
                 name: str = "libsvm") -> Dataset:
    """Parse sparse `target index:value ...` lines into a dense dataset.

    Indices are 1-based and must be strictly increasing within a line;
    absent indices are zero-filled.
    """
    targets = []
    rows = []
    max_dim = expected_dim or 0
    for lineno, line in _numbered(_lines(source)):
        parts = line.split()
        try:
            target = float(parts[0])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed target {parts[0]!r}")
        if not np.isfinite(target):
            raise ValueError(f"line {lineno}: non-finite target")
        entries = []
        prev = 0
        for tok in parts[1:]:
            try:
                idx_s, val_s = tok.split(":", 1)
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ValueError(f"line {lineno}: malformed token {tok!r}")
            if idx <= prev:
                raise ValueError(
                    f"line {lineno}: feature indices must be strictly increasing (got {idx} after {prev})")
            if not np.isfinite(val):
                raise ValueError(f"line {lineno}: non-finite value in token {tok!r}")
            entries.append((idx, val))
            prev = idx
        if expected_dim is not None and prev > expected_dim:
            raise ValueError(
                f"line {lineno}: feature index {prev} exceeds expected dimension {expected_dim}")
        max_dim = max(max_dim, prev)
        targets.append(target)
        rows.append(entries)
    n = len(targets)
    X = np.zeros((n, max_dim))
    for i, entries in enumerate(rows):
        for idx, val in entries:
            X[i, idx - 1] = val
    return Dataset(X, np.asarray(targets),
                   meta={"name": name, "source": "libsvm"})


def _looks_numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _columns(table: np.ndarray, cols: list) -> np.ndarray:
    """``table[:, cols]`` for ascending ``cols``: a view when they are
    adjacent, so that no copy is made of a run of columns."""
    if cols and cols[-1] - cols[0] == len(cols) - 1:
        return table[:, cols[0]:cols[-1] + 1]
    return table[:, cols]


def _csv_values(body, lines, skip: int, ncols: int, used) -> np.ndarray:
    """The ``(rows, ncols)`` float64 values of the ``body`` lines, each
    cell as Python ``float()`` reads it. ``body`` is an iterator over the
    non-blank lines of the source ``lines()`` reads, past the first
    ``skip`` of them (the header).

    numpy's reader takes the body one line at a time; it reads the same
    bits as ``float()`` but refuses some cells that ``float()`` reads
    (``1_000``). It gives one row per line or raises (a line holding a
    line break raises), so only the width can be wrong. When it raises or
    the width is wrong, the source is read again and its non-blank lines
    are listed for a cell-by-cell loop, which raises the first error in
    file order. Then the first non-finite cell of the ``used`` columns in
    row-major order is rejected, its line found by reading the source
    again."""
    head = next(body, None)
    if head is None:
        return np.empty((0, ncols))
    try:
        # no comment character: "1#2" is a malformed cell, not 1
        table = np.loadtxt(chain([head], body), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        table = None
    if table is None or table.shape[1] != ncols:
        numbered = list(islice(_numbered(lines()), skip, None))
        table = np.empty((len(numbered), ncols))
        for i, (no, line) in enumerate(numbered):
            cells = [c.strip() for c in line.split(",")]
            if len(cells) != ncols:
                raise ValueError(f"row {no}: expected {ncols} cells, got {len(cells)}")
            for j, cell in enumerate(cells):
                try:
                    table[i, j] = float(cell)
                except ValueError:
                    raise ValueError(f"row {no}, column {j + 1}: non-numeric cell {cell!r}")
    bad = np.argwhere(~np.isfinite(_columns(table, used)))
    if bad.size:
        i, j = bad[0]
        j = used[j]
        no, line = next(islice(_numbered(lines()), skip + i, None))
        cell = line.split(",")[j].strip()
        raise ValueError(f"row {no}, column {j + 1}: non-finite cell {cell!r}")
    return table


def parse_csv(source, target_column, drop_columns=(), name: str = "csv") -> Dataset:
    """Parse a rectangular numeric table; the target column (by header name
    or 0-based index) is split out, remaining columns in order become
    features. With ``target_column`` None there is no target column: every
    column not dropped is a feature, and the targets are zeros.

    The first non-blank line is a header unless every one of its cells
    reads as a number. Each cell is read exactly as Python ``float()``
    reads it, surrounding whitespace included. Blank lines are skipped,
    but errors name the 1-based line of the source: a ragged line, a
    non-numeric cell in any column, or a non-finite cell (``nan``,
    ``inf``, ``1e400``) in the target or a feature column.

    The lines after the header go to numpy's reader one at a time (see
    ``_csv_values``); they are listed only to report an error or to read
    cells numpy refuses, for which the source is read again from its
    start."""
    lines = _rereader(source)
    body = filter(str.strip, lines())  # the non-blank lines
    first = next(body, None)
    meta = {"name": name, "source": "csv"}
    if first is None:
        return Dataset(np.zeros((0, 0)), np.zeros(0), meta=meta)
    cells = [c.strip() for c in first.split(",")]
    header = None if all(_looks_numeric(c) for c in cells) else cells
    ncols = len(cells)

    def col_index(spec):
        if isinstance(spec, int):
            if not 0 <= spec < ncols:
                raise ValueError(f"column index {spec} out of range for {ncols} columns")
            return spec
        if header is None:
            raise ValueError(f"column {spec!r} requested by name but the table has no header")
        if spec not in header:
            raise ValueError(f"column {spec!r} not found in header {header}")
        return header.index(spec)

    tgt = None if target_column is None else col_index(target_column)
    dropped = {col_index(c) for c in drop_columns}
    if tgt in dropped:
        raise ValueError("target column cannot also be dropped")
    keep = [j for j in range(ncols) if j != tgt and j not in dropped]
    used = keep if tgt is None else sorted(keep + [tgt])
    if header is None:
        body = chain([first], body)
    table = _csv_values(body, lines, header is not None, ncols, used)
    y = np.zeros(len(table)) if tgt is None else table[:, tgt]
    return Dataset(_columns(table, keep), y, meta=meta)


def dataset_to_csv(data: Dataset, include_clean: bool = False) -> str:
    """Serialize with 17 significant digits so values round-trip exactly.
    The table is converted to Python floats one row at a time and each
    row is spelled by one ``%`` of the row pattern, so beside the one
    float64 copy of the table only the CSV lines and then the document
    are held."""
    header = [f"x{j + 1}" for j in range(data.dim)] + ["y"]
    columns = [data.features, data.targets[:, None]]
    if include_clean:
        if data.clean_targets is None:
            raise ValueError("dataset has no clean targets to include")
        header.append("f")
        columns.append(data.clean_targets[:, None])
    pattern = ",".join([_FLOAT] * len(header))
    # one cell per row: its whole line; the generator holds the stacked
    # table, which is freed once the last line is drawn
    return _csv(header, zip(pattern % tuple(row.tolist()) for row in np.hstack(columns)))


def train_test_split(data: Dataset, train_fraction: float, seed: int) -> SplitAssignment:
    """Seeded uniform shuffle; the first ceil(n * fraction) rows train."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    n = data.n
    if n < 2:
        raise ValueError("need at least 2 rows to split")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(np.ceil(n * train_fraction))
    return SplitAssignment(perm[:n_train], perm[n_train:])


def kfold_indices(n: int, k: int, seed: int) -> list[SplitAssignment]:
    """k validation folds partitioning [0, n); sizes differ by at most 1."""
    if not 2 <= k <= n:
        raise ValueError(f"k must satisfy 2 <= k <= n, got k={k}, n={n}")
    folds = np.array_split(np.random.default_rng(seed).permutation(n), k)
    return [SplitAssignment(np.concatenate(folds[:i] + folds[i + 1:]), val)
            for i, val in enumerate(folds)]


def minmax_scale(train: Dataset, others: tuple[Dataset, ...] = ()) -> tuple[Dataset, ...]:
    """Rescale features to [0, 1] using the training set's column ranges;
    constant columns map to 0."""
    lo = train.features.min(axis=0)
    hi = train.features.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)

    def apply(ds: Dataset) -> Dataset:
        X = (ds.features - lo) / span
        return Dataset(X, ds.targets, meta=dict(ds.meta), clean_targets=ds.clean_targets)

    return tuple(apply(ds) for ds in (train, *others))


# what each manifest entry key must hold, and the test of it
_ENTRY_KEYS = {
    "path": ("a string", lambda v: isinstance(v, str)),
    "format": ("'csv' or 'libsvm'", lambda v: v in ("csv", "libsvm")),
    "target": ("a string or an integer",
               lambda v: isinstance(v, (str, int)) and not isinstance(v, bool)),
    "n_features": ("a positive integer",
                   lambda v: isinstance(v, int) and not isinstance(v, bool) and v > 0),
    "url": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "sha256": ("a string or null", lambda v: v is None or isinstance(v, str)),
}


def check_manifest(manifest) -> dict:
    """Return ``manifest``, a dict mapping dataset name to {path, format?,
    target?, url?, sha256?, n_features?}. An entry that is not an object,
    lacks ``path``, holds a key not in that list or a value of the wrong
    kind raises a ValueError naming the dataset and the key."""
    if not isinstance(manifest, dict):
        raise ValueError("manifest must be a JSON object keyed by dataset name")
    for name, entry in manifest.items():
        if not isinstance(entry, dict):
            raise ValueError(f"manifest entry {name!r} must be an object, got {entry!r}")
        if "path" not in entry:
            raise ValueError(f"manifest entry {name!r} has no path")
        unknown = [key for key in entry if key not in _ENTRY_KEYS]
        if unknown:
            raise ValueError(f"manifest entry {name!r}: unknown key {unknown[0]!r}; "
                             f"known keys are {', '.join(_ENTRY_KEYS)}")
        for key, (kind, valid) in _ENTRY_KEYS.items():
            if key in entry and not valid(entry[key]):
                raise ValueError(f"manifest entry {name!r}: {key} must be {kind}, "
                                 f"got {entry[key]!r}")
    return manifest


def load_manifest(path: str) -> dict:
    """The manifest in the JSON file at ``path``, checked by
    ``check_manifest``."""
    with open(path, "r", encoding="utf-8") as fh:
        return check_manifest(json.load(fh))


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def fetch_dataset(entry: dict, dest_path: str, timeout: float = 60.0) -> str:
    """Download a manifest entry's URL to dest_path, verifying a pinned
    sha256 when present. The body is streamed to ``<dest_path>.part``,
    which is renamed to dest_path once complete and verified, and removed
    on any failure."""
    # imported here, its one use: it pulls in http, email and ssl, which
    # would lengthen every import of the package
    import urllib.request

    url = entry.get("url")
    if not url:
        raise ValueError("manifest entry has no url to fetch")
    os.makedirs(os.path.dirname(dest_path) or ".", exist_ok=True)
    tmp = dest_path + ".part"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp, open(tmp, "wb") as out:
            shutil.copyfileobj(resp, out)
        pinned = entry.get("sha256")
        if pinned:
            got = sha256_file(tmp)
            if got != pinned:
                raise ValueError(f"checksum mismatch for {url}: expected {pinned}, got {got}")
        os.replace(tmp, dest_path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return dest_path


def manifest_file(entry: dict, base_dir: str = ".") -> str:
    """The file a manifest entry names; a relative path is taken from
    ``base_dir``."""
    return os.path.join(base_dir, entry["path"])


def _column(spec):
    """A CSV column spec: an int, or a string of digits (with an optional
    leading minus), is a 0-based index; any other string is a header
    name."""
    if isinstance(spec, str) and spec.lstrip("-").isdigit():
        return int(spec)
    return spec


def read_table(path: str, fmt: str = "csv", target="y", drop=(),
               expected_dim: int | None = None, name: str | None = None) -> Dataset:
    """Read the ``csv`` or ``libsvm`` table at ``path``. For CSV,
    ``target`` and each ``drop`` entry name a column by header name or
    0-based index, and a ``target`` of None reads no target (zeros, see
    ``parse_csv``). A LIBSVM table names no columns: its target is the
    first field of each line, so a ``target`` other than "y" or None and
    any ``drop`` entry are refused. ``expected_dim`` bounds a LIBSVM
    table's feature indices, and is the number of feature columns a CSV
    table must have. The dataset is named ``name``, by default the file's
    base name without its extension.

    The open file goes to the parser, which takes its lines one at a time
    (see ``_lines``): a CSV table's non-blank lines go to numpy's reader
    as they are read, and are listed only to report an error or to read
    cells numpy refuses (see ``parse_csv``). So lines end at ``\\n``,
    ``\\r\\n`` or ``\\r``, and any other character, a form feed
    included, belongs to its line."""
    if name is None:
        name = os.path.splitext(os.path.basename(path))[0]
    with open(path, "r", encoding="utf-8") as fh:
        if fmt == "libsvm":
            if target not in ("y", None):
                raise ValueError(f"target {target!r}: a libsvm table names no columns; "
                                 "its target is the first field of each line")
            if drop:
                raise ValueError(f"drop {list(drop)!r}: a libsvm table names no columns")
            return parse_libsvm(fh, expected_dim=expected_dim, name=name)
        if fmt == "csv":
            data = parse_csv(fh, _column(target), tuple(map(_column, drop)), name=name)
            if expected_dim is not None and data.dim != expected_dim:
                raise ValueError(f"{path}: expected {expected_dim} feature columns, "
                                 f"the table has {data.dim}")
            return data
        raise ValueError(f"unknown dataset format {fmt!r}")


def load_from_manifest(name: str, manifest: dict, base_dir: str = ".") -> Dataset:
    """Resolve and parse a named real-world dataset from its manifest
    entry, which ``check_manifest`` checks first."""
    if name not in manifest:
        raise KeyError(f"dataset {name!r} not in manifest")
    entry = check_manifest({name: manifest[name]})[name]
    path = manifest_file(entry, base_dir)
    if not os.path.exists(path):
        raise FileNotFoundError(f"dataset file for {name!r} not found at {path}")
    return read_table(path, entry.get("format", "libsvm"), entry.get("target", "y"),
                      expected_dim=entry.get("n_features"), name=name)
