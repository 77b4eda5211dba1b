"""Text artifacts: the one module that writes files and decides their format.

A write makes the directory of its file and goes to a temporary name that
then replaces the file, so a failed write leaves the old file intact.  The
formats are CSV tables (string or number cells), ``key=value`` files,
vectors (one value per line) and matrices as 1-based triplets (a ``rows
cols nnz`` header, then ``row col value`` lines).  Numbers carry 17
significant digits, so doubles read back exactly, and are formatted and
parsed (by ``np.loadtxt``) ``CHUNK_LINES`` lines at a time.  An unreadable
file raises :class:`ConfigError` and malformed content
:class:`DimensionError`; both name the file, and the line where known.
"""

from __future__ import annotations

import contextlib
import itertools
import os

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DimensionError

# Lines per chunk, few enough that a chunk's Python objects stay out of peak memory.
CHUNK_LINES = 2048


def write_text(path, chunks):
    """Write the strings of ``chunks`` to ``path`` atomically."""
    tmp = f"{path}.tmp"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(tmp, "w", encoding="ascii") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _open(path):
    try:
        return open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _blocks(path, lines, first, width, delimiter=None):
    """Float arrays of the rows of ``lines``, a chunk at a time (``lines[0]`` is
    line ``first``); blank lines hold no row, others must be ``width`` numbers."""
    lines = iter(lines)
    for chunk in iter(lambda: list(itertools.islice(lines, CHUNK_LINES)), []):
        if any(map(str.strip, chunk)):
            try:
                rows = np.loadtxt(chunk, delimiter=delimiter, comments=None, ndmin=2)
                if rows.shape[1] != width:
                    raise ValueError
            except ValueError:
                if len(chunk) > 1:  # parse line by line to name the line at fault
                    for k, line in enumerate(chunk):
                        list(_blocks(path, [line], first + k, width, delimiter))
                line = chunk[0].strip()
                raise DimensionError(f"{path}:{first}: not {width} numbers: {line!r}") from None
            yield rows
        first += len(chunk)


def _formatted(fmt, *columns):
    """Chunks of ``fmt`` lines, line ``i`` filled from item ``i`` of each column."""
    for lo in range(0, len(columns[0]), CHUNK_LINES):
        block = np.column_stack([c[lo : lo + CHUNK_LINES] for c in columns])
        yield fmt * len(block) % tuple(block.ravel().tolist())


def write_table(path, columns, rows):
    """Write a CSV table; each row lists its cells in column order."""
    cells = ((v if isinstance(v, str) else "%.17g" % v for v in row) for row in rows)
    lines = (",".join(row) + "\n" for row in cells)
    write_text(path, itertools.chain([",".join(columns) + "\n"], lines))


def read_table(path):
    """Column names and the ``(rows, columns)`` values of a numeric table."""
    with _open(path) as fh:
        columns = fh.readline().strip().split(",")
        if columns == [""]:
            raise DimensionError(f"{path}: no header")
        blocks = _blocks(path, fh, 2, len(columns), ",")
        return columns, np.concatenate([np.empty((0, len(columns))), *blocks])


def write_keyvalue(path, entries):
    """Write a mapping as ``key=value`` lines, each value as ``str`` gives it."""
    write_text(path, [f"{key}={value}\n" for key, value in entries.items()])


def read_keyvalue(path):
    """``(line number, key, value)``, stripped, of each line but blank lines
    and ``#`` lines; a line without ``=`` raises :class:`ConfigError`."""
    entries = []
    with _open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            entries.append((lineno, key.strip(), value.strip()))
    return entries


def write_vector(path, vec):
    """Write a vector as one value per line."""
    write_text(path, _formatted("%.17g\n", np.asarray(vec, dtype=float).ravel()))


def read_vector(path):
    """Read a vector written by :func:`write_vector`."""
    with _open(path) as fh:
        return np.concatenate([np.empty((0, 1)), *_blocks(path, fh, 1, 1)]).ravel()


def write_triplets(path, matrix):
    """Write ``matrix`` as triplets: the stored entries of a scipy sparse
    matrix, or the nonzeros of a 2-d array in row-major order.  An array is
    read one band of rows at a time, so no index array of the whole matrix
    is formed."""
    if sp.issparse(matrix):
        coo = sp.coo_array(matrix)
        nnz, lines = coo.nnz, _formatted("%d %d %.17g\n", coo.row + 1, coo.col + 1, coo.data)
    else:
        matrix = np.asarray(matrix)
        nnz, lines = np.count_nonzero(matrix), _nonzero_lines(matrix)
    header = f"{matrix.shape[0]} {matrix.shape[1]} {nnz}\n"
    write_text(path, itertools.chain([header], lines))


def _nonzero_lines(array):
    """Triplet lines of the nonzeros of ``array``, about ``CHUNK_LINES``
    entries of it (at least one row) at a time."""
    band = max(1, CHUNK_LINES // max(array.shape[1], 1))
    for lo in range(0, array.shape[0], band):
        rows, cols = np.nonzero(array[lo : lo + band])
        rows += lo
        yield from _formatted("%d %d %.17g\n", rows + 1, cols + 1, array[rows, cols])


def read_triplets(path):
    """Read a matrix written by :func:`write_triplets` as a CSR array; the
    entries fill arrays sized by the header, one chunk at a time.

    A header is refused before anything is allocated when its ``nnz``
    exceeds ``rows * cols`` or the bytes after it cannot hold ``nnz`` entry
    lines (``1 1 0`` and a newline is the shortest, the last newline may be
    missing).  A repeated ``(row, col)`` entry is refused too, naming it: the
    CSR build adds repeats up, so it shows as a drop in the stored count and
    a valid file pays for no sort.
    """
    with _open(path) as fh:
        line = fh.readline()
        header = line.split()
        if len(header) != 3 or not all(t.isdecimal() for t in header):
            raise DimensionError(f"{path}:1: not a rows cols nnz header: {header}")
        rows, cols, nnz = map(int, header)
        rest = os.fstat(fh.fileno()).st_size - len(line.encode())
        if nnz > rows * cols or rest < 6 * nnz - 1:
            raise DimensionError(f"{path}:1: {nnz} entries do not fit a {rows}x{cols} "
                                 f"matrix in the {rest} bytes that follow")
        ij, values, done = np.empty((2, nnz), dtype=np.int64), np.empty(nnz), 0
        for block in _blocks(path, itertools.islice(fh, nnz), 2, 3):
            index = block[:, :2].T
            bad = (index != np.floor(index)) | (index < 1) | (index > [[rows], [cols]])
            if bad.any():
                k = done + int(np.argmax(bad.any(axis=0))) + 1
                raise DimensionError(f"{path}: entry {k} lies outside the shape {rows}x{cols}")
            ij[:, done : done + len(block)] = index - 1
            values[done : done + len(block)] = block[:, 2]
            done += len(block)
    if done < nnz:
        raise DimensionError(f"{path}: {nnz} entries declared, {done} found")
    matrix = sp.csr_array(sp.coo_array((values, (ij[0], ij[1])), shape=(rows, cols)))
    if matrix.nnz < nnz:
        keys = ij[0] * cols + ij[1]
        order = np.argsort(keys, kind="stable")
        # The first entry, in file order, that repeats an earlier one.
        k = int(order[1:][np.diff(keys[order]) == 0].min())
        raise DimensionError(f"{path}: entry {k + 1} repeats row {ij[0, k] + 1} "
                             f"col {ij[1, k] + 1}")
    return matrix
