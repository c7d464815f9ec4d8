"""Parse a numeric CSV in line-aligned slices, one process per usable CPU.

``np.loadtxt`` holds the interpreter lock while it parses, so threads cannot
share the work, but forked processes can.  The file is cut after newline
bytes into at most one slice per usable CPU, none of them much shorter than
``MIN_SLICE_BYTES``.  The calling process parses slice 0 and a forked child
parses each other slice, which it sends back through a pipe as its shape
followed by raw float64 bytes.  A slice holds whole lines, and ``loadtxt``
reads rows line by line, so the slices joined in file order are
``np.loadtxt`` of the whole file, bit for bit.

When anything goes wrong in any slice (a token that does not parse, a child
that dies or cannot be started) or the slices disagree on the column count,
the whole file is parsed again in this process, so every error is
``loadtxt``'s own, row numbers included.  One slice, which is all a small or
compressed file gets, and all a process gets that has one usable CPU or runs
other OS threads (BLAS threads count), is the whole file read by
``np.loadtxt(path)``.
"""

from __future__ import annotations

import importlib
import io
import os
import signal
import struct
import warnings

import numpy as np

from . import _cpus

# Below this many bytes a slice costs more in fork and copy than it saves.
MIN_SLICE_BYTES = 4 << 20
# numpy decompresses files with these suffixes, so their bytes are not lines.
_DECOMPRESSORS = {".gz": "gzip", ".bz2": "bz2", ".xz": "lzma", ".lzma": "lzma"}
_SHAPE = struct.Struct("<qq")


def load_csv(path: str, skiprows: int) -> np.ndarray:
    """``np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)``, on every usable CPU.

    Only the first slice skips rows, so ``skiprows`` must not reach past it;
    the header line of ``hdnorm`` never does.
    """
    cuts = _cuts(path)
    children = [_fork_slice(path, start, stop) for start, stop in zip(cuts[1:-1], cuts[2:])]
    try:
        values = None if None in children else _join(path, skiprows, cuts, children)
    finally:
        for pid, fd in filter(None, children):
            os.close(fd)
            # A child that sent its rows is exiting already; any other is not needed.
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return _parse(path, skiprows, 0, None) if values is None else values


def _cuts(path: str) -> list:
    """Slice boundaries in bytes: [0, c1, ..., size], or [0, None] for the whole file."""
    try:
        size = os.path.getsize(path)
    except OSError:
        return [0, None]  # np.loadtxt reports it
    slices = min(_cpus.usable_cpus(), size // MIN_SLICE_BYTES)
    if (slices < 2 or not _cpus.fork_is_safe()
            or os.path.splitext(path)[1] in _DECOMPRESSORS):
        return [0, None]
    cuts = [0]
    with open(path, "rb") as f:
        for i in range(1, slices):
            cut = _after_newline(f, max(size * i // slices, cuts[-1]))
            if cut >= size:
                break
            cuts.append(cut)
    return cuts + [size] if len(cuts) > 1 else [0, None]


def open_text(path: str):
    """The file's lines as ``np.loadtxt(path)`` reads them: decompressed by
    suffix, with universal newlines, in the locale's encoding; a byte that
    does not decode reads as U+FFFD instead of raising."""
    module = _DECOMPRESSORS.get(os.path.splitext(path)[1])
    opener = importlib.import_module(module).open if module else open
    return opener(path, "rt", encoding=None, errors="replace")


def _after_newline(f, pos: int) -> int:
    """The offset just past the first newline byte at or after ``pos``, else the size."""
    f.seek(pos)
    while block := f.read(1 << 16):
        found = block.find(b"\n")
        if found >= 0:
            return pos + found + 1
        pos += len(block)
    return pos


class _ByteRange(io.RawIOBase):
    """Bytes [start, stop) of a file as a raw stream."""

    def __init__(self, path: str, start: int, stop: int):
        self._file = open(path, "rb", buffering=0)
        self._file.seek(start)
        self._left = stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        got = self._file.readinto(memoryview(buffer)[: self._left])
        self._left -= got
        return got

    def close(self) -> None:
        self._file.close()
        super().close()


def _parse(path: str, skiprows: int, start: int, stop) -> np.ndarray:
    """The rows of bytes [start, stop) of the file; the whole file when ``stop`` is None."""
    with warnings.catch_warnings():
        # No rows is no error here: the caller reports a file with none, and a
        # slice of blank or comment lines is none while another slice has rows.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        if stop is None:
            return np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)
        # Text mode with universal newlines, as np.loadtxt opens a path.
        with io.TextIOWrapper(io.BufferedReader(_ByteRange(path, start, stop))) as lines:
            return np.loadtxt(lines, delimiter=",", skiprows=skiprows, ndmin=2)


def _fork_slice(path: str, start: int, stop: int):
    """(pid, read end of its pipe) of a child that parses bytes [start, stop).

    None when the system has no pipe or process to spare.
    """
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid:
        os.close(write_fd)
        return pid, read_fd
    try:
        os.close(read_fd)
        values = _parse(path, 0, start, stop)
        with open(write_fd, "wb") as pipe:
            pipe.write(_SHAPE.pack(*values.shape))
            pipe.write(values.data)
    finally:
        # Never return into the caller's stack, on success or on error: the
        # parent takes a short message as failure and parses the file itself.
        os._exit(0)


def _join(path: str, skiprows: int, cuts: list, children: list):
    """Slice 0 parsed here and the children's slices, joined; None if any slice failed."""
    try:
        head = _parse(path, skiprows, cuts[0], cuts[1])
    except (OSError, ValueError):
        if not children:
            raise
        return None
    if not children:
        return head
    shapes = [head.shape]
    for _, fd in children:
        shape = bytearray(_SHAPE.size)
        if not _read_into(fd, shape):
            return None
        shapes.append(_SHAPE.unpack(shape))
    widths = {d for n, d in shapes if n}
    if len(widths) != 1:
        return None  # ragged across slices, or no rows at all
    out = np.empty((sum(n for n, _ in shapes), widths.pop()))
    out[: len(head)] = head
    row = len(head)
    del head  # before the children's rows touch ``out``: the peak holds one copy
    for (n, _), (_, fd) in zip(shapes[1:], children):
        if n and not _read_into(fd, out[row: row + n]):
            return None
        row += n
    return out


def _read_into(fd: int, buffer) -> bool:
    """Fill ``buffer`` from ``fd``; False if the pipe ends first."""
    view = memoryview(buffer).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            return False
        view = view[got:]
    return True
