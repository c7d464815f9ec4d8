"""Parse a numeric CSV in line-aligned slices, one process per usable CPU.

``np.loadtxt`` holds the interpreter lock while it parses, so threads cannot
share the work, but forked processes can.  The file is cut after newline
bytes into at most one slice per usable CPU, none of them much shorter than
``MIN_SLICE_BYTES``.  The calling process parses slice 0 and a forked child
parses each other slice, which it sends back through a pipe as the byte
range, shape and raw float64 bytes of its rows.  A slice holds whole lines,
and ``loadtxt`` reads rows line by line, so the slices joined in file order
are ``np.loadtxt`` of the whole file, bit for bit.

The ``hdnorm`` command reads the file's end before numpy has even loaded.
``EarlyReaders`` forks readers on every other usable CPU while the command
imports numpy; they use no numpy.  Each claims the next piece of about
``PIECE_BYTES`` below one shared frontier: the 8 bytes of an anonymous shared
``mmap``, guarded by a one-byte token in a pipe that a claimer reads and
writes back.  A piece is whole lines, never the file's first line, claimed
from the end towards the start; its rows are ``float()`` of ``bytes`` fields.
Once the imports are done, the command takes the token and closes the
claims, parses the bytes below the frontier as above, and joins the readers'
rows after them; a reader finishes the piece it holds, sends its pieces and
exits.  A reader declines what it cannot prove ``np.loadtxt``
reads the same way: a ``_`` (``float()`` takes ``1_0``), a ``\\r`` (a line
end to ``loadtxt``), a non-ASCII byte, a field that ``float()`` rejects, or a
row of another width.  Both parsers end in ``PyOS_string_to_double``, so an
accepted value is the same double.  After a decline the whole file is parsed
as if there were no readers.

When anything goes wrong in any part (a token that does not parse, a child
that dies or cannot be started, a claimed piece that no reader sent) or the
parts disagree on the column count,
the whole file is parsed again in this process, so every error is
``loadtxt``'s own, row numbers included.  One slice, which is all a small or
compressed file gets, and all a process gets that has one usable CPU or runs
other OS threads (BLAS threads count), is the whole file read by
``np.loadtxt(path)``.  This module imports numpy only when it parses.
"""

from __future__ import annotations

import importlib
import io
import os
import signal
import struct
import sys
import warnings
from contextlib import contextmanager
from itertools import chain
from typing import Optional

from . import _cpus

# Below this many bytes a slice costs more in fork and copy than it saves.
MIN_SLICE_BYTES = 4 << 20
# An early reader's piece starts at the line holding the byte this far below
# the frontier: a few milliseconds of parsing, so that the readers stop soon
# after numpy has loaded.
PIECE_BYTES = 1 << 18
# numpy decompresses files with these suffixes, so their bytes are not lines.
_DECOMPRESSORS = {".gz": "gzip", ".bz2": "bz2", ".xz": "lzma", ".lzma": "lzma"}
# A child's message: its part count, each part's (start, stop, rows, columns),
# then the rows of every part in that order, as float64 bytes.
_COUNT = struct.Struct("<q")
_PART = struct.Struct("<qqqq")
# The frontier: the start of the lowest piece claimed so far.  Closed claims
# read 0 and a decline -1, both at or below every first line's end.
_FRONTIER = struct.Struct("<q")
# Seconds the command waits for the token when it closes the claims; a reader
# holds it for one short read.
_TOKEN_WAIT = 1.0


def load_csv(path: str, skiprows: int, early: Optional[EarlyReaders] = None):
    """``np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)``, on every usable CPU.

    Only the first slice skips rows, so ``skiprows`` must not reach past it;
    the header line of ``hdnorm`` never does.  ``early`` readers of ``path``,
    if given, are stopped and reaped.
    """
    try:
        frontier = early.close() if early else None
        cuts = _cuts(path, frontier)
        children = [_fork(_send_slice, path, start, stop)
                    for start, stop in zip(cuts[1:-1], cuts[2:])]
        try:
            if frontier is None:
                streams, end = children, cuts[-1]
            else:
                streams, end = children + early.children, early.size
            values = None if None in children else _join(path, skiprows, cuts, streams, end)
        finally:
            _reap(filter(None, children))
    finally:
        if early:
            early.kill()
    return _parse(path, skiprows, 0, None) if values is None else values


def _cuts(path: str, stop: Optional[int] = None) -> list:
    """Slice boundaries in bytes of the file's first ``stop`` bytes, all of them
    when None: [0, c1, ..., stop], or [0, stop] for one slice."""
    try:
        size = os.path.getsize(path)
    except OSError:
        return [0, None]  # np.loadtxt reports it
    slices = min(_cpus.usable_cpus(), size // MIN_SLICE_BYTES)
    if slices < 2 or not _cpus.fork_is_safe() or _compressed(path):
        return [0, stop]
    end = size if stop is None else stop
    cuts = [0]
    with open(path, "rb") as f:
        for i in range(1, slices):
            cut = _after_newline(f, max(end * i // slices, cuts[-1]))
            if cut >= end:
                break
            cuts.append(cut)
    return cuts + [end] if len(cuts) > 1 else [0, stop]


def _compressed(path: str) -> bool:
    return os.path.splitext(path)[1] in _DECOMPRESSORS


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


def _parse(path: str, skiprows: int, start: int, stop):
    """The rows of bytes [start, stop) of the file; the whole file when ``stop`` is None."""
    import numpy as np

    with warnings.catch_warnings():
        # No rows is no error here: the caller reports a file with none, and a
        # slice of blank or comment lines is none while another slice has rows.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        if stop is None:
            return np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)
        # Text mode with universal newlines, as np.loadtxt opens a path.
        with io.TextIOWrapper(io.BufferedReader(_ByteRange(path, start, stop))) as lines:
            return np.loadtxt(lines, delimiter=",", skiprows=skiprows, ndmin=2)


def _fork(work, *args):
    """(pid, read end of its pipe) of a child that runs ``work(write end, *args)``.

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
        work(write_fd, *args)
    finally:
        # Never return into the caller's stack, on success or on error: the
        # parent takes a short message as failure and parses the file itself.
        os._exit(0)


def _send(fd: int, parts: list, values) -> None:
    with open(fd, "wb") as pipe:
        pipe.write(_COUNT.pack(len(parts)))
        for part in parts:
            pipe.write(_PART.pack(*part))
        pipe.write(values)


def _send_slice(fd: int, path: str, start: int, stop: int) -> None:
    values = _parse(path, 0, start, stop)
    _send(fd, [(start, stop, *values.shape)], values.data)


def _reap(children) -> None:
    for pid, fd in children:
        os.close(fd)
        # A child that sent its rows is exiting already; any other is not needed.
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _join(path: str, skiprows: int, cuts: list, streams: list, end):
    """Slice 0 parsed here and the parts the children send, joined in file
    order; None if any part failed or the parts do not tile bytes [0, end)."""
    import numpy as np

    try:
        head = _parse(path, skiprows, cuts[0], cuts[1])
    except (OSError, ValueError):
        if not streams:
            raise
        return None
    if not streams:
        return head
    sent = [_read_parts(fd) for _, fd in streams]
    if None in sent:
        return None
    parts = sorted([(cuts[0], cuts[1], *head.shape), *chain(*sent)])
    if any(a[1] != b[0] for a, b in zip(parts, parts[1:])) or parts[-1][1] != end:
        return None  # a reader left a piece unsent
    widths = {d for _, _, n, d in parts if n}
    if len(widths) != 1:
        return None  # ragged across parts, or no rows at all
    first_row, rows = {}, 0
    for start, _, n, _ in parts:
        first_row[start] = rows
        rows += n
    out = np.empty((rows, widths.pop()))
    out[: len(head)] = head
    del head  # before the children's rows touch ``out``: the peak holds one copy
    for (_, fd), stream in zip(streams, sent):
        for start, _, n, _ in stream:
            row = first_row[start]
            if n and not _read_into(fd, out[row: row + n]):
                return None
    return out


def _read_parts(fd: int):
    """The (start, stop, rows, columns) of each part a child sends; None if its pipe ends first."""
    count = bytearray(_COUNT.size)
    if not _read_into(fd, count):
        return None
    table = bytearray(_PART.size * _COUNT.unpack(count)[0])
    return list(_PART.iter_unpack(table)) if _read_into(fd, table) else None


def _read_into(fd: int, buffer) -> bool:
    """Fill ``buffer`` from ``fd``; False if the pipe ends first."""
    view = memoryview(buffer).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            return False
        view = view[got:]
    return True


class EarlyReaders:
    """Forked readers that parse the end of a file with ``float()`` while
    this process imports numpy, each piece claimed below one shared frontier.

    ``children`` are their (pid, read end of the pipe) pairs; each sends its
    pieces once the claims are closed, as a slice child sends its slice.
    """

    def __init__(self, path: str, readers: int):
        # Imported here, as are select and array: a command that reads no file
        # early, as simulate, maps none of these extension modules (0.3 MB).
        import mmap

        self.size = os.path.getsize(path)
        with open(path, "rb") as f:
            self._floor = _after_newline(f, 0)  # the first line is the caller's
        self._frontier = mmap.mmap(-1, _FRONTIER.size)
        _FRONTIER.pack_into(self._frontier, 0, self.size)
        self._token = os.pipe()
        os.write(self._token[1], b"\0")
        forked = (_fork(_read_early, path, self._floor, self._frontier, self._token)
                  for _ in range(readers))
        self.children = list(filter(None, forked))

    @classmethod
    def start(cls, path: str) -> Optional[EarlyReaders]:
        """Readers of ``path`` on every usable CPU but this process's one; None
        when numpy is loaded already, this process may not fork, the file is
        compressed or smaller than ``MIN_SLICE_BYTES``, or the locale's encoding
        does not read ASCII bytes as ASCII."""
        readers = _cpus.usable_cpus() - 1
        if (readers < 1 or "numpy" in sys.modules or _compressed(path)
                or not _ascii_compatible() or not _cpus.fork_is_safe()):
            return None
        try:
            return cls(path, readers) if os.path.getsize(path) >= MIN_SLICE_BYTES else None
        except OSError:
            return None  # the parse reports it

    def close(self) -> Optional[int]:
        """Close the claims: the frontier, below which this process parses the
        file, or None, with the readers stopped, when one of them declined or
        kept the token for ``_TOKEN_WAIT`` seconds (as one killed holding it)."""
        import select

        token = select.poll()
        token.register(self._token[0], select.POLLIN)
        if not token.poll(_TOKEN_WAIT * 1000):
            self.kill()
            return None
        with _holding(self._token):
            stop = _FRONTIER.unpack_from(self._frontier)[0]
            _FRONTIER.pack_into(self._frontier, 0, 0)
        if stop < 0:
            self.kill()
            return None
        return stop

    def kill(self) -> None:
        """Stop and reap every reader; a second call does nothing."""
        _reap(self.children)
        self.children = []
        for fd in self._token:
            os.close(fd)
        self._token = ()
        self._frontier.close()


def _ascii_compatible() -> bool:
    """Whether a text file opened in the locale's encoding reads ASCII bytes as ASCII."""
    ascii_bytes = bytes(range(128))
    encoding = io.TextIOWrapper(io.BytesIO()).encoding
    try:
        return ascii_bytes.decode(encoding) == ascii_bytes.decode("ascii")
    except (LookupError, UnicodeDecodeError):
        return False


def _read_early(fd: int, path: str, floor: int, frontier, token) -> None:
    """An early reader: claim and parse pieces until none is left or the claims
    close, then send them; on a decline, set the frontier to -1 and send nothing."""
    from array import array

    parts, values, width = [], array("d"), None
    file = os.open(path, os.O_RDONLY)
    while claimed := _claim(file, floor, frontier, token):
        start, stop = claimed
        data = os.pread(file, stop - start, start)
        parsed = _float_rows(data, values, width) if len(data) == stop - start else None
        if parsed is None:
            with _holding(token):
                _FRONTIER.pack_into(frontier, 0, -1)
            return
        rows, width = parsed
        parts.append((start, stop, rows, width or 0))
    _send(fd, parts, values)


@contextmanager
def _holding(token):
    """Hold the token: read its one byte from the pipe, and write it back after."""
    os.read(token[0], 1)
    try:
        yield
    finally:
        os.write(token[1], b"\0")


def _claim(file: int, floor: int, frontier, token):
    """(start, stop) of the next piece below the frontier, which moves down to
    its start; None when none is left above ``floor`` or the claims are closed."""
    with _holding(token):
        stop = _FRONTIER.unpack_from(frontier)[0]
        if stop <= floor:
            return None
        start = _line_start(file, floor, max(floor, stop - PIECE_BYTES))
        _FRONTIER.pack_into(frontier, 0, start)
    return start, stop


def _line_start(file: int, floor: int, pos: int) -> int:
    """The start of the line that holds byte ``pos``, or ``floor`` if lower."""
    while pos > floor:
        block = max(floor, pos - (1 << 16))
        newline = os.pread(file, pos - block, block).rfind(b"\n")
        if newline >= 0:
            return block + newline + 1
        pos = block
    return floor


def _float_rows(data: bytes, values: "array", width: Optional[int]):
    """Append the rows of ``data``, whole lines, to ``values``: (rows, width of
    every row so far, None while there is none), or None when ``np.loadtxt``
    might read them otherwise.  ``width`` is that of the rows before, if any."""
    if b"_" in data or b"\r" in data or not data.isascii():
        return None
    rows = 0
    try:
        for line in data.split(b"\n"):
            # A line is a row iff it has text before any "#", as np.loadtxt
            # reads it: a line of whitespace is a row that does not parse.
            text = line.split(b"#", 1)[0]
            if text:
                fields = text.split(b",")
                width = width or len(fields)
                if len(fields) != width:
                    return None
                values.fromlist(list(map(float, fields)))
                rows += 1
    except ValueError:
        return None
    return rows, width
