"""Parse a numeric CSV in line-aligned pieces, one process per usable CPU.

``np.loadtxt`` holds the interpreter lock while it parses, so threads cannot
share the work, but forked processes can.  ``EarlyReaders`` forks a reader on
every other usable CPU.  The ``hdnorm`` command forks them before it imports
numpy, so they parse while it does; they use no numpy.  Each process claims
the next piece of about ``PIECE_BYTES`` below one shared frontier: the 8
bytes of an anonymous shared ``mmap``, guarded by a one-byte token in a pipe
that a claimer reads and writes back, waiting at most ``_TOKEN_WAIT``
seconds.  A piece is whole lines, never the file's first line, claimed from
the end towards the start.  A reader's rows are ``float()`` of ``bytes``
fields.  Once its imports are done the calling process claims from the same
frontier and parses its pieces with ``np.loadtxt``, then the first line, with
the rows it skips.  When none is left, each reader sends the byte range,
shape and raw float64 bytes of each of its pieces through a pipe and exits.
Every piece holds whole lines, and ``loadtxt`` reads rows line by line, so
the pieces joined in file order are ``np.loadtxt`` of the whole file, bit for
bit.

A reader declines what it cannot prove ``np.loadtxt`` reads the same way: a
``_`` (``float()`` takes ``1_0``), a ``\\r`` that does not end a ``\\r\\n``
(a line end to ``loadtxt``), a non-ASCII byte, a field that ``float()``
rejects, or a row of another width.  Both parsers end in
``PyOS_string_to_double``, so an accepted value is the same double.

After a decline, or when anything goes wrong in any part (a token wait that
times out, a piece that does not parse, a child that dies or cannot be
started, a claimed piece that no reader sent) or the parts disagree on the
column count, the whole file is read by ``np.loadtxt(path)`` in this
process, so every error is ``loadtxt``'s own, row numbers included.  That is
also all that a small or compressed file gets, and all a process gets that
has one usable CPU or runs other OS threads (BLAS threads count).  This
module imports numpy only when it parses.
"""

from __future__ import annotations

import importlib
import io
import os
import signal
import struct
import time
import warnings
from contextlib import contextmanager
from itertools import chain
from typing import Optional

from . import _cpus

# Below this many bytes readers cost more in fork and copy than they save.
MIN_SLICE_BYTES = 4 << 20
# A piece starts at the line holding the byte this far below the frontier: a
# few milliseconds of parsing, so that the readers stop soon after numpy has
# loaded.
PIECE_BYTES = 1 << 18
# numpy decompresses files with these suffixes, so their bytes are not lines.
_DECOMPRESSORS = {".gz": "gzip", ".bz2": "bz2", ".xz": "lzma", ".lzma": "lzma"}
# A reader's message: its part count, each part's (start, stop, rows, columns),
# then the rows of every part in that order, as float64 bytes.
_COUNT = struct.Struct("<q")
_PART = struct.Struct("<qqqq")
# The frontier: the start of the lowest piece claimed so far.  A decline sets
# it to -1, below every first line's end.
_FRONTIER = struct.Struct("<q")
# Seconds a claimer waits for the token; a holder holds it for one short read.
_TOKEN_WAIT = 1.0


def load_csv(path: str, skiprows: int, early: Optional[EarlyReaders] = None):
    """``np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)``, on every usable CPU.

    Only the first line is parsed with ``skiprows``, so it must not reach past
    it; the header line of ``hdnorm`` never does.  ``early`` readers of
    ``path`` are started here when not given, and stopped and reaped.
    """
    early = early or EarlyReaders.start(path)
    try:
        values = _join(path, skiprows, early) if early else None
    finally:
        if early:
            early.kill()
    return _parse(path, skiprows, 0, None) if values is None else values


def _compressed(path: str) -> bool:
    return os.path.splitext(path)[1] in _DECOMPRESSORS


def open_text(path: str):
    """The file's lines as ``np.loadtxt(path)`` reads them: decompressed by
    suffix, with universal newlines, in the locale's encoding; a byte that
    does not decode reads as U+FFFD instead of raising."""
    module = _DECOMPRESSORS.get(os.path.splitext(path)[1])
    opener = importlib.import_module(module).open if module else open
    return opener(path, "rt", encoding=None, errors="replace")


def _parse(path: str, skiprows: int, start: int, stop):
    """The rows of bytes [start, stop) of the file; the whole file when ``stop`` is None."""
    import numpy as np

    with warnings.catch_warnings():
        # No rows is no error here: the caller reports a file with none, and a
        # piece of blank or comment lines is none while another piece has rows.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        if stop is None:
            return np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)
        with open(path, "rb") as f:
            f.seek(start)
            piece = f.read(stop - start)
        # Text mode with universal newlines, as np.loadtxt opens a path.
        lines = io.TextIOWrapper(io.BytesIO(piece))
        return np.loadtxt(lines, delimiter=",", skiprows=skiprows, ndmin=2)


def _fork(*args):
    """(pid, read end of its pipe) of a reader that runs ``_read_early(write end, *args)``.

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
        _read_early(write_fd, *args)
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


def _reap(children) -> None:
    for pid, fd in children:
        os.close(fd)
        # A reader that sent its rows is exiting already; any other is not needed.
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _join(path: str, skiprows: int, early: EarlyReaders):
    """The pieces claimed and parsed here, then the first line, and the
    readers' pieces, joined in file order; None if any part failed or is
    missing, or the parts do not tile the file."""
    import numpy as np

    mine = []
    try:
        while claimed := _claim(early._file, early._floor, early._frontier, early._token):
            mine.append((*claimed, _parse(path, 0, *claimed)))
        mine.append((0, early._floor, _parse(path, skiprows, 0, early._floor)))
    except (OSError, ValueError):  # a TimeoutError too
        return None
    sent = [_read_parts(fd) for _, fd in early.children]
    if None in sent:
        return None  # a reader declined or failed
    parts = sorted([(start, stop, *rows.shape) for start, stop, rows in mine] + [*chain(*sent)])
    if any(a[1] != b[0] for a, b in zip(parts, parts[1:])) or parts[-1][1] != early.size:
        return None  # a reader left a piece unsent
    widths = {d for _, _, n, d in parts if n}
    if len(widths) != 1:
        return None  # ragged across parts, or no rows at all
    first_row, rows = {}, 0
    for start, _, n, _ in parts:
        first_row[start] = rows
        rows += n
    out = np.empty((rows, widths.pop()))
    for start, _, piece in mine:
        out[first_row[start]: first_row[start] + len(piece)] = piece
    del mine, piece  # before the readers' rows touch ``out``: the peak holds one copy
    for (_, fd), stream in zip(early.children, sent):
        for start, _, n, _ in stream:
            row = first_row[start]
            if n and not _read_into(fd, out[row: row + n]):
                return None
    return out


def _read_parts(fd: int):
    """The (start, stop, rows, columns) of each part a reader sends; None if its pipe ends first."""
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
    """Forked readers that parse a file's pieces with ``float()``, each
    claimed below one shared frontier, while this process imports numpy and
    then claims pieces of its own.

    ``children`` are their (pid, read end of the pipe) pairs.
    """

    def __init__(self, path: str, readers: int):
        # Imported here: a command that reads no file, as simulate, maps no
        # mmap or select (0.3 MB with array).
        import mmap

        self._file = os.open(path, os.O_RDONLY)
        self.size = os.fstat(self._file).st_size
        self._floor = _first_line_end(self._file)  # the first line is the caller's
        self._frontier = mmap.mmap(-1, _FRONTIER.size)
        _FRONTIER.pack_into(self._frontier, 0, self.size)
        self._token = os.pipe()
        os.set_blocking(self._token[0], False)  # see _holding
        os.write(self._token[1], b"\0")
        self._fds = [self._file, *self._token]
        forked = (_fork(self._file, self._floor, self._frontier, self._token)
                  for _ in range(readers))
        self.children = list(filter(None, forked))

    @classmethod
    def start(cls, path: str) -> Optional[EarlyReaders]:
        """Readers of ``path`` on every usable CPU but this process's one; None
        when this process may not fork, the file is compressed or smaller than
        ``MIN_SLICE_BYTES``, or the locale's encoding does not read ASCII bytes
        as ASCII."""
        readers = _cpus.usable_cpus() - 1
        try:
            if (readers < 1 or os.path.getsize(path) < MIN_SLICE_BYTES or _compressed(path)
                    or not _ascii_compatible() or not _cpus.fork_is_safe()):
                return None
            return cls(path, readers)
        except OSError:
            return None  # the parse reports it

    def kill(self) -> None:
        """Stop and reap every reader and close what they shared; a second call does nothing."""
        _reap(self.children)
        self.children = []
        for fd in self._fds:
            os.close(fd)
        self._fds = []
        self._frontier.close()


def _ascii_compatible() -> bool:
    """Whether a text file opened in the locale's encoding reads ASCII bytes as ASCII."""
    ascii_bytes = bytes(range(128))
    encoding = io.TextIOWrapper(io.BytesIO()).encoding
    try:
        return ascii_bytes.decode(encoding) == ascii_bytes.decode("ascii")
    except (LookupError, UnicodeDecodeError):
        return False


def _first_line_end(file: int) -> int:
    """The offset just past the file's first newline byte, else its size."""
    pos = 0
    while block := os.pread(file, 1 << 16, pos):
        found = block.find(b"\n")
        if found >= 0:
            return pos + found + 1
        pos += len(block)
    return pos


def _read_early(fd: int, file: int, floor: int, frontier, token) -> None:
    """A reader: claim and parse pieces until none is left, then send them;
    on a decline, set the frontier to -1 and send nothing."""
    from array import array

    parts, values, width = [], array("d"), None
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
    """Hold the token: read its one byte from the pipe, whose read end does not
    block, within ``_TOKEN_WAIT`` seconds (else ``TimeoutError``), and write
    it back after."""
    import select

    waiting = select.poll()
    waiting.register(token[0], select.POLLIN)
    deadline = time.monotonic() + _TOKEN_WAIT
    while True:
        try:
            os.read(token[0], 1)
            break
        except BlockingIOError:
            left = deadline - time.monotonic()
            if left <= 0 or not waiting.poll(left * 1000):
                raise TimeoutError(f"no token in {_TOKEN_WAIT} s") from None
    try:
        yield
    finally:
        os.write(token[1], b"\0")


def _claim(file: int, floor: int, frontier, token):
    """(start, stop) of the next piece below the frontier, which moves down to
    its start; None when none is left above ``floor`` or a reader declined."""
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
    data = data.replace(b"\r\n", b"\n")
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
