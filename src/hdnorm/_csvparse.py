"""Parse a numeric CSV in line-aligned pieces, one process per usable CPU.

``np.loadtxt`` holds the interpreter lock while it parses, so threads cannot
share the work, but forked processes can.  ``EarlyReaders`` forks a reader on
every other usable CPU.  The ``hdnorm`` command forks them before it imports
numpy, so they parse while it does; they use no numpy.  Each process claims
the next piece of about ``PIECE_BYTES`` below one shared frontier: the 8
bytes of a memory file (``os.memfd_create``), guarded by a POSIX record lock
on that file.  Record locks belong to a process, so the readers and the
caller exclude one another, and the kernel frees a lock whose holder dies.
A piece is whole lines, claimed from the end towards the start, and never
starts at byte 0.  A reader's rows are ``float()`` of ``bytes`` fields.
Once its imports are done the calling process claims from the same frontier
and parses its pieces with ``np.loadtxt``, then, with the rows it skips, the
piece from byte 0 to the frontier: the first line and less than
``PIECE_BYTES`` below it.  When none is left, each reader sends through a
pipe a ``marshal`` list of its pieces' byte ranges and shapes, then their
raw float64 bytes, and exits.  Every piece holds whole lines, and
``loadtxt`` reads rows line by line, so the pieces joined in file order are
``np.loadtxt`` of the whole file, bit for bit.

A reader declines what it cannot prove ``np.loadtxt`` reads the same way: a
``_`` (``float()`` takes ``1_0``), a ``\\r`` that does not end a ``\\r\\n``
(a line end to ``loadtxt``), a non-ASCII byte, a field that ``float()``
rejects, or a row of another width.  Both parsers end in
``PyOS_string_to_double``, so an accepted value is the same double.

After a decline, or when anything goes wrong in any part (a piece that does
not parse, a child that dies or cannot be started, a claimed piece that no
reader sent) or the parts disagree on the column count, the whole file is
read by ``np.loadtxt(path)`` in this process, so every error is
``loadtxt``'s own, row numbers included; a reader that dies in a claim costs
no wait, only that.  That is also all that a small or compressed file gets,
and all a process gets that has one usable CPU, runs other OS threads (BLAS
threads count) or has no ``os.memfd_create``.  This module imports numpy
only when it parses.
"""

from __future__ import annotations

import importlib
import io
import marshal
import os
import signal
import struct
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
# The frontier: the start of the lowest piece claimed so far, so the end of
# the piece left to the caller.  A decline sets it to -1, where no piece ends.
_FRONTIER = struct.Struct("<q")


def load_csv(path: str, skiprows: int, early: Optional[EarlyReaders] = None):
    """``np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)``, on every usable CPU.

    Only the piece that starts at byte 0 is parsed with ``skiprows``, and it
    may end right after the first line, so ``skiprows`` must not reach past
    that line; the header line of ``hdnorm`` never does.  ``early`` readers
    of ``path`` are started here when not given, and stopped and reaped.
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
    """(pid, buffered read end of its pipe) of a reader that runs ``_read_early(write end, *args)``.

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
        return pid, open(read_fd, "rb")
    try:
        os.close(read_fd)
        _read_early(write_fd, *args)
    finally:
        # Never return into the caller's stack, on success or on error: the
        # parent takes a short message as failure and parses the file itself.
        os._exit(0)


def _send(fd: int, parts: list, values) -> None:
    with open(fd, "wb") as pipe:
        # The parent is this interpreter forked, so marshal's format is its own.
        marshal.dump(parts, pipe)
        pipe.write(values)


def _reap(children) -> None:
    for pid, pipe in children:
        pipe.close()
        # A reader that sent its rows is exiting already; any other is not needed.
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _join(path: str, skiprows: int, early: EarlyReaders):
    """The pieces claimed and parsed here, then the one from byte 0 to the
    frontier, and the readers' pieces, joined in file order; None after a
    decline, if any part failed or is missing, or the parts do not tile the file."""
    import numpy as np

    mine = []
    try:
        while claimed := _claim(early._file, early._frontier):
            mine.append((*claimed, _parse(path, 0, *claimed)))
        with _holding(early._frontier):
            stop = _FRONTIER.unpack(os.pread(early._frontier, _FRONTIER.size, 0))[0]
        if stop < 0:
            return None  # a reader declined
        mine.append((0, stop, _parse(path, skiprows, 0, stop)))
    except (OSError, ValueError):
        return None
    sent = [_read_parts(pipe) for _, pipe in early.children]
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
    for (_, pipe), stream in zip(early.children, sent):
        for start, _, n, _ in stream:
            # A buffered read fills its buffer unless the pipe ends first.
            rows = out[first_row[start]: first_row[start] + n]
            if pipe.readinto(rows) != rows.nbytes:
                return None
    return out


def _read_parts(pipe):
    """The (start, stop, rows, columns) of each part a reader sends; None if its pipe ends first."""
    try:
        return marshal.load(pipe)
    except (EOFError, ValueError):
        return None


class EarlyReaders:
    """Forked readers that parse a file's pieces with ``float()``, each
    claimed below one shared frontier, while this process imports numpy and
    then claims pieces of its own.

    ``children`` are their (pid, read end of the pipe) pairs.
    """

    def __init__(self, path: str, readers: int):
        self._file = os.open(path, os.O_RDONLY)
        self._fds, self.children = [self._file], []
        try:
            self.size = os.fstat(self._file).st_size
            self._frontier = os.memfd_create("frontier")
            self._fds.append(self._frontier)
            os.pwrite(self._frontier, _FRONTIER.pack(self.size), 0)
        except BaseException:
            self.kill()
            raise
        forked = (_fork(self._file, self._frontier) for _ in range(readers))
        self.children = list(filter(None, forked))

    @classmethod
    def start(cls, path: str) -> Optional[EarlyReaders]:
        """Readers of ``path`` on every usable CPU but this process's one; None
        when this process may not fork, the file is compressed or smaller than
        ``MIN_SLICE_BYTES``, the locale's encoding does not read ASCII bytes as
        ASCII, or the system has no ``os.memfd_create`` (only Linux has it)."""
        readers = _cpus.usable_cpus() - 1
        try:
            if (readers < 1 or os.path.getsize(path) < MIN_SLICE_BYTES or _compressed(path)
                    or not _ascii_compatible() or not hasattr(os, "memfd_create")
                    or not _cpus.fork_is_safe()):
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


def _ascii_compatible() -> bool:
    """Whether a text file opened in the locale's encoding reads ASCII bytes as ASCII."""
    ascii_bytes = bytes(range(128))
    encoding = io.TextIOWrapper(io.BytesIO()).encoding
    try:
        return ascii_bytes.decode(encoding) == ascii_bytes.decode("ascii")
    except (LookupError, UnicodeDecodeError):
        return False


def _read_early(fd: int, file: int, frontier: int) -> None:
    """A reader: claim and parse pieces until none is left, then send them;
    on a decline, set the frontier to -1 and send nothing."""
    from array import array

    parts, values, width = [], array("d"), None
    while claimed := _claim(file, frontier):
        start, stop = claimed
        data = os.pread(file, stop - start, start)
        parsed = _float_rows(data, values, width) if len(data) == stop - start else None
        if parsed is None:
            with _holding(frontier):
                os.pwrite(frontier, _FRONTIER.pack(-1), 0)
            return
        rows, width = parsed
        parts.append((start, stop, rows, width or 0))
    _send(fd, parts, values)


@contextmanager
def _holding(frontier: int):
    """Hold the frontier's record lock, waiting while another process holds it."""
    # Imported here: a command that reads no file, as simulate, loads no fcntl.
    import fcntl

    fcntl.lockf(frontier, fcntl.LOCK_EX)
    try:
        yield
    finally:
        fcntl.lockf(frontier, fcntl.LOCK_UN)


def _claim(file: int, frontier: int):
    """(start, stop) of the next piece below the frontier, which moves down to
    its start; None when it would start at byte 0, the caller's, or a reader declined."""
    with _holding(frontier):
        stop = _FRONTIER.unpack(os.pread(frontier, _FRONTIER.size, 0))[0]
        start = _line_start(file, max(0, stop - PIECE_BYTES))
        if start == 0:
            return None
        os.pwrite(frontier, _FRONTIER.pack(start), 0)
    return start, stop


def _line_start(file: int, pos: int) -> int:
    """The start of the line that holds byte ``pos``."""
    while pos > 0:
        block = max(0, pos - (1 << 16))
        newline = os.pread(file, pos - block, block).rfind(b"\n")
        if newline >= 0:
            return block + newline + 1
        pos = block
    return 0


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
