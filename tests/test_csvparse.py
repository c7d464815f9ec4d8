"""The parallel CSV parser: bitwise equal to np.loadtxt, with loadtxt's own errors.

The byte floor is lowered so that files of a few hundred bytes get a reader
on every patched CPU but one.
"""

import errno
import fcntl
import gzip
import io
import json
import marshal
import os
import signal
import tempfile
import threading
import time
import types
import warnings
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fresh_process, fresh_python, gaussian_data
from hdnorm import _cpus, _csvparse
from hdnorm.cli import main

FLOOR = 64


@pytest.fixture(params=[1, 2, 4], ids=lambda c: f"{c}cpu")
def cpus(request, monkeypatch):
    monkeypatch.setattr(_csvparse, "MIN_SLICE_BYTES", FLOOR)
    monkeypatch.setattr(_cpus, "usable_cpus", lambda: request.param)
    # The test process's BLAS threads aside, which idle while these tests fork;
    # test_fork_needs_one_os_thread counts the real threads.
    monkeypatch.setattr(_cpus, "fork_is_safe", lambda: threading.active_count() == 1)
    return request.param


@pytest.fixture
def forked(monkeypatch):
    """The pids of the children forked during a test."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# An early reader's piece in these tests: the line holding the byte this far
# below the frontier, so most pieces are one or two lines.
PIECE = 16


def frontier_at(frontier):
    return _csvparse._FRONTIER.unpack(os.pread(frontier, _csvparse._FRONTIER.size, 0))[0]


def new_frontier(at):
    """A frontier memory file that holds ``at``."""
    frontier = os.memfd_create("frontier")
    os.pwrite(frontier, _csvparse._FRONTIER.pack(at), 0)
    return frontier


def lock_is_free(frontier):
    """Whether another process could take the frontier's record lock now."""
    pid = os.fork()
    if not pid:
        code = 1
        try:
            fcntl.lockf(frontier, fcntl.LOCK_EX | fcntl.LOCK_NB)
            code = 0
        finally:
            os._exit(code)
    return os.waitpid(pid, 0)[1] == 0


def drained(early):
    """Wait until the early readers have claimed every piece, or one declined:
    until the next piece would start at byte 0, or the frontier is negative."""
    deadline = time.monotonic() + 60
    while (at := frontier_at(early._frontier)) >= 0 and _csvparse._line_start(
            early._file, max(0, at - _csvparse.PIECE_BYTES)):
        assert time.monotonic() < deadline, "the early readers claimed nothing for 60 s"
        time.sleep(0.001)


def record_joins(monkeypatch):
    """Whether each ``_join`` gave the rows, in call order; where it did not,
    the whole file is parsed again."""
    joins, join = [], _csvparse._join

    def recording_join(*args):
        values = join(*args)
        joins.append(values is not None)
        return values

    monkeypatch.setattr(_csvparse, "_join", recording_join)
    return joins


def record_parses(monkeypatch):
    """Whether each ``_parse`` call read the whole file, in call order."""
    whole, parse = [], _csvparse._parse

    def recording_parse(path, skiprows, start, stop):
        whole.append(stop is None)
        return parse(path, skiprows, start, stop)

    monkeypatch.setattr(_csvparse, "_parse", recording_parse)
    return whole


HEADER = "name,other\n"


def csv_text(values, newline="\n", final_newline=True, extra=None):
    """Rows written with repr; ``extra`` maps a data-row index to lines put before it."""
    lines = []
    for i, row in enumerate(values.tolist()):
        lines += (extra or {}).get(i, [])
        lines.append(",".join(map(repr, row)))
    return newline.join(lines) + (newline if final_newline else "")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def reference(path, header):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)


def data(n, d, seed=7):
    return gaussian_data(seed, n, d).values


# Blank lines, whitespace-free comment lines and trailing comments, every few rows.
NOISE = {i: ["", "# comment, 1.0", ""] for i in range(1, 40, 3)}

CASES = {
    "plain": lambda: csv_text(data(30, 6)),
    "blank_and_comment_lines": lambda: csv_text(data(40, 5), extra=NOISE),
    "trailing_comments": lambda: csv_text(data(25, 4)).replace("\n", " # note\n", 7),
    "crlf": lambda: csv_text(data(30, 6), newline="\r\n", extra=NOISE),
    "no_final_newline": lambda: csv_text(data(30, 6), final_newline=False),
    "one_row": lambda: csv_text(data(1, 60)),
    "one_column": lambda: csv_text(data(80, 1)),
    "comments_then_data": lambda: "# only a comment\n" * 40 + csv_text(data(20, 3)),
}


class TestBitwiseEqualToLoadtxt:
    @pytest.mark.parametrize("header", [False, True], ids=["no_header", "header"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_case(self, tmp_path, cpus, forked, case, header):
        text = (HEADER if header else "") + CASES[case]()
        path = write(tmp_path, f"{case}.csv", text)
        got = _csvparse.load_csv(path, 1 if header else 0, _csvparse.EarlyReaders.start(path))
        want = reference(path, header)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert_reaped(forked)
        if cpus > 1 and len(text) >= 2 * FLOOR and case != "one_row":
            assert len(forked) >= 1

    # The early readers, forked with numpy loaded here, claim pieces of a
    # line or two; drained, they claim all but the first line and less than
    # a piece below it before the parse starts, else this process claims the
    # rest.  No case is declined.
    @pytest.mark.parametrize("drain", [True, False], ids=["drained", "raced"])
    @pytest.mark.parametrize("header", [False, True], ids=["no_header", "header"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_case_read_early(self, tmp_path, cpus, forked, monkeypatch, case, header, drain):
        monkeypatch.setattr(_csvparse, "PIECE_BYTES", PIECE)
        text = (HEADER if header else "") + CASES[case]()
        path = write(tmp_path, f"{case}.csv", text)
        joins = record_joins(monkeypatch)
        early = _csvparse.EarlyReaders(path, max(1, cpus - 1))
        if drain:
            drained(early)
        got = _csvparse.load_csv(path, 1 if header else 0, early)
        want = reference(path, header)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert joins == [True]
        assert early.children == [] and len(forked) >= max(1, cpus - 1)
        assert_reaped(forked)

    def test_a_failed_child_falls_back_to_the_whole_file(self, tmp_path, cpus, forked,
                                                         monkeypatch):
        path = write(tmp_path, "plain.csv", CASES["plain"]())

        def children_fail(data, values, width):
            raise MemoryError("no memory in this child")

        monkeypatch.setattr(_csvparse, "_float_rows", children_fail)
        early = _csvparse.EarlyReaders.start(path)
        assert _csvparse.load_csv(path, 0, early).tobytes() == reference(path, False).tobytes()
        assert_reaped(forked)

    def test_a_fork_that_fails_falls_back_to_the_whole_file(self, tmp_path, cpus, forked,
                                                             monkeypatch):
        path = write(tmp_path, "plain.csv", CASES["plain"]())
        fork, calls = os.fork, []

        def second_fork_fails():
            calls.append(None)
            if len(calls) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", second_fork_fails)
        early = _csvparse.EarlyReaders.start(path)
        assert _csvparse.load_csv(path, 0, early).tobytes() == reference(path, False).tobytes()
        assert len(calls) == max(0, cpus - 1)
        assert_reaped(forked)

    def test_comment_only_file_has_no_rows(self, tmp_path, cpus, forked, capsys):
        path = write(tmp_path, "empty.csv", "# nothing here\n\n" * 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "input contained no data" is not shown
            assert main(["test", path]) == 1
        assert f"{path} contains no data rows" in capsys.readouterr().err
        assert_reaped(forked)


    def test_no_fork_while_another_thread_runs(self, tmp_path, cpus, forked):
        path = write(tmp_path, "plain.csv", CASES["plain"]())
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            got = _csvparse.load_csv(path, 0, _csvparse.EarlyReaders.start(path))
        finally:
            release.set()
            other.join(60)
        assert not other.is_alive()
        assert got.tobytes() == reference(path, False).tobytes()
        assert forked == []


def bad_last_slice(tmp_path, kind, header):
    """A CSV whose only fault is in its last line, and that line's byte offset."""
    values = data(40, 5)
    text = (HEADER if header else "") + csv_text(values, extra=NOISE)
    last = ",".join(map(repr, values[-1].tolist()))
    # The ragged line drops its last field; the others put a token in column 2
    # and drop the last field to keep five columns.
    token = {"ragged": None, "token": "abc", "nan": "nan", "inf": "-inf"}[kind]
    bad = last.rsplit(",", 1)[0]
    if token:
        bad = bad.replace(",", f",{token},", 1)
    text = text[: text.rindex(last)] + bad + "\n"
    path = write(tmp_path, f"{kind}.csv", text)
    return path, text.encode("utf-8").rindex(bad.encode("utf-8"))


def parent_stderr(path, header, offset, fault=""):
    """What ``hdnorm test`` prints when np.loadtxt parses the whole file, for a
    file whose first fault is on the line that starts at byte ``offset``.

    A line that loadtxt cannot parse is named by its file line, followed by
    ``fault``; a non-finite value by its data row, column and file line.
    """
    skip = 1 if header else 0
    line = Path(path).read_bytes()[:offset].count(b"\n") + 1
    try:
        values = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    except ValueError:
        return f"error: cannot parse {path} as a numeric CSV: file line {line}{fault}\n"
    r, c = np.argwhere(~np.isfinite(values))[0]
    return (f"error: non-finite value in {path} at data row {r + 1}, column {c + 1}"
            f" (file line {line})\n")


class TestErrorsInTheLastSlice:
    @pytest.mark.parametrize("header", [False, True], ids=["no_header", "header"])
    @pytest.mark.parametrize("kind", ["ragged", "token", "nan", "inf"])
    def test_stderr_as_before(self, tmp_path, cpus, forked, capsys, kind, header):
        path, offset = bad_last_slice(tmp_path, kind, header)
        args = ["test", path, "--out", str(tmp_path / "r.json")] + (["--header"] if header
                                                                     else [])
        assert main(args) == 1
        fault = {"ragged": " has 4 fields, the first data line 5",
                 "token": ": could not convert string to float: 'abc'"}.get(kind, "")
        assert capsys.readouterr().err == parent_stderr(path, header, offset, fault)
        assert not (tmp_path / "r.json").exists()
        assert_reaped(forked)


def test_reader_loads_no_statistics_code():
    code = ("import sys, hdnorm._csvparse\n"
            "print([m for m in ('scipy', 'hdnorm.montecarlo') if m in sys.modules])")
    assert fresh_python(code) == "[]"


def test_no_child_outlives_a_call(tmp_path):
    # In a fresh process, which has no other children to confuse waitpid(-1),
    # and whose BLAS runs one thread, as in an hdnorm command, so it forks.
    good = write(tmp_path, "plain.csv", CASES["plain"]())
    bad, _ = bad_last_slice(tmp_path, "token", False)
    code = (
        "import os, sys\n"
        "import hdnorm.cli\n"
        "from hdnorm import _cpus, _csvparse\n"
        f"_csvparse.MIN_SLICE_BYTES = {FLOOR}\n"
        "_cpus.usable_cpus = lambda: 4\n"
        "for path in sys.argv[1:]:\n"
        "    try:\n"
        "        print(_csvparse.load_csv(path, 0, _csvparse.EarlyReaders.start(path)).shape)\n"
        "    except ValueError:\n"
        "        print('ValueError')\n"
        "    try:\n"
        "        os.waitpid(-1, os.WNOHANG)\n"
        "    except ChildProcessError:\n"
        "        print('reaped')\n"
    )
    assert fresh_python(code, good, bad).split("\n") == ["(30, 6)", "reaped", "ValueError",
                                                       "reaped"]


def test_fork_needs_one_os_thread(tmp_path):
    # An OS thread that is no Python thread, as a BLAS thread is, stops the
    # readers in a fresh process whose BLAS runs one thread.
    path = write(tmp_path, "plain.csv", CASES["plain"]())
    code = (
        "import _thread, sys, threading\n"
        "import hdnorm.cli\n"
        "from hdnorm import _cpus, _csvparse\n"
        f"_csvparse.MIN_SLICE_BYTES = {FLOOR}\n"
        "_cpus.usable_cpus = lambda: 2\n"
        "early = _csvparse.EarlyReaders.start(sys.argv[1])\n"
        "print(len(early.children))\n"
        "early.kill()\n"
        "started, stop = _thread.allocate_lock(), _thread.allocate_lock()\n"
        "started.acquire()\n"
        "stop.acquire()\n"
        "def hold():\n"
        "    started.release()\n"
        "    stop.acquire()\n"
        "_thread.start_new_thread(hold, ())\n"
        "started.acquire()\n"
        "print(threading.active_count(), _csvparse.EarlyReaders.start(sys.argv[1]))\n"
        "stop.release()\n"
    )
    assert fresh_python(code, path).split("\n") == ["1", "1 None"]


@pytest.mark.parametrize("widths", [(4, 5), (5, 4)], ids=["wider_below", "narrower_below"])
def test_parts_that_disagree_on_width(tmp_path, monkeypatch, forked, capsys, widths):
    # A reader claims the lower rows, one piece, and this process the upper
    # ones: each part parses on its own; only their join is ragged.
    top = csv_text(data(20, widths[0]))
    path = write(tmp_path, "two_widths.csv", top + csv_text(data(20, widths[1], seed=8)))
    cut, size = len(top.encode("utf-8")), os.path.getsize(path)
    monkeypatch.setattr(_csvparse, "MIN_SLICE_BYTES", FLOOR)
    monkeypatch.setattr(_csvparse, "PIECE_BYTES", size - cut)
    monkeypatch.setattr(_cpus, "usable_cpus", lambda: 2)
    monkeypatch.setattr(_cpus, "fork_is_safe", lambda: threading.active_count() == 1)
    claim, parent, claimed = _csvparse._claim, os.getpid(), []

    def the_reader_claims_once(file, frontier):
        if os.getpid() != parent:
            if claimed:
                return None
            claimed.append(True)
        while os.getpid() == parent and frontier_at(frontier) == size:
            time.sleep(0.001)  # until the reader holds [cut, size)
        return claim(file, frontier)

    monkeypatch.setattr(_csvparse, "_claim", the_reader_claims_once)
    joins = record_joins(monkeypatch)
    assert main(["test", path, "--out", str(tmp_path / "r.json")]) == 1
    assert joins == [False]
    fault = f" has {widths[1]} fields, the first data line {widths[0]}"
    assert capsys.readouterr().err == parent_stderr(path, False, cut, fault)
    assert len(forked) == 1
    assert_reaped(forked)


# ---------------------------------------------------------------------------
# The early readers: claims, the piece parser, and the process they run in.

class TestClaims:
    def claims(self, path):
        """Every piece ``_claim`` hands out, from a frontier at the file's end."""
        frontier = new_frontier(os.path.getsize(path))
        file = os.open(path, os.O_RDONLY)
        try:
            pieces = []
            while claimed := _csvparse._claim(file, frontier):
                pieces.append(claimed)
            assert lock_is_free(frontier)
            return pieces
        finally:
            os.close(file)
            os.close(frontier)

    @pytest.mark.parametrize("piece", [1, 40, 200, 1 << 20])
    def test_pieces_are_whole_lines_below_the_first(self, tmp_path, monkeypatch, piece):
        monkeypatch.setattr(_csvparse, "PIECE_BYTES", piece)
        path = write(tmp_path, "noisy.csv", HEADER + csv_text(data(30, 3), extra=NOISE))
        raw = Path(path).read_bytes()
        first_line_end = raw.index(b"\n") + 1
        pieces = self.claims(path)
        # From the end down, each piece ending where the one claimed after it
        # starts; what is left from byte 0, the caller's, is the first line
        # and less than PIECE_BYTES below it.
        left = pieces[-1][0] if pieces else len(raw)
        assert first_line_end <= left < first_line_end + piece
        assert all(low[1] == high[0] for high, low in zip(pieces, pieces[1:]))
        assert not pieces or pieces[0][1] == len(raw)
        for start, stop in pieces:
            # Each starts at the line that holds the byte PIECE_BYTES below its
            # end, never at byte 0.
            assert start > 0 and raw[start - 1] == ord("\n") and raw[stop - 1] == ord("\n")
            assert b"\n" not in raw[start: max(0, stop - piece)]

    def test_pieces_that_start_on_blank_and_comment_lines(self, tmp_path, monkeypatch):
        # Both parsers read each piece as np.loadtxt reads those lines in the file.
        # Before row 2 a blank line starts PIECE bytes below a row, so that
        # the piece claimed below the row starts on it.
        monkeypatch.setattr(_csvparse, "PIECE_BYTES", PIECE)
        extra = {**NOISE, 2: ["", "# comment, 1.0"]}
        path = write(tmp_path, "noisy.csv", csv_text(data(40, 5), extra=extra))
        raw = Path(path).read_bytes()
        pieces = self.claims(path)[::-1]
        assert {raw[start: start + 1] for start, _ in pieces} >= {b"\n", b"#"}
        loaded = [_csvparse._parse(path, 0, 0, pieces[0][0])]
        for start, stop in pieces:
            loaded.append(_csvparse._parse(path, 0, start, stop))
            values = array("d")
            rows, width = _csvparse._float_rows(raw[start:stop], values, None)
            assert loaded[-1].size == len(values) == rows * (width or 0)
            assert np.frombuffer(values).tobytes() == loaded[-1].tobytes()
        joined = np.concatenate([part for part in loaded if part.size])
        assert joined.tobytes() == reference(path, False).tobytes()

    def test_a_reader_killed_holding_the_lock_costs_no_wait(self, tmp_path, monkeypatch,
                                                             forked):
        # The kernel frees the lock of a reader that dies holding it: this
        # process claims every piece, finds the reader's part missing, parses
        # the whole file once with np.loadtxt and reaps the reader.
        path = write(tmp_path, "plain.csv", CASES["plain"]())
        parent, line_start, held = os.getpid(), _csvparse._line_start, os.pipe()

        def the_reader_stops_in_its_claim(*args):
            if os.getpid() != parent:
                os.write(held[1], b"\0")
                time.sleep(60)
            return line_start(*args)

        monkeypatch.setattr(_csvparse, "_line_start", the_reader_stops_in_its_claim)
        early = _csvparse.EarlyReaders(path, 1)
        try:
            assert os.read(held[0], 1) == b"\0"  # the reader holds the lock
        finally:
            for fd in held:
                os.close(fd)
        assert not lock_is_free(early._frontier)
        os.kill(early.children[0][0], signal.SIGKILL)
        whole = record_parses(monkeypatch)
        began = time.monotonic()
        got = _csvparse.load_csv(path, 0, early)
        waited = time.monotonic() - began
        assert got.tobytes() == reference(path, False).tobytes()
        assert whole.count(True) == 1 and whole[-1] and waited < 0.5
        assert early.children == [] and len(forked) == 2  # the reader and the lock probe
        assert_reaped(forked)

    def test_a_closed_frontier_hands_out_nothing(self, tmp_path):
        path = write(tmp_path, "plain.csv", CASES["plain"]())
        file = os.open(path, os.O_RDONLY)
        try:
            for at in (0, -1):  # closed, declined
                frontier = new_frontier(at)
                assert _csvparse._claim(file, frontier) is None and frontier_at(frontier) == at
                os.close(frontier)
        finally:
            os.close(file)


# Fields written with repr, some with spaces around them.
FIELDS = st.floats(width=64).map(repr) | st.floats(width=64).map(lambda v: f" {v!r} ")
# Fields that np.loadtxt rejects, reads otherwise than float() does, or that
# are not ASCII.
ODD_FIELDS = st.sampled_from(["1_0", "abc", "", "0x10", "\x1c2.5", "1.5\x0b", "2.5\r", "１",
                              "+inf", "-nan", "1e5", "1e400", "--1"])


@st.composite
def csv_texts(draw):
    """CSV text of rows written with repr, comment and blank lines and trailing
    comments; half of the texts also hold some of whitespace lines, odd
    fields, ragged rows, CRLF line ends and a header line."""
    width = draw(st.integers(min_value=1, max_value=4))
    kinds = ["row"] * 4 + ["comment", "blank", "noted"]
    messy = draw(st.booleans())
    if messy:
        kinds += ["whitespace", "odd", "ragged"]
    header = messy and draw(st.booleans())
    lines = [draw(st.sampled_from(["a,b", "# head", "x"]))] if header else []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=10)):
        fields = draw(st.lists(FIELDS, min_size=width, max_size=width))
        if kind == "odd":
            fields[draw(st.integers(0, width - 1))] = draw(ODD_FIELDS)
        elif kind == "ragged":
            fields = fields[1:] if width > 1 and draw(st.booleans()) else fields + ["1.0"]
        line = {"comment": "# note, 1.0", "blank": "",
                "whitespace": draw(st.sampled_from([" ", "\t", " \t "]))}.get(kind, ",".join(fields))
        lines.append(line + (" # note" if kind == "noted" else ""))
    newline = draw(st.sampled_from(["\n", "\r\n"])) if messy else "\n"
    return newline.join(lines) + (newline if lines and draw(st.booleans()) else "")


def loadtxt_or_error(path, header):
    try:
        return reference(path, header)
    except ValueError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(text=csv_texts())
# float() reads each of these lines, np.loadtxt otherwise or not at all.
@example(text="1,1_0\n")
@example(text="1,2.5\r,3\n")
@example(text="1,2\n \n")
@example(text="1,2\n3\n")
# A carriage return that ends no CRLF is a line end to np.loadtxt alone.
@example(text="1,2\r\r\n3,4\r\n")
@example(text="1,2 # a\rb\r\n")
def test_piece_parser_reads_as_loadtxt_or_declines(text):
    raw = text.encode("utf-8")
    values = array("d")
    parsed = _csvparse._float_rows(raw, values, None)
    if b"\r" in raw.replace(b"\r\n", b""):
        assert parsed is None
    with tempfile.TemporaryDirectory() as folder:
        want = loadtxt_or_error(write(Path(folder), "x.csv", text), False)
    if parsed is None:
        return  # declined: the caller parses the file with np.loadtxt
    assert not isinstance(want, Exception), want
    rows, width = parsed
    if rows == 0:
        assert want.size == 0 and len(values) == 0
    else:
        got = np.frombuffer(values).reshape(rows, width)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_piece_parser_accepts_what_it_can_prove():
    # Comment, blank and trailing-comment lines, spaces around fields and
    # every special value float() and np.loadtxt read alike.
    text = ("1.5, -2 # note\n# comment, 1.0\n\n nan ,inf\n-inf,-0.0\n"
            "1e-320,+3\nINFINITY,-NaN\n")
    values = array("d")
    assert _csvparse._float_rows(text.encode(), values, None) == (5, 2)
    want = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
    assert np.frombuffer(values).tobytes() == want.tobytes()
    assert _csvparse._float_rows(b"1,2\n", array("d"), 3) is None  # another width


def test_piece_parser_declines_bytes_the_locale_might_not_decode():
    # np.loadtxt decodes comments too: in a UTF-8 locale this one fails.
    raw = b"1,2 # caf\xe9\n3,4\n"
    assert _csvparse._float_rows(raw, array("d"), None) is None
    if _csvparse.io.TextIOWrapper(io.BytesIO()).encoding.lower() in ("utf-8", "utf8"):
        with pytest.raises(UnicodeDecodeError):
            np.loadtxt(io.TextIOWrapper(io.BytesIO(raw)), delimiter=",")


@settings(max_examples=60, deadline=None)
@given(text=csv_texts(), header=st.booleans(), drain=st.booleans())
def test_load_csv_read_early_is_loadtxt_or_its_error(text, header, drain):
    with tempfile.TemporaryDirectory() as folder, \
            mock.patch.object(_csvparse, "PIECE_BYTES", PIECE):
        path = write(Path(folder), "x.csv", text)
        want = loadtxt_or_error(path, header)
        early = _csvparse.EarlyReaders(path, 2)
        pids = [pid for pid, _ in early.children]
        if drain:
            drained(early)
        try:
            got = _csvparse.load_csv(path, 1 if header else 0, early)
        except ValueError as exc:
            assert isinstance(want, ValueError) and str(exc) == str(want)
        else:
            assert not isinstance(want, Exception), want
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert len(pids) == 2
        assert_reaped(pids)


def test_a_piece_left_unsent_falls_back_to_the_whole_file(tmp_path, monkeypatch, forked):
    # Each early reader sends all it claimed but its first piece.
    monkeypatch.setattr(_csvparse, "PIECE_BYTES", PIECE)
    send = _csvparse._send

    def first_piece_dropped(fd, parts, values):
        if isinstance(values, array) and parts:
            return send(fd, parts[1:], values[parts[0][2] * parts[0][3]:])
        return send(fd, parts, values)

    monkeypatch.setattr(_csvparse, "_send", first_piece_dropped)
    path = write(tmp_path, "noisy.csv", csv_text(data(40, 5), extra=NOISE))
    early = _csvparse.EarlyReaders(path, 1)
    drained(early)
    whole = record_parses(monkeypatch)
    assert _csvparse.load_csv(path, 0, early).tobytes() == reference(path, False).tobytes()
    assert whole[-1] and len(forked) == 1
    assert_reaped(forked)


@pytest.mark.parametrize("inside", ["parts", "rows"])
def test_a_message_cut_short_falls_back_to_the_whole_file(tmp_path, monkeypatch, forked,
                                                          inside):
    # The early reader exits halfway through its marshal list, or its rows.
    monkeypatch.setattr(_csvparse, "PIECE_BYTES", PIECE)

    def cut_short(fd, parts, values):
        table = marshal.dumps(parts)
        message = table + values.tobytes()
        end = len(table) // 2 if inside == "parts" else (len(table) + len(message)) // 2
        with open(fd, "wb") as pipe:
            pipe.write(message[:end])

    monkeypatch.setattr(_csvparse, "_send", cut_short)
    path = write(tmp_path, "noisy.csv", csv_text(data(40, 5), extra=NOISE))
    early = _csvparse.EarlyReaders(path, 1)
    drained(early)
    whole = record_parses(monkeypatch)
    assert _csvparse.load_csv(path, 0, early).tobytes() == reference(path, False).tobytes()
    assert whole.count(True) == 1 and whole[-1]
    assert early.children == [] and len(forked) == 1
    assert_reaped(forked)


def test_after_a_decline_the_whole_file_is_the_one_parse(tmp_path, monkeypatch, forked):
    # The early reader's first piece, the file's end, holds a lone carriage
    # return, a line end to np.loadtxt alone, so it declines; the command then
    # parses no piece of its own.
    monkeypatch.setattr(_csvparse, "PIECE_BYTES", PIECE)
    path = write(tmp_path, "lone_cr.csv", csv_text(data(40, 5)) + "# a lone\r# carriage return\n")
    early = _csvparse.EarlyReaders(path, 1)
    drained(early)
    assert frontier_at(early._frontier) == -1
    whole = record_parses(monkeypatch)
    assert _csvparse.load_csv(path, 0, early).tobytes() == reference(path, False).tobytes()
    assert whole == [True] and len(forked) == 1
    assert_reaped(forked)


@pytest.mark.parametrize("encoding, compatible", [
    ("utf-8", True), ("latin-1", True), ("cp1252", True), ("shift_jis", True),
    ("utf-16", False), ("cp037", False), ("no-such-codec", False)])
def test_early_readers_need_an_ascii_compatible_locale(monkeypatch, encoding, compatible):
    opened = types.SimpleNamespace(encoding=encoding)
    monkeypatch.setattr(_csvparse, "io", types.SimpleNamespace(
        BytesIO=io.BytesIO, TextIOWrapper=lambda buffer: opened))
    assert _csvparse._ascii_compatible() is compatible


def test_early_readers_start_only_where_they_can_help(tmp_path):
    # In a fresh process, which has not loaded numpy and runs one thread.
    big = write(tmp_path, "plain.csv", CASES["plain"]())
    small = write(tmp_path, "small.csv", "1,2\n3,4\n")
    packed = tmp_path / "plain.csv.gz"
    packed.write_bytes(gzip.compress(Path(big).read_bytes()))
    code = (
        "import json, os, sys, threading\n"
        "from hdnorm import _cpus, _csvparse\n"
        f"_csvparse.MIN_SLICE_BYTES = {FLOOR}\n"
        "_cpus.usable_cpus = lambda: 2\n"
        "start = _csvparse.EarlyReaders.start\n"
        "big, small, packed = sys.argv[1:]\n"
        "early = start(big)\n"
        "out = {'plain': early is not None and len(early.children) == 1}\n"
        "early.kill()\n"
        "out.update(small=start(small), packed=start(packed), missing=start(big + '.x'))\n"
        "_cpus.usable_cpus = lambda: 1\n"
        "out['one_cpu'] = start(big)\n"
        "_cpus.usable_cpus = lambda: 2\n"
        "stop = threading.Event()\n"
        "other = threading.Thread(target=stop.wait)\n"
        "other.start()\n"
        "out['thread'] = start(big)\n"
        "stop.set()\n"
        "other.join()\n"
        "_cpus.default_to_one_blas_thread()\n"
        "import numpy\n"
        "early = start(big)\n"
        "out['numpy'] = early is not None and len(early.children) == 1\n"
        "early.kill()\n"
        "del os.memfd_create\n"
        "out.update(no_memfd=start(big),\n"
        "           no_memfd_rows=_csvparse.load_csv(big, 0, start(big)).shape)\n"
        "print(json.dumps(out))\n"
    )
    got = json.loads(fresh_python(code, big, small, str(packed)))
    assert got == {"plain": True, "small": None, "packed": None, "missing": None,
                   "one_cpu": None, "thread": None, "numpy": True, "no_memfd": None,
                   "no_memfd_rows": [30, 6]}


def test_a_start_that_fails_closes_what_it_opened(tmp_path, monkeypatch):
    path = write(tmp_path, "plain.csv", CASES["plain"]())
    monkeypatch.setattr(_csvparse, "MIN_SLICE_BYTES", FLOOR)
    monkeypatch.setattr(_cpus, "usable_cpus", lambda: 2)
    monkeypatch.setattr(_cpus, "fork_is_safe", lambda: True)

    def no_descriptor_left(name):
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(os, "memfd_create", no_descriptor_left)
    before = len(os.listdir("/proc/self/fd"))
    assert _csvparse.EarlyReaders.start(path) is None
    assert len(os.listdir("/proc/self/fd")) == before


# ``hdnorm`` as its console script runs it, with early readers of files of
# FLOOR bytes or more on two CPUs; it prints its exit code, whether it started
# early readers, whether it left a child unreaped and whether it loaded numpy.
EARLY_MAIN = (
    "import json, os, sys\n"
    "from hdnorm import _cpus, _csvparse\n"
    f"_csvparse.MIN_SLICE_BYTES = {FLOOR}\n"
    f"_csvparse.PIECE_BYTES = {PIECE}\n"
    "_cpus.usable_cpus = lambda: 2\n"
    "started, start = [], _csvparse.EarlyReaders.start\n"
    "def recording_start(path):\n"
    "    early = start(path)\n"
    "    started.append(early is not None)\n"
    "    return early\n"
    "_csvparse.EarlyReaders.start = recording_start\n"
    "from hdnorm.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "try:\n"
    "    os.waitpid(-1, os.WNOHANG)\n"
    "    reaped = False\n"
    "except ChildProcessError:\n"
    "    reaped = True\n"
    "print(json.dumps([code, started, reaped, 'numpy' in sys.modules]))\n"
)


def run_early_main(*args):
    """(exit code, early readers started, all reaped, numpy loaded) and stderr."""
    done = fresh_process(EARLY_MAIN, *args)
    assert done.returncode == 0, done.stderr
    return tuple(json.loads(done.stdout.splitlines()[-1])), done.stderr


class TestEarlyReadersInTheCommand:
    @pytest.mark.parametrize("header", [False, True], ids=["no_header", "header"])
    def test_report_as_without_them(self, tmp_path, header):
        path = write(tmp_path, "noisy.csv",
                     (HEADER if header else "") + csv_text(data(40, 5), extra=NOISE))
        args = ["test", path, "--mc", "500"] + (["--header"] if header else [])
        (code, started, reaped, _), err = run_early_main(*args, "--out", str(tmp_path / "a"))
        assert code in (0, 3) and started == [True] and reaped and err == ""
        # Here the file is below MIN_SLICE_BYTES, so main parses it in one
        # np.loadtxt.
        assert main([*args, "--out", str(tmp_path / "b")]) == code
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_diagnose_as_without_them(self, tmp_path):
        path = write(tmp_path, "noisy.csv", csv_text(data(40, 5), extra=NOISE))
        (code, started, reaped, _), err = run_early_main(
            "diagnose", path, "--out", str(tmp_path / "a"))
        assert (code, started, reaped, err) == (0, [True], True, "")
        assert main(["diagnose", path, "--out", str(tmp_path / "b")]) == 0
        for name in ("qq.csv", "radii.csv", "interpoint.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_a_refused_start_is_not_tried_again(self, tmp_path):
        # The file is below MIN_SLICE_BYTES: main's one start is refused, and
        # the parse forks nothing of its own.
        path = write(tmp_path, "small.csv", "1,2\n3,5\n4,1\n2,8\n7,7\n")
        assert os.path.getsize(path) < FLOOR
        (code, started, reaped, _), err = run_early_main(
            "test", path, "--mc", "500", "--out", str(tmp_path / "r.json"))
        assert (code, started, reaped, err) == (0, [False], True, "")

    @pytest.mark.parametrize("command, option, value, message", [
        ("test", "--stats", "bogus", "error: unknown method 'bogus'; choose from composite,"
                                     " squared, range, iqr or quasi:q\n"),
        ("test", "--mc", "50", "error: need at least 100 Monte-Carlo replications, got 50\n"),
        ("test", "--alpha", "2", "error: alpha must lie in (0, 1), got 2.0\n"),
        ("test", "--out", "missing/r.json", "error: cannot write {tmp}/missing/r.json\n"),
        ("test", "--seed", "-1", "error: seed must be non-negative, got -1\n"),
        ("diagnose", "--seed", "-1", "error: seed must be non-negative, got -1\n")])
    def test_errors_before_the_read_reap_them(self, tmp_path, command, option, value, message):
        # --out and --seed are checked before any reader starts; --stats, --mc and
        # --alpha once the readers are forked, and before numpy loads.
        path = write(tmp_path, "plain.csv", CASES["plain"]())
        out = ["--out", str(tmp_path / "out")]
        if option == "--out":
            value, out = str(tmp_path / value), []
        got, err = run_early_main(command, path, option, value, *out)
        forked = option in ("--stats", "--mc", "--alpha")
        assert got == (1, [True] if forked else [], True, False)
        assert err == message.format(tmp=tmp_path)

    @pytest.mark.parametrize("header", [False, True], ids=["no_header", "header"])
    @pytest.mark.parametrize("kind", ["ragged", "token", "nan", "inf"])
    def test_a_fault_in_their_part_reads_as_before(self, tmp_path, kind, header):
        # The fault is on the last line, the first piece the readers claim.
        path, offset = bad_last_slice(tmp_path, kind, header)
        args = ["test", path, "--out", str(tmp_path / "r.json")] + (["--header"] if header
                                                                     else [])
        (code, started, reaped, _), err = run_early_main(*args)
        assert (code, started, reaped) == (1, [True], True)
        fault = {"ragged": " has 4 fields, the first data line 5",
                 "token": ": could not convert string to float: 'abc'"}.get(kind, "")
        assert err == parent_stderr(path, header, offset, fault)
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("args, code", [(["--help"], 0), (["test", "--help"], 0),
                                            (["test"], 2), (["test", "x.csv", "--mc", "x"], 2),
                                            (["test", "x.csv", "--stats", "bogus"], 1)])
    def test_help_and_usage_errors_load_no_numpy(self, args, code):
        # A bad --stats is judged after the readers' start, which the missing file refuses.
        started = [False] if code == 1 else []
        assert run_early_main(*args)[0] == (code, started, True, False)

    def test_readers_where_numpy_is_loaded(self, tmp_path, cpus, forked, monkeypatch):
        # This process has numpy loaded; main forks the readers all the same.
        path = write(tmp_path, "plain.csv", CASES["plain"]())
        joins = record_joins(monkeypatch)
        assert main(["test", path, "--mc", "500", "--out", str(tmp_path / "r.json")]) in (0, 3)
        assert len(forked) == cpus - 1 and joins == ([True] if cpus > 1 else [])
        assert_reaped(forked)
