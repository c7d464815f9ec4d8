"""The sliced CSV parser: bitwise equal to np.loadtxt, with loadtxt's own errors.

The byte floor is lowered so that files of a few hundred bytes are cut into
as many slices as the patched CPU count allows.
"""

import os
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import fresh_python, gaussian_data
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
        got = _csvparse.load_csv(path, 1 if header else 0)
        want = reference(path, header)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert_reaped(forked)
        if cpus > 1 and len(text) >= 2 * FLOOR and case != "one_row":
            assert len(forked) >= 1

    def test_cuts_on_blank_and_comment_lines(self, tmp_path, monkeypatch, forked):
        text = csv_text(data(40, 5), extra=NOISE)
        path = write(tmp_path, "noisy.csv", text)
        raw = text.encode("utf-8")
        blank = raw.index(b"\n\n") + 1
        comment = raw.index(b"\n#") + 1
        assert raw[blank:blank + 1] == b"\n" and raw[comment:comment + 1] == b"#"
        want = reference(path, False)
        for cuts in ([0, blank, len(raw)], [0, comment, len(raw)],
                     [0, blank, comment, comment + 16, len(raw)]):
            monkeypatch.setattr(_csvparse, "_cuts", lambda path: cuts)
            assert _csvparse.load_csv(path, 0).tobytes() == want.tobytes()
        assert len(forked) == 5
        assert_reaped(forked)

    def test_a_failed_child_falls_back_to_the_whole_file(self, tmp_path, cpus, forked,
                                                         monkeypatch):
        path = write(tmp_path, "plain.csv", CASES["plain"]())
        parse = _csvparse._parse

        def children_fail(path, skiprows, start, stop):
            if start > 0:
                raise MemoryError("no memory in this child")
            return parse(path, skiprows, start, stop)

        monkeypatch.setattr(_csvparse, "_parse", children_fail)
        assert _csvparse.load_csv(path, 0).tobytes() == reference(path, False).tobytes()
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
        assert _csvparse.load_csv(path, 0).tobytes() == reference(path, False).tobytes()
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
            got = _csvparse.load_csv(path, 0)
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
        cuts = _csvparse._cuts(path)
        if cpus > 1:
            assert len(cuts) == cpus + 1 and offset >= cuts[-2]
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
        "        print(_csvparse.load_csv(path, 0).shape)\n"
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
    # slicing in a fresh process whose BLAS runs one thread.
    path = write(tmp_path, "plain.csv", CASES["plain"]())
    code = (
        "import _thread, sys, threading\n"
        "import hdnorm.cli\n"
        "from hdnorm import _cpus, _csvparse\n"
        f"_csvparse.MIN_SLICE_BYTES = {FLOOR}\n"
        "_cpus.usable_cpus = lambda: 2\n"
        "print(len(_csvparse._cuts(sys.argv[1])))\n"
        "started, stop = _thread.allocate_lock(), _thread.allocate_lock()\n"
        "started.acquire()\n"
        "stop.acquire()\n"
        "def hold():\n"
        "    started.release()\n"
        "    stop.acquire()\n"
        "_thread.start_new_thread(hold, ())\n"
        "started.acquire()\n"
        "print(threading.active_count(), _csvparse._cuts(sys.argv[1]))\n"
        "stop.release()\n"
    )
    assert fresh_python(code, path).split("\n") == ["3", "1 [0, None]"]


@pytest.mark.parametrize("widths", [(4, 5), (5, 4)], ids=["wider_below", "narrower_below"])
def test_slices_that_disagree_on_width(tmp_path, monkeypatch, forked, capsys, widths):
    # Each slice parses on its own; only their join is ragged.
    top = csv_text(data(20, widths[0]))
    path = write(tmp_path, "two_widths.csv", top + csv_text(data(20, widths[1], seed=8)))
    cut = len(top.encode("utf-8"))
    monkeypatch.setattr(_csvparse, "_cuts", lambda path: [0, cut, os.path.getsize(path)])
    assert main(["test", path, "--out", str(tmp_path / "r.json")]) == 1
    fault = f" has {widths[1]} fields, the first data line {widths[0]}"
    assert capsys.readouterr().err == parent_stderr(path, False, cut, fault)
    assert len(forked) == 1
    assert_reaped(forked)
