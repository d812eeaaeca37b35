"""Output files are overwritten in place through one opener,
`_numtext.open_output`: each writer leaves exactly its new bytes over a
longer or a shorter old file, writes through links, leaves no stale tail
when it fails partway, marks the old end so that a write killed midway is
refused when read, and is never bypassed by a plain `open`."""

import ast
import errno
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from dsmgame import algorithms
from dsmgame._numtext import STALE_MARK, ends_unfinished, open_output
from dsmgame.cli import main
from dsmgame.scenario import generate, load_scenario
from conftest import REPO, src_env


def run_cli(*argv):
    return main([str(a) for a in argv])


WRITERS = ("trace", "summary", "scenario", "convergence")


@pytest.fixture()
def writers(tmp_path, monkeypatch):
    """Per writer, a command that writes its file at the relative path
    `out`. Paths stay relative in one working directory, so the paths a
    summary echoes are the same on every call."""
    monkeypatch.chdir(tmp_path)
    assert run_cli("generate", "--n", "4", "--seed", "3", "-o", "scenario.json") == 0
    run = ("run", "scenario.json", "--alg", "1", "--max-iter", "40", "--tol", "1e-12")
    assert run_cli(*run, "--trace", "trace.csv", "--summary", "summary.json") == 0
    return {
        "trace": lambda: run_cli(*run, "--trace", "out", "--summary", "s.json"),
        "summary": lambda: run_cli(*run, "--trace", "t.csv", "--summary", "out"),
        "scenario": lambda: run_cli("generate", "--n", "4", "--seed", "3", "-o", "out"),
        "convergence": lambda: run_cli(
            "report", "--kind", "convergence", "--trace", "trace.csv", "-o", "out"
        ),
    }


def fresh_bytes(write) -> bytes:
    """What `write` puts into `out` where no file was."""
    assert not os.path.lexists("out")
    assert write() == 0
    data = Path("out").read_bytes()
    os.remove("out")
    return data


@pytest.mark.parametrize("old", [b"x" * 2**20, b"x" * 10], ids=["longer", "shorter"])
@pytest.mark.parametrize("kind", WRITERS)
def test_a_rewrite_leaves_exactly_the_new_bytes(writers, kind, old):
    new = fresh_bytes(writers[kind])
    assert 10 < len(new) < 2**20
    Path("out").write_bytes(old)
    assert writers[kind]() == 0
    assert Path("out").read_bytes() == new


@pytest.mark.parametrize("kind", WRITERS)
def test_a_symlink_is_written_through_and_stays_a_link(writers, kind):
    new = fresh_bytes(writers[kind])
    Path("target").write_bytes(b"x" * 2**20)
    os.symlink("target", "out")
    assert writers[kind]() == 0
    assert os.path.islink("out")
    assert Path("target").read_bytes() == new


@pytest.mark.parametrize("kind", WRITERS)
def test_a_hard_link_sees_the_new_bytes(writers, kind):
    new = fresh_bytes(writers[kind])
    Path("other").write_bytes(b"x" * 2**20)
    os.link("other", "out")
    assert writers[kind]() == 0
    assert os.path.samefile("other", "out")
    assert Path("other").read_bytes() == new


def test_a_trace_write_that_fails_keeps_only_the_lines_written_before_it(
    tmp_path, monkeypatch
):
    scenario, init = generate(8, seed=3)
    _, trace = algorithms.run_algorithm1(scenario, init=init, tol=0.0, max_iter=40)
    full = tmp_path / "full.csv"
    trace.to_csv(full)
    lines = full.read_bytes().splitlines(keepends=True)
    # the header and the states of the first block, written before the
    # second block's numbers are formatted
    n_first = len(next(trace._blocks()))
    n_written = 1 + n_first * scenario.n_consumers
    assert n_written < len(lines)
    written = b"".join(lines[:n_written])

    float_texts, calls = algorithms.float_texts, []

    def fail_on_the_second_block(values):
        calls.append(len(values))
        if len(calls) == 2:
            raise RuntimeError("formatting failed")
        return float_texts(values)

    monkeypatch.setattr(algorithms, "float_texts", fail_on_the_second_block)
    out = tmp_path / "out.csv"
    out.write_bytes(b"x" * 2**20)
    with pytest.raises(RuntimeError, match="formatting failed"):
        trace.to_csv(out)
    assert out.read_bytes() == written


def test_run_writes_to_the_null_device(tmp_path):
    scenario = tmp_path / "scenario.json"
    assert run_cli("generate", "--n", "4", "--seed", "3", "-o", scenario) == 0
    code = run_cli(
        "run", scenario, "--alg", "1", "--max-iter", "5",
        "--trace", os.devnull, "--summary", os.devnull,
    )
    assert code == 0


def test_an_overwrite_marks_the_old_end_until_the_new_bytes_reach_it(tmp_path):
    out = tmp_path / "out"
    out.write_bytes(b"x" * 100)
    with open_output(out) as fh:
        assert out.read_bytes() == b"x" * 99 + STALE_MARK
        fh.write("y" * 60)
        fh.flush()
        assert out.read_bytes() == b"y" * 60 + b"x" * 39 + STALE_MARK
        assert ends_unfinished(out)
        fh.write("y" * 40)
        fh.flush()
        assert not ends_unfinished(out)
    assert out.read_bytes() == b"y" * 100


_KILLED_MIDWAY = """
import os, signal, sys
from dsmgame import algorithms
from dsmgame.cli import main
float_texts, calls = algorithms.float_texts, []
def die_on_the_second_block(values):
    calls.append(len(values))
    if len(calls) == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return float_texts(values)
algorithms.float_texts = die_on_the_second_block
main(sys.argv[1:])
"""


def test_a_trace_killed_midway_over_an_older_one_is_refused_by_the_report(
    tmp_path, monkeypatch, capsys
):
    # the old trace is another scenario's, longer than the new one; a kill
    # runs no clean-up, so its tail stays after the new bytes
    monkeypatch.chdir(tmp_path)
    for seed in (3, 4):
        assert run_cli("generate", "--n", "8", "--seed", seed, "-o", f"s{seed}.json") == 0
    run = ("--alg", "1", "--tol", "1e-12", "--summary", "summary.json")
    assert run_cli("run", "s4.json", *run, "--max-iter", "80", "--trace", "old.csv") == 0
    assert run_cli("run", "s3.json", *run, "--max-iter", "40", "--trace", "full.csv") == 0
    old, full = Path("old.csv").read_bytes(), Path("full.csv").read_bytes()
    assert len(full) < len(old)
    Path("out.csv").write_bytes(old)
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_MIDWAY, "run", "s3.json", *run,
         "--max-iter", "40", "--trace", "out.csv"],
        env=src_env(), capture_output=True,
    )
    assert proc.returncode == -signal.SIGKILL
    data = Path("out.csv").read_bytes()
    written = len(os.path.commonprefix([data, full]))
    assert 0 < written < len(full)
    assert data[written:] == old[written:-1] + STALE_MARK
    capsys.readouterr()
    assert run_cli("report", "--kind", "convergence", "--trace", "out.csv", "-o", "c.csv") == 1
    assert "out.csv was not written to its end" in capsys.readouterr().err
    assert not os.path.exists("c.csv")


@pytest.mark.parametrize("kind", ["summary", "scenario"])
def test_a_json_file_stopped_midway_over_an_older_one_is_refused(writers, capsys, kind):
    # the state a kill leaves: the first half of the new bytes over the old
    # file, here a rerun's same bytes, which would read as whole but for the
    # mark over their last byte
    new = fresh_bytes(writers[kind])
    Path("out").write_bytes(new)
    with open_output("out") as fh:
        fh.write(new[: len(new) // 2].decode())
        fh.flush()
        if kind == "summary":
            capsys.readouterr()
            assert run_cli("report", "--kind", "par", "--summary", "out", "-o", "p.json") == 1
            assert "error: --summary out was not written to its end" in capsys.readouterr().err
        else:
            with pytest.raises(ValueError, match="^out was not written to its end"):
                load_scenario("out")


_FLUSH_FAILS = """
import resource, signal, sys
from dsmgame._numtext import open_output
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
limit = int(sys.argv[2])
try:
    with open_output(sys.argv[1]) as fh:
        hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
        fh.write("y" * limit)
        fh.write("y" * 100)  # held in the buffers until the flush on exit
except OSError as exc:
    print(exc.errno)
"""


def test_a_write_whose_flush_fails_ends_at_the_last_byte_the_system_took(tmp_path):
    # past the file-size limit every write fails, here the flush on exit;
    # the file is still cut where the written bytes end, inside the old file
    out, limit = tmp_path / "out", 2**16
    out.write_bytes(b"x" * 3 * limit)
    proc = subprocess.run(
        [sys.executable, "-c", _FLUSH_FAILS, str(out), str(limit)],
        env=src_env(), capture_output=True, text=True,
    )
    assert proc.stdout == f"{errno.EFBIG}\n", proc.stderr
    assert out.read_bytes() == b"y" * limit


# --- no writer bypasses the opener ------------------------------------------

#: os.open flags that write or create
_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC"}


def _mode_writes(mode) -> bool:
    """Whether an `open` mode argument may write: a literal with w, a, x or
    +, or anything that is not a literal."""
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(set(mode.value) & set("wax+"))
    return True


def _argument(call: ast.Call, index: int, name: str):
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return call.args[index] if len(call.args) > index else None


def _opens_to_write(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        return _mode_writes(_argument(call, 1, "mode"))
    if not isinstance(func, ast.Attribute):
        return False
    owner = func.value.id if isinstance(func.value, ast.Name) else None
    if func.attr in ("write_text", "write_bytes"):
        return True
    if func.attr != "open":
        return False
    if owner == "io":
        return _mode_writes(_argument(call, 1, "mode"))
    if owner == "os":
        flags = _argument(call, 1, "flags")
        names = {
            node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(flags)
            if isinstance(node, (ast.Attribute, ast.Name))
        }
        # an unknown name (a variable) may hold any flags
        return bool(names & _WRITE_FLAGS or names - {"os", "O_RDONLY", "O_CLOEXEC"})
    return _mode_writes(_argument(call, 0, "mode"))  # Path.open


def writes_outside_the_opener(tree: ast.AST) -> list[int]:
    """Line numbers of the calls in `tree` that open a file to write
    anywhere but inside a function named `open_output`."""
    found = []

    def visit(node, inside: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name == "open_output"
        if isinstance(node, ast.Call) and not inside and _opens_to_write(node):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


@pytest.mark.parametrize("source, lines", [
    ('def f(p):\n    open(p, "w")\n', [2]),
    ('def f(p, m):\n    open(p, mode=m)\n', [2]),
    ('open(p, "ab")\n', [1]),
    ('io.open(p, "x")\n', [1]),
    ('os.open(p, os.O_WRONLY | os.O_CREAT, 0o666)\n', [1]),
    ('os.open(p, flags)\n', [1]),
    ('p.open("r+")\n', [1]),
    ('p.write_text("")\n', [1]),
    ('open(p)\nopen(p, "rb")\nos.open(p, os.O_RDONLY)\np.open()\n', []),
    ('def open_output(p):\n    os.open(p, os.O_WRONLY, 0o666)\n    open(p, "w")\n', []),
])
def test_the_writer_scan_sees_every_kind_of_write(source, lines):
    assert writes_outside_the_opener(ast.parse(source)) == lines


def test_every_writer_in_src_goes_through_open_output():
    found = {}
    for path in sorted((REPO / "src" / "dsmgame").glob("*.py")):
        lines = writes_outside_the_opener(ast.parse(path.read_text(encoding="utf-8")))
        if lines:
            found[path.name] = lines
    assert found == {}
