"""tools/bench_record.py: every timed run is checked against the first, and the
call counts of `verify-all` are read from a fresh interpreter."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _side():
    return {"checkout": Path("."), "record": {"label": "change"}}


def test_timed_records_runs_with_one_output(monkeypatch):
    tool = _load()
    monkeypatch.setattr(tool, "cli_run", lambda checkout, argv: (0.5, "aa"))
    side = _side()
    for _ in range(3):
        tool.timed(side, "command_shapes", "accounting", ["accounting"])
    entry = side["record"]["command_shapes"]["accounting"]
    assert entry == {"runs_s": [0.5, 0.5, 0.5], "output_sha256": "aa", "median_s": 0.5}


def test_timed_stops_when_a_later_output_differs(monkeypatch):
    tool = _load()
    first, later = "1" * 64, "2" * 64
    digests = iter([first, later])
    monkeypatch.setattr(tool, "cli_run", lambda checkout, argv: (0.5, next(digests)))
    side = _side()
    argv = ["eisenstein", "--format", "json", "--precision", "30"]
    tool.timed(side, "precision_sweep", "30", argv)
    with pytest.raises(SystemExit) as info:
        tool.timed(side, "precision_sweep", "30", argv)
    message = str(info.value)
    assert "triform eisenstein --format json --precision 30" in message
    assert later in message and first in message
    assert side["record"]["precision_sweep"]["30"]["runs_s"] == [0.5]


def test_describe_names_the_code_a_side_ran(monkeypatch):
    tool = _load()
    calls = []

    def run(cmd, **kwargs):
        calls.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout="dcf14ff-dirty\n", stderr="")

    monkeypatch.setattr(tool.subprocess, "run", run)
    assert tool.describe(Path("/some/checkout")) == "dcf14ff-dirty"
    assert calls == [["git", "-C", "/some/checkout", "describe", "--always", "--dirty"]]


@pytest.mark.parametrize("error", [subprocess.CalledProcessError(128, ["git"]),
                                   FileNotFoundError("git")], ids=["not-a-repo", "no-git"])
def test_describe_is_none_outside_git(monkeypatch, error):
    tool = _load()

    def run(cmd, **kwargs):
        raise error

    monkeypatch.setattr(tool.subprocess, "run", run)
    assert tool.describe(Path("/some/archive")) is None


def test_call_counts_reads_a_fresh_verify_all():
    tool = _load()
    counts = tool.call_counts(TOOL.parent.parent)
    assert set(counts) == {"python_calls", "fractions_calls", "fourier_calls", "cycq_calls"}
    # integer matrices are eliminated without Fractions: 32,038 calls when they were not
    assert 0 < counts["fractions_calls"] < 10_000 < counts["python_calls"]
    assert 0 < counts["fourier_calls"] < 100
    assert 0 < counts["cycq_calls"] < 10_000


def test_call_counts_fails_when_verify_all_fails(tmp_path):
    tool = _load()
    (tmp_path / "src" / "triform").mkdir(parents=True)
    (tmp_path / "src" / "triform" / "__init__.py").write_text("")
    (tmp_path / "src" / "triform" / "cli.py").write_text("def main(argv):\n    return 1\n")
    with pytest.raises(subprocess.CalledProcessError):
        tool.call_counts(tmp_path)
