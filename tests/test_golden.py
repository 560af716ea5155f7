"""Byte-for-byte CLI snapshots: every subcommand in text and JSON.

The files under tests/golden/ are the stdout of each argv below, captured
before the module layer moved to integer tables.  Any refactor must
reproduce them exactly.  To re-capture after an intended output change,
write `main(argv)`'s stdout for each SHAPES entry to its `snapshot_name`.
"""

from pathlib import Path

import pytest

from triform.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SHAPES = (
    ("classify",),
    ("pairing-table",),
    ("weil",),
    ("character",),
    ("dimension",),
    ("eisenstein",),
    ("borcherds", "--divisor", "long"),
    ("borcherds", "--divisor", "short"),
    ("special-vectors",),
    ("accounting",),
    ("verify-all",),
    ("classify", "--preset", "alt-decomposition"),
    ("pairing-table", "--preset", "alt-decomposition"),
)


def snapshot_name(shape: tuple[str, ...], fmt: str) -> str:
    stem = "_".join(arg.lstrip("-") for arg in shape)
    return f"{stem}.{'txt' if fmt == 'text' else 'json'}"


CASES = [(shape, fmt) for shape in SHAPES for fmt in ("text", "json")]


def test_every_snapshot_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(
        snapshot_name(shape, fmt) for shape, fmt in CASES)


@pytest.mark.parametrize("shape,fmt", CASES,
                         ids=[snapshot_name(s, f) for s, f in CASES])
def test_cli_output_matches_snapshot(capsys, shape, fmt):
    code = main([*shape, "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / snapshot_name(shape, fmt)).read_text()
