"""Byte stability: the committed transcript, regenerated in memory, must
match line for line (tests/golden/make_transcript.py rewrites it)."""

import importlib.util
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def load_maker():
    spec = importlib.util.spec_from_file_location("make_transcript", GOLDEN / "make_transcript.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def first_difference(want: list[str], got: list[str]) -> str | None:
    """None when the lines agree, else where they first differ: the
    section, the line number in the file, and both lines."""
    section = "(before any section)"
    for i, (w, g) in enumerate(zip(want, got)):
        if w.startswith("== "):
            section = w
        if w != g:
            return "section %s, line %d:\n  committed: %s\n  now:       %s" % (section, i + 1, w, g)
    if len(want) != len(got):
        return "section %s: committed %d lines, now %d" % (section, len(want), len(got))
    return None


def test_the_comparison_names_the_section_and_line():
    want = ["== a ==", "1", "== b ==", "2", "3"]
    assert first_difference(want, list(want)) is None
    assert first_difference(want, want[:3] + ["2", "4"]).startswith("section == b ==, line 5:")
    assert first_difference(want, want[:4]) == "section == b ==: committed 5 lines, now 4"


def test_transcript_is_byte_stable():
    maker = load_maker()
    want = maker.PATH.read_text().splitlines()
    difference = first_difference(want, maker.transcript())
    assert difference is None, difference
