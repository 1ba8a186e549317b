"""The transcript comparison and `vdk selftest` under several Pythons.

    python3 tests/golden/python_matrix.py [INTERPRETER ...]

With no arguments, every name python3.X on PATH with X >= 10, the
versions vdk supports, is run, newest last.  Each interpreter gets one
line: its version, whether the transcript regenerated through
make_transcript.transcript() matches transcript.txt line for line, and
the last line of `vdk selftest`; or why it could not start.  Under
pyenv the shim of a version that is not selected cannot start, so
select them all first, for example

    PYENV_VERSION=3.10.13:3.11.7:3.12.1:3.13.0 python3 tests/golden/python_matrix.py

Exits 1 when an interpreter that starts fails either check.  Stdlib
only; the source tree's src/ is put on PYTHONPATH, so nothing need be
installed.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TESTS = ROOT / "tests"

# prints the version, then the transcript verdict; exits 1 on a difference
COMPARE = """\
import sys
sys.path.insert(0, sys.argv[1])
from test_transcript import first_difference, load_maker
print(sys.version.split()[0])
maker = load_maker()
difference = first_difference(maker.PATH.read_text().splitlines(), maker.transcript())
if difference:
    print("transcript differs: " + difference.replace("\\n", " "))
    sys.exit(1)
print("transcript identical")
"""


def interpreters_on_path() -> list[str]:
    """The distinct names python3.X on PATH with X >= 10, by minor version."""
    names = set()
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        try:
            names.update(n for n in os.listdir(folder or ".") if re.fullmatch(r"python3\.1\d", n))
        except OSError:
            continue
    return sorted(names, key=lambda n: int(n.split(".")[1]))


def line_of(text: str, index: int) -> str:
    lines = text.strip().splitlines()
    return lines[index] if lines else "(no output)"


def check(python: str) -> tuple[bool, str]:
    """(passed, the report line) for one interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        compare = subprocess.run(
            [python, "-c", COMPARE, str(TESTS)], capture_output=True, text=True, env=env, cwd=ROOT
        )
    except OSError as e:
        return False, "%s: cannot start: %s" % (python, e)
    out = compare.stdout.strip().splitlines()
    if not out:
        return False, "%s: cannot start: %s" % (python, line_of(compare.stderr, 0))
    version = out[0]
    transcript = out[1] if len(out) > 1 else "transcript raised: " + line_of(compare.stderr, -1)
    selftest = subprocess.run(
        [python, "-m", "vdk.cli", "selftest"], capture_output=True, text=True, env=env, cwd=ROOT
    )
    verdict = line_of(selftest.stdout + selftest.stderr, -1)
    passed = compare.returncode == 0 and selftest.returncode == 0
    return passed, "%s (%s): %s; selftest: %s" % (python, version, transcript, verdict)


def main(argv: list[str]) -> int:
    pythons = argv or interpreters_on_path()
    failed = False
    for python in pythons:
        passed, line = check(python)
        print(line, flush=True)
        # an interpreter that cannot start is reported, not failed
        failed |= not passed and ": cannot start: " not in line
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
