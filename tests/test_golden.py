"""Pinned CLI output: the exact stdout, stderr, exit code and --out files of
each subcommand on small case-study queries.

Each case runs once without and once with ``--out``; tests/golden/<case>.txt
holds both runs as one text. After an intended output change, rewrite the
pins with

    PYTHONPATH=src:tests python3 tests/test_golden.py

and name the output change in CHANGES.md.
"""
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from threshq.cli import main

from conftest import CASE_STUDY_DOC

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "delay": ["delay", "--x", "4.5"],
    "equilibria_mixed": ["equilibria", "--mixed-range", "24:27"],
    "table1": ["equilibria", "--table1", "8,8.15,8.5,9.5,13"],
    "sweep_pure": ["sweep", "--kind", "pure_n0", "--range", "14:20"],
    "sweep_mixed": ["sweep", "--kind", "mixed_x", "--range", "24:25:0.25"],
    "simulate": ["simulate", "--n", "2", "--x", "4.5", "--reps", "50", "--seed", "3"],
    "simulate_one_rep": ["simulate", "--n", "2", "--x", "4.5", "--reps", "1", "--seed", "3"],
    "verify_coupling": ["verify-coupling", "--n", "2", "--n0", "5", "--x", "4.5",
                        "--reps", "50", "--seed", "3"],
}


def render(instance: str, argv: list[str], workdir: str) -> str:
    """Both runs of one case, each as its command, exit code, stdout, stderr
    and the files its --out directory holds."""
    parts = []
    for out in (None, os.path.join(workdir, "out")):
        extra = [] if out is None else ["--out", out]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([argv[0], "--instance", instance, *argv[1:], *extra])
        parts.append(f"$ threshq {' '.join(argv + (['--out', 'OUT'] if out else []))}\n"
                     f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}")
        if out is not None and os.path.isdir(out):
            for name in sorted(os.listdir(out)):
                parts.append(f"--- OUT/{name}\n{Path(out, name).read_text()}")
    return "".join(parts)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_pin(tmp_path, case_study_instance, case):
    got = render(str(case_study_instance), CASES[case], str(tmp_path))
    assert got == (GOLDEN / f"{case}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            instance = os.path.join(tmp, "case_study.json")
            Path(instance).write_text(json.dumps(CASE_STUDY_DOC))
            (GOLDEN / f"{case}.txt").write_text(render(instance, argv, tmp))
