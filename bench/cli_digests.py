"""One sha256 per benchmark query over everything the CLI gave back.

    PYTHONPATH=src python3 bench/cli_digests.py --workload solver --seed 1

Builds the queries of ``perfbench/workloads.build(workload, seed)`` in a
temporary directory and runs each twice through ``threshq.cli.main`` in this
process: as the workload gives it, then with ``--out`` into a fresh
directory of its own, so every file the CLI can write is seen. Prints one
line per query: its id, its kind and, per run, the sha256 of its stdout,
stderr, exit code and ``--out`` files. The queries use relative paths
inside that directory, so the lines do not depend on where it is.
Run the same command with PYTHONPATH at two checkouts' src/ and diff the
outputs to see whether a change moved any CLI byte.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import workloads  # noqa: E402
from threshq import cli  # noqa: E402


def digest(argv: list[str], out: str | None) -> str:
    """sha256 of one query's stdout, stderr, exit code and --out files."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects an argument
            code = exc.code
        except Exception as exc:  # a traceback would name this checkout's paths
            code = f"{type(exc).__name__}: {exc}"
    h = hashlib.sha256()
    for part in (stdout.getvalue(), stderr.getvalue(), repr(code)):
        h.update(part.encode() + b"\0")
    if out is not None and os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            plan = workloads.build(args.workload, args.seed, "work")
            os.makedirs(plan.workdir)
            for name, doc in plan.instances.items():
                with open(plan.instance_path(name), "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            for q in plan.queries:
                out = f"outs/q{q['id']:03d}"
                print(f"q{q['id']:03d} {q['kind']} {digest(q['argv'], q.get('out'))} "
                      f"{digest(q['argv'] + ['--out', out], out)}")
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
