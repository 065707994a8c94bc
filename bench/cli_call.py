"""Fixed cost of one CLI call, printed as one JSON object.

    PYTHONPATH=src python3 bench/cli_call.py

Each value is the median over 5 repeats of the mean seconds per call (see
delay_kernel.seconds).
- build_parser: building the parser of every command once, uncached.
- main.equilibria.case_study: a warm ``cli.main(["equilibria", "--instance",
  FILE])`` on the case study (T = 23, rates 2 and 5, lambda = 3, R = 8.5,
  C = 1), stdout captured: the parser, loading the instance, the pure scan
  and the JSON report.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import tempfile

import numpy as np

from delay_kernel import seconds
from threshq import cli

CASE_STUDY_DOC = {"lambda": 3.0, "reward": 8.5, "wait_cost": 1.0,
                  "policy": {"T": 23, "mu_low": 2.0, "mu_high": 5.0}}


def main() -> dict:
    # a checkout from before the parser was cached has no __wrapped__
    build = getattr(cli.build_parser, "__wrapped__", cli.build_parser)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case_study.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(CASE_STUDY_DOC, fh)
        argv = ["equilibria", "--instance", path]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0

        rows = {"build_parser.s": seconds(build),
                "main.equilibria.case_study.s": seconds(call)}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "seconds": rows}


if __name__ == "__main__":
    print(json.dumps(main(), indent=2))
