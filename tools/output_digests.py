#!/usr/bin/env python3
"""Write every output that a byte-identity check covers and print its digests.

    python3 tools/output_digests.py OUT

OUT must be empty or absent. The script writes two sets of files under it:

- ``workloads/<name>/<config>/``: the CSVs of the benchmark workloads
  (``perfbench/workloads.WORKLOADS`` at seed 1), 9 files;
- ``presets/``: the ``--nq 4`` preset recipe run through ``avqds.cli.main``,
  58 files: ``benchmark`` for tfim, mfim and hm, ``solver-comparison``,
  ``noisy-regularization --runs 3`` at ``--workers`` 1 and 2,
  ``hybrid-noise --dc 2 --runs 2``, and ``oracle --model mfim|hm --nq 6``.

It then prints one ``sha256  path`` line per file, sorted by the path
relative to OUT. Run it on two trees and ``diff`` the listings: a change
that keeps every output byte prints nothing. BLAS and OpenMP are pinned to
one thread before numpy is imported, as the benchmark pins them.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

SEED = 1
NQ = ["--nq", "4"]
PRESET_RUNS = [
    *(["preset", "benchmark", "--model", kind, *NQ, "--out", f"benchmark-{kind}"] for kind in ("tfim", "mfim", "hm")),
    ["preset", "solver-comparison", *NQ, "--out", "solver-comparison"],
    *(["preset", "noisy-regularization", *NQ, "--runs", "3", "--workers", w, "--out", f"noisy-regularization-w{w}"]
      for w in ("1", "2")),
    ["preset", "hybrid-noise", *NQ, "--dc", "2", "--runs", "2", "--out", "hybrid-noise"],
    *(["oracle", "--model", kind, "--nq", "6", "--out", f"oracle-{kind}.csv"] for kind in ("mfim", "hm")),
]


def write_outputs(out: Path) -> None:
    from avqds.cli import main as avqds_main
    from avqds.experiment import run_experiment
    from perfbench.workloads import WORKLOADS

    for name, configs in WORKLOADS.items():
        for i, cfg in enumerate(configs(SEED)):
            run_experiment(cfg, out / "workloads" / name / str(i))
    for argv in PRESET_RUNS:
        argv = argv[:-1] + [str(out / "presets" / argv[-1])]
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI prints each path it writes
            if avqds_main(argv) != 0:
                raise SystemExit(f"avqds {' '.join(argv)} failed")


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(sys.argv[1]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    write_outputs(out)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
