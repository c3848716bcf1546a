#!/usr/bin/env python3
"""Write every output that a byte-identity check covers and print its digests.

    python3 tools/output_digests.py OUT

OUT must be empty or absent. The script writes two sets of files under it:

- ``workloads/<name>/<config>/``: the CSVs of the benchmark workloads
  (``perfbench/workloads.WORKLOADS`` at seed 1), 9 files;
- ``presets/``: the ``--nq 4`` preset recipe run through ``avqds.cli.main``,
  46 files: ``benchmark`` for tfim, mfim and hm, ``solver-comparison``,
  ``noisy-regularization --runs 3`` at ``--workers`` 1 and 2,
  ``hybrid-noise --dc 2 --runs 2`` (its four distinct configs, under
  ``dc2`` labels), and ``oracle --model mfim|hm --nq 6``.

That is 55 files in all.

It then prints one ``sha256  path`` line per file, sorted by the path
relative to OUT. Run it on two trees and ``diff`` the listings: a change
that keeps every output byte prints nothing. BLAS and OpenMP are pinned to
one thread before numpy is imported, as the benchmark pins them.

    python3 tools/output_digests.py OUT --against PARENT

compares OUT with PARENT, the OUT of a run of this script on the parent
tree (or the listing that run printed), and prints only the paths whose
digest changed, was added or was removed. For a changed CSV whose parent
copy is on disk it also prints, per column, the largest absolute
difference of the numeric values, rows paired in order, and any
difference in row count, header or ``#`` comment lines.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
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


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, by its path relative to it."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(p for p in root.rglob("*") if p.is_file())
    }


def read_listing(listing: Path) -> dict[str, str]:
    return dict(reversed(line.split(maxsplit=1)) for line in listing.read_text().splitlines() if line.strip())


def _split_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    return comments, list(csv.reader(line for line in lines if not line.startswith("#")))


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def csv_differences(parent: Path, path: Path) -> list[str]:
    """One line per difference between two CSVs: comments, header and row
    count, then the largest |change| of each column over the paired rows
    (``differs`` for a column with a non-numeric cell that changed)."""
    (old_comments, old), (new_comments, new) = _split_csv(parent), _split_csv(path)
    out = []
    if old_comments != new_comments:
        out.append(f"comment lines differ ({len(old_comments)} -> {len(new_comments)} lines)")
    if not old or not new or old[0] != new[0]:
        return out + ["header differs"]
    if len(old) != len(new):
        out.append(f"rows: {len(old) - 1} -> {len(new) - 1} (compared in order over the first {min(len(old), len(new)) - 1})")
    for j, name in enumerate(new[0]):
        largest, text_differs = 0.0, False
        for a, b in zip(old[1:], new[1:]):
            x, y = _number(a[j]), _number(b[j])
            if x is None or y is None:
                text_differs |= a[j] != b[j]
            else:
                largest = max(largest, abs(x - y))
        if text_differs:
            out.append(f"{name}: differs")
        elif largest:
            out.append(f"{name}: max |diff| {largest:.3g}")
    return out


def compare(out: Path, parent: Path) -> None:
    """Print the changed, added and removed paths of ``out`` against ``parent``."""
    before = digests(parent) if parent.is_dir() else read_listing(parent)
    after = digests(out)
    for rel in sorted(before.keys() | after.keys()):
        if rel not in after:
            print(f"removed  {rel}")
        elif rel not in before:
            print(f"added    {rel}")
        elif before[rel] != after[rel]:
            print(f"changed  {rel}")
            if rel.endswith(".csv") and parent.is_dir():
                for line in csv_differences(parent / rel, out / rel):
                    print(f"    {line}")


def main() -> int:
    parser = argparse.ArgumentParser(usage=__doc__.strip().splitlines()[2].strip())
    parser.add_argument("out", type=Path)
    parser.add_argument("--against", type=Path, metavar="PARENT")
    args = parser.parse_args()
    out = args.out.resolve()
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    if args.against is not None and not args.against.exists():
        print(f"error: {args.against} does not exist", file=sys.stderr)
        return 2
    write_outputs(out)
    if args.against is not None:
        compare(out, args.against.resolve())
        return 0
    for rel, digest in digests(out).items():
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
