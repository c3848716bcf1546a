"""``tools/output_digests.py``: ``--against`` prints the paths that moved,
and by how much, and exits 1 when any did."""

import importlib.util
import os
import shutil
import sys
from pathlib import Path
from unittest import mock

import pytest

_spec = importlib.util.spec_from_file_location(
    "output_digests", Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"
)
output_digests = importlib.util.module_from_spec(_spec)
with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):  # it pins BLAS, extends the path
    _spec.loader.exec_module(output_digests)

RUN = "# seed = 0\nt,n_params,energy,label\n0,4,-1.5,a\n0.005,4,-1.25,b\n"


@pytest.fixture
def trees(tmp_path):
    parent, out = tmp_path / "parent", tmp_path / "out"
    for root, run in ((parent, RUN), (out, RUN.replace("-1.25", "-1.2500000001"))):
        (root / "runs").mkdir(parents=True)
        (root / "runs" / "run_000.csv").write_text(run)
        (root / "same.csv").write_text("t\n0\n")
    (parent / "gone.csv").write_text("t\n")
    (out / "new.csv").write_text("t\n")
    return parent, out


def test_against_a_tree_prints_moved_paths_and_column_bounds(trees, capsys):
    parent, out = trees
    assert output_digests.compare(out, parent) == 3
    assert capsys.readouterr().out.splitlines() == [
        "removed  gone.csv",
        "added    new.csv",
        "changed  runs/run_000.csv",
        "    energy: max |diff| 1e-10",
    ]


def test_against_a_listing_prints_moved_paths_only(trees, capsys):
    parent, out = trees
    listing = parent.parent / "parent.txt"
    listing.write_text("".join(f"{d}  {rel}\n" for rel, d in output_digests.digests(parent).items()))
    output_digests.compare(out, listing)
    assert capsys.readouterr().out.splitlines() == ["removed  gone.csv", "added    new.csv", "changed  runs/run_000.csv"]


def test_csv_differences_report_rows_comments_and_text(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text(RUN)
    new.write_text(RUN.replace("# seed = 0", "# seed = 1").replace(",b\n", ",c\n") + "0.01,5,-1,d\n")
    assert output_digests.csv_differences(old, new) == [
        "comment lines differ (1 -> 1 lines)",
        "rows: 2 -> 3 (compared in order over the first 2)",
        "label: differs",
    ]


def test_against_exits_one_when_a_path_moved_and_zero_when_none_did(trees, tmp_path, monkeypatch, capsys):
    parent, out = trees
    for written, status in ((out, 1), (parent, 0)):
        monkeypatch.setattr(output_digests, "write_outputs", lambda dest, src=written: shutil.copytree(src, dest))
        monkeypatch.setattr(sys, "argv", ["output_digests.py", str(tmp_path / f"run{status}"), "--against", str(parent)])
        assert output_digests.main() == status
        assert bool(capsys.readouterr().out) == bool(status)
