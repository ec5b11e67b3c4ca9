"""tools/samebits.py finds a changed output byte and nothing else."""

import shutil
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import samebits  # noqa: E402  (tools/ is not a package)


def test_an_unchanged_tree_reports_nothing():
    parent, change = samebits.run_corpora(ROOT, ROOT)
    report, unexpected = samebits.differences(parent, change, set())
    assert unexpected == []
    assert report == [f"{len(parent)} parent outputs, {len(parent)} change outputs, "
                      "0 unexpected differences"]
    assert len(parent) > 900


def test_a_planted_fmt_float_change_is_caught(tmp_path):
    """fmt_float printing -0.0 as 0 changes only the documents that hold a -0."""
    shutil.copytree(ROOT / "src", tmp_path / "src")
    module = tmp_path / "src" / "graff" / "_plain.py"
    exact = 'return format(float(x), ".17g")'
    assert exact in module.read_text()
    module.write_text(module.read_text().replace(exact, 'return format(float(x) + 0.0, ".17g")'))
    start = time.perf_counter()
    parent, change = samebits.run_corpora(ROOT, tmp_path)
    report, unexpected = samebits.differences(parent, change, set())
    assert time.perf_counter() - start < 20.0
    assert "cli convert x.json --to stiefel | stdout" in unexpected
    assert all(name.endswith("| stdout") for name in unexpected)
    assert report[-1].endswith(f"{len(unexpected)} unexpected differences")
    assert "  parent: " in report[0] and "-0" in report[0]

    listed = unexpected[1:] + ["cli convert x.json --to stiefel | stderr"]
    report, left = samebits.differences(parent, change, set(listed))
    assert left == unexpected[:1]
    assert "cli convert x.json --to stiefel | stderr: expected to differ, but identical" in report


def test_the_expect_file_skips_comments_and_blank_lines(tmp_path):
    expect = tmp_path / "expect.txt"
    expect.write_text("# far flats\n\nlib projection_coords far\n  cli x | stderr  \n")
    assert samebits.read_expect(expect) == {"lib projection_coords far", "cli x | stderr"}
    assert samebits.read_expect(None) == set()


def test_the_committed_expect_file_names_outputs_of_the_corpus():
    """CI passes tools/samebits.expect, where it exists, as ``--expect``; a name in it that no
    output carries would excuse nothing."""
    expect = ROOT / "tools" / "samebits.expect"
    if not expect.exists():
        pytest.skip("this change moves no output")
    parent, _ = samebits.run_corpora(ROOT, ROOT)
    assert samebits.read_expect(expect) <= parent.keys()
