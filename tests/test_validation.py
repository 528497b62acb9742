"""Two-table validation at every entry point, and checks that survive `python -O`."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from permpriv.baseline import BaselineSpec, assess_tables
from permpriv.cli import main
from permpriv.errors import ShapeMismatchError
from permpriv.io_report import write_csv
from permpriv.linkage import link_records
from permpriv.privacy import Release, certify_dataset
from permpriv.reverse_map import reverse_map_table
from permpriv.table import MicrodataTable, RankProfile, Role, check_same_layout

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def swapped(original):
    """The original values under the same names in another order."""
    names = original.attribute_names
    return MicrodataTable(
        original.values, (names[1], names[0]) + names[2:], role=Role.ANONYMIZED
    )


ENTRY_POINTS = {
    "reverse_map_table": lambda x, y: reverse_map_table(x, y),
    "certify_dataset": lambda x, y: certify_dataset(x, Release(y)),
    # a release ranked from a profile of its own, with a non-default tie seed
    "certify_dataset(Release)": lambda x, y: certify_dataset(
        x, Release(y, RankProfile.of(y, tie_seed=7))
    ),
    "link_records": lambda x, y: link_records(x, Release(y)),
    "assess_tables": lambda x, y: assess_tables(x, y, BaselineSpec(mode="sampled", sample_size=50)),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_swapped_attribute_names_are_rejected(entry, original, swapped):
    with pytest.raises(ShapeMismatchError, match="attribute names or order differ"):
        ENTRY_POINTS[entry](original, swapped)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_shape_mismatches_are_rejected(entry, original):
    short = MicrodataTable(original.values[:-1], original.attribute_names, role=Role.ANONYMIZED)
    with pytest.raises(ShapeMismatchError, match="table shapes differ"):
        ENTRY_POINTS[entry](original, short)


def test_the_validator_accepts_an_equal_layout(original, masked):
    check_same_layout(original, masked)


@pytest.mark.parametrize("command", ["reverse-map", "certify", "link", "assess", "subject"])
def test_swapped_columns_exit_2(command, tmp_path, capsys, original, swapped):
    # subject takes a file of one record, here the first original row
    rows = original.values[:1] if command == "subject" else original.values
    write_csv(MicrodataTable(rows, original.attribute_names), tmp_path / "original.csv")
    write_csv(swapped, tmp_path / "swapped.csv")
    code = main([command, str(tmp_path / "original.csv"), str(tmp_path / "swapped.csv"),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "attribute names or order differ" in capsys.readouterr().err


def test_reverse_map_postconditions_survive_optimized_mode():
    # A rank routine that breaks the order must be caught even when `-O`
    # strips every assert.
    script = textwrap.dedent(
        """
        import numpy as np
        import permpriv.reverse_map as rm
        from permpriv.errors import InvalidValueError

        assert False, "asserts must be off under -O"
        rm.compute_ranks = lambda column, tie_seed: np.arange(len(column), 0, -1)
        try:
            rm.reverse_map_column([1.0, 2.0, 3.0], [10.0, 20.0, 30.0])
        except InvalidValueError as exc:
            print(exc)
        """
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    assert "rank order" in done.stdout
