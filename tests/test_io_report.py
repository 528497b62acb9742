"""CSV handling and JSON report envelopes."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from helpers import from_payload, oracle_load_csv, random_table
from permpriv import __version__, io_report
from permpriv.baseline import DistanceDistribution
from permpriv.errors import (
    EmptyInputError,
    EmptyReportError,
    EncodingError,
    InvalidSpecError,
    ParseError,
    PermprivError,
    RaggedRowError,
)
from permpriv.io_report import (
    emit_histogram,
    load_csv,
    read_report,
    write_csv,
    write_report,
)
from permpriv.privacy import PrivacyCertificate, Release
from permpriv.table import MicrodataTable, Role

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(71)
    random = random_table(rng, 25, 4).values
    # signed zero, the smallest subnormal, a large integer and an inexact sum
    edges = np.array([[-0.0, 5e-324, 1e16, 0.1 + 0.2]])
    table = MicrodataTable(np.vstack([random, edges]), ("a1", "a2", "a3", "a4"))
    path = tmp_path / "t.csv"
    write_csv(table, path)
    assert path.read_text().splitlines()[-1] == "-0.0,5e-324,1e+16,0.30000000000000004"
    again = load_csv(path)
    assert again.values.tobytes() == table.values.tobytes()
    assert again.attribute_names == table.attribute_names


def test_load_assigns_the_requested_role(tmp_path, masked):
    path = tmp_path / "y.csv"
    write_csv(masked, path)
    loaded = load_csv(path, role=Role.ANONYMIZED)
    assert loaded.role is Role.ANONYMIZED
    assert np.array_equal(loaded.values, masked.values)


def test_load_single_cell(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("a\n3.5\n")
    t = load_csv(path)
    assert (t.n, t.m) == (1, 1)
    assert t.values[0, 0] == 3.5


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("a,b\n1,2\n\n3,4\n   ,\n5,6\n")
    assert load_csv(path).n == 3


def test_parse_error_carries_the_cell_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3,4\n5,oops\n")
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert err.value.row == 3
    assert err.value.col == 2
    assert "oops" in str(err.value)


def test_non_finite_cells_are_parse_errors(tmp_path):
    for cell in ("nan", "inf", "-inf"):
        path = tmp_path / f"{cell.strip('-')}.csv"
        path.write_text(f"a\n1.0\n{cell}\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.row == 2


def test_ragged_row_error(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n1,2,3\n")
    with pytest.raises(RaggedRowError) as err:
        load_csv(path)
    assert err.value.row == 2


def test_empty_inputs(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(EmptyInputError):
        load_csv(empty)
    header_only = tmp_path / "header.csv"
    header_only.write_text("a,b\n")
    with pytest.raises(EmptyInputError):
        load_csv(header_only)


def test_files_that_are_not_utf8_are_encoding_errors(tmp_path):
    # a bad byte in the body, in the header, and at the end of a plain body
    for i, (content, where) in enumerate(
        ((b"a\n\xff1\n", "invalid start byte at byte 2"),
         (b"\xe9\n1\n", "invalid continuation byte at byte 0"),
         (b"a,b\r\n1,2\r\n3,4\xc3", "unexpected end of data at byte 13"))
    ):
        path = tmp_path / f"latin{i}.csv"
        path.write_bytes(content)
        with pytest.raises(EncodingError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: file is not UTF-8 ({where})"


# cells the fast reader's byte alphabet allows, and cells outside it on which
# numpy's reader and float() disagree or which the row parser must reject
_ODD_CELLS = ("1_000", " 1.5 ", '"1.5"', "nan", "inf", "-inf", "1e400", "1\x1c",
              "١", "１", "#1", "", " ", "1e", "+", ".", "--1", "0x10")
_ENDS = ("\n", "\r\n", "\r")


def _number(rng):
    kind = rng.integers(3)
    if kind == 0:  # shortest round-trip of any finite double, subnormals included
        bits = rng.integers(0, 2**63 - 2**52, dtype=np.int64) * rng.choice([1, -1])
        return repr(float(np.int64(bits).view(np.float64)))
    if kind == 1:
        return repr(float(rng.normal(0.0, 10.0 ** rng.integers(-300, 300))))
    return str(int(rng.integers(-1000, 1000)) * 5)


def _random_csv(rng):
    """A header plus rows of drawn cells, blank lines and odd line ends.

    A quarter of the files hold numbers only; the others add, one kind per
    file so that it may be the file's only oddity, short words of the fast
    reader's alphabet (valid for float() or not, finite or not), cells
    outside that alphabet, or lone \r line ends.
    """
    m = int(rng.choice([1, 1, 2, 3, 4]))
    n = int(rng.choice([0, 1, 1, 2, 5, 12]))
    mode = rng.integers(4)
    ends = _ENDS if mode == 3 else _ENDS[:2]

    def cell():
        if mode == 1 and rng.random() < 0.1:
            if rng.random() < 0.2:
                return str(rng.choice(["1e400", "-2e308", "1e-400"]))
            return "".join(rng.choice(list("0123456789+-.eE"), size=rng.integers(1, 6)))
        if mode == 2 and rng.random() < 0.1:
            return str(rng.choice(_ODD_CELLS))
        return _number(rng)

    names = [f"a{j}" for j in range(m)]
    if rng.random() < 0.15:
        names[0] = '"x,y"' if rng.random() < 0.5 else '"x' + str(rng.choice(_ENDS)) + 'y"'
    lines = [",".join(names)]
    for _ in range(n):
        cells = [cell() for _ in range(m)]
        shape = rng.random()
        if shape < 0.05:
            cells = cells[:-1] if m > 1 and rng.random() < 0.5 else cells + ["1"]  # ragged
        elif shape < 0.1:
            cells = [""] * m if rng.random() < 0.5 else ["  "]  # blank cells, blank line
        lines.append(",".join(cells))
    text = "".join(line + str(rng.choice(ends)) for line in lines)
    if rng.random() < 0.2:
        text = text.rstrip("\r\n")  # no line end after the last row
    if rng.random() < 0.1:
        text += str(rng.choice(ends)) * int(rng.integers(1, 3))  # trailing blank lines
    return text


def _outcome(load, path, role):
    try:
        table = load(path, role=role)
    except PermprivError as exc:
        return (type(exc), getattr(exc, "row", None), getattr(exc, "col", None),
                getattr(exc, "cell", None), str(exc))
    return table.values.view(np.int64).tobytes(), table.attribute_names, table.role


def test_load_matches_the_row_parser_on_generated_files(tmp_path, monkeypatch):
    fast = []
    read_plain = io_report._read_plain

    def counting(*args):
        values = read_plain(*args)
        fast.append(values is not None)
        return values

    monkeypatch.setattr(io_report, "_read_plain", counting)
    rng = np.random.default_rng(505)
    for case in range(400):
        path = tmp_path / f"case{case}.csv"
        path.write_bytes(_random_csv(rng).encode("utf-8"))
        role = Role.ANONYMIZED if case % 2 else Role.ORIGINAL
        expected = _outcome(oracle_load_csv, path, role)
        assert _outcome(load_csv, path, role) == expected, path.read_bytes()
    # both readers have run often enough for the agreement to mean something
    assert 100 < sum(fast) < len(fast) - 100


def test_loading_a_large_plain_file_keeps_memory_bounded(tmp_path):
    # 100 000 x 4 cells on a grid of 5; the row-by-row parser grows the peak
    # RSS by about 28 MiB here, numpy's reader over the bytes by about 10
    rng = np.random.default_rng(9)
    values = rng.integers(-200, 200, size=(100_000, 4)) * 5.0
    path = tmp_path / "big.csv"
    write_csv(MicrodataTable(values, ("a", "b", "c", "d")), path)
    script = textwrap.dedent(
        f"""
        from helpers import peak_rss_mib
        from permpriv.io_report import load_csv

        before = peak_rss_mib()
        table = load_csv({str(path)!r})
        after = peak_rss_mib()
        assert table.values.shape == (100_000, 4)
        print(after - before)
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)]), "OMP_NUM_THREADS": "1"},
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 16.0


def test_report_envelope(tmp_path, certificate):
    path = tmp_path / "cert.json"
    write_report(
        certificate,
        path,
        seeds={"tie_seed": 101},
        disclosure="noise sigmas (5, 25, 100)",
    )
    report = json.loads(path.read_text())
    assert report["schema_version"] == 1
    assert report["tool"] == {"name": "permpriv", "version": __version__}
    assert report["kind"] == "privacy_certificate"
    assert report["seeds"] == {"tie_seed": 101}
    assert report["disclosure"] == "noise sigmas (5, 25, 100)"
    assert report["payload"]["dataset_distance"] == 1


def test_report_round_trip(tmp_path, certificate):
    path = tmp_path / "cert.json"
    write_report(certificate, path)
    report = read_report(path)
    assert from_payload(PrivacyCertificate, report["payload"]) == certificate


def test_withheld_seeds_keep_names_but_lose_values(tmp_path, certificate):
    path = tmp_path / "cert.json"
    write_report(
        certificate,
        path,
        seeds={"tie_seed": 101, "baseline_seed": 303},
        withhold_seeds=True,
    )
    report = json.loads(path.read_text())
    assert report["seeds"] == {"tie_seed": None, "baseline_seed": None}
    assert "101" not in json.dumps(report["seeds"])


def test_mapping_payloads_need_an_explicit_kind(tmp_path):
    path = tmp_path / "r.json"
    write_report({"answer": 42}, path, kind="subject")
    assert json.loads(path.read_text())["kind"] == "subject"
    with pytest.raises(EmptyReportError):
        write_report({"answer": 42}, tmp_path / "nope.json")
    with pytest.raises(EmptyReportError):
        write_report({}, tmp_path / "nope.json", kind="subject")
    with pytest.raises(EmptyReportError):
        write_report(None, tmp_path / "nope.json")
    with pytest.raises(EmptyReportError):
        write_report(object(), tmp_path / "nope.json")


def test_read_report_rejects_other_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"hello": 1}')
    with pytest.raises(InvalidSpecError):
        read_report(path)


def _fixture_distribution(freqs, size, tag):
    return DistanceDistribution({d: f for d, f in freqs.items() if f > 0}, size, tag)


def test_histogram_covers_the_union_support(tmp_path, original, permuted):
    from permpriv.baseline import BaselineSpec, baseline_distribution, distance_distribution

    dist_x = distance_distribution(original, Release(permuted))
    dist_a = baseline_distribution(original, Release(permuted), BaselineSpec(mode="exhaustive"))
    path = tmp_path / "hist.csv"
    emit_histogram(dist_x, dist_a, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "distance,frequency_original,frequency_baseline"
    rows = [line.split(",") for line in lines[1:]]
    support = sorted(set(dist_x.support) | set(dist_a.support))
    assert [int(r[0]) for r in rows] == support
    # zero-filled where one side has no mass, reloadable, sums to one each
    for r in rows:
        d = int(r[0])
        assert float(r[1]) == dist_x.frequency(d)
        assert float(r[2]) == dist_a.frequency(d)
    assert sum(float(r[1]) for r in rows) == pytest.approx(1.0)
    assert sum(float(r[2]) for r in rows) == pytest.approx(1.0)


def test_histogram_with_reference_zero_bins(tmp_path, original, permuted):
    # padding the computed distributions with the reference tables' zero
    # bins reproduces the published 11-row histogram exactly
    from permpriv import fixtures
    from permpriv.baseline import BaselineSpec, baseline_distribution, distance_distribution

    dist_x = distance_distribution(original, Release(permuted))
    dist_a = baseline_distribution(original, Release(permuted), BaselineSpec(mode="exhaustive"))
    padded_x = DistanceDistribution(
        {**{d: 0.0 for d in range(11)}, **dist_x.frequencies}, 20, "original"
    )
    padded_a = DistanceDistribution(
        {**{d: 0.0 for d in range(11)}, **dist_a.frequencies}, 8000, "baseline"
    )
    path = tmp_path / "hist.csv"
    emit_histogram(padded_x, padded_a, path)
    rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(11))
    for r in rows:
        d = int(r[0])
        assert float(r[1]) == pytest.approx(
            fixtures.DISTANCE_FREQ_ORIGINAL[d], abs=0.00005
        )
        assert float(r[2]) == pytest.approx(
            fixtures.DISTANCE_FREQ_BASELINE[d], abs=0.00005
        )


def test_histogram_of_identical_distributions(tmp_path):
    dist = _fixture_distribution({0: 0.25, 2: 0.75}, 4, "original")
    other = _fixture_distribution({0: 0.25, 2: 0.75}, 4, "baseline")
    path = tmp_path / "same.csv"
    emit_histogram(dist, other, path)
    rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
    assert all(r[1] == r[2] for r in rows)

