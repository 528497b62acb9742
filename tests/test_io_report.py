"""CSV handling and JSON report envelopes."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    from_payload,
    load_report,
    oracle_load_csv,
    oracle_payload,
    oracle_plain_body,
    oracle_write_csv,
    oracle_write_report,
    random_pair,
    random_table,
    random_tied_table,
    report_bytes,
)
from permpriv import __version__, io_report
from permpriv.baseline import (
    BaselineSpec,
    DistanceDistribution,
    SubjectReport,
    assess_tables,
    subject_safety_check,
)
from permpriv.decompose import ResidualDecomposition, decompose
from permpriv.errors import (
    EmptyInputError,
    EmptyReportError,
    EncodingError,
    MalformedCsvError,
    ParseError,
    PermprivError,
    RaggedRowError,
)
from permpriv.io_report import emit_histogram, load_csv, write_csv, write_report
from permpriv.linkage import LinkageResult, ScoredLinkage, link_records, score_linkage
from permpriv.privacy import (
    PrivacyCertificate,
    Release,
    certify_dataset,
    permutation_distance,
    verify_record,
)
from permpriv.reverse_map import reverse_map_table
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


def test_plain_gate_routes_bodies_as_the_regex_did(tmp_path, monkeypatch):
    # bodies of cell bytes, line ends and a few others; some only line ends,
    # some plain but for one bad byte at the end; blocks of 1 and 3 bytes
    # put the bad byte past a block boundary
    calls = []
    loadtxt = np.loadtxt

    def counting(*args, **kwargs):
        calls.append(1)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    plain, odd = list(b"0123456789,.eE+-\r\n"), list(b" _x")
    rng = np.random.default_rng(404)
    path = tmp_path / "body.csv"
    routed = []
    for case in range(400):
        size = int(rng.integers(0, 12))
        kind = case % 4
        alphabet = {0: list(b"\r\n"), 1: plain, 2: plain + odd, 3: plain}[kind]
        body = bytes(rng.choice(alphabet, size=size).tolist())
        if kind == 3:
            body += bytes([int(rng.choice(odd))])
        data = b"a,b\n" + body
        monkeypatch.setattr(io_report, "_PLAIN_BLOCK", int(rng.choice([1, 3, 1 << 16])))
        expected = oracle_plain_body(data, 4)
        assert io_report._is_plain(data, 4) == expected, body
        path.write_bytes(data)
        before = len(calls)
        try:
            load_csv(path)
        except PermprivError:
            pass
        assert (len(calls) > before) == expected, body
        routed.append(expected)
    assert 50 < sum(routed) < len(routed) - 50


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


def test_cells_over_the_field_limit_are_refused_on_both_paths(tmp_path, monkeypatch):
    # under small limits, random plain bodies load exactly when every cell
    # fits, whichever reader takes them, and a failure names its data row
    fast = []
    read_plain = io_report._read_plain

    def counting(*args):
        values = read_plain(*args)
        fast.append(values is not None)
        return values

    monkeypatch.setattr(io_report, "_read_plain", counting)
    rng = np.random.default_rng(17)
    default = csv.field_size_limit()
    try:
        for case in range(300):
            limit = int(rng.integers(1, 9))
            csv.field_size_limit(limit)
            rows = [  # cells of up to one byte over the limit, or a few under
                ["".join(rng.choice(list("0123456789"), size=max(1, limit + rng.integers(-3, 2))))
                 for _ in range(2)]
                for _ in range(rng.integers(1, 5))
            ]
            text = "a,b\n" + "".join(",".join(row) + str(rng.choice(_ENDS[:2])) for row in rows)
            path = tmp_path / f"case{case}.csv"
            path.write_text(text)
            long = [r for r, row in enumerate(rows, start=1) if max(map(len, row)) > limit]
            if long:
                with pytest.raises(MalformedCsvError) as err:
                    load_csv(path)
                assert err.value.row == long[0]
                assert str(err.value).startswith(f"{path}: row {long[0]}: field larger")
            else:
                assert load_csv(path).values.tolist() == [[float(c) for c in row] for row in rows]
    finally:
        csv.field_size_limit(default)
    assert 50 < sum(fast) < len(fast) - 50


def test_a_header_over_the_field_limit_is_an_error(tmp_path):
    path = tmp_path / "head.csv"
    path.write_text('"' + "a" * 200_000 + '"\n1\n')
    with pytest.raises(MalformedCsvError) as err:
        load_csv(path)
    assert err.value.row == 0
    assert str(err.value) == f"{path}: header row: field larger than field limit (131072)"


def _edge_table():
    # both zeros in one column, the smallest subnormal, a large integer and
    # an inexact sum, each shared across rows and columns
    values = np.array(
        [[0.0, -0.0, 5e-324, 1e16],
         [-0.0, 0.1 + 0.2, 0.0, -5e-324],
         [1e16, 0.0, -0.0, 0.1 + 0.2],
         [0.3, 0.0, 5e-324, -0.0]]
    )
    return MicrodataTable(values, ("a1", "a,2", 'a"3', "a\n4"))


def _tables(rng):
    yield _edge_table()
    yield MicrodataTable(np.asfortranarray(rng.normal(size=(300, 3))), ("f1", "f2", "f3"))
    for case in range(60):
        n = int(rng.choice([1, 1, 2, 3, 7, 40, 333]))
        m = int(rng.choice([1, 1, 2, 3, 4]))
        kind = case % 3
        if kind == 0:
            yield random_table(rng, n, m, scale=float(10.0 ** rng.integers(-5, 20)))
        elif kind == 1:  # few values, shared across columns, signed zeros among them
            pool = np.array([0.0, -0.0, 1.5, -2.0, 1e-300, 7.0])[: int(rng.integers(1, 7))]
            names = tuple(f"b{j}" for j in range(m))
            yield MicrodataTable(rng.choice(pool, size=(n, m)), names)
        else:
            yield random_tied_table(rng, n, m, levels=int(rng.integers(1, 5)))


@pytest.mark.parametrize("budget", [None, 1, 8 * 3 * 5])
def test_written_bytes_match_the_csv_writer_oracle(tmp_path, monkeypatch, budget):
    # blocks of the default size, of one row (a budget below one row), and
    # of a few rows
    if budget is not None:
        monkeypatch.setattr(io_report, "_WRITE_BLOCK_BYTES", budget)
    rng = np.random.default_rng(2024)
    for i, table in enumerate(_tables(rng)):
        ours, oracle = tmp_path / f"ours{i}.csv", tmp_path / f"oracle{i}.csv"
        write_csv(table, ours)
        oracle_write_csv(table, oracle)
        assert ours.read_bytes() == oracle.read_bytes(), table


def test_a_large_table_is_written_like_the_oracle(tmp_path):
    # many blocks at the default budget, with ties across block boundaries
    rng = np.random.default_rng(8)
    values = np.round(rng.normal(0.0, 30.0, size=(50_000, 3))) * 0.5
    table = MicrodataTable(values, ("a", "b", "c"))
    write_csv(table, tmp_path / "ours.csv")
    oracle_write_csv(table, tmp_path / "oracle.csv")
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_writing_a_large_table_keeps_memory_bounded(tmp_path):
    # 200 000 x 4 distinct values; one `repr` per cell through `csv.writer`
    # grows the peak RSS by about 44 MiB here, the block writer by about 5
    script = textwrap.dedent(
        f"""
        import numpy as np
        from helpers import peak_rss_mib
        from permpriv.io_report import write_csv
        from permpriv.table import MicrodataTable

        rng = np.random.default_rng(4)
        table = MicrodataTable(rng.normal(0.0, 100.0, size=(200_000, 4)), ("a", "b", "c", "d"))
        write_csv(MicrodataTable(table.values[:3], table.attribute_names), {str(tmp_path / "warm.csv")!r})
        before = peak_rss_mib()
        write_csv(table, {str(tmp_path / "big.csv")!r})
        after = peak_rss_mib()
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
    assert (tmp_path / "big.csv").read_bytes().count(b"\n") == 200_001


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
    report = load_report(path)
    rebuilt = from_payload(PrivacyCertificate, report["payload"])
    assert report_bytes(rebuilt) == path.read_bytes()


def _analyses(rng):
    """(label, analysis, write_report keywords) to write both ways."""
    tied = random_tied_table(rng, 80, 4, levels=3)
    tied_y = MicrodataTable(
        tied.values + rng.integers(-1, 2, size=tied.values.shape),
        tied.attribute_names, role=Role.ANONYMIZED,
    )
    certificate = certify_dataset(tied, Release(tied_y))
    yield "tied certificate", certificate, {"seeds": {"tie_seed": 3}}
    linkage = link_records(tied, Release(reverse_map_table(tied, Release(tied_y))))
    yield "tied linkage", linkage, {}
    score = score_linkage(linkage, range(1, tied.n + 1))
    yield "tied linkage with score", ScoredLinkage(**vars(linkage), score=score), {}
    for label, (n, m) in {"n = 1": (1, 3), "m = 1": (30, 1), "m = 8": (40, 8)}.items():
        x, y = random_pair(rng, n, m, sigma=10.0)
        yield label, certify_dataset(x, Release(y)), {}
    yield "no records", LinkageResult(Release(tied_y).search(np.empty((0, 4))), (), (), 101), {}
    # windows of values near 1e200 have variances that overflow to inf
    x, y = random_pair(rng, 30, 3, sigma=3e200, scale=1e200)
    with np.errstate(over="ignore"):
        certificate = certify_dataset(x, Release(y))
    assert np.isinf(certificate.variances_at_record_distance).any()
    assert np.isinf(certificate.dataset_variances).any()
    yield "infinite variances", certificate, {}
    edges = np.array([[-0.0, 5e-324, 1e16], [1e16, -0.0, 5e-324], [5e-324, 1e16, -0.0],
                      [1.5, 2.5, 3.5]])
    y = MicrodataTable(edges, ("a1", "a2", "a3"), role=Role.ANONYMIZED)
    certificate = certify_dataset(MicrodataTable(edges, ("a1", "a2", "a3")), Release(y))
    closest = certificate.per_record.closest_values.ravel().tolist()
    assert {"-0.0", "5e-324", "1e+16"} <= set(map(repr, closest))
    disclosure = 'noise σ = "5"; ünïcode\tand a\nsecond line \\ /'
    keywords = {"disclosure": disclosure, "seeds": {"tie_seed": 9, "baseline_seed": 2}}
    yield "edge values and disclosure", certificate, keywords
    yield "withheld seeds", certificate, {**keywords, "withhold_seeds": True}
    x, y = random_pair(rng, 50, 3, sigma=10.0)
    release = Release(y)
    evidence = permutation_distance(x.values[7], release)
    safety = subject_safety_check(evidence, release, BaselineSpec(mode="sampled", sample_size=300))
    verification = verify_record(x.values[7], release, 1, (0.5, 0.5, 0.5))
    seeds = {"seeds": {"tie_seed": 1, "baseline_seed": 4}}
    for shown in ("neither", "verification", "safety", "both"):
        parts = {k: v if shown in (k, "both") else None for k, v in
                 (("verification", verification), ("safety", safety))}
        subject = SubjectReport(evidence, (1.25, 0.0, 3e-300), **parts)
        yield f"subject with {shown}", subject, seeds
    assessment = assess_tables(x, Release(y), BaselineSpec(mode="sampled", sample_size=500))
    yield "assessment", assessment, {"seeds": {"tie_seed": 1}}


# a certificate row of m = 3 holds 17 numbers and a match set of one or more
@pytest.mark.parametrize("budget", [None, 1, 8 * 3 * 18])
def test_report_bytes_match_the_json_dump_oracle(tmp_path, monkeypatch, budget):
    # blocks of the default size, of one row (a budget below one row), and
    # of about three rows
    if budget is not None:
        monkeypatch.setattr(io_report, "_WRITE_BLOCK_BYTES", budget)
    rng = np.random.default_rng(31)
    for i, (label, analysis, keywords) in enumerate(_analyses(rng)):
        ours, expected = tmp_path / f"ours{i}.json", tmp_path / f"oracle{i}.json"
        write_report(analysis, ours, **keywords)
        oracle_write_report(analysis, expected, **keywords)
        assert ours.read_bytes() == expected.read_bytes(), label


@pytest.mark.parametrize("budget", [None, 1, 8 * 40])
def test_a_linkage_writes_its_long_tuples_in_blocks(tmp_path, monkeypatch, budget):
    # the per-record evidence, targets and classes each go out through the
    # block writer, not json's encoder, with the bytes json would write; the
    # m-long tuples of a subject's evidence stay with json
    if budget is not None:
        monkeypatch.setattr(io_report, "_WRITE_BLOCK_BYTES", budget)
    written = []
    write_rows = io_report._write_rows

    class Blocks(list):
        def write(self, text):
            self.append(text)

    def recording(fh, rows, level):
        blocks = Blocks()
        write_rows(blocks, rows, level)
        written.append((level, "".join(blocks), len(blocks)))
        fh.write("".join(blocks))

    monkeypatch.setattr(io_report, "_write_rows", recording)
    rng = np.random.default_rng(33)
    x, y = random_pair(rng, 300, 3, sigma=40.0)
    linkage = link_records(x, Release(reverse_map_table(x, Release(y))))
    scored = ScoredLinkage(**vars(linkage), score=score_linkage(linkage, range(1, x.n + 1)))
    assert min(len(linkage.unmatched_targets), len(linkage.multiply_matched_targets)) >= 32
    ours, expected = tmp_path / "ours.json", tmp_path / "oracle.json"
    write_report(scored, ours)
    oracle_write_report(scored, expected)
    payload = oracle_payload(scored)
    assert ours.read_bytes() == expected.read_bytes()
    arrays = [
        (2, payload["per_record"]),
        (2, payload["unmatched_targets"]),
        (2, payload["multiply_matched_targets"]),
        (3, payload["score"]["classes"]),
    ]
    assert [(level, text) for level, text, _ in written] == [
        (level, json.dumps(items, indent=2).replace("\n", "\n" + "  " * level))
        for level, items in arrays
    ]
    if budget == 1:  # one item a block, between the opening and closing writes
        assert [blocks for *_, blocks in written] == [len(v) + 2 for _, v in arrays]
    written.clear()
    write_report(linkage.per_record[0], tmp_path / "one.json")
    assert written == []


def test_a_large_certificate_is_written_like_the_oracle(tmp_path):
    # many blocks at the default budget, with multi-record match sets across
    # block boundaries
    rng = np.random.default_rng(6)
    x = random_tied_table(rng, 3000, 3, levels=10)
    y = MicrodataTable(
        x.values + rng.integers(-2, 3, size=x.values.shape), x.attribute_names,
        role=Role.ANONYMIZED,
    )
    certificate = certify_dataset(x, Release(y))
    assert (np.diff(certificate.per_record.offsets) > 1).sum() > 20
    write_report(certificate, tmp_path / "ours.json")
    oracle_write_report(certificate, tmp_path / "oracle.json")
    assert (tmp_path / "ours.json").read_bytes() == (tmp_path / "oracle.json").read_bytes()


def test_writing_a_large_certificate_keeps_memory_bounded(tmp_path):
    # 100 000 records; the per-record dicts through `json.dump(indent=2)`
    # grow the peak RSS by about 170 MiB here, the row-block writer by a few
    script = textwrap.dedent(
        f"""
        import numpy as np
        from helpers import peak_rss_mib
        from permpriv.io_report import write_report
        from permpriv.privacy import Evidence, PrivacyCertificate

        def certificate(q, m=3):
            rng = np.random.default_rng(q)
            sizes = rng.integers(1, 4, size=q)
            return PrivacyCertificate(
                per_record=Evidence(
                    closest_values=rng.normal(0.0, 100.0, size=(q, m)),
                    closest_ranks=rng.integers(1, q + 1, size=(q, m)),
                    distances=rng.integers(0, 300, size=q),
                    offsets=np.concatenate([[0], np.cumsum(sizes)]),
                    matches=rng.integers(1, q + 1, size=int(sizes.sum())),
                    matched_deviations=rng.integers(0, 300, size=(q, m)),
                ),
                variances_at_dataset_distance=rng.random((q, m)),
                variances_at_record_distance=rng.random((q, m)) * 1e4,
                dataset_distance=0,
                dataset_variances=(0.0,) * m,
                disclosure=None,
                tie_seed=1,
            )

        write_report(certificate(5), {str(tmp_path / "warm.json")!r})
        big = certificate(100_000)
        before = peak_rss_mib()
        write_report(big, {str(tmp_path / "big.json")!r})
        after = peak_rss_mib()
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
    assert json.loads((tmp_path / "big.json").read_text())["payload"]["per_record"][-1][
        "result"]["record_index"] == 100_000


def test_analyses_compare_by_identity(original, masked, permuted):
    # one Evidence beside equal but distinct arrays: a field-wise `==` would
    # ask an ndarray for its truth value and raise
    first = certify_dataset(original, Release(masked))
    arrays = ("variances_at_dataset_distance", "variances_at_record_distance")
    second = dataclasses.replace(first, **{a: getattr(first, a).copy() for a in arrays})
    assert first == first and first != second
    assert report_bytes(first) == report_bytes(second)
    linkage = link_records(original, Release(permuted))
    assert linkage == linkage and linkage != dataclasses.replace(linkage)


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


@dataclasses.dataclass(frozen=True)
class _Nothing:
    report_kind = "nothing"


def test_only_analyses_with_a_report_kind_are_written(tmp_path, original, permuted):
    # an analysis names its kind; a mapping, a part of an analysis (a
    # linkage's score) or an analysis without fields is no report
    path = tmp_path / "nope.json"
    score = score_linkage(link_records(original, Release(permuted)), range(1, original.n + 1))
    for obj in (None, object(), {"answer": 42}, {"report_kind": "subject"}, score):
        with pytest.raises(EmptyReportError, match="is not a reportable analysis"):
            write_report(obj, path)
    with pytest.raises(EmptyReportError, match="payload is empty"):
        write_report(_Nothing(), path)
    assert not path.exists()


@dataclasses.dataclass(frozen=True)
class _ReportedDecomposition(ResidualDecomposition):
    report_kind = "decomposition"


def test_arrays_without_evidence_are_refused_not_dropped(tmp_path, original, masked):
    # only an Evidence carries array fields beside it; a decomposition's
    # noise arrays and its table's values must not vanish from the payload
    path = tmp_path / "decomposition.json"
    decomposition = _ReportedDecomposition(**vars(decompose(original, Release(masked))))
    with pytest.raises(TypeError, match="Object of type ndarray is not JSON serializable"):
        write_report(decomposition, path)
    assert not path.exists()


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

