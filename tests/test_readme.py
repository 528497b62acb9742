"""README's examples run as written, so a changed public signature fails here."""

import re
from pathlib import Path

from permpriv import cli, fixtures
from permpriv.io_report import write_csv

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The first `python` block of README's "Library" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S)[1]


def test_the_library_example_runs_on_the_running_example(tmp_path, monkeypatch, capsys):
    original, masked = fixtures.running_example()
    write_csv(original, tmp_path / "original.csv")
    write_csv(masked, tmp_path / "masked.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_block(), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith(f"{fixtures.CERTIFICATE['dataset_distance']} (")
    assert printed[2] == "6 4 10"  # correct, multiple, misidentified
    # the library's certificate is the one `permpriv certify` writes
    assert cli.main(["certify", "original.csv", "masked.csv", "--out", "cli"]) == 0
    assert (tmp_path / "certificate.json").read_bytes() == (
        tmp_path / "cli" / "certificate.json"
    ).read_bytes()
