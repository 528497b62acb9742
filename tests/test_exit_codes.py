"""The CLI's exit-code contract: every command ends in 0, 2, 3 or 4, never in a traceback.

Each command runs in process through `cli.main`, first from a working argv,
then once per perturbation of it:
- each integer and float option set to negative, zero, fractional and huge
  values, and floats to NaN and the infinities;
- each string option other than `--config` (`--names`, `--disclosure`,
  `--truth`, `--out`) set to an empty string, 10**5 characters, an embedded
  line end, a quote and backslash, and a lone surrogate, as Python decodes
  an argument that is not UTF-8;
- each input file, `--out`, `--truth` and `--config` pointed at a missing
  file, a directory or a malformed file;
- each config key given each of those values through a `--config` file,
  and each string config key a surrogate that argv decoding never makes;
- each option with `choices` (`--baseline`, `--baseline-mode`) and the
  command word itself set to an unknown word, an empty string and a lone
  surrogate, which argparse refuses with exit 2.
Huge means 10**15 or more, so an allocation it sizes fails at once.  The
tables are seeded and hold at most 20 rows.
"""

import argparse
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import random_pair
from permpriv import cli
from permpriv.io_report import write_csv
from permpriv.privacy import Release
from permpriv.reverse_map import reverse_map_table
from permpriv.table import MicrodataTable

CODES = {0, 2, 3, 4}
INTS = ("-1", "0", "1.5", str(10**15), str(2**63), str(2**64))
FLOATS = ("-1", "0", "0.5", "5e-324", "1e308", "nan", "inf", "-inf", str(10**15))
CONFIG_VALUES = (-1, 0, 1.5, 10**15, 2**64, float("nan"), float("-inf"), "x", True, [], [0.5])
STRINGS = ("", "x" * 10**5, "a\nb", 'a"b\\c', "a\udcff")
# a JSON string may also hold a surrogate that no argv bytes decode to
CONFIG_STRINGS = (*STRINGS, "a\ud800")
NOT_A_CHOICE = ("unknown", "", "a\udcff")

BAD_FILES = {
    "empty": b"",
    "header only": b"a1,a2,a3\n",
    "not UTF-8": b"a1,a2,a3\n\xff1,2,3\n",
    "ragged": b"a1,a2,a3\n1,2,3\n4,5\n",
    "a cell over the field limit": b"a1,a2,a3\n1," + b"2" * 200_000 + b",3\n",
    "a quoted cell over the field limit": b'a1,a2,a3\n1,"' + b"2" * 200_000 + b'",3\n',
    "a NaN cell": b"a1,a2,a3\n1,nan,3\n",
    "an Inf cell": b"a1,a2,a3\n1,2,-inf\n",
    "a word cell": b"a1,a2,a3\n1,two,3\n",
    "two columns": b"a1,a2\n1,2\n3,4\n",
    "one tied row": b"a1,a2,a3\n0,0,0\n",
    "tied rows": b"a1,a2,a3\n" + b"1,1,1\n" * 5,
}
TRUTH_FILES = {
    **BAD_FILES,
    "not UTF-8 truth": b"\xff\xfe",
    "negative targets": b"-1 " * 20,
    "fractional targets": b"1.5 " * 20,
    "huge targets": f"{10**30} ".encode() * 20,
    "too few targets": b"1 2 3",
}
CONFIG_FILES = {"not a JSON object": b"[1, 2]", "not JSON": b"{", **BAD_FILES}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("exit_codes")
    x, y = random_pair(np.random.default_rng(20), 20, 3, sigma=30.0)
    write_csv(x, ws / "original.csv")
    write_csv(y, ws / "masked.csv")
    write_csv(reverse_map_table(x, Release(y)), ws / "permuted.csv")
    write_csv(MicrodataTable(x.values[4:5], x.attribute_names), ws / "record.csv")
    (ws / "truth.txt").write_text(" ".join(map(str, range(1, x.n + 1))))
    for name, data in {**TRUTH_FILES, **CONFIG_FILES}.items():
        (ws / name).write_bytes(data)
    return ws


def commands(ws: Path) -> dict[str, list]:
    """A working argv per command, baseline modes apart."""
    x, y = ws / "original.csv", ws / "masked.csv"
    targets = ["--d", "1", "--v", "0", "0", "0"]
    return {
        "reverse-map": ["reverse-map", x, y],
        "certify": ["certify", x, y, *targets],
        "subject sampled": ["subject", ws / "record.csv", y, *targets,
                            "--baseline", "sampled", "--baseline-size", "50"],
        "subject exhaustive": ["subject", ws / "record.csv", y, "--baseline", "exhaustive"],
        "link": ["link", x, ws / "permuted.csv", "--truth", ws / "truth.txt"],
        "assess sampled": ["assess", x, y, "--baseline-mode", "sampled", "--baseline-size", "50"],
        "assess exhaustive": ["assess", x, y],
        "mask": ["mask", x, "--sigmas", "1", "2", "3"],
        "synth": ["synth", "--n", "5", "--means", "0", "1", "2", "--stds", "1", "1", "1"],
        "demo": ["demo"],
    }


def options(command: str) -> list[argparse.Action]:
    """The options of a subcommand, `--help` and `--version` left out."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions if a.option_strings and a.dest != "help"]


def without(argv: list, flags: list[str]) -> list:
    """`argv` less each of `flags` and the values that follow it."""
    kept, dropping = [], False
    for token in argv:
        if isinstance(token, str) and token.startswith("--"):
            dropping = token in flags
        if not dropping:
            kept.append(token)
    return kept


def texts(value: str, count: int) -> list[str]:
    """`count` distinct strings led by `value`, so no list is refused for a repeat."""
    return [value, *(f"{value}{i}" for i in range(1, count))]


def perturbations(ws: Path, argv: list):
    """(label, argv, config) for each perturbation of a working argv.

    `config` is None or the values of the `--config` file the argv names.
    """
    missing, under_a_file = ws / "no such file", ws / "original.csv" / "x"
    for i, token in enumerate(argv):
        if isinstance(token, Path):  # an input file, positional or --truth
            files = TRUTH_FILES if argv[i - 1] == "--truth" else BAD_FILES
            for name in [*files, missing, ws]:
                yield f"{token.name} as {name}", [*argv[:i], ws / name, *argv[i + 1 :]], None
    for action in options(argv[0]):
        flag = action.option_strings[-1]
        counts = (1, 3) if action.nargs == "+" else (1,)
        paths = ("--out", "--config")
        text = action.type is None and action.nargs != 0 and not action.choices
        text = text and flag != "--config"  # a string option, --out among them
        if action.type in (int, float):
            for value in INTS if action.type is int else FLOATS:
                for count in counts:
                    yield f"{flag} {value} x{count}", [*argv, flag, *[value] * count], None
        elif flag in paths:
            for name in [*CONFIG_FILES, missing, under_a_file]:
                yield f"{flag} {name}", [*argv, flag, ws / name], None
        if text:
            for value in STRINGS:
                for count in counts:
                    label = f"{flag} {value[:12]!r} ({len(value)} chars) x{count}"
                    yield label, [*argv, flag, *texts(value, count)], None
        if action.dest != "config":  # the flag goes, so the file's value is the one read
            strings = [texts(v, 3) if action.nargs == "+" else v for v in CONFIG_STRINGS if text]
            for value in [*CONFIG_VALUES, *strings]:
                case = [*without(argv, action.option_strings), "--config", ws / "config.json"]
                yield f"config {action.dest}={value!r:.60}", case, {action.dest: value}


def run(argv, capsys) -> tuple[object, str]:
    """`cli.main`'s exit code, or the exception it would end in, and its stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a warning is printed, not a traceback
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code or 0
        except Exception as exc:  # a traceback and exit 1 outside the test
            code = f"{type(exc).__name__}: {exc}"
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", list(commands(Path())))
def test_every_perturbation_exits_0_2_3_or_4_without_a_traceback(
    workspace, tmp_path, capsys, monkeypatch, command
):
    # a relative --out lands here, so no --out, even an empty one, writes
    # over the workspace's input files
    monkeypatch.chdir(tmp_path)
    argv = commands(workspace)[command] + ["--out", "out"]
    code, err = run(argv, capsys)
    assert code in (0, 4), err
    escapes = []
    for label, case, config in perturbations(workspace, argv):
        if config is not None:
            (workspace / "config.json").write_text(json.dumps(config))
        code, err = run(case, capsys)
        if code not in CODES or "Traceback" in err:
            escapes.append(f"{label}: {code} {err.strip()[:200]}")
    assert escapes == [], "\n".join(escapes)


def choice_options(command: str) -> list[str]:
    return [a.option_strings[-1] for a in options(command) if a.choices]


@pytest.mark.parametrize(
    "command", [c for c, argv in commands(Path()).items() if choice_options(argv[0])]
)
def test_a_value_outside_the_choices_exits_2_without_a_traceback(
    workspace, tmp_path, capsys, monkeypatch, command
):
    monkeypatch.chdir(tmp_path)
    argv = commands(workspace)[command] + ["--out", "out"]
    for flag in choice_options(argv[0]):
        for value in NOT_A_CHOICE:
            code, err = run([*argv, flag, value], capsys)
            assert code == 2 and "Traceback" not in err, (flag, value, code, err)
            assert "invalid choice" in err


def test_an_unknown_command_exits_2_without_a_traceback(capsys):
    for word in NOT_A_CHOICE:
        code, err = run([word], capsys)
        assert code == 2 and "Traceback" not in err, (word, code, err)
