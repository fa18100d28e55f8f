"""Golden CLI runs: fixed invocations must keep giving byte-identical output.

Each case is a sequence of ``vmplace`` invocations run in-process inside an
empty working directory. Its digest is a SHA-256 over every invocation's exit
code, stdout and stderr, followed by the name and bytes of every file the
invocations left in the directory (reports and ``--dump-placements`` files).
Paths are relative, so no digest depends on where the test runs. The literals
were recorded before ``solve`` and ``experiment`` were merged into one run
path; a change meant to keep behaviour must leave them as they are.
"""

import hashlib

import pytest

from vmplace.cli import main

GA = ["--generations", "20"]

CASES = {
    "solve-bfd": [
        ["solve", "--solver", "bfd", "--out", "r.csv", "--dump-placements"],
    ],
    "solve-gapa-json": [
        ["solve", "--solver", "gapa", *GA, "--format", "json", "--out", "r.json", "--dump-placements"],
    ],
    "solve-exact-over-budget": [
        ["solve", "--solver", "exact", "--exact-budget", "1000"],
    ],
    "solve-gapa-snapshot-idle": [
        ["solve", "--solver", "gapa", *GA, "--fitness", "snapshot", "--idle-powered", "on"],
    ],
    "experiment-2x2-grid-2-seeds": [
        [
            "experiment",
            "--solvers", "bfd,gapa",
            "--generations", "5", "--generations", "10",
            "--crossover", "0.25", "--crossover", "0.75",
            "--seed", "1", "--seed", "2",
            "--out", "r.csv",
            "--dump-placements",
        ],
    ],
    "validate-dumped-placement": [
        ["solve", "--solver", "bfd", "--out", "r.csv", "--dump-placements"],
        ["validate", "--placement", "r.bfd.placement"],
    ],
    "validate-missing-file": [
        ["validate", "--placement", "missing.placement"],
    ],
    "help": [["--help"]],
    "help-solve": [["solve", "--help"]],
    "help-experiment": [["experiment", "--help"]],
    "help-gen-workload": [["gen-workload", "--help"]],
    "help-validate": [["validate", "--help"]],
}

EXPECTED = {
    "solve-bfd": "ed79c3a1bb48784e8032276e09a88b849976a462aeab7c386e242169ea2b7666",
    "solve-gapa-json": "5fc99e1936023905f5aab1495c6d9acb599624fca811af009024f75fbafe7a4d",
    "solve-exact-over-budget": "198d5fadc195c0d73fd81c5bc1b2918c57a87773ce1ac7feb5a584548e593964",
    "solve-gapa-snapshot-idle": "7b691e36ec0f85124e7a5aaa49d6b1f75483b9c086d3cb4b574b23e6dba5d811",
    "experiment-2x2-grid-2-seeds": "8c3d10f40cfd0e9710f07131d33015a2867d81b6b3a45a84e5fbd98c007404f7",
    "validate-dumped-placement": "f8629abe052cbf28ebf62bf62e1585179c4758981d6b04584f8fd1b3d86ff021",
    "validate-missing-file": "aff38ea0142fb6c31b7c8350333aac8d01aa5a1a2eca7fb9c5edb109342c7629",
    "help": "e6a4c4c0bdd7f0654e1c11a1f3e1116d73a17c9d6640a66f104a540b0c60f58e",
    "help-solve": "b5105e4c0ad5a10e8c7e7950fe55840c2a055df518bcc84c918cddaa5cdbae8a",
    "help-experiment": "dc6da5fb41f21d1e40de82f9b57f4717c7864e7b76e53b677af27749a1195af4",
    "help-gen-workload": "5f2ee9f326b616c0c482bec8aa0d2489a0945c6071c2ea5ae2239ce3403596c3",
    "help-validate": "6e732abb5e1c28b64caac74eeac15f4df95a3f1f97978403416f5e172e3bc785",
}


def _run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse exits after printing --help
        return exc.code


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_golden(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    digest = hashlib.sha256()
    for argv in CASES[case]:
        code = _run(argv)
        out, err = capsys.readouterr()
        digest.update(repr((argv, code, out, err)).encode())
    for path in sorted(tmp_path.iterdir()):
        digest.update(repr((path.name, path.read_bytes())).encode())
    assert digest.hexdigest() == EXPECTED[case]
