"""Golden transcript of the CLI: stdout, exit code and first stderr line.

Each case runs ``chern3.cli.main`` in-process and is compared byte for byte
with its entry in ``cli_golden.json``.  After an intended change of output,
re-record the transcript with

    PYTHONPATH=src python tests/test_cli_golden.py --record

and name every entry that changed, and why, in CHANGES.md.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from chern3.cli import main

TRANSCRIPT = Path(__file__).with_name("cli_golden.json")

P4_2 = "[2] in P4"
SHEAF = '{"rank":2,"c1":["1"],"c2":["1"],"c3":"0"}'
QUADRIC = '{"generators":["H"],"T":[[["2"]]],"c1X":["3"],"c2X":["8"],"curve_lattice":[["1"]]}'
CHI = ["chi", "--preset", P4_2, "--rank", "2", "--c2", "1"]

# The README examples, each in table and in JSON mode.
README = {
    "threefold_preset": ["threefold", "--preset", P4_2],
    "threefold_ambient": ["threefold", "--ambient", "5", "--degrees", "2,3"],
    "chi": CHI + ["--c1", "1", "--c3", "0"],
    "moduli_dim": ["moduli-dim", "--preset", P4_2, "--rank", "2", "--c1", "1", "--c2", "1", "--c3", "0"],
    "chern_tensor": ["chern", "tensor", "--preset", P4_2, "--e", SHEAF, "--f", SHEAF],
    "chern_delta": ["chern", "delta", "--preset", "[2,3] in P5",
                    "--f", '{"rank":2,"c1":["1"],"c2":["3"],"c3":"0"}'],
    "serre_to_genus": ["serre", "--to-genus", "--preset", "[5] in P4", "--det", "1", "--c2", "6", "--c3", "0"],
    "serre_to_c3": ["serre", "--to-c3", "--preset", P4_2, "--det", "1", "--c2", "1", "--genus", "0"],
    "ledger": ["ledger", "--h0-n", "2", "--h0-f", "3", "--h1-ic-zero"],
    "dzero_search": ["dzero", "--preset", "[2,3] in P5", "--k", "-10..10", "--c", "-50..50"],
    "dzero_verify_paper": ["dzero", "--verify-paper"],
    "verify_paper": ["verify", "--suite", "paper"],
    "verify_tensor": ["verify", "--tensor-formulas", "--max-rank", "4", "--trials", "100", "--seed", "42"],
}

CASES = {name + mode: argv + flag for name, argv in README.items()
         for mode, flag in (("", []), ("_json", ["--json"]))}
CASES.update({
    "threefold_p3": ["threefold", "--ambient", "3"],
    "chi_c1_equals": CHI + ["--c1=1"],
    "chi_c1_negative": CHI + ["--c1", "-1"],
    "chi_custom_threefold": ["chi", "--threefold", QUADRIC, "--rank", "2", "--c1", "1", "--c2", "1", "--json"],
    "chern_dual": ["chern", "dual", "--preset", P4_2, "--f", SHEAF],
    "chern_twist_negative": ["chern", "twist", "--preset", P4_2, "--f", SHEAF, "--l", "-1", "--json"],
    "json_before_command": ["--json", "threefold", "--preset", "[2,3] in P5"],
    # dzero on a Calabi-Yau target (every point a witness) and a general-type one
    "dzero_calabi_yau": ["dzero", "--preset", "[5] in P4", "--k", "-3..3", "--c", "-2..2"],
    "dzero_calabi_yau_json": ["dzero", "--preset", "[5] in P4", "--k", "-3..3", "--c", "-2..2", "--json"],
    "dzero_general_type": ["dzero", "--preset", "[6] in P4", "--k", "-3..3", "--c", "-30..30"],
    # named errors
    "missing_target": ["chi", "--rank", "2", "--c1", "1", "--c2", "1"],
    "threefold_missing_target": ["threefold"],
    "bad_range": ["dzero", "--preset", P4_2, "--k", "1..x"],
    "max_rank_7": ["verify", "--tensor-formulas", "--max-rank", "7"],
    "bad_rational": CHI + ["--c1", "1/0"],
    "bad_preset": ["chi", "--preset", "nonsense", "--rank", "2", "--c1", "1", "--c2", "1"],
    "serre_without_genus": ["serre", "--to-c3", "--preset", P4_2, "--det", "1", "--c2", "1"],
    "serre_without_c3": ["serre", "--to-genus", "--preset", P4_2, "--det", "1", "--c2", "1"],
    "bare_verify": ["verify"],
    "insufficient_ledger": ["ledger", "--h0-n", "2", "--h0-f", "3"],
    "rank_unsupported": ["moduli-dim", "--preset", P4_2, "--rank", "3", "--c1", "1", "--c2", "1"],
    # flags that must reach the payload or be rejected
    "verify_paper_max_rank": ["verify", "--suite", "paper", "--max-rank", "2", "--trials", "3", "--json"],
    "dzero_verify_paper_with_target": ["dzero", "--verify-paper", "--preset", P4_2, "--k", "-3..3", "--c", "-3..3"],
    "verify_suite_and_tensor": ["verify", "--suite", "paper", "--tensor-formulas"],
    "chi_seed": CHI + ["--c1", "1", "--seed", "5"],
    "seed_before_verify": ["--seed", "7", "verify", "--tensor-formulas", "--max-rank", "1", "--trials", "2", "--json"],
})


def invoke(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": lines[0] if lines else ""}


@pytest.fixture(scope="module")
def transcript():
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, transcript):
    assert invoke(CASES[name]) == transcript[name]


def test_transcript_has_no_stale_entries(transcript):
    assert sorted(transcript) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --record")
    doc = {name: invoke(argv) for name, argv in sorted(CASES.items())}
    TRANSCRIPT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
