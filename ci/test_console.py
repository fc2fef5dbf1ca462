"""Console-script checks, each in a fresh ``python -m chern3.cli`` with this checkout's ``src/`` first
on ``PYTHONPATH``, so nothing needs installing.  Peaks are ``ru_maxrss``, which Linux gives in KiB."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
CAP = ["--k", "-500..500", "--c", "-499..499"]  # 1001 x 999 points: the CHERN3_MAX_ENUM cap
# Runs its arguments, hashes their stdout a block at a time, and prints the md5 and the peak RSS
# of its child.  The peak is read here, not in pytest: a child's peak starts at the RSS of the
# process that spawned it, and RUSAGE_CHILDREN keeps the largest child's so far.
PARENT = """import hashlib, resource, subprocess, sys
digest = hashlib.md5()
with subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE) as child:
    for block in iter(lambda: child.stdout.read(1 << 20), b""):
        digest.update(block)
print(digest.hexdigest(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
sys.exit(child.returncode)
"""


def chern3(*argv, code=0, parent=(), **env):
    """The console script's finished process on ``argv``: it exits with ``code``, without a traceback."""
    argv = [*parent, sys.executable, "-m", "chern3.cli", *argv]
    proc = subprocess.run(argv, capture_output=True, env={**ENV, **env})
    assert proc.returncode == code and b"Traceback" not in proc.stderr, (argv, proc.stderr.decode())
    return proc


def md5(data):
    return hashlib.md5(data).hexdigest()


def peak(*argv):
    """The md5 of the console script's stdout on ``argv``, and its peak RSS in MB."""
    digest, mb = chern3(*argv, parent=[sys.executable, "-S", "-c", PARENT]).stdout.split()
    return digest.decode(), float(mb)


def refused(*argv, message):
    """The console script refuses ``argv`` with exit code 2 and the one line ``SchemaError: message``."""
    proc = chern3(*argv, code=2)
    assert (proc.stdout, proc.stderr.decode()) == (b"", f"SchemaError: {message}\n")


@pytest.mark.parametrize("argv", [
    ["dzero", "--preset", "[2,3] in P5", *CAP],
    ["dzero", "--preset", "[5] in P4", "--k", "-20..20", "--c", "-20..20"],
    ["dzero", "--preset", "[6] in P4", "--k", "-20..20", "--c", "-20..20"],
    ["verify", "--suite", "paper"], ["verify", "--tensor-formulas", "--max-rank", "6"],
    ["dzero", "--verify-paper"], ["dzero", "--verify-paper", "--json"],
    ["threefold", "--preset", "[2,2,2] in P6", "--json"], ["threefold", "--ambient", "7", "--degrees", "2,2,2,2"],
], ids=" ".join)
def test_a_request_succeeds(argv):
    chern3(*argv)


def test_the_paper_suite_under_a_search_cap_below_its_claims_grid():
    chern3("verify", "--suite", "paper", CHERN3_MAX_ENUM="5000")


@pytest.mark.parametrize("mode, digest", [(["--json"], "7f958b52b5e8dbfb146bfdcd931d39cb"),
                                          ([], "e30cb37baec94f290bbd884695990efd")])
def test_a_calabi_yau_search_at_the_cap_renders_byte_for_byte_below_150_mb(tmp_path, mode, digest):
    argv = ["dzero", "--preset", "[5] in P4", *CAP, *mode]
    written, mb = peak(*argv)
    assert written == digest and mb < 150, mb
    # --out is opened once the whole report is rendered: the same bytes below the same peak.
    assert peak(*argv, "--out", str(tmp_path / "cap.out"))[1] < 150
    assert md5((tmp_path / "cap.out").read_bytes()) == digest


# One row: the grid check holds one int per c of the range, and on a Calabi-Yau target the witness
# re-check holds one block of curve classes at a time.  One column: the row pass keeps nothing per
# row of k; a list per row peaked at 86 MB on the Fano target.
@pytest.mark.parametrize("preset", ["[2] in P4", "[5] in P4"])
@pytest.mark.parametrize("k, c, bound", [("0..0", "-500000..499999", 150), ("-500000..499999", "0..0", 40)])
def test_a_search_of_a_million_points_in_one_row_or_column_stays_below_its_peak(preset, k, c, bound):
    assert peak("dzero", "--preset", preset, "--k", k, "--c", c)[1] < bound


@pytest.mark.parametrize("content, reason", [
    (b"\xff\xfe{", "not UTF-8 (invalid start byte at byte 0)"),
    (b"[" * 100000, "JSON nested too deeply"),
    (b'{"command": "chi", "payload": {"rank": %s}}' % (b"9" * 5000), "a number has more than 4300 digits"),
], ids=["not UTF-8", "nested", "5000 digits"])
def test_a_malformed_config_is_a_named_error(tmp_path, content, reason):
    config = tmp_path / "request.json"
    config.write_bytes(content)
    refused("--config", str(config), message=f"{config}: {reason}")


def test_a_result_past_the_digit_cap_is_written_in_full():
    out = chern3("chi", "--preset", "[2] in P4", "--rank", "2", "--c1", "9" * 4000, "--c2", "1").stdout.decode()
    chi = [line.split()[-1] for line in out.splitlines() if line.startswith("  chi ")]
    assert chi and all(len(value) > 4300 for value in chi), "chi is not written in full"


def test_rules_the_flags_keep(tmp_path):
    # --config and a command: the command's flags would be dropped, so both are refused.
    config = tmp_path / "ledger.json"
    config.write_text('{"command": "ledger", "payload": {"h0_N": 2, "h0_F": 3, "h1_IC_zero": true}}')
    sheaf = ["--preset", "[2] in P4", "--rank", "2", "--c1", "1", "--c2", "1"]
    refused("--config", str(config), "chi", *sheaf, message="give --config or a command, not both")
    # An integer flag is read as a JSON integer, as --config reads it: int() would take "2_0" as 20.
    refused("ledger", "--h0-n", "2_0", "--h0-f", "1", "--h1-ic-zero", message="--h0-n:1:2: Extra data")
    refused("dzero", "--verify-paper", "--k", "1..2",
            message="dzero: --verify-paper takes no --preset, --threefold, --k or --c")


@pytest.mark.parametrize("preset, det, c2, genus, c3", [("[5] in P4", "1", "6", "4", "0"),
                                                        ("[2,3] in P5", "1", "3", "3", "4")])
def test_a_serre_round_trip_from_genus_to_c3_and_back(preset, det, c2, genus, c3):
    given = ["serre", "--preset", preset, "--det", det, "--c2", c2, "--json"]
    there = json.loads(chern3(*given, "--to-c3", "--genus", genus).stdout)["data"]
    back = json.loads(chern3(*given, "--to-genus", "--c3", there["c3"]).stdout)["data"]
    assert "warnings" not in there and "warnings" not in back, (there, back)
    assert (there["c3"], back["genus"]) == (c3, genus)


# Each seed's JSON report, byte for byte: the md5s were recorded before the oracle evaluated a
# rank pair as one integer kernel, and the kernel must not move them.
@pytest.mark.parametrize("seed, digest", [("1", "2242667cf536cb69cb1751cf6d18e298"),
                                          ("2", "e93a94387b77997e591c2f79fc5115d0")])
def test_the_tensor_formula_oracle_at_its_rank_and_trial_limits(seed, digest):
    argv = ["verify", "--tensor-formulas", "--max-rank", "6", "--trials", "1000", "--seed", seed, "--json"]
    assert md5(chern3(*argv).stdout) == digest


def test_intersection_arithmetic_on_a_rank_3_custom_threefold_byte_for_byte():
    # A Picard-rank-3 model with a fractional form entry and a fractional c2(X) inside its curve lattice.
    form = {(0, 0, 0): "1", (0, 0, 1): "1/2", (0, 0, 2): "0", (0, 1, 1): "1", (0, 1, 2): "1",
            (0, 2, 2): "-1", (1, 1, 1): "2", (1, 1, 2): "0", (1, 2, 2): "1", (2, 2, 2): "3"}
    X = json.dumps({"schema": "1", "generators": ["a", "b", "c"],
                    "T": [[[form[tuple(sorted((i, j, k)))] for k in range(3)] for j in range(3)] for i in range(3)],
                    "c1X": ["2", "1", "1/3"], "c2X": ["6", "7/2", "4"],
                    "curve_lattice": [["2", "1", "0"], ["0", "1/2", "0"], ["0", "0", "1"]]})
    F = json.dumps({"rank": 2, "c1": ["1", "-1/2", "2"], "c2": ["3", "1/3", "-1"], "c3": "5/2"})
    E = json.dumps({"rank": 3, "c1": ["0", "1", "-1"], "c2": ["1/2", "2", "0"], "c3": "-1"})
    sheaf = ["--rank", "2", "--c1=1,-1/2,2", "--c2=3,1/3,-1", "--c3=5/2"]
    runs = [["chi", *sheaf], ["moduli-dim", *sheaf], ["chern", "tensor", "--f", F, "--e", E],
            ["chern", "twist", "--f", F, "--l=1,0,-2/3"], ["chern", "delta", "--f", F],
            ["serre", "--to-c3", "--det=1,1,0", "--c2=2,1/2,3", "--genus", "4"],
            ["serre", "--to-genus", "--det=1,1,0", "--c2=2,1/2,3", "--c3", "9"]]
    # The md5 of every report, table then JSON, recorded before the primitives computed on integers.
    out = b"".join(chern3(*argv, "--threefold", X, *mode).stdout for argv in runs for mode in ([], ["--json"]))
    assert md5(out) == "36e89881cf343fb2eccec5f01933f92a"
