"""The first stderr line of a malformed ``--config`` document, one per keyword
family of the schemas.  Nothing here imports jsonschema, so the messages are
pinned where it is not installed too."""

import json

import pytest

from chern3.cli import main

P4 = "[2] in P4"
SHEAF = {"preset": P4, "rank": 2, "c1": [1], "c2": [1]}
F = {"rank": 2, "c1": [1], "c2": [1], "c3": 0}
SERRE = {"preset": P4, "det": [1], "c2": [1]}
QUADRIC = {"generators": ["H"], "c1X": [3], "c2X": [10]}


@pytest.mark.parametrize("doc, message", [
    ({"command": "chi", "payload": {**SHEAF, "rank": "2"}},
     "chi: '2' is not of type 'integer' (at rank)"),
    ({"command": "chi", "payload": {"preset": P4, "rank": 2, "c1": [1]}},
     "chi: 'c2' is a required property"),
    ({"command": "ledger", "payload": {"h0_N": 2, "h0_F": 3, "h1_IC_zero": True, "h0_G": 1}},
     "ledger: Additional properties are not allowed ('h0_G' was unexpected)"),
    ({"command": "chi", "payload": {**SHEAF, "c1": ["1", 1.5]}},
     "chi: 1.5 is not of type 'integer', 'string' (at c1/1)"),
    ({"command": "chi", "payload": {**SHEAF, "preset": None}},
     "chi: None is not of type 'string' (at preset)"),
    ({"command": "chi", "payload": {"threefold": {**QUADRIC, "T": [[["2", []]]]}, "rank": 2, "c1": [1], "c2": [1]}},
     "chi: [] is not of type 'integer', 'string' (at threefold/T/0/0/1)"),
    ({"command": "chi", "payload": {**SHEAF, "c1": []}},
     "chi: [] should be non-empty (at c1)"),
    ({"command": "dzero", "payload": {"preset": P4, "k_range": [1, 2, 3]}},
     "dzero: [1, 2, 3] is too long (at k_range)"),
    ({"command": "dzero", "payload": {"preset": P4, "c_range": [1]}},
     "dzero: [1] is too short (at c_range)"),
    ({"command": "chi", "payload": {**SHEAF, "rank": 0}},
     "chi: 0 is less than the minimum of 1 (at rank)"),
    ({"command": "verify", "payload": {"tensor_formulas": True, "max_rank": 7}},
     "verify: 7 is greater than the maximum of 6 (at max_rank)"),
    ({"command": "chi", "payload": {**SHEAF, "c3": "1.5"}},
     r"chi: '1.5' does not match '^-?[0-9]+(/[1-9][0-9]*)?$(?!\\n)' (at c3)"),
    ({"command": "chern", "payload": {"op": "square", "preset": P4, "F": F}},
     "chern: 'square' is not one of ['tensor', 'dual', 'twist', 'delta'] (at op)"),
    ({"command": "chi", "payload": {**SHEAF, "schema": "2"}},
     "chi: '1' was expected (at schema)"),
    ({"command": "verify", "payload": {"tensor_formulas": False}},
     "verify: True was expected (at tensor_formulas)"),
    # Each rule of a command, in allOf, is named by the CLI's message for it.
    ({"command": "chi", "payload": {**SHEAF, "threefold": {}}},
     "chi: provide --preset or --threefold"),
    ({"command": "chern", "payload": {"op": "tensor", "preset": P4, "F": F}},
     "chern: tensor, and only tensor, takes --e"),
    ({"command": "chern", "payload": {"op": "dual", "preset": P4, "F": F, "E": F}},
     "chern: tensor, and only tensor, takes --e"),
    ({"command": "serre", "payload": {**SERRE, "direction": "to-genus"}},
     "serre --to-genus needs --c3"),
    ({"command": "serre", "payload": {**SERRE, "direction": "to-c3", "genus": 1, "c3": 0}},
     "serre: give only one of --genus, --c3"),
    ({"command": "dzero", "payload": {"verify_paper": True, "k_range": [1, 2]}},
     "dzero: --verify-paper takes no --preset, --threefold, --k or --c"),
    # The request document itself.
    ({"command": "nope", "payload": {}},
     "PATH: 'nope' is not one of ['chern', 'chi', 'dzero', 'ledger', 'moduli-dim', 'serre', 'threefold', 'verify']"
     " (at command)"),
    ({"command": "chi", "payload": SHEAF, "output_mode": "yaml"},
     "PATH: 'yaml' is not one of ['table', 'json'] (at output_mode)"),
    ({"command": "chi"},
     "PATH: 'payload' is a required property"),
    (["chi"],
     "PATH: ['chi'] is not of type 'object'"),
])
def test_a_malformed_config_document_gets_its_schema_message(tmp_path, capsys, doc, message):
    path = tmp_path / "request.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.split("\n")[0] == "SchemaError: " + message.replace("PATH", str(path))
