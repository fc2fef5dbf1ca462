import json
import re
from fractions import Fraction

import jsonschema
import pytest

from chern3.chow import threefold_to_json
from chern3.ci import CIPreset, build_ci
from chern3.cli import (
    PAYLOAD_SCHEMAS,
    REQUEST_SCHEMA,
    Request,
    _RAT,
    _schema_message,
    _wire,
    load_config,
    main,
    response_json,
    response_table,
    run,
    validate_payload,
)
from chern3.errors import InvalidInput, SchemaError
from chern3.rationals import rat
from chern3.splitting import ScalarChern, tensor_closed_form, verify_tensor_formulas


def run_json(command, payload):
    return run(Request(command, payload, "json"))


# ---------------------------------------------------------------- run()


def test_run_threefold_quadric():
    resp = run_json("threefold", {"ambient": 4, "degrees": [2]})
    assert resp.status == "ok"
    doc = resp.data["threefold"]
    assert doc["T"] == [[["2"]]]
    assert doc["c1X"] == ["3"]
    assert resp.data["classification"] == "Fano"
    assert resp.data["tangent_chern"] == {"c1": "3", "c2": "4", "c3": "2"}


def test_run_moduli_dim_paper_instance():
    payload = {"preset": "[2] in P4", "rank": 2, "c1": [1], "c2": [1], "c3": "0"}
    resp = run_json("moduli-dim", payload)
    assert resp.data["expected_dim"] == "0"
    assert resp.data["ext_euler"] == "1"
    assert resp.audit  # mandatory for moduli-dim
    assert ("expected_dim", "0") in resp.audit


def test_run_chi_audit_populated():
    payload = {"preset": "[2] in P4", "rank": 2, "c1": [1], "c2": [1], "c3": "0"}
    resp = run_json("chi", payload)
    assert resp.data["chi"] == "4"
    names = [n for n, _ in resp.audit]
    assert "c1(X).c2(X)" in names
    assert "r.c1(X).c2(X)/24" in names
    assert names[-1] == "chi"
    assert len([n for n in names if n.endswith("/24") or "/" in n]) >= 8


def test_run_chern_ops():
    sheaf = {"rank": 2, "c1": ["1"], "c2": ["1"], "c3": "0"}
    resp = run_json("chern", {"op": "dual", "preset": "[2] in P4", "F": sheaf})
    assert resp.data["result"]["c1"] == ["-1"]
    resp = run_json(
        "chern", {"op": "tensor", "preset": "[2] in P4", "E": sheaf, "F": sheaf}
    )
    assert resp.data["result"] == {"rank": 4, "c1": ["4"], "c2": ["14"], "c3": "12"}
    resp = run_json(
        "chern", {"op": "twist", "preset": "[2] in P4", "F": sheaf, "L": ["1"]}
    )
    assert resp.data["result"]["c1"] == ["3"]
    assert resp.data["result"]["c2"] == ["5"]
    resp = run_json("chern", {"op": "delta", "preset": "[2] in P4", "F": sheaf})
    assert resp.data["delta"] == ["2"]


def test_run_serre_directions():
    base = {"preset": "[5] in P4", "det": ["1"], "c2": ["6"]}
    resp = run_json("serre", dict(base, direction="to-genus", c3="0"))
    assert resp.data["genus"] == "4"
    resp = run_json("serre", dict(base, direction="to-c3", genus="4"))
    assert resp.data["c3"] == "0"


def test_run_ledger():
    resp = run_json("ledger", {"h0_N": 2, "h0_F": 3, "h1_IC_zero": True})
    assert resp.data["ext1"] == 0


def test_run_dzero():
    payload = {"preset": "[2] in P4", "k_range": [-5, 5], "c_range": [-5, 5]}
    resp = run_json("dzero", payload)
    assert resp.data["solvable"] is True
    assert resp.data["relation"] == "2c = k^2 + 1"
    assert [1, 1] in resp.data["witnesses"]
    assert resp.data["grid_checked"] is True


def test_run_verify_paper_suite():
    resp = run_json("verify", {"suite": "paper"})
    assert resp.data["ok"] is True
    assert resp.data["claims"]["solvable_count"] == 2
    assert resp.data["claims"]["certificate_count"] == 5
    assert resp.data["tensor_formulas"]["ok"] is True


def test_run_custom_threefold_payload():
    from chern3.chow import threefold_to_json
    from chern3.ci import CIPreset, build_ci

    doc = threefold_to_json(build_ci(CIPreset(4, (2,))))
    payload = {"threefold": doc, "rank": 2, "c1": [1], "c2": [1], "c3": "0"}
    resp = run_json("moduli-dim", payload)
    assert resp.data["expected_dim"] == "0"


# ---------------------------------------------------------------- schemas


def test_schema_rejects_unknown_key():
    payload = {"preset": "[2] in P4", "rank": 2, "c1": [1], "c2": [1], "c3": "0", "c4": [1]}
    with pytest.raises(SchemaError, match="c4"):
        run_json("chi", payload)


def test_schema_rejects_floats_and_bad_rationals():
    payload = {"preset": "[2] in P4", "rank": 2, "c1": [1.5], "c2": [1], "c3": "0"}
    with pytest.raises(SchemaError):
        run_json("chi", payload)
    payload["c1"] = ["1/0"]
    with pytest.raises(SchemaError):
        run_json("chi", payload)


@pytest.mark.parametrize("text", ["1e3", " 0.5 ", "1.5", "+2", "01/02", "1/0", "", "1/-2"])
def test_rat_rejects_strings_outside_the_wire_pattern(text):
    with pytest.raises(InvalidInput, match="cannot parse rational"):
        rat(text)
    assert not jsonschema.Draft202012Validator(_RAT).is_valid(text)


@pytest.mark.parametrize("value, want", [("7", 7), ("-3/4", Fraction(-3, 4)), ("6/4", Fraction(3, 2)),
                                         (5, 5), (Fraction(2, 3), Fraction(2, 3))])
def test_rat_accepts_the_wire_pattern(value, want):
    assert rat(value) == want
    if isinstance(value, str):
        assert jsonschema.Draft202012Validator(_RAT).is_valid(value)


def test_schema_requires_exactly_one_target():
    from chern3.chow import threefold_to_json
    from chern3.ci import CIPreset, build_ci

    doc = threefold_to_json(build_ci(CIPreset(4, (2,))))
    payload = {"rank": 2, "c1": [1], "c2": [1], "c3": "0"}
    with pytest.raises(SchemaError):
        run_json("chi", payload)
    with pytest.raises(SchemaError):
        run_json("chi", dict(payload, preset="[2] in P4", threefold=doc))


@pytest.mark.parametrize("schema", [*PAYLOAD_SCHEMAS.values(), REQUEST_SCHEMA],
                         ids=[*PAYLOAD_SCHEMAS, "request"])
def test_schemas_pass_the_metaschema(schema):
    jsonschema.validators.validator_for(schema).check_schema(schema)


QUADRIC_DOC = threefold_to_json(build_ci(CIPreset(4, (2,))))
SHEAF = {"rank": 2, "c1": [1], "c2": [1]}


@pytest.mark.parametrize("command, payload", [
    ("chi", {"preset": "[2] in P4", **SHEAF, "c4": [1]}),
    ("chi", {"preset": "[2] in P4", **SHEAF, "c1": ["1/0"]}),
    ("chi", {"preset": "[2] in P4", **SHEAF, "c1": [1.5]}),
    ("chi", {"preset": "[2] in P4", **SHEAF, "rank": "2"}),
    ("chi", {"preset": "[2] in P4", **SHEAF, "schema": "2"}),
    ("verify", {"tensor_formulas": True, "max_rank": 7}),
    ("verify", {"suite": "paper", "max_rank": 0}),
    ("chi", {"threefold": {**QUADRIC_DOC, "T": "2"}, **SHEAF}),
    ("moduli-dim", {"threefold": {**QUADRIC_DOC, "extra": 1}, **SHEAF}),
    ("dzero", {"threefold": {**QUADRIC_DOC, "c1X": ["1/2/3"]}}),
    ("dzero", {"preset": "[2] in P4", "k_range": [1]}),
    ("chern", {"op": "dual", "preset": "[2] in P4", "F": {"rank": 2, "c1": [1], "c3": 0}}),
    ("threefold", {"ambient": 4, "degrees": [0]}),
    ("ledger", {"h0_N": -1, "h0_F": 0}),
])
def test_validate_payload_reports_what_jsonschema_validate_raises(command, payload):
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(payload, PAYLOAD_SCHEMAS[command])
    with pytest.raises(SchemaError) as got:
        validate_payload(command, payload)
    assert str(got.value) == f"{command}: {_schema_message(expected.value)}"


@pytest.mark.parametrize("command, payload, argv", [
    ("chi", {"preset": "[2] in P4", "threefold": QUADRIC_DOC, **SHEAF},
     ["--preset", "[2] in P4", "--threefold", json.dumps(QUADRIC_DOC),
      "--rank", "2", "--c1", "1", "--c2", "1"]),
    ("chern", {"op": "dual", "preset": "[2] in P4", "F": {**SHEAF, "c3": 0}, "L": [1]},
     ["dual", "--preset", "[2] in P4", "--f", json.dumps({**SHEAF, "c3": 0}), "--l", "1"]),
    ("serre", {"preset": "[2] in P4", "det": [1], "c2": [1]},
     ["--preset", "[2] in P4", "--det", "1", "--c2", "1"]),
    ("dzero", {"verify_paper": True, "k_range": [-3, 3]}, ["--verify-paper", "--k", "-3..3"]),
])
def test_json_payload_names_the_failed_rule(capsys, command, payload, argv):
    with pytest.raises(SchemaError) as exc:
        run_json(command, payload)
    assert main([command, *argv]) == 2
    assert capsys.readouterr().err == f"SchemaError: {exc.value}\n"
    assert not str(exc.value).startswith(f"{command}: {{")


def test_schema_version_field_accepted():
    payload = {"schema": "1", "preset": "[2] in P4", "rank": 2, "c1": [1], "c2": [1], "c3": "0"}
    assert run_json("chi", payload).data["chi"] == "4"
    with pytest.raises(SchemaError):
        run_json("chi", dict(payload, schema="2"))


# ---------------------------------------------------------------- config


def test_load_config_round_trip(tmp_path):
    doc = {
        "schema": "1",
        "command": "moduli-dim",
        "payload": {"preset": "[2] in P4", "rank": 2, "c1": [1], "c2": [1], "c3": "0"},
        "output_mode": "json",
    }
    path = tmp_path / "request.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    request = load_config(path)
    assert request.command == "moduli-dim"
    assert run(request).data["expected_dim"] == "0"


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "request.json"
    path.write_text(json.dumps({"command": "chi", "payload": {}, "extra": 1}))
    with pytest.raises(SchemaError, match="extra") as got:
        load_config(path)
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(json.loads(path.read_text()), REQUEST_SCHEMA)
    assert str(got.value) == f"{path}: {_schema_message(expected.value)}"


def test_load_config_reports_position_on_bad_json(tmp_path):
    path = tmp_path / "request.json"
    path.write_text('{"command": "chi",\n  broken\n}')
    with pytest.raises(SchemaError, match=r":2:"):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "absent.json")


# ---------------------------------------------------------------- rendering


RAT_TOKEN = re.compile(r"^-?\d+(/\d+)?$")


def test_table_and_json_agree_on_every_numeric_value():
    payloads = [
        ("chi", {"preset": "[2] in P4", "rank": 2, "c1": [1], "c2": [1], "c3": "0"}),
        ("dzero", {"preset": "[2] in P4", "k_range": [-5, 5], "c_range": [-5, 5]}),
        ("threefold", {"ambient": 5, "degrees": [2, 3]}),
    ]
    for command, payload in payloads:
        resp = run(Request(command, payload, "table"))
        table = response_table(resp)
        doc = json.loads(response_json(resp))

        def leaves(value, prefix=""):
            if isinstance(value, dict):
                for k, v in value.items():
                    yield from leaves(v, f"{prefix}.{k}" if prefix else k)
            elif isinstance(value, list):
                for i, v in enumerate(value):
                    yield from leaves(v, f"{prefix}[{i}]")
            else:
                yield prefix, value

        table_rows = {}
        for line in table.splitlines():
            m = re.match(r"^  (\S+)\s{2,}(.*)$", line)
            if m:
                table_rows[m.group(1)] = m.group(2).strip()
        for name, value in leaves(doc["data"]):
            if isinstance(value, str) and RAT_TOKEN.match(value):
                assert name in table_rows, name
                assert rat(table_rows[name]) == rat(value), name


def test_json_output_is_idempotent():
    request = Request("chi", {"preset": "[2] in P4", "rank": 2, "c1": [1], "c2": [1], "c3": "0"}, "json")
    first = response_json(run(request))
    second = response_json(run(request))
    assert first == second
    # re-feeding the emitted threefold reproduces the same numbers
    built = run(Request("threefold", {"ambient": 4, "degrees": [2]}, "json"))
    payload = {"threefold": built.data["threefold"], "rank": 2, "c1": [1], "c2": [1], "c3": "0"}
    assert run(Request("chi", payload, "json")).data["chi"] == "4"


# ---------------------------------------------------------------- main()


def test_main_exit_codes(capsys, tmp_path):
    assert main(["chi", "--preset", "[2] in P4", "--rank", "2", "--c1", "1", "--c2", "1"]) == 0
    capsys.readouterr()

    # rank 3 expected dimension: domain error, exit 1, error name surfaced
    rc = main(["moduli-dim", "--preset", "[2] in P4", "--rank", "3", "--c1", "1", "--c2", "1"])
    assert rc == 1
    assert "RankUnsupported" in capsys.readouterr().err

    rc = main(["chi", "--preset", "nonsense", "--rank", "2", "--c1", "1", "--c2", "1"])
    assert rc == 1
    assert "InvalidInput" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text('{"command": "chi", "payload": {}, "x": 1}')
    assert main(["--config", str(bad)]) == 2
    capsys.readouterr()

    assert main(["--config", str(tmp_path / "missing.json")]) == 1
    assert "IOError" in capsys.readouterr().err


def test_main_verify_suite_exit_zero(capsys):
    assert main(["verify", "--suite", "paper"]) == 0
    capsys.readouterr()
    assert main(["verify", "--tensor-formulas", "--max-rank", "3", "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_main_dzero_flags_and_verify_paper(capsys):
    rc = main(["dzero", "--preset", "[2,3] in P5", "--k", "-10..10", "--c", "-50..50", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["data"]["relation"] == "2c = 3k^2 + 3"
    assert [1, 3] in doc["data"]["witnesses"]

    assert main(["dzero", "--verify-paper"]) == 0
    capsys.readouterr()


def test_main_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["threefold", "--preset", "[2] in P4", "--json", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["data"]["classification"] == "Fano"


def test_main_threefold_doc_from_file(tmp_path, capsys):
    out = tmp_path / "threefold.json"
    main(["threefold", "--preset", "[2] in P4", "--json", "--out", str(out)])
    capsys.readouterr()
    doc = json.loads(out.read_text())["data"]["threefold"]
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    rc = main(["chi", "--threefold", str(model_path), "--rank", "2", "--c1", "1", "--c2", "1", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["data"]["chi"] == "4"


def test_warnings_surface_in_response():
    resp = run_json("serre", {"preset": "[2] in P4", "direction": "to-genus",
                              "det": ["1"], "c2": ["1"], "c3": "1"})
    assert resp.data["genus"] == "1/2"
    assert any("genus" in w for w in resp.data["warnings"])


# ---------------------------------------------------------------- flags reach the payload


def test_verify_paper_suite_passes_rank_and_trials(capsys):
    assert main(["verify", "--suite", "paper", "--max-rank", "2", "--trials", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)["data"]["tensor_formulas"]
    assert (report["max_rank"], report["trials"], len(report["pairs"])) == (2, 3, 4)


@pytest.mark.parametrize("extra", [["--preset", "[2] in P4"], ["--k", "-3..3"], ["--c", "-3..3"]])
def test_dzero_verify_paper_rejects_search_flags(capsys, extra):
    assert main(["dzero", "--verify-paper", *extra]) == 2
    assert capsys.readouterr().err.startswith("SchemaError: dzero: --verify-paper takes no")


@pytest.mark.parametrize("extra", [{"preset": "[2] in P4"}, {"k_range": [-3, 3]}, {"c_range": [0, 1]}])
def test_dzero_verify_paper_payload_rejects_search_keys(extra):
    with pytest.raises(SchemaError):
        run_json("dzero", {"verify_paper": True, **extra})


def test_verify_suite_and_tensor_formulas_exclude_each_other(capsys):
    assert main(["verify", "--suite", "paper", "--tensor-formulas"]) == 2
    assert capsys.readouterr().err.startswith("SchemaError: verify:")
    with pytest.raises(SchemaError):
        run_json("verify", {"suite": "paper", "tensor_formulas": True})


def test_seed_belongs_to_verify_only(capsys):
    chi = ["chi", "--preset", "[2] in P4", "--rank", "2", "--c1", "1", "--c2", "1"]
    with pytest.raises(SystemExit) as exc:
        main(chi + ["--seed", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "7", "verify", "--tensor-formulas", "--max-rank", "1", "--trials", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["verify", "--tensor-formulas", "--max-rank", "1", "--trials", "2", "--seed", "7", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["tensor_formulas"]["seed"] == 7


@pytest.mark.parametrize("argv, message", [
    (["serre", "--to-c3", "--to-genus", "--preset", "[2] in P4", "--det", "1", "--c2", "1", "--genus", "0"],
     "give only one of --to-c3, --to-genus"),
    (["serre", "--to-c3", "--preset", "[2] in P4", "--det", "1", "--c2", "1", "--genus", "0", "--c3", "0"],
     "give only one of --genus, --c3"),
    (["threefold", "--ambient", "5", "--preset", "[2] in P4"], "give only one of --ambient, --preset"),
    (["chern", "dual", "--preset", "[2] in P4", "--f", '{"rank":1,"c1":[0],"c2":[0],"c3":0}', "--l", "1"],
     "and only twist, takes --l"),
])
def test_flags_the_command_would_ignore_are_rejected(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_threefold_degrees_must_be_integers(capsys):
    assert main(["threefold", "--ambient", "4", "--degrees", "2,x"]) == 2
    assert capsys.readouterr().err == "SchemaError: degrees '2,x' must be comma-separated integers\n"


# ---------------------------------------------------------------- output errors


def test_main_out_to_missing_directory_is_an_io_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["threefold", "--preset", "[2] in P4", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("IOError: ")


def test_main_closed_stdout_is_an_io_error(monkeypatch, capsys):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["threefold", "--preset", "[2] in P4", "--json"]) == 1
    assert capsys.readouterr().err.startswith("IOError: [Errno 32] Broken pipe")


def test_wire_renders_a_tensor_counterexample_as_rationals():
    def flipped(r1, r2, cE, cF):
        good = tensor_closed_form(r1, r2, cE, cF)
        return ScalarChern(good.c1, good.c2 - 2 * r2 * cE.c2, good.c3)

    report = verify_tensor_formulas(max_rank=2, trials=5, seed=42, closed_form=flipped)
    doc = json.loads(json.dumps(_wire(report)))
    assert doc["ok"] is False and list(doc) == ["max_rank", "trials", "seed", "ok", "pairs"]
    pair = next(p for p in doc["pairs"] if not p["passed"])
    assert list(pair) == ["r1", "r2", "passed", "grid_checks", "counterexample"]
    counterexample = pair["counterexample"]
    assert list(counterexample) == ["spec", "closed_form", "from_roots"]
    assert list(counterexample["spec"]) == ["rootsE", "rootsF"]
    assert list(counterexample["closed_form"]) == ["c1", "c2", "c3"]
    leaves = [*counterexample["spec"]["rootsE"], *counterexample["spec"]["rootsF"],
              *counterexample["closed_form"].values(), *counterexample["from_roots"].values()]
    assert all(isinstance(x, str) and re.fullmatch(r"-?\d+(/\d+)?", x) for x in leaves)
    assert counterexample["closed_form"] != counterexample["from_roots"]
