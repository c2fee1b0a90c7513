"""Command-line behavior: golden JSON bytes, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from quotients import cli

GOLDEN = Path(__file__).parent / "golden"

# (golden file, argv, expected exit code)
CASES = [
    ("msg_eq_cd.json",
     ["msg-eq", "(crypt 1 (decrypt 1 (nonce 5)))", "(nonce 5)", "--json", "--deterministic"], 0),
    ("msg_eq_unequal.json",
     ["msg-eq", "(nonce 1)", "(nonce 2)", "--json", "--deterministic"], 1),
    ("msg_nf_nested.json",
     ["msg-nf", "(decrypt 0 (crypt 0 (mpair (nonce 1) (crypt 2 (decrypt 2 (nonce 3))))))",
      "--json", "--deterministic"], 0),
    ("msg_fn_nonces.json",
     ["msg-fn", "nonces", "(decrypt 2 (nonce 4))", "--json", "--deterministic"], 0),
    ("msg_fn_discrim.json",
     ["msg-fn", "discrim", "(crypt 0 (mpair (nonce 1) (nonce 2)))", "--json", "--deterministic"], 0),
    ("msg_fn_left_unchecked.json",
     ["msg-fn", "left", "(crypt 3 (mpair (nonce 1) (nonce 2)))", "--unchecked",
      "--json", "--deterministic"], 0),
    ("int_eval_mul.json", ["int-eval", "(* (+ 1 1) -3)", "--json", "--deterministic"], 0),
    ("int_eval_nat.json", ["int-eval", "(nat (- 2 5))", "--json", "--deterministic"], 0),
    ("int_eval_le_false.json", ["int-eval", "(le 2 1)", "--json", "--deterministic"], 1),
    ("rat_eval_sum.json",
     ["rat-eval", "(+ (* 1 (inv 2)) (* 1 (inv 3)))", "--json", "--deterministic"], 0),
    ("check_msg_congruence_truncated.json",
     ["check", "msg-congruence", "--budget", "500", "--truncated-discrim",
      "--json", "--deterministic"], 1),
    ("check_int_congruence.json",
     ["check", "int-congruence", "--budget", "300", "--json", "--deterministic"], 0),
    ("oracle_msgrel_b3.json",
     ["oracle-msgrel", "--bound", "3", "--keys", "0", "--nonces", "0",
      "--json", "--deterministic"], 0),
    ("parse_error_arity.json",
     ["msg-nf", "(mpair (nonce 1))", "--json", "--deterministic"], 2),
    ("check_rat_congruence.json", ["check", "rat-congruence", "--json", "--deterministic"], 0),
    ("int_eval_err_atom.json", ["int-eval", "x", "--json", "--deterministic"], 2),
    ("int_eval_err_empty.json", ["int-eval", "()", "--json", "--deterministic"], 2),
    ("int_eval_err_arity.json", ["int-eval", "(+ 1)", "--json", "--deterministic"], 2),
    ("int_eval_err_unknown_op.json", ["int-eval", "(xor 1 2)", "--json", "--deterministic"], 2),
    ("int_eval_err_arg_type.json",
     ["int-eval", "(+ (le 1 2) 3)", "--json", "--deterministic"], 2),
    ("int_eval_err_head.json", ["int-eval", "(1 2)", "--json", "--deterministic"], 2),
    ("rat_eval_err_atom.json", ["rat-eval", "x", "--json", "--deterministic"], 2),
    ("rat_eval_err_arity.json", ["rat-eval", "(neg 1 2)", "--json", "--deterministic"], 2),
    ("rat_eval_err_unknown_op.json", ["rat-eval", "(- 1 2)", "--json", "--deterministic"], 2),
]


@pytest.mark.parametrize("golden,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_bytes(golden, argv, code, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    assert rc == code
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("golden,argv,code", CASES[:6], ids=[c[0] for c in CASES[:6]])
def test_repeat_invocations_are_byte_identical(golden, argv, code, capsys):
    cli.main(argv)
    first = capsys.readouterr().out
    cli.main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_schema_fields(capsys):
    cli.main(["int-eval", "7", "--json", "--deterministic"])
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc) == ["budget_used", "elapsed_ms", "payload", "status"]


def test_elapsed_is_measured_without_flag(capsys):
    cli.main(["int-eval", "7", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc["elapsed_ms"], int) and doc["elapsed_ms"] >= 0


def test_refuted_check_embeds_recheckable_counterexample(capsys):
    cli.main(["check", "msg-congruence", "--budget", "500", "--truncated-discrim",
              "--json", "--deterministic"])
    doc = json.loads(capsys.readouterr().out)
    refuted = [r for r in doc["payload"]["results"] if r["verdict"] == "refuted"]
    assert len(refuted) == 1
    lhs, rhs = refuted[0]["counterexample"]
    from quotients.messages import freediscrim_truncated, msg_eq
    from quotients.sexpr import parse_term
    u, v = parse_term(lhs), parse_term(rhs)
    assert msg_eq(u, v)
    assert freediscrim_truncated(u) != freediscrim_truncated(v)


def test_msg_congruence_without_negative_test_passes(capsys):
    rc = cli.main(["check", "msg-congruence", "--budget", "500", "--json", "--deterministic"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["status"] == "ok"
    assert {r["verdict"] for r in doc["payload"]["results"]} == {"certified"}


def test_equivalence_suites(capsys):
    assert cli.main(["check", "int-equivalence", "--json", "--deterministic"]) == 0
    assert cli.main(["check", "msg-equivalence", "--bound", "4", "--json", "--deterministic"]) == 0
    assert cli.main(["check", "rat-congruence", "--json", "--deterministic"]) == 0
    capsys.readouterr()


def test_text_output_smoke(capsys):
    rc = cli.main(["msg-nf", "(crypt 1 (decrypt 1 (nonce 5)))"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "(nonce 5)" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "no-such-suite"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["check", "int-congruence", "--budget", "0"],
    ["check", "int-congruence", "--budget", "-3"],
    ["msg-fn", "nonces", "(nonce 1)", "--budget", "0"],
    ["oracle-msgrel", "--bound", "0"],
    ["check", "msg-equivalence", "--bound", "x"],
], ids=["budget-0", "budget-negative", "msg-fn-budget-0", "bound-0", "bound-not-int"])
def test_non_positive_budget_or_bound_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--json"])
    assert exc.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


def test_unknown_operator_is_an_error(capsys):
    rc = cli.main(["int-eval", "(xor 1 2)", "--json", "--deterministic"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert doc["status"] == "error"
    assert "xor" in doc["payload"]["error"]


def test_domain_error_exit_code(capsys):
    rc = cli.main(["rat-eval", "(inv 0)", "--json", "--deterministic"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert doc["status"] == "error"


def test_round_trip_print_parse(capsys):
    term = "(mpair (crypt 1 (nonce 0)) (decrypt 2 (nonce 3)))"
    rc = cli.main(["msg-nf", term, "--json", "--deterministic"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["payload"]["normal_form"] == term  # already normal


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"budget": 37, "bound": 3, "keys": [0], "nonces": [0]}')
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
        rc = cli.main(["oracle-msgrel", "--json", "--deterministic"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["payload"]["bound"] == 3
        assert doc["payload"]["keys"] == [0] and doc["payload"]["nonces"] == [0]
        rc = cli.main(["check", "int-equivalence", "--json", "--deterministic"])
        from_config = capsys.readouterr().out
        assert rc == 0
        monkeypatch.delenv(cli.CONFIG_ENV)
        cli.main(["check", "int-equivalence", "--budget", "37", "--json", "--deterministic"])
        assert capsys.readouterr().out == from_config

    def test_flags_beat_config(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"bound": 2, "keys": [0]}')
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
        rc = cli.main(["oracle-msgrel", "--bound", "3", "--keys", "0,1",
                       "--json", "--deterministic"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["payload"]["bound"] == 3
        assert doc["payload"]["keys"] == [0, 1]

    def test_bad_config_is_an_error(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"budget": -5}')
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
        rc = cli.main(["check", "int-equivalence", "--json", "--deterministic"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert doc["status"] == "error"

    @pytest.mark.parametrize("config,command", [
        ('{"budget": true}', ["check", "int-equivalence"]),
        ('{"bound": true}', ["oracle-msgrel"]),
        ('{"keys": [true]}', ["oracle-msgrel"]),
        ('{"nonces": [0, false]}', ["oracle-msgrel"]),
    ])
    def test_bool_in_config_is_an_error(self, config, command, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(config)
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
        rc = cli.main(command + ["--json", "--deterministic"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert doc["status"] == "error"

    def test_missing_config_file_is_an_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.CONFIG_ENV, str(tmp_path / "nope.json"))
        rc = cli.main(["int-eval", "1", "--json", "--deterministic"])
        assert rc == 2
        capsys.readouterr()
