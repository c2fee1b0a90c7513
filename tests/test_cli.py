"""Command-line behavior: golden JSON bytes, exit codes, determinism."""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

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


# Each golden's argv without --json, mapped to [exit code, stdout].
TEXT_OUTPUTS = json.loads((GOLDEN / "text_outputs.json").read_text())


@pytest.mark.parametrize("golden,argv,code", CASES, ids=[c[0] for c in CASES])
def test_text_bytes(golden, argv, code, capsys):
    rc = cli.main([a for a in argv if a != "--json"])
    assert [rc, capsys.readouterr().out] == TEXT_OUTPUTS[golden]


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_examples() -> list[tuple[list[str], str]]:
    """(argv, expected stdout) for each `$ quotients ...` paragraph of the
    README's sh blocks: the command line, then its output lines."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for paragraph in block.split("\n\n"):
            if paragraph.startswith("$ quotients "):
                command, _, output = paragraph.partition("\n")
                examples.append((shlex.split(command)[2:], output.rstrip("\n") + "\n"))
    return examples


def test_readme_examples(capsys):
    examples = _readme_examples()
    assert [argv[0] for argv, _ in examples] == ["int-eval", "check"]
    for argv, expected in examples:
        cli.main(argv)
        assert capsys.readouterr().out == expected


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


BIG = "1" + "0" * 3000


@pytest.mark.parametrize("argv", [
    ["int-eval", f"(* {BIG} {BIG})"],
    ["rat-eval", f"(* {BIG} {BIG})"],
    ["msg-nf", "(crypt 0 " * 1200 + "(nonce 0)" + ")" * 1200],
    ["oracle-msgrel", "--bound", "100000"],
    ["check", "msg-equivalence", "--bound", "3000"],
], ids=["int-eval-digits", "rat-eval-digits", "msg-nf-deep", "oracle-huge-bound",
        "check-huge-bound"])
def test_unhandled_input_is_an_error_report(argv, capsys):
    rc = cli.main(argv + ["--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert sorted(doc) == ["budget_used", "elapsed_ms", "payload", "status"]
    assert doc["status"] == "error"


@pytest.mark.parametrize("source", ["flag", "config"])
def test_budget_above_limit_is_an_error_report(source, tmp_path, monkeypatch, capsys):
    argv = ["check", "int-congruence", "--json"]
    if source == "flag":
        argv += ["--budget", str(cli.MAX_BUDGET + 1)]
    else:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"budget": cli.MAX_BUDGET + 1}))
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    rc = cli.main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert sorted(doc) == ["budget_used", "elapsed_ms", "payload", "status"]
    assert doc["status"] == "error"
    assert f"at most {cli.MAX_BUDGET}" in doc["payload"]["error"]


# Positional text is passed after "--" so that argparse never reads it as an
# option; argparse's own usage errors exit 2 with usage text on stderr.  Half
# the texts are prefix expressions whose heads are operators or constructors
# with their arity, so evaluation is reached; integers of 2200 digits and
# more let products pass the int-to-text limit.
_ARITY = {"nonce": 1, "mpair": 2, "crypt": 2, "decrypt": 2, "+": 2, "-": 2, "*": 2,
          "neg": 1, "nat": 1, "le": 2, "inv": 1}
_NUMBER = st.one_of(st.integers(-3, 3), st.integers(-10**40, 10**40),
                    st.integers(10**2200, 10**2300)).map(str)
_EXPR = st.recursive(
    _NUMBER,
    lambda sub: st.sampled_from(sorted(_ARITY)).flatmap(
        lambda head: st.lists(sub, min_size=_ARITY[head], max_size=_ARITY[head]).map(
            lambda args: "(" + " ".join((head, *args)) + ")")),
    max_leaves=8,
)
_JUNK = st.one_of(st.sampled_from(["(", ")", "x", "#", "1.5", "--json", "9" * 5000, *_ARITY]),
                  st.text(max_size=3))
_TEXT = st.one_of(_EXPR, st.lists(st.one_of(_EXPR, _JUNK), max_size=4).map(" ".join))
# Random draws rarely multiply two such integers, so every run does: the
# 4400-digit product is past the int-to-text limit.
_PRODUCT = f"(* {'9' * 2200} {'9' * 2200})"
# The reader and the evaluator take any depth; a term 100,000 deep then
# passes the recursion limit of the term builder (exit 2), and 5000 unclosed
# parentheses are a parse error.
_DEEP_TERM = "(crypt 0 " * 100_000 + "(nonce 0)" + ")" * 100_000
_DEEP_EXPR = "(neg " * 100_000 + "1" + ")" * 100_000
_UNCLOSED = "(" * 5000


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([
    ["msg-nf"], ["msg-eq"], ["msg-fn", "left", "--unchecked"],
    ["msg-fn", "discrim", "--unchecked"], ["int-eval"], ["rat-eval"],
]), _TEXT, _TEXT)
@example(["int-eval"], _PRODUCT, "")
@example(["rat-eval"], _PRODUCT, "")
@example(["msg-nf"], _DEEP_TERM, "")
@example(["int-eval"], _DEEP_EXPR, "")
@example(["msg-eq"], _UNCLOSED, _DEEP_TERM)
def test_exit_code_contract(command, lhs, rhs):
    texts = [lhs, rhs] if command == ["msg-eq"] else [lhs]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(command + ["--json", "--"] + texts)
    assert rc in (0, 1, 2)
    assert sorted(json.loads(out.getvalue())) == ["budget_used", "elapsed_ms", "payload", "status"]


# Option values are positive, zero, negative, huge or not numbers, passed as
# "--flag=value" so argparse never reads a value as an option.  Runs that
# pass must stay cheap: positive bounds are 1-6, or 13 and up, where every
# non-empty domain is past the universe cap, which exits 2 before
# enumerating; positive budgets are at most 2000 or past MAX_BUDGET; domains
# hold one or two values.
_NOT_A_NUMBER = st.sampled_from(["", " ", "x", "1.5", "1e3", "0x10", "--", "9" * 5000])
_HUGE = st.integers(10**30, 10**40)
_BUDGET = st.one_of(st.integers(1, 2000), st.integers(cli.MAX_BUDGET + 1, 10**40),
                    st.integers(-10**40, 0))
_BOUND = st.one_of(st.integers(1, 6), st.integers(13, 10**40), st.integers(-10**40, 0))
_DOMAIN = st.lists(st.one_of(st.integers(0, 3), st.integers(-3, -1), _HUGE),
                   min_size=1, max_size=2)
_FLAGS = {
    "--budget": st.one_of(_BUDGET.map(str), _NOT_A_NUMBER),
    "--bound": st.one_of(_BOUND.map(str), _NOT_A_NUMBER),
    "--keys": st.one_of(_DOMAIN.map(lambda v: ",".join(map(str, v))), _NOT_A_NUMBER),
    "--nonces": st.one_of(_DOMAIN.map(lambda v: ",".join(map(str, v))), _NOT_A_NUMBER),
}
_COMMANDS = [
    (["check", "msg-congruence", "--truncated-discrim"], ["--budget", "--bound", "--keys", "--nonces"]),
    (["check", "msg-equivalence"], ["--budget", "--bound", "--keys", "--nonces"]),
    (["oracle-msgrel"], ["--bound", "--keys", "--nonces"]),
    (["msg-fn", "discrim", "(crypt 0 (nonce 1))"], ["--budget"]),
]
_INVOCATION = st.sampled_from(_COMMANDS).flatmap(lambda cmd: st.tuples(
    st.just(cmd[0]), st.fixed_dictionaries({}, optional={f: _FLAGS[f] for f in cmd[1]})))
# Config files: fields of the right type and value, of a wrong JSON type
# (bools, floats, strings, nested lists and objects), a non-object document,
# text that is mostly not JSON, raw bytes, or a path that does not exist.
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), _HUGE, st.floats(), st.text(max_size=3)),
    lambda sub: st.one_of(st.lists(sub, max_size=3), st.dictionaries(st.text(max_size=3), sub, max_size=3)),
    max_leaves=5,
)
_CONFIG_FIELDS = {
    "budget": st.one_of(_BUDGET, _JSON),
    "bound": st.one_of(_BOUND, _JSON),
    "keys": st.one_of(_DOMAIN, _JSON),
    "nonces": st.one_of(_DOMAIN, _JSON),
}
_MISSING = "missing"
_CONFIG = st.one_of(
    st.none(),
    st.just(_MISSING),
    st.fixed_dictionaries({}, optional=_CONFIG_FIELDS).map(json.dumps),
    _JSON.map(json.dumps),
    st.text(max_size=5),
    st.binary(max_size=5),
)


@settings(max_examples=150, deadline=None)
@given(_INVOCATION, _CONFIG)
@example((["check", "msg-congruence", "--truncated-discrim"], {"--budget": "--"}), None)
@example((["oracle-msgrel"], {"--keys": "--"}), None)
def test_exit_code_contract_for_options_and_config(invocation, config):
    command, flags = invocation
    argv = command + [f"{flag}={value}" for flag, value in flags.items()] + ["--json"]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        if isinstance(config, bytes):
            Path(path).write_bytes(config)
        elif config not in (None, _MISSING):
            Path(path).write_text(config)
        env = {cli.CONFIG_ENV: "" if config is None else path}
        with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse's usage error, text on stderr
                assert exc.code == 2 and out.getvalue() == ""
                return
    assert rc in (0, 1, 2)
    assert sorted(json.loads(out.getvalue())) == ["budget_used", "elapsed_ms", "payload", "status"]


def test_unknown_operator_is_an_error(capsys):
    rc = cli.main(["int-eval", "(xor 1 2)", "--json", "--deterministic"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert doc["status"] == "error"
    assert "xor" in doc["payload"]["error"]


# The evaluator checks a list's head, operator and arity on entering it, and
# each argument's type as soon as that argument has a value.
@pytest.mark.parametrize("expr,error,offset", [
    ("(+ (le 1 2) (xor 1 2))", "+ needs integer arguments", 3),
    ("(+ (xor 1 2) (le 1 2))", "unknown integer operator 'xor'", 4),
    ("(+ 1 (neg 1 2) (foo))", "+ takes 2 arguments, got 3", 20),
], ids=["type-before-later-operator", "operator-before-later-type", "arity-before-arguments"])
def test_evaluation_error_order(expr, error, offset, capsys):
    rc = cli.main(["int-eval", "--json", "--deterministic", "--", expr])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert doc["payload"] == {"error": f"{error} (at offset {offset})", "offset": offset}


@pytest.mark.parametrize("command,payload", [
    ("int-eval", {"value": 1, "pair": [1, 0]}),
    ("rat-eval", {"num": 1, "den": 1}),
])
def test_deep_expression_is_evaluated(command, payload, capsys):
    rc = cli.main([command, "--json", "--deterministic", "--", _DEEP_EXPR])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["status"] == "ok" and doc["payload"] == payload


_STDLIB_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from quotients import cli, messages, rationals
rc = cli.main(["check", "msg-congruence", "--bound", "3", "--budget", "20", "--json"])
sys.stderr.write(json.dumps({"rc": rc, "modules": sorted({m.partition(".")[0] for m in sys.modules})}))
"""


def test_runtime_is_stdlib_only():
    # -I -S: no site packages, no user paths, no environment variables.
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", _STDLIB_PROBE, src],
                          capture_output=True, text=True, timeout=60)
    result = json.loads(proc.stderr)
    assert result["rc"] == 0 and json.loads(proc.stdout)["status"] == "ok"
    outside = set(result["modules"]) - set(sys.stdlib_module_names) - {"quotients", "__main__"}
    assert not outside


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
