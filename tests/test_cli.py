"""Command-line behavior: golden JSON bytes, exit codes, determinism."""

import argparse
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

from quotients import cli, integers, messages, rationals
from quotients.equiv import EquivalenceReport, Verdict
from quotients.integers import IntPair, qint

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
    # Above the default bound: the universe's terms are built only as far
    # as the budget's pairs reach.
    ("check_msg_congruence_b8_truncated.json",
     ["check", "msg-congruence", "--bound", "8", "--budget", "2000", "--truncated-discrim",
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


# The bytes CI pins for these suites at --budget 20000.
WARM_PINS = {
    "int-equivalence": '{"budget_used":86020,"elapsed_ms":0,"payload":{"results":[{"checked":86020,"law":null,"name":"intrel","verdict":"certified","witness":null}],"suite":"int-equivalence"},"status":"ok"}',
    "int-congruence": '{"budget_used":159216,"elapsed_ms":0,"payload":{"results":[{"checked":20000,"counterexample":null,"name":"neg","note":null,"verdict":"certified"},{"checked":20000,"counterexample":null,"name":"nat","note":null,"verdict":"certified"},{"checked":20000,"counterexample":null,"name":"add","note":null,"verdict":"certified"},{"checked":20000,"counterexample":null,"name":"mul","note":null,"verdict":"certified"},{"checked":20000,"counterexample":null,"name":"le","note":null,"verdict":"certified"},{"checked":20000,"counterexample":null,"name":"sub","note":null,"verdict":"certified"},{"checked":19608,"counterexample":null,"name":"add/commutative","note":"via commutativity and single-argument respect","verdict":"certified"},{"checked":19608,"counterexample":null,"name":"mul/commutative","note":"via commutativity and single-argument respect","verdict":"certified"}],"suite":"int-congruence"},"status":"ok"}',
    "rat-congruence": '{"budget_used":100000,"elapsed_ms":0,"payload":{"results":[{"checked":20000,"counterexample":null,"name":"rat_neg","note":null,"verdict":"certified"},{"checked":20000,"counterexample":null,"name":"rat_add","note":null,"verdict":"certified"},{"checked":20000,"counterexample":null,"name":"rat_mul","note":null,"verdict":"certified"},{"checked":20000,"counterexample":null,"name":"rat_add/commutative","note":"via commutativity and single-argument respect","verdict":"certified"},{"checked":20000,"counterexample":null,"name":"rat_mul/commutative","note":"via commutativity and single-argument respect","verdict":"certified"}],"suite":"rat-congruence"},"status":"ok"}',
}


@pytest.mark.parametrize("suite", sorted(WARM_PINS))
def test_warm_process_gives_pinned_bytes(suite, capsys):
    # The second run reads the pairs the first one kept.
    argv = ["check", suite, "--budget", "20000", "--json", "--deterministic"]
    for _ in range(2):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == WARM_PINS[suite] + "\n"


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
    # No suite's relation is refuted, so a refuted report is printed directly.
    refuted = cli._report_dict(EquivalenceReport(Verdict.REFUTED, 2, "symmetry", (1, 2)), "r")
    args = argparse.Namespace(json=False, deterministic=True)
    assert cli._emit(args, cli.REFUTED, {"results": [refuted]}, 2, 0.0) == 1
    assert capsys.readouterr().out == (
        "r: refuted (checked 2) witness [1, 2] law symmetry\noverall: refuted\n")


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


def _readme_python() -> list[tuple[object, str]]:
    """Runs the README's python block line by line and gives, for each bare
    expression, its value and its comment up to ", i.e."."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace: dict = {}
    shown = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expression = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
        else:
            shown.append((eval(expression, namespace), comment.partition(", i.e.")[0].strip()))
    return shown


def test_readme_examples(capsys):
    examples = _readme_examples()
    assert [argv[0] for argv, _ in examples] == ["int-eval", "check"]
    for argv, expected in examples:
        cli.main(argv)
        assert capsys.readouterr().out == expected
    (negated, negated_comment), (added, added_comment) = _readme_python()
    assert (negated, negated_comment) == (IntPair(0, 2), "IntPair(0, 2)")
    assert (added, repr(added), added_comment) == (qint(0, 3), "QInt(0, 3)", "QInt(0, 3)")


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
    ["msg-nf", "(crypt 0 " * 1200 + "(nonce 0)" + ")" * 1199],
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


@pytest.mark.parametrize("command", ["int-eval", "rat-eval"])
@pytest.mark.parametrize("json_flag", [["--json"], []], ids=["json", "text"])
def test_result_past_the_digit_limit_is_worded_for_the_cli(command, json_flag, capsys):
    nines = "9" * 3000
    rc = cli.main([command, f"(* {nines} {nines})", "--deterministic", *json_flag])
    out = capsys.readouterr().out
    assert rc == 2
    limit = sys.get_int_max_str_digits()
    if json_flag:
        assert json.loads(out) == {"status": "error", "budget_used": 0, "elapsed_ms": 0,
                                   "payload": {"error": f"result has more than {limit} digits"}}
    else:
        assert out == f"error: error=result has more than {limit} digits\n"
    assert "set_int_max_str_digits" not in out


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
# The readers, the evaluator and the msg-* commands take any depth, so a
# term or an expression 100,000 deep gets a result, and 5000 unclosed
# parentheses or a 100,000-deep term malformed only at its leaf (read twice
# at full depth) are a parse error.
_DEEP_TERM = "(crypt 0 " * 100_000 + "(nonce 0)" + ")" * 100_000
_DEEP_EXPR = "(neg " * 100_000 + "1" + ")" * 100_000
_UNCLOSED = "(" * 5000
_DEEP_BAD_TERM = "(crypt 0 " * 100_000 + "(nonce x)" + ")" * 100_000


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([
    ["msg-nf"], ["msg-eq"], ["msg-fn", "left", "--unchecked"],
    ["msg-fn", "discrim", "--unchecked"], ["int-eval"], ["rat-eval"],
]), _TEXT, _TEXT)
@example(["int-eval"], _PRODUCT, "")
@example(["rat-eval"], _PRODUCT, "")
@example(["msg-nf"], _DEEP_TERM, "")
@example(["msg-nf"], _DEEP_BAD_TERM, "")
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


def _same_map(a, b) -> bool:
    # Other tests clear the message relation cache, so the suite's default
    # universe may be a new relation object, the same relation as msgrel.
    return (a.function is b.function and a.target_eq is b.target_eq
            and len(a.sources) == len(b.sources)
            and all(r.same_as(s) for r, s in zip(a.sources, b.sources)))


def test_every_cli_operation_is_certified_by_its_suite(monkeypatch):
    # Every int-eval and rat-eval symbol and every msg-fn choice has its map
    # among those its construction's check suite runs, unless the module
    # declares it partial.
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    msg_fns = next(a for a in commands["msg-fn"]._actions if a.dest == "function").choices
    tables = [
        ("int-congruence", {op: m for op, (m, _) in cli._int_algebra()[3].items()}, {}),
        ("rat-congruence", {op: m for op, (m, _) in cli._rat_algebra()[3].items()},
         rationals.PARTIAL),
        ("msg-congruence", {fn: messages.FREE_MAPS[fn] for fn in msg_fns}, {}),
    ]
    for suite, table, partial in tables:
        args = cli.build_parser().parse_args(["check", suite])
        cli._resolve_config(args)
        checked = [subject for _, subject, _ in cli._suite(args)]
        assert [op for op, m in table.items()
                if not any(_same_map(m, c) for c in checked) and partial.get(op) is not m] == []
    assert sorted(rationals.PARTIAL) == ["inv"]


@settings(max_examples=150, deadline=None)
@given(st.integers(-10**30 + 1, 10**30 - 1), st.integers(-10**30 + 1, 10**30 - 1))
def test_subtraction_matches_native(a, b):
    assert integers.to_native(integers.sub(integers.from_native(a), integers.from_native(b))) == a - b
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["int-eval", "--json", "--deterministic", "--", f"(- {a} {b})"])
    assert rc == 0
    assert json.loads(out.getvalue())["payload"]["value"] == a - b


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


def test_deep_terms_are_compared(capsys):
    # 100,000 deep: a crypt chain, a chain of cancelling crypt/decrypt pairs
    # and a pair spine; and a 1200-deep chain, just past the default
    # recursion limit.  Reading, normal forms, ==, printing and the free
    # functions take any depth.
    def run(command, *texts):
        rc = cli.main(command + ["--json", "--"] + list(texts))
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == ("ok" if rc == 0 else "refuted")
        return rc, doc["payload"]

    n = 100_000
    pair = "(mpair (nonce 0) (nonce 1))"
    chain = "(crypt 0 " * n + "(nonce 0)" + ")" * n
    cancelling = "(crypt 0 (decrypt 0 " * (n // 2) + pair + "))" * (n // 2)
    spine = "(mpair (nonce 1) " * n + "(nonce 0)" + ")" * n
    short = "(crypt 0 " * 1200 + "(nonce 0)" + ")" * 1200
    assert run(["msg-nf"], short) == (0, {"normal_form": short})
    for term, nf, left, nonces, discrim in [
        (chain, chain, "(nonce 0)", [0], 2 * n),
        (cancelling, pair, "(nonce 0)", [0, 1], 1),
        (spine, spine, "(nonce 1)", [0, 1], 1),
    ]:
        assert run(["msg-nf"], term) == (0, {"normal_form": nf})
        assert run(["msg-eq"], term, term) == (0, {"equal": True, "lhs_nf": nf, "rhs_nf": nf})
        for function, result in [("left", left), ("nonces", nonces), ("discrim", discrim)]:
            rc, payload = run(["msg-fn", function], term)
            assert rc == 0 and payload["result"] == result and payload["certified"] is True
    assert run(["msg-eq"], chain, cancelling) == (1, {"equal": False, "lhs_nf": chain, "rhs_nf": pair})


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


_COLD_START_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from quotients import cli
rcs = [cli.main(["int-eval", "(* 2 -3)", "--json"]),
       cli.main(["msg-nf", "(crypt 1 (decrypt 1 (nonce 0)))", "--json"])]
sys.stderr.write(json.dumps({"rcs": rcs, "modules": sorted(sys.modules)}))
"""


def test_cold_start_skips_introspection_modules():
    # A CLI call pays for every import; the records are plain slotted
    # classes, so none of dataclasses' own imports is needed.
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", _COLD_START_PROBE, src],
                          capture_output=True, text=True, timeout=60)
    result = json.loads(proc.stderr)
    assert result["rcs"] == [0, 0]
    assert [json.loads(line)["status"] for line in proc.stdout.splitlines()] == ["ok", "ok"]
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(result["modules"])


HELP = json.loads((GOLDEN / "help_usage.json").read_text())


def _usage(run, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("case", HELP["cases"],
                         ids=[" ".join(c["argv"]) or "no-arguments" for c in HELP["cases"]])
def test_help_and_usage_bytes(case, monkeypatch):
    # The parser main builds for one command prints what the parser of
    # every command prints.  argparse's wording differs between Python
    # versions, so the golden pins the bytes of the version it was taken on.
    monkeypatch.setenv("COLUMNS", str(HELP["columns"]))
    got = _usage(cli.main, case["argv"])
    assert got == _usage(lambda argv: cli.build_parser().parse_args(argv), case["argv"])
    if "%d.%d" % sys.version_info[:2] == HELP["python"]:
        assert got == case


_COMMAND_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from quotients import cli
try:
    rc = cli.main(sys.argv[2:])
except SystemExit as exc:
    rc = exc.code
sys.stderr.write(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""

# (argv, its exit code, the constructions a fresh interpreter running it loads)
COMMAND_LOADS = [
    (["int-eval", "(nat (* 2 -3))"], 0, {"integers"}),
    (["rat-eval", "(+ 1 (inv 2))"], 0, {"rationals"}),
    (["msg-nf", "(crypt 1 (decrypt 1 (nonce 0)))"], 0, {"messages"}),
    (["msg-eq", "(nonce 0)", "(nonce 1)"], 1, {"messages"}),
    (["msg-fn", "left", "(mpair (nonce 0) (nonce 1))"], 0, {"messages"}),
    (["check", "msg-equivalence", "--bound", "3"], 0, {"messages"}),
    (["check", "msg-congruence", "--bound", "3"], 0, {"messages"}),
    (["check", "int-equivalence", "--budget", "20"], 0, {"integers"}),
    (["check", "int-congruence", "--budget", "20"], 0, {"integers"}),
    (["check", "rat-congruence", "--budget", "20"], 0, {"rationals"}),
    (["oracle-msgrel", "--bound", "3"], 0, {"messages"}),
    (["int-eval", "--help"], 0, set()),
    (["check", "--help"], 0, {"messages"}),  # --bound's help names its default
    (["bogus"], 2, set()),
]


@pytest.mark.parametrize("argv,code,constructions", COMMAND_LOADS,
                         ids=[" ".join(argv[:2]) for argv, _, _ in COMMAND_LOADS])
def test_each_command_loads_only_its_construction(argv, code, constructions):
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", _COMMAND_PROBE, src, *argv],
                          capture_output=True, text=True, timeout=60)
    result = json.loads(proc.stderr.splitlines()[-1])
    assert result["rc"] == code
    loaded = {m.removeprefix("quotients.") for m in result["modules"] if m.startswith("quotients.")}
    assert loaded == {"cli", "equiv", "errors", "sexpr"} | constructions


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


def test_oracle_msgrel_reports_the_domains_it_counted(capsys):
    # Repeated or unordered values name the universe `check` names: the
    # domains sorted, each value once.
    rc = cli.main(["oracle-msgrel", "--bound", "3", "--keys", "1,0,1", "--nonces", "1,0",
                   "--json", "--deterministic"])
    doc = json.loads(capsys.readouterr().out)
    cli.main(["oracle-msgrel", "--bound", "3", "--json", "--deterministic"])
    assert rc == 0 and doc == json.loads(capsys.readouterr().out)
    assert doc["payload"]["keys"] == doc["payload"]["nonces"] == [0, 1]


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

    def test_config_not_utf8_is_unreadable(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b'\xff{"budget": 5}')
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
        rc = cli.main(["int-eval", "1", "--json", "--deterministic"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert doc["payload"]["error"].startswith(f"cannot read config file {str(cfg)!r}: ")
        assert "can't decode byte 0xff" in doc["payload"]["error"]

    def test_missing_config_file_is_an_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.CONFIG_ENV, str(tmp_path / "nope.json"))
        rc = cli.main(["int-eval", "1", "--json", "--deterministic"])
        assert rc == 2
        capsys.readouterr()
