"""Command-line front end.

Exit codes: 0 for ok, 1 for a refuted outcome (a counterexample was found,
or a comparison came out false), 2 for usage, parse, or domain errors.
JSON reports have the fixed top-level fields `status`, `payload`,
`budget_used`, and `elapsed_ms`, serialized key-sorted and compact, so a
fixed invocation and config produce byte-identical output (pass
`--deterministic` to pin `elapsed_ms` to 0, e.g. for golden files).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from types import ModuleType
from typing import Callable, Iterable

from .equiv import (
    CongruenceReport,
    EquivalenceReport,
    Record,
    Verdict,
    check_equivalence,
    check_respects,
    lift,
    operation,
    respects2_via_commutativity,
)
from .equiv import check_respects2  # kept: bench/ calls or patches this name
from .errors import ParseError, QuotientError
from .sexpr import SAtom, SList, SNode, parse_sexpr, parse_term, print_term

lift1 = lift  # kept: bench/ calls or patches this name

# A command imports only the construction it runs on.  The constructions,
# and the functions this module takes from them, are bound here on first
# use: by `_load` when a command needs them, or by `__getattr__` when they
# are read from outside (bench/ reads and patches them).
integers: ModuleType
rationals: ModuleType
messages: ModuleType
normalize: Callable
msg_eq: Callable  # kept: bench/ calls or patches this name
_TAKEN = {"normalize": "messages", "msg_eq": "messages"}  # name: its construction
_CONSTRUCTIONS = ("integers", "rationals", "messages")


def _load(construction: str) -> ModuleType:
    """Import `construction` and bind it here, with the names this module
    takes from it; a name already bound (say, patched) is kept."""
    # An import statement's machinery, unlike importlib's, shows in -X importtime.
    module = __import__(f"{__package__}.{construction}", fromlist=["*"])
    scope = globals()
    scope.setdefault(construction, module)
    for name, source in _TAKEN.items():
        if source == construction:
            scope.setdefault(name, getattr(module, name))
    return module


def __getattr__(name: str):
    construction = _TAKEN.get(name, name)
    if construction not in _CONSTRUCTIONS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(construction)
    return globals()[name]


OK, REFUTED, ERROR = "ok", "refuted", "error"
_EXIT = {OK: 0, REFUTED: 1, ERROR: 2}

DEFAULT_BUDGET = 200
MAX_BUDGET = 1_000_000  # checks hold a few hundred bytes per budget unit
CONFIG_ENV = "QUOTIENTS_CONFIG"


def _load_config() -> dict:
    """Defaults from the JSON file named by $QUOTIENTS_CONFIG, if any.
    Explicit flags always win over the file."""
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise QuotientError(f"cannot read config file {path!r}: {exc}")
    if not isinstance(cfg, dict):
        raise QuotientError(f"config file {path!r} must hold a JSON object")
    return cfg


# JSON true and false are bools, which isinstance counts as ints; these
# checks test the exact type.
def _config_nat_list(value, what: str) -> tuple[int, ...]:
    if (not isinstance(value, list) or not value
            or not all(type(v) is int and v >= 0 for v in value)):
        raise QuotientError(f"config {what} must be a non-empty list of naturals")
    return tuple(value)


def _config_positive(value, what: str) -> int:
    if type(value) is not int or value < 1:
        raise QuotientError(f"config {what} must be a positive integer")
    return value


# The suites of `check`, each with the construction it runs on.
SUITES = {"int-equivalence": "integers", "int-congruence": "integers",
          "rat-congruence": "rationals", "msg-equivalence": "messages",
          "msg-congruence": "messages"}


def _resolve_config(args) -> None:
    cfg = _load_config()
    defaults = {"budget": DEFAULT_BUDGET}
    # Only a command that builds a message universe reads its defaults.
    if args.command == "oracle-msgrel" or SUITES.get(getattr(args, "suite", None)) == "messages":
        messages = _load("messages")
        defaults.update(bound=messages.SAMPLING_BOUND, keys=list(messages.DEFAULT_KEYS),
                        nonces=list(messages.DEFAULT_NONCES))
    for name, check in (("budget", _config_positive), ("bound", _config_positive),
                        ("keys", _config_nat_list), ("nonces", _config_nat_list)):
        # A config value is checked for every command with the option; an
        # option without one stays unset where the command does not read it.
        if getattr(args, name, ...) is None and (name in cfg or name in defaults):
            setattr(args, name, check(cfg[name] if name in cfg else defaults[name], name))
    if getattr(args, "budget", 0) > MAX_BUDGET:
        raise QuotientError(f"budget must be at most {MAX_BUDGET}, got {args.budget}")


def _jsonable(x):
    if isinstance(x, Record):  # a message term: the one record a payload holds
        return print_term(x)
    if isinstance(x, frozenset):
        return sorted(x)
    if isinstance(x, (tuple, list)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def _report_dict(r: CongruenceReport | EquivalenceReport, name: str) -> dict:
    out = {"name": name, "verdict": str(r.verdict), "checked": r.checked}
    if isinstance(r, CongruenceReport):
        out["counterexample"] = r.counterexample
        out["note"] = r.note
    else:
        out["law"] = r.law
        out["witness"] = r.witness
    return out


def _emit(args, status: str, payload: dict, budget_used: int, started: float) -> int:
    elapsed_ms = 0 if args.deterministic else int((time.perf_counter() - started) * 1000)
    payload = _jsonable(payload)
    try:
        if args.json:
            doc = {
                "status": status,
                "payload": payload,
                "budget_used": budget_used,
                "elapsed_ms": elapsed_ms,
            }
            sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        else:
            _print_text(status, payload)
    except ValueError:  # an int past the int-to-text digit limit, met before anything is written
        raise QuotientError(f"result has more than {sys.get_int_max_str_digits()} digits") from None
    return _EXIT[status]


def _print_text(status: str, payload: dict) -> None:
    if "results" in payload:
        for item in payload["results"]:
            line = f"{item['name']}: {item['verdict']} (checked {item['checked']})"
            if item.get("counterexample") is not None:
                line += f" counterexample {item['counterexample']}"
            if item.get("witness") is not None:
                line += f" witness {item['witness']} law {item.get('law')}"
            if item.get("note"):
                line += f" [{item['note']}]"
            print(line)
        print(f"overall: {status}")
    else:
        print(f"{status}: " + " ".join(f"{k}={v}" for k, v in sorted(payload.items())))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _parse_domain(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be a comma-separated list of naturals")
    if not values or any(v < 0 for v in values):
        raise argparse.ArgumentTypeError(f"{what} must be a comma-separated list of naturals")
    return values


# ---------------------------------------------------------------------------
# Expression evaluation (shared prefix syntax for the two number algebras)

def _algebra(kind: str, literal, value_type, maps: dict) -> tuple:
    """(kind, literal constructor, value type, {operator: (map, function)}): a
    map into its relation lifts to the value type, any other to a plain value."""
    return kind, literal, value_type, {
        op: (m, operation(m, value_type if m.target_eq is m.sources[0].decider else None))
        for op, m in maps.items()
    }


@functools.cache
def _int_algebra() -> tuple:
    integers = _load("integers")
    return _algebra("integer", integers.from_native, integers.QInt, integers.OPERATIONS)


@functools.cache
def _rat_algebra() -> tuple:
    rationals = _load("rationals")
    return _algebra("rational", rationals.rat_from_native, rationals.QRat,
                    {**rationals.OPERATIONS, **rationals.PARTIAL})


def _evaluate(node: SNode, algebra):
    """The value of a prefix expression, kept on an explicit stack of open
    lists.  Entering a list checks its head, operator and arity; each
    argument's type is checked as soon as that argument has a value."""
    kind, literal, value_type, ops = algebra
    stack = []  # per open list: (operator, function, arguments, their values so far)
    while True:
        if isinstance(node, SList):
            if not node.items or not isinstance(node.items[0], SAtom):
                raise ParseError("expected an operator after '('", node.open_offset)
            head, args = node.items[0], node.items[1:]
            op = head.value
            if op not in ops:
                raise ParseError(f"unknown {kind} operator {op!r}", head.offset)
            m, fn = ops[op]
            arity = len(m.sources)
            if len(args) != arity:
                plural = "s" if arity != 1 else ""
                raise ParseError(f"{op} takes {arity} argument{plural}, got {len(args)}", node.close_offset)
            stack.append((op, fn, args, []))
            node = args[0]  # every operator takes at least one argument
            continue
        if not isinstance(node.value, int):
            raise ParseError(f"unknown {kind} atom {node.value!r}", node.offset)
        value = literal(node.value)
        # Hand the value up through every list it completes.
        while stack:
            op, fn, args, values = stack[-1]
            if not isinstance(value, value_type):
                arg = args[len(values)]
                offset = arg.offset if isinstance(arg, SAtom) else arg.open_offset
                raise ParseError(f"{op} needs {kind} arguments", offset)
            values.append(value)
            if len(values) < len(args):
                break
            stack.pop()
            value = fn(*values)
        else:
            return value
        node = args[len(values)]


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (status, payload, budget used), and
# loads the construction it runs on.

def _cmd_msg_nf(args):
    _load("messages")
    term = parse_term(args.term)
    nf = normalize(term)
    return OK, {"normal_form": print_term(nf)}, 0


def _cmd_msg_eq(args):
    _load("messages")
    lhs, rhs = parse_term(args.lhs), parse_term(args.rhs)
    lnf, rnf = normalize(lhs), normalize(rhs)
    equal = lnf == rnf
    payload = {"equal": equal, "lhs_nf": print_term(lnf), "rhs_nf": print_term(rnf)}
    return OK if equal else REFUTED, payload, 0


def _cmd_msg_fn(args):
    messages = _load("messages")
    rmap = messages.FREE_MAPS[args.function]
    term = parse_term(args.term)
    cert = check_respects(rmap, args.budget) if args.strict else None
    lifted = lift(cert) if args.strict else operation(rmap)
    payload = {
        "function": args.function,
        "result": lifted(messages.msg(term)),
        "certified": args.strict,
    }
    return OK, payload, cert.checked if cert else 0


def _cmd_int_eval(args):
    integers = _load("integers")
    value = _evaluate(parse_sexpr(args.expr), _int_algebra())
    if isinstance(value, integers.QInt):
        return OK, {"value": integers.to_native(value), "pair": list(value.pair)}, 0
    return REFUTED if value is False else OK, {"value": value}, 0  # le's bool or nat's int


def _cmd_rat_eval(args):
    value = _evaluate(parse_sexpr(args.expr), _rat_algebra())
    return OK, {"num": value.num, "den": value.den}, 0


def _suite(args) -> list[tuple]:
    """(check, relation or map, report name) per check of the suite, built
    per call so that checks patched into this module (bench/spans.py) run."""
    module = _load(SUITES[args.suite])
    if args.suite == "int-equivalence":
        return [(check_equivalence, module.intrel, "intrel")]
    if args.suite in ("int-congruence", "rat-congruence"):
        commutative = [module.OPERATIONS[op] for op in module.COMMUTATIVE]
        return ([(check_respects, m, m.name) for m in module.OPERATIONS.values()]
                + [(respects2_via_commutativity, m, f"{m.name}/commutative") for m in commutative])
    rel = module.msg_relation(args.bound, args.keys, args.nonces)
    if args.suite == "msg-equivalence":
        return [(check_equivalence, rel, rel.name)]
    maps = list(module.free_maps(rel).values())
    if args.truncated_discrim:
        maps.append(module.truncated_discrim_map(rel))
    return [(check_respects, rmap, rmap.name) for rmap in maps]


def _cmd_check(args):
    results = [_report_dict(check(subject, args.budget), name)
               for check, subject, name in _suite(args)]
    verdicts = {item["verdict"] for item in results}
    if str(Verdict.REFUTED) in verdicts:
        status = REFUTED
    elif str(Verdict.NO_SAMPLES) in verdicts:
        status = ERROR
    else:
        status = OK
    payload = {"suite": args.suite, "results": results}
    return status, payload, sum(item["checked"] for item in results)


def _cmd_oracle_msgrel(args):
    messages = _load("messages")
    keys, nonces = messages._domains(args.keys, args.nonces)  # as counted
    sizes = messages.class_sizes(args.bound, keys, nonces)
    payload = {
        "bound": args.bound,
        "keys": list(keys),
        "nonces": list(nonces),
        "universe": sum(sizes),
        "classes": len(sizes),
        "pairs": sum(n * n for n in sizes),
    }
    return OK, payload, 0


# ---------------------------------------------------------------------------
# Arguments, per command

def _args_msg_nf(p: argparse.ArgumentParser) -> None:
    p.add_argument("term")


def _args_msg_eq(p: argparse.ArgumentParser) -> None:
    p.add_argument("lhs")
    p.add_argument("rhs")


def _args_msg_fn(p: argparse.ArgumentParser) -> None:
    p.add_argument("function", choices=sorted(_load("messages").FREE_MAPS))
    p.add_argument("term")
    p.add_argument("--budget", type=_positive_int, default=None,
                   help=f"congruence-check budget (default {DEFAULT_BUDGET})")
    p.add_argument("--strict", dest="strict", action="store_true", default=True,
                   help="require a certified congruence check before lifting (default)")
    p.add_argument("--unchecked", dest="strict", action="store_false",
                   help="lift without a certificate; the report flags it")


def _args_eval(p: argparse.ArgumentParser) -> None:
    p.add_argument("expr")


def _args_check(p: argparse.ArgumentParser) -> None:
    p.add_argument("suite", choices=list(SUITES))
    p.add_argument("--budget", type=_positive_int, default=None,
                   help=f"check budget (default {DEFAULT_BUDGET})")
    p.add_argument("--truncated-discrim", action="store_true",
                   help="include the truncated discriminator negative test "
                        "in msg-congruence")
    _args_domains(p)


def _args_domains(p: argparse.ArgumentParser) -> None:
    # --bound's help gets its default from _HelpFormatter.
    p.add_argument("--bound", type=_positive_int, default=None,
                   help="term-size bound for the message universe")
    p.add_argument("--keys", type=lambda s: _parse_domain(s, "--keys"),
                   default=None, help="key domain, e.g. 0,1 (the default)")
    p.add_argument("--nonces", type=lambda s: _parse_domain(s, "--nonces"),
                   default=None, help="nonce domain, e.g. 0,1 (the default)")


class _HelpFormatter(argparse.HelpFormatter):
    """Reads the message universe's default bound into --bound's help only
    when help is printed, so that building a parser does not import
    `messages`."""

    def _get_help_string(self, action: argparse.Action) -> str:
        if action.dest == "bound":
            return f"{action.help} (default {_load('messages').SAMPLING_BOUND})"
        return action.help


# Per command: its help, what adds its arguments, and its handler.
COMMANDS = {
    "msg-nf": ("normalize a message term", _args_msg_nf, _cmd_msg_nf),
    "msg-eq": ("decide equality of two message terms", _args_msg_eq, _cmd_msg_eq),
    "msg-fn": ("apply a lifted message function", _args_msg_fn, _cmd_msg_fn),
    "int-eval": ("evaluate a prefix integer expression", _args_eval, _cmd_int_eval),
    "rat-eval": ("evaluate a prefix rational expression", _args_eval, _cmd_rat_eval),
    "check": ("run a bounded equivalence/congruence suite", _args_check, _cmd_check),
    "oracle-msgrel": ("summarize the rule-closure oracle", _args_domains, _cmd_oracle_msgrel),
}


def build_parser(commands: Iterable[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Every command is listed, so the top-level
    usage, help and errors do not depend on `commands`; only the commands
    named in `commands` (by default all) get their arguments, so a parser
    built for one command imports nothing that another needs."""
    parser = argparse.ArgumentParser(
        prog="quotients",
        description="Quotient constructions: normalize terms, evaluate quotient "
                    "arithmetic, and run bounded equivalence/congruence checks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_arguments, handler) in COMMANDS.items():
        p = subs.add_parser(name, help=summary, formatter_class=_HelpFormatter)
        if commands is None or name in commands:
            add_arguments(p)
            p.add_argument("--json", action="store_true", help="emit a JSON report")
            p.add_argument("--deterministic", action="store_true",
                           help="pin elapsed_ms to 0 for byte-stable output")
            p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    argv = sys.argv[1:] if argv is None else argv
    # argparse runs the first positional argument as the command, and no
    # command name starts with "-": so the command it runs, if any, is the
    # first argument that names one.
    parser = build_parser([next((a for a in argv if a in COMMANDS), None)])
    args = parser.parse_args(argv)
    # argparse can take "--budget=--" as an empty list of values without
    # calling the option's type function.
    for name, value in vars(args).items():
        if value == []:
            parser.error(f"argument --{name}: expected one argument")
    try:
        _resolve_config(args)
        return _emit(args, *args.handler(args), started)
    # A stray ValueError is unhandled input, not refutation.
    except (QuotientError, ValueError) as exc:
        payload = {"error": str(exc)}
        if isinstance(exc, ParseError):
            payload["offset"] = exc.offset
        return _emit(args, ERROR, payload, 0, started)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
