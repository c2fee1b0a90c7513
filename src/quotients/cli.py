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
import json
import os
import sys
import time

from . import integers, messages, rationals
from .equiv import (
    CongruenceReport,
    EquivalenceReport,
    Verdict,
    check_equivalence,
    check_respects,
    lift,
    respects2_via_commutativity,
)
from .equiv import check_respects2  # kept: bench/ calls or patches this name
from .errors import ParseError, QuotientError
from .messages import FreeMsg, normalize
from .messages import msg_eq  # kept: bench/ calls or patches this name
from .sexpr import SAtom, SList, SNode, parse_sexpr, parse_term, print_term

lift1 = lift  # kept: bench/ calls or patches this name

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
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
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


def _resolve_config(args) -> None:
    cfg = _load_config()
    for name, default, check in (
        ("budget", DEFAULT_BUDGET, _config_positive),
        ("bound", messages.SAMPLING_BOUND, _config_positive),
        ("keys", list(messages.DEFAULT_KEYS), _config_nat_list),
        ("nonces", list(messages.DEFAULT_NONCES), _config_nat_list),
    ):
        if getattr(args, name, ...) is None:
            setattr(args, name, check(cfg.get(name, default), name))
    if getattr(args, "budget", 0) > MAX_BUDGET:
        raise QuotientError(f"budget must be at most {MAX_BUDGET}, got {args.budget}")


def _jsonable(x):
    if isinstance(x, FreeMsg):
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

# (kind, literal constructor, value type, {operator: (arity, function)})
_INT_ALGEBRA = ("integer", integers.from_native, integers.QInt, {
    "+": (2, integers.add),
    "-": (2, lambda a, b: integers.add(a, integers.neg(b))),
    "*": (2, integers.mul),
    "neg": (1, integers.neg),
    "nat": (1, integers.to_nat),
    "le": (2, integers.le),
})
_RAT_ALGEBRA = ("rational", rationals.rat_from_native, rationals.QRat, {
    "+": (2, rationals.rat_add),
    "*": (2, rationals.rat_mul),
    "neg": (1, rationals.rat_neg),
    "inv": (1, rationals.rat_inv),
})


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
            arity, fn = ops[op]
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
# Subcommand handlers: each returns (status, payload, budget used)

def _cmd_msg_nf(args):
    term = parse_term(args.term)
    nf = normalize(term)
    return OK, {"normal_form": print_term(nf)}, 0


def _cmd_msg_eq(args):
    lhs, rhs = parse_term(args.lhs), parse_term(args.rhs)
    lnf, rnf = normalize(lhs), normalize(rhs)
    equal = lnf == rnf
    payload = {"equal": equal, "lhs_nf": print_term(lnf), "rhs_nf": print_term(rnf)}
    return OK if equal else REFUTED, payload, 0


_MSG_FNS = {
    "nonces": messages.FREENONCES_MAP,
    "left": messages.FREELEFT_MAP,
    "right": messages.FREERIGHT_MAP,
    "discrim": messages.FREEDISCRIM_MAP,
}


def _cmd_msg_fn(args):
    rmap = _MSG_FNS[args.function]
    term = parse_term(args.term)
    cert = check_respects(rmap, args.budget) if args.strict else None
    lifted = lift(cert, rmap, strict=args.strict)
    result = lifted(messages.msg(term))
    payload = {
        "function": args.function,
        "result": result,
        "certified": lifted.checked,
    }
    return OK, payload, cert.checked if cert else 0


def _cmd_int_eval(args):
    value = _evaluate(parse_sexpr(args.expr), _INT_ALGEBRA)
    if isinstance(value, integers.QInt):
        return OK, {"value": integers.to_native(value), "pair": list(value.pair)}, 0
    return REFUTED if value is False else OK, {"value": value}, 0  # le's bool or nat's int


def _cmd_rat_eval(args):
    value = _evaluate(parse_sexpr(args.expr), _RAT_ALGEBRA)
    return OK, {"num": value.num, "den": value.den}, 0


def _suite(args) -> list[tuple]:
    """(check, relation or map, report name) per check of the suite, built
    per call so that checks patched into this module (bench/spans.py) run."""
    if args.suite == "int-equivalence":
        return [(check_equivalence, integers.intrel, "intrel")]
    if args.suite == "int-congruence":
        return [
            (check_respects, integers.NEG_MAP, "neg"),
            (check_respects, integers.NAT_MAP, "nat"),
            (check_respects, integers.ADD_MAP, "add"),
            (check_respects, integers.MUL_MAP, "mul"),
            (respects2_via_commutativity, integers.ADD_MAP, "add/commutative"),
            (respects2_via_commutativity, integers.MUL_MAP, "mul/commutative"),
        ]
    if args.suite == "rat-congruence":
        return [
            (check_respects, rationals.RAT_NEG_MAP, "rat_neg"),
            (check_respects, rationals.RAT_ADD_MAP, "rat_add"),
            (check_respects, rationals.RAT_MUL_MAP, "rat_mul"),
        ]
    rel = messages.msg_relation(args.bound, args.keys, args.nonces)
    if args.suite == "msg-equivalence":
        return [(check_equivalence, rel, rel.name)]
    maps = messages.free_maps(rel)
    if not args.truncated_discrim:
        del maps["freediscrim_truncated"]
    return [(check_respects, rmap, name) for name, rmap in maps.items()]


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
    sizes = [len(c) for c in messages.closure_classes(args.bound, args.keys, args.nonces)]
    payload = {
        "bound": args.bound,
        "keys": list(args.keys),
        "nonces": list(args.nonces),
        "universe": sum(sizes),
        "classes": len(sizes),
        "pairs": sum(n * n for n in sizes),
    }
    return OK, payload, 0


# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="emit a JSON report")
    sub.add_argument("--deterministic", action="store_true",
                     help="pin elapsed_ms to 0 for byte-stable output")


def _add_domains(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--bound", type=_positive_int, default=None,
                     help="term-size bound for the message universe "
                          f"(default {messages.SAMPLING_BOUND})")
    sub.add_argument("--keys", type=lambda s: _parse_domain(s, "--keys"),
                     default=None, help="key domain, e.g. 0,1 (the default)")
    sub.add_argument("--nonces", type=lambda s: _parse_domain(s, "--nonces"),
                     default=None, help="nonce domain, e.g. 0,1 (the default)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quotients",
        description="Quotient constructions: normalize terms, evaluate quotient "
                    "arithmetic, and run bounded equivalence/congruence checks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("msg-nf", help="normalize a message term")
    p.add_argument("term")
    _add_common(p)
    p.set_defaults(handler=_cmd_msg_nf)

    p = subs.add_parser("msg-eq", help="decide equality of two message terms")
    p.add_argument("lhs")
    p.add_argument("rhs")
    _add_common(p)
    p.set_defaults(handler=_cmd_msg_eq)

    p = subs.add_parser("msg-fn", help="apply a lifted message function")
    p.add_argument("function", choices=sorted(_MSG_FNS))
    p.add_argument("term")
    p.add_argument("--budget", type=_positive_int, default=None,
                   help=f"congruence-check budget (default {DEFAULT_BUDGET})")
    p.add_argument("--strict", dest="strict", action="store_true", default=True,
                   help="require a certified congruence check before lifting (default)")
    p.add_argument("--unchecked", dest="strict", action="store_false",
                   help="lift without a certificate; the report flags it")
    _add_common(p)
    p.set_defaults(handler=_cmd_msg_fn)

    p = subs.add_parser("int-eval", help="evaluate a prefix integer expression")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(handler=_cmd_int_eval)

    p = subs.add_parser("rat-eval", help="evaluate a prefix rational expression")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(handler=_cmd_rat_eval)

    p = subs.add_parser("check", help="run a bounded equivalence/congruence suite")
    p.add_argument("suite", choices=[
        "int-equivalence", "int-congruence", "rat-congruence",
        "msg-equivalence", "msg-congruence",
    ])
    p.add_argument("--budget", type=_positive_int, default=None,
                   help=f"check budget (default {DEFAULT_BUDGET})")
    p.add_argument("--truncated-discrim", action="store_true",
                   help="include the truncated discriminator negative test "
                        "in msg-congruence")
    _add_domains(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_check)

    p = subs.add_parser("oracle-msgrel", help="summarize the rule-closure oracle")
    _add_domains(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_oracle_msgrel)

    return parser


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse can take "--budget=--" as an empty list of values without
    # calling the option's type function.
    for name, value in vars(args).items():
        if value == []:
            parser.error(f"argument --{name}: expected one argument")
    try:
        _resolve_config(args)
        return _emit(args, *args.handler(args), started)
    # Stray ValueError (a number past the int-to-text digit limit, met when
    # the report is written, hence inside the try) and RecursionError (a very
    # deep term) are unhandled input, not refutation.
    except (QuotientError, ValueError, RecursionError) as exc:
        payload = {"error": str(exc)}
        if isinstance(exc, ParseError):
            payload["offset"] = exc.offset
        return _emit(args, ERROR, payload, 0, started)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
