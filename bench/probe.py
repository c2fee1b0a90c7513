"""Set-up probe: import what a workload calls and run its first op once.

`python3 bench/probe.py WORKLOAD`, with the program's `src` on PYTHONPATH.
The benchmark times this process from spawn to exit, so anything the
program builds on import or on first use counts as set-up.
"""

import sys


def cold_cli() -> None:
    from quotients import cli

    cli.build_parser()


def msg_terms() -> None:
    from quotients import messages, sexpr

    t = sexpr.parse_term("(crypt 0 (decrypt 0 (mpair (nonce 0) (nonce 1))))")
    m = messages.msg(t)
    messages.left(m), messages.right(m), messages.nonces(m), messages.discrim(m)
    messages.msg_eq(t, messages.normalize(t))
    sexpr.print_term(m.rep)


def arith() -> None:
    from quotients import integers, rationals

    a, b = integers.from_native(3), integers.from_native(-4)
    integers.le(integers.add(a, integers.neg(b)), integers.mul(a, b))
    integers.to_nat(a)
    p, q = rationals.qrat(1, 2), rationals.qrat(-3, 4)
    rationals.rat_inv(rationals.rat_add(p, rationals.rat_mul(p, rationals.rat_neg(q))))


if __name__ == "__main__":
    {"cold-cli": cold_cli, "msg-terms": msg_terms, "arith": arith}[sys.argv[1]]()
