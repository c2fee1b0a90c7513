"""msg-terms and arith: ops called in this process, caches warm.

One client in a closed loop runs whole passes over a seeded pool of ops.
An op's latency is timed around the op alone; checking its outputs against
the references from inputs.py happens after the clock stops.
"""

from __future__ import annotations

import resource
import statistics
import time
from fractions import Fraction
from types import SimpleNamespace

import inputs
from inputs import ADD, INV, LIT, MUL, NEG
from report import Context, Result, histogram, repeat_cycles
from spans import Profile, Tracer
from speed import FLUSH_S, Scaler, loop_scaler


def _tracing(ctx: Context):
    """A tracer with the program patched, and a wrap(fn, name) that adds a
    span in a traced run and is the identity otherwise."""
    if not ctx.trace:
        return None, lambda fn, name: fn
    tracer = Tracer()
    tracer.install()
    return tracer, tracer.wrap


def _loop(ctx: Context, res: Result, scaler: Scaler, cycle) -> None:
    def scaled_cycle():
        cycle()
        scaler.flush(res.add)

    res.descriptor["cycles"] = repeat_cycles(ctx.seconds, scaled_cycle)
    res.factors += scaler.factors


def _timed(res: Result, scaler: Scaler, tier: str, op, *args, record: bool = True):
    """Run one op and, if `record`, queue its latency for scaling; None if
    it raised."""
    res.attempted += 1
    started = time.perf_counter_ns()
    try:
        out = op(*args)
    except Exception as exc:  # an op that raises is a failed op, the run goes on
        res.fail(f"{tier} op raised {exc!r}")
        return None
    if record:
        scaler.record(tier, (time.perf_counter_ns() - started) / 1e9)
        if scaler.pending_s >= FLUSH_S:
            scaler.flush(res.add)
    return out


def _check(res: Result, what: str, ok, *args) -> None:
    try:
        if ok(*args):
            return
        problem = "wrong output"
    except Exception as exc:  # a malformed output is a failed op as well
        problem = repr(exc)
    res.fail(f"{what}: {problem}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# msg-terms


def _free(t, M):
    """A tuple term as the program's own constructors, without the parser."""
    if t[0] == "nonce":
        return M.Nonce(t[1])
    if t[0] == "mpair":
        return M.MPair(_free(t[1], M), _free(t[2], M))
    return (M.Crypt if t[0] == "crypt" else M.Decrypt)(t[1], _free(t[2], M))


def term_op(api, text, twin, other):
    t = api.parse_term(text)
    nf = api.normalize(t)
    m = api.msg(t)
    return (t, m, api.left(m), api.right(m), api.nonces(m), api.discrim(m),
            api.msg_eq(t, twin), api.msg_eq(t, other), api.print_term(nf))


def _term_ok(case, out, print_term) -> bool:
    t, m, left, right, nonces, discrim, same, differs, text = out
    return (text == case.nf_text and print_term(m.rep) == case.nf_text
            and print_term(left.rep) == case.left_text and print_term(right.rep) == case.right_text
            and nonces == case.nonces and discrim == case.discrim
            and same is True and differs is False)


def run_msg_terms(ctx: Context, res: Result) -> None:
    from quotients import messages as M, sexpr as S

    cases = inputs.term_cases(ctx.seed, ctx.scale.pool)
    twins = [_free(c.twin, M) for c in cases]
    print_term = S.print_term
    tracer, wrap = _tracing(ctx)
    # Read after patching: in a traced run these are the wrappers.
    api = SimpleNamespace(parse_term=S.parse_term, msg=M.msg, left=M.left, right=M.right,
                          nonces=M.nonces, discrim=M.discrim, msg_eq=M.msg_eq,
                          normalize=wrap(M.normalize, "messages.normalize"),
                          print_term=wrap(print_term, "sexpr.print_term"))
    op, term_hash = wrap(term_op, "op"), wrap(hash, "messages.hash")
    parsed_nodes = 0
    scaler = loop_scaler()

    def one_pass():
        nonlocal parsed_nodes
        for i, case in enumerate(cases):
            # A traced run times only the ops whose spans it records.
            record = tracer.next_op() if tracer else True
            out = _timed(res, scaler, case.tier, op, api, case.text, twins[i], twins[case.other],
                         record=record)
            if out is None:
                continue
            if record and tracer:
                parsed_nodes += case.nodes
                term_hash(out[0])
            _check(res, f"msg-terms op on {case.text[:60]!r}...", _term_ok, case, out, print_term)

    _loop(ctx, res, scaler, one_pass)
    res.peak_rss_mb = _peak_rss_mb()
    res.descriptor.update({
        "pool": {tier: sum(c.tier == tier for c in cases) for tier, _ in inputs.TERM_POOL},
        "term_nodes_histogram": histogram([c.nodes for c in cases], (8, 16, 32, 64, 128, 256, 512)),
        "term_depth_histogram": histogram([c.depth for c in cases], (8, 16, 32, 64, 128, 256, 512)),
        "nodes_per_pass": sum(c.nodes for c in cases),
    })
    if tracer:
        prof = Profile(tracer.spans)
        res.spans = tracer.spans
        res.layers = prof.layer_metrics([])
        parse_ns = sum(ns for (name, _), ns in prof.total_by_op.items() if name == "sexpr.parse_term")
        res.layers["sexpr.parse_ns_per_node"] = parse_ns / parsed_nodes if parsed_nodes else 0.0


# ---------------------------------------------------------------------------
# arith


def int_op(I, program, pivot, expected):
    stack = []
    for code, lit in program:
        if code == LIT:
            stack.append(I.from_native(lit))
        elif code == NEG:
            stack.append(I.neg(stack.pop()))
        else:
            b, a = stack.pop(), stack.pop()
            stack.append(I.add(a, b) if code == ADD else I.mul(a, b) if code == MUL
                         else I.add(a, I.neg(b)))
    value = stack.pop()
    return value, I.le(value, pivot), I.to_nat(value), value == expected


def rat_op(R, program, expected):
    stack = []
    for code, lit in program:
        if code == LIT:
            stack.append(R.qrat(*lit))
        elif code == NEG:
            stack.append(R.rat_neg(stack.pop()))
        elif code == INV:
            stack.append(R.rat_inv(stack.pop()))
        else:
            b, a = stack.pop(), stack.pop()
            stack.append(R.rat_add(a, b) if code == ADD else R.rat_mul(a, b))
    value = stack.pop()
    return value, value == expected


def _arith_ok(case, out) -> bool:
    if case.tier == "light":
        value, le, nat, eq = out
        return (value.pair.x - value.pair.y == case.value and le == (case.value <= case.pivot)
                and nat == max(case.value, 0) and eq is True)
    value, eq = out
    return value.den != 0 and Fraction(value.num, value.den) == case.value and eq is True


def certify(E, I, R, budget: int) -> list:
    """The numeric certification suite: every report should be certified."""
    reports = [E.check_equivalence(I.intrel, budget), E.check_equivalence(R.ratrel, budget)]
    reports += [E.check_respects(m, budget) for m in (I.NEG_MAP, I.NAT_MAP, R.RAT_NEG_MAP)]
    for m in (I.ADD_MAP, I.MUL_MAP, R.RAT_ADD_MAP, R.RAT_MUL_MAP):
        reports += [E.check_respects2(m, budget), E.respects2_via_commutativity(m, budget)]
    return reports


def run_arith(ctx: Context, res: Result) -> None:
    from quotients import equiv as E, integers as I, rationals as R

    cases = inputs.arith_cases(ctx.seed, ctx.scale.pool)
    budget = ctx.scale.certify_budget
    prepared = []
    for case in cases:
        if case.tier == "light":
            prepared.append((int_op, (I, case.program, I.from_native(case.pivot), I.from_native(case.value))))
        else:
            f = case.value
            prepared.append((rat_op, (R, case.program, R.qrat(f.numerator, f.denominator))))
    tracer, wrap = _tracing(ctx)
    certify_op = wrap(certify, "op")
    prepared = [(wrap(fn, "op"), args) for fn, args in prepared]
    certify_ops, checked = [], []
    scaler = loop_scaler()

    def cycle():
        if tracer:
            tracer.next_op(always=True)
            certify_ops.append(tracer.op)
        reports = _timed(res, scaler, "heavy", certify_op, E, I, R, budget)
        if reports is not None:
            checked.append(sum(r.checked for r in reports))
            if not all(r.verdict == "certified" and r.checked > 0 for r in reports):
                res.fail(f"certification suite: {[(r.verdict, r.checked) for r in reports]}")
        for _ in range(ctx.scale.passes):
            for case, (op, args) in zip(cases, prepared):
                record = tracer.next_op() if tracer else True
                out = _timed(res, scaler, case.tier, op, *args, record=record)
                if out is not None:
                    _check(res, f"arith op {case.program[:4]}...", _arith_ok, case, out)

    _loop(ctx, res, scaler, cycle)
    res.rate_tiers = ("mid", "light")  # certification runs are not ops
    res.peak_rss_mb = _peak_rss_mb()
    res.descriptor.update({
        "pool": {tier: sum(c.tier == tier for c in cases) for tier, _ in inputs.ARITH_POOL},
        "operand_digits_histogram": histogram([d for c in cases for d in c.digits], (5, 10, 15, 20, 25, 30)),
        "certify_budget": budget,
        "certify_checked": checked[0] if checked else 0,
    })
    if tracer:
        prof = Profile(tracer.spans)
        res.spans = tracer.spans
        res.layers = prof.layer_metrics(certify_ops)
        pairs = I.intrel.related_pairs(budget) + R.ratrel.related_pairs(budget)
        res.layers["equiv.informative_ratio"] = sum(x != y for x, y in pairs) / len(pairs)
        res.layers["equiv.checked"] = statistics.fmean(checked) if checked else 0.0
