"""One traced CLI invocation in a fresh interpreter.

`python3 bench/cli_child.py ARGV...`, with the program's `src` on
PYTHONPATH.  Times `import quotients.cli`, patches the layers (see
spans.py), runs `cli.main(ARGV)` with its stdout captured, and prints one
JSON object: exit code, captured stdout, import time, spans, and for a
`check` of the message relation the share of its related pairs that are
not reflexive.
"""

import contextlib
import io
import json
import sys
import time

import spans


def main() -> None:
    argv = sys.argv[1:]
    started = time.perf_counter()
    from quotients import cli

    import_s = time.perf_counter() - started
    tracer = spans.Tracer()
    tracer.install()
    run = tracer.wrap(cli.main, "cli.main")
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    tracer.on = False
    doc = {"exit": code, "stdout": captured.getvalue(), "import_s": import_s,
           "spans": tracer.spans}
    if argv[:2] == ["check", "msg-congruence"]:
        bound, budget = int(argv[argv.index("--bound") + 1]), int(argv[argv.index("--budget") + 1])
        pairs = cli.messages.msg_relation(bound).related_pairs(budget)
        doc["pairs"] = [sum(x != y for x, y in pairs), len(pairs)]
    json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main()
