"""Run one koszulkit CLI invocation in this process.

    python3 bench/case.py [--trace SPANS.json] ARGV...

ARGV is passed to `koszulkit.cli.main` unchanged, as the `koszulkit`
console script would pass it.  With --trace, the layers are wrapped by
bench/spans.py first and the spans are written to SPANS.json when the
call returns or raises.
"""

import sys


def run(argv):
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    tracer = None
    if trace_path is not None:
        import spans
        tracer = spans.install()
    from koszulkit.cli import main
    try:
        return main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
