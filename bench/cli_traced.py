"""Traced stand-in for ``python -m trichain.cli`` in the benchmark's traced run.

    TRICHAIN_BENCH_SPANS=spans.json python bench/cli_traced.py <cli arguments>

Imports trichain, wraps its public functions with the benchmark's tracer,
runs ``trichain.cli.main(argv)`` inside a ``cli.main.<subcommand>`` span and
writes the spans, and the margins digested from the calls, to the file named
by ``TRICHAIN_BENCH_SPANS`` on the way out.  Exit status, output and any
traceback are those of the CLI itself.
"""

import os
import sys

import layers
import tracer as tracing


def main():
    import trichain.cli

    tracer = tracing.Tracer()
    tracer.install()
    argv = sys.argv[1:]
    subcommand = next((a for a in argv if not a.startswith("-")), "none")
    span = tracer.open(tracer.fid_of(f"cli.main.{subcommand}"))
    try:
        code = trichain.cli.main(argv)
    finally:
        tracer.close(span)
        diag = {}
        layers.digest(tracer, diag)
        tracer.dump_json(os.environ["TRICHAIN_BENCH_SPANS"], diag)
    return code


if __name__ == "__main__":
    sys.exit(main())
