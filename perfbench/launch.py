"""Run one `htlab run` in this process and record what the benchmark needs.

    python3 perfbench/launch.py --src SRC --record FILE [--trace RUN_ID] -- ARGS...

ARGS go to `htlab.cli.main` unchanged. htlab is imported from SRC, and the
launcher refuses to run any other copy.

Untraced, only the set-up calls as bound in `htlab.cli` are timestamped
(`build_scenario`, `pretrain_source`, `load_checkpoint`); FILE gets the
time.monotonic() at which the last of them returned, plus how many
pretrains and checkpoint loads ran. With --trace, spans.install wraps every
htlab module first and FILE.npz also gets the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

SETUP_CALLS = ("build_scenario", "pretrain_source", "load_checkpoint")


def _timestamp_setup(cli, events: list):
    for attr in SETUP_CALLS:
        fn = getattr(cli, attr)

        def wrapper(*args, _fn=fn, _attr=attr, **kwargs):
            try:
                return _fn(*args, **kwargs)
            finally:
                events.append((_attr, time.monotonic()))

        setattr(cli, attr, wrapper)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", required=True)
    p.add_argument("--record", required=True)
    p.add_argument("--trace", default=None, metavar="RUN_ID")
    p.add_argument("htlab_args", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)
    htlab_args = args.htlab_args[1:] if args.htlab_args[:1] == ["--"] else args.htlab_args

    src = os.path.realpath(args.src)
    sys.path.insert(0, src)
    import htlab
    import htlab.cli as cli
    if not os.path.realpath(htlab.__file__).startswith(src + os.sep):
        print(f"htlab imported from {htlab.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if args.trace is not None:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans
        tracer = spans.Tracer(args.trace)
        spans.install(tracer)
    events: list = []
    _timestamp_setup(cli, events)

    try:
        return cli.main(htlab_args)
    finally:
        with open(args.record, "w") as f:
            json.dump({
                "setup_end": max((t for _, t in events), default=None),
                "pretrains": sum(1 for n, _ in events if n == "pretrain_source"),
                "cache_hits": sum(1 for n, _ in events if n == "load_checkpoint"),
            }, f)
        if tracer is not None:
            spans.save(tracer.record(), args.record + ".npz")


if __name__ == "__main__":
    sys.exit(main())
