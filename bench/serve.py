"""The service-mix workload's study service, optionally traced.

Started by the workload, never by hand::

    python -m bench.serve --dir DIR --port PORT [--span-dir DIR]

With ``--span-dir`` it wraps the program's functions before the service
boots and writes the server's spans there once SIGTERM has drained it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench import use_checkout_source


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--span-dir", type=Path)
    args = parser.parse_args(argv)

    use_checkout_source()
    from repro.service import ServiceConfig, run_forever

    tracer = None
    if args.span_dir is not None:
        from bench.trace import Tracer, install

        tracer = Tracer(args.span_dir, role="server")
        install(tracer)
    code = run_forever(ServiceConfig(service_dir=args.dir, port=args.port))
    if tracer is not None:
        tracer.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
