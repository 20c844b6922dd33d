"""Run ``repro.app`` with layer tracing, for the benchmark's traced run.

Usage: ``python perfbench/traced_server.py --spans PATH [repro.app args]``.

Each request carrying an ``X-Bench-Op`` header is one op: its handler
runs as an ``app.handler`` span and every wrapped layer call below it is
recorded against that op id. The spans stay in memory and are written
to ``PATH`` when the server stops (SIGINT).
"""

import sys

from tracing import Tracer, install_layer_wrappers


def main() -> None:
    args = sys.argv[1:]
    spans_path = args[args.index("--spans") + 1]
    del args[args.index("--spans") : args.index("--spans") + 2]
    sys.argv = ["repro.app", *args]

    import repro.app.__main__ as app_main
    from repro.app.server import _Handler

    tracer = Tracer()
    install_layer_wrappers(tracer)
    handle = _Handler.do_GET

    def do_get(self) -> None:
        op = self.headers.get("X-Bench-Op")
        tracer.set_op(op)
        # The socket write of the reply: from its start the client can
        # have the answer, so the load generator counts the rest as
        # transport.
        write = self.wfile.write

        def traced_write(data):
            with tracer.span("app.write"):
                return write(data)

        self.wfile.write = traced_write
        try:
            with tracer.span("app.handler"):
                handle(self)
        finally:
            tracer.set_op(None)

    _Handler.do_GET = do_get
    try:
        app_main.main()
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
