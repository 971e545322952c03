"""``python -m sunlr`` with the benchmark's spans installed.

The traced run of the cli workload starts this file in place of
``python -m sunlr``.  It runs ``sunlr.cli.main`` on its arguments and, on
exit, writes one line ``BENCHTRACE <json>`` with its spans and counters as
the last line of standard error.
"""

import json
import sys

from sunlr import cli, generalized, hive, horn, linprog, lr, quiver

from tracing import TRACE_TAG, Tracer


def main():
    tracer = Tracer()
    mods = {"lr": lr, "generalized": generalized, "hive": hive, "linprog": linprog,
            "horn": horn, "quiver": quiver, "cli": cli}
    tracer.install(mods)
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.read_tableau_cache(lr)
        sys.stdout.flush()
        print(TRACE_TAG + json.dumps(tracer.to_json()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
