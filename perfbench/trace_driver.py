"""Run one ``mbl`` command with spans recorded around each layer.

Usage: python trace_driver.py <spans.json> <mbl arguments...>

Behaves like ``python -m mbl <mbl arguments...>`` (same stdout, stderr and
exit code) and, after ``mbl.cli.main`` returns, writes the spans as one
JSON line followed by a line holding the time that writing took, so the
caller can keep that time out of the command's accounting.
"""
import json
import sys
import time

import tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    spans = tracer.Tracer()
    missing = tracer.install(spans)
    import mbl.cli

    code = 1
    try:
        code = spans.run_root(mbl.cli.main, argv)
    except SystemExit as exc:  # argparse usage errors and --version
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        start = time.perf_counter_ns()
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {
                        "spans": spans.spans,
                        "missing": missing,
                        "counter_errors": spans.counter_errors,
                    }
                )
                + "\n"
            )
            handle.flush()
            handle.write(json.dumps({"write_ns": time.perf_counter_ns() - start}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
