"""`latticeops` command line with the benchmark's tracer installed.

    PERFBENCH_TRACE_OUT=spans.json python3 perfbench/cli_child.py <latticeops args>

Runs ``latticeops.cli.main`` on the arguments as the installed script
would, with the whole process traced as one job, writes the spans to
``PERFBENCH_TRACE_OUT`` and exits with the command's exit code.
"""

import os
import sys

import latticeops.cli

import tracer

if __name__ == "__main__":
    t = tracer.Tracer().install()
    t.job = 0
    try:
        code = latticeops.cli.main(sys.argv[1:])
    finally:
        t.job = None
        t.write(os.environ["PERFBENCH_TRACE_OUT"])
    sys.exit(code)
