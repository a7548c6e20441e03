"""Fresh-interpreter entry points of the benchmark.

    python3 perfbench/child.py setup <workload> <seed>
        Build the workload's inputs, then print the CLOCK_MONOTONIC time at
        which set-up finished (the parent started its clock before spawning).

    python3 perfbench/child.py verify <fuzz seed> [spans.tsv]
        Run ``clusterlab verify all --json --seed <fuzz seed>`` as the CLI
        does, optionally with span tracing, and print this process's exit
        code and peak RSS as the last line of stderr, as JSON, also when the
        CLI raised.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def setup(workload, seed):
    import workloads

    workloads.WORKLOADS[workload](int(seed))
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
    return 0


def verify(fuzz_seed, spans_path=None):
    from clusterlab import cli

    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        rc = cli.main(["verify", "all", "--json", "--seed", fuzz_seed])
    except Exception:
        # report the crash, then the peak RSS as the last line as always
        traceback.print_exc()
        rc = 1
    if tracer:
        tracer.uninstall()
        tracer.spans.dump(spans_path)
    sys.stdout.flush()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"rc": rc, "maxrss_kb": rss}), file=sys.stderr)
    return rc


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "verify": verify}[mode](*rest))
