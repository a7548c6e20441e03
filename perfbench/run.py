"""clusterlab benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Workloads (see BENCHMARK.json and perfbench/README.md): verify_all,
arc_sweep, bracelets, mutation_walk.  Each runs as one closed loop, one
caller and no threads, for S seconds of passes; every pass is checked for
correctness after its timer stops.  With --trace 0 the last line of stdout
is a JSON object holding the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run, which first runs untraced for S/2 seconds
and then traced for S/2 seconds, so the tracing overhead is their difference.
Exit code: 0 when every check passed, 1 when one failed, 2 when the source
tree is missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
from array import array
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"
WORKLOAD_NAMES = ("verify_all", "arc_sweep", "bracelets", "mutation_walk")
# Set-up is probed once after each untraced pass, so that the probes sample
# the machine over the whole run, and at least this many times in all.
SETUP_PROBES = 9
NOISE_NOTE = (
    "shared sandbox (nproc cores, 2 where the benchmark was written): other tenants' load "
    "varies from run to run; no CPU pinning or frequency control is available, and the "
    "benchmark changes no machine settings"
)

# Predicted dominant layers: workload -> (claim, least share of the traced
# pass each part must take, {part: (statistic, span names)}).
_SURFACE = ("surface.other_triangle", "surface.triangle_walk", "surface.builtin_genus")
PREDICTIONS = {
    "verify_all": ("verify.zigzag_v_arcs, with its surface and snake children, dominates", 0.5,
                   {"zigzag_v_arcs inclusive": ("incl_s", ("verify.zigzag_v_arcs",))}),
    "arc_sweep": ("snake.build + surface and snake.enumerate + snake.expand each take "
                  "about a quarter or more", 0.25,
                  {"build+surface": ("self_s", ("snake.build",) + _SURFACE),
                   "enumerate+expand": ("self_s", ("snake.enumerate", "snake.expand"))}),
    "bracelets": ("snake.enumerate + snake.expand dominate", 0.5,
                  {"enumerate+expand": ("self_s", ("snake.enumerate", "snake.expand"))}),
    "mutation_walk": ("algebra.mul + algebra.div_exact dominate", 0.5,
                      {"mul+div_exact": ("self_s", ("algebra.mul", "algebra.div_exact"))}),
}


def judge(name, stats, wall):
    """({part: share of the traced pass}, whether the prediction holds)."""
    _, least, parts = PREDICTIONS[name]
    shares = {part: sum(stats.get(n, {}).get(stat, 0.0) for n in names) / wall
              for part, (stat, names) in parts.items()}
    return shares, all(v >= least for v in shares.values())


def median(values):
    return statistics.median(values) if values else 0.0


def pass_time(phase):
    """The time of one pass: the sum over the parts of a pass of each part's
    median over the passes.  Every pass runs the same parts in the same order,
    so a burst of load from another tenant of the machine, which slows a few
    seconds of one pass, moves only the parts it hit in that pass and not
    their medians.  When the passes disagree on their parts (a pass failed),
    it is the median pass time."""
    if len({len(parts) for parts in phase.parts}) != 1:
        return median(phase.walls)
    return sum(statistics.median(col) for col in zip(*phase.parts))


def percentile(values, p):
    """The p-th percentile (exclusive method), or None when fewer than ten
    samples lie beyond it."""
    if len(values) * (100 - p) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100)[p - 1]


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def metadata():
    import clusterlab

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "kernel_backend": clusterlab.KERNEL_BACKEND,
        "commit": git_commit(),
        "loadavg_start": loadavg(),
        "noise": NOISE_NOTE,
    }


def probe_setup(workload, seed):
    """Seconds from spawning a fresh interpreter to the workload's inputs
    being built in it."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.split()[-1]) - t0


class Phase:
    """The passes of one measured phase and their checks."""

    def __init__(self):
        self.walls = []
        # per pass: the time of each part, then the rest of the pass; kept
        # as 8-byte doubles, since they count towards peak_rss_mb
        self.parts = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setups = []  # set-up probe times
        self.traced = []  # (layer stats, traced wall incl. set-up) per traced pass


def measure(wl, seed, seconds, tracer=None, spans_dir=None, probe=None):
    """Run passes for `seconds`, checking each after its timer stops and then
    calling `probe`.  A pass starts only if a median iteration still fits
    before the deadline (the first pass always runs), so a run lasts about
    `seconds` whatever the length of a pass.  With a tracer, every pass, and for
    in-process workloads a fresh set-up before it, runs with the wrappers
    installed; verify_all traces inside its CLI child instead."""
    import spans as spanlib
    from workloads import VerifyAll

    phase = Phase()
    clock = time.perf_counter
    deadline = clock() + seconds
    iterations = []
    while not iterations or clock() + median(iterations) <= deadline:
        t_iter = clock()
        pass_spans, lat = None, []
        if isinstance(wl, VerifyAll):
            path = spans_dir / f"verify_all-seed{seed}-pass{len(phase.walls)}.tsv" if tracer else None
            t_start = t0 = clock()
            out = wl.run_pass(lat, path)
            t2 = clock()
            checker, lo = wl, 0
            if path and out.returncode == 0:
                pass_spans = spanlib.Spans.load(path)
        elif tracer:
            lo = len(tracer.spans)
            tracer.install()
            try:
                t_start = clock()
                checker = type(wl)(seed)
                t0 = clock()
                out = checker.run_pass(lat)
                t2 = clock()
            finally:
                tracer.uninstall()
            pass_spans = tracer.spans
        else:
            t0 = clock()
            out = wl.run_pass(lat)
            t2 = clock()
            checker = wl
        phase.walls.append(t2 - t0)
        parts = array("d", lat)
        parts.append(t2 - t0 - sum(lat))
        phase.parts.append(parts)
        failed, problems = checker.check(out)
        phase.attempted += wl.items_per_pass
        phase.failed += failed
        phase.problems += problems
        if pass_spans is not None:
            phase.traced.append((pass_spans.layer_stats(lo), t2 - t_start))
        del out  # so that two passes' outputs are never alive at once
        if probe:
            probe()
        iterations.append(clock() - t_iter)
    return phase


def traced_run(name, wl, seed, seconds):
    """Untraced, then traced passes: (phases, metrics, units, report lines, consistent)."""
    import spans as spanlib

    base = measure(wl, seed, seconds / 2)
    tracer = spanlib.Tracer()
    spans_dir = OUT / "spans"
    spans_dir.mkdir(exist_ok=True)
    traced = measure(wl, seed, seconds / 2, tracer=tracer, spans_dir=spans_dir)
    if len(tracer.spans):
        tracer.spans.dump(spans_dir / f"{name}-seed{seed}.tsv")
    rows = [spanlib.layer_metrics(stats) for stats, _ in traced.traced]
    rows = rows or [spanlib.layer_metrics({})]
    unattributed = [w - sum(s["self_s"] for s in stats.values()) for stats, w in traced.traced]
    metrics = {key: median([row[key] for row in rows]) for key in rows[0]}
    wall, traced_wall = pass_time(base), pass_time(traced)
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - wall
    metrics["trace.unattributed_s"] = median(unattributed)
    units = {k: "s" if k.endswith("_s") else "1" if k.endswith("per_matching") else "count"
             for k in metrics}
    consistent = all(u >= -1e-9 for u in unattributed)
    lines = [
        f"{name}  tracing overhead {metrics['trace.overhead_s']:+.4f} s per pass (traced "
        f"{traced_wall:.4f} s over {len(traced.walls)} passes, untraced {wall:.4f} s over "
        f"{len(base.walls)} passes)",
        f"{name}  layer self times sum to <= traced wall on every pass: {consistent}",
    ]
    for key in sorted(k for k, v in metrics.items() if v):
        layer = key.rsplit(".", 1)[0] if key.count(".") > 1 else key
        moves = spanlib.LAYER_MAP.get(
            "verify.case.*" if layer.startswith("verify.case.") else layer)
        hint = f"  -> {moves[0]} on {moves[1]}" if moves else ""
        lines.append(f"{name}  {key:40s} {metrics[key]:.6g} {units[key]}"
                     f"  (median of {len(rows)} traced passes){hint}")
    per_pass = [judge(name, stats, w) for stats, w in traced.traced]
    shares = {k: median([s[k] for s, _ in per_pass]) for k in PREDICTIONS[name][2]}
    holds = bool(per_pass) and all(h for _, h in per_pass)
    shown = ", ".join(f"{k} {v:.1%}" for k, v in shares.items())
    lines.append(f"{name}  prediction: {PREDICTIONS[name][0]}: {shown} of the traced pass "
                 f"(median of {len(per_pass)}) -> {'confirmed' if holds else 'refuted'}")
    return (base, traced), metrics, units, lines, consistent


def untraced_run(name, wl, seed, seconds):
    """Passes with set-up probes between them: (phases, metrics, units, report
    lines, extra metrics that BENCHMARK.json does not list)."""
    setups = []
    probe = lambda: setups.append(probe_setup(name, seed))
    phase = measure(wl, seed, seconds, probe=probe)
    while len(setups) < SETUP_PROBES:
        probe()
    phase.setups = setups
    wall, n = pass_time(phase), len(phase.walls)
    if name == "verify_all":
        rss_kb = median(wl.child_rss_kb)
        rss_note = f"median of {len(wl.child_rss_kb)} CLI processes"
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_note = "this process"
    rows = {
        "wall_s": (wall, "s", f"{len(phase.parts[0])} parts, each the median of {n} passes"),
        "items_per_s": (wl.items_per_pass / wall, "1/s",
                        f"{wl.items_per_pass} items per pass / wall_s"),
        "setup_s": (median(setups), "s", f"median of {len(setups)} fresh interpreters"),
        "peak_rss_mb": (rss_kb / 1024, "MB", rss_note),
    }
    extra = {}
    if wl.item_latency:
        items = [t for parts in phase.parts for t in parts[:-1]]
        for p in (50, 99):
            v = percentile(items, p)
            if v is not None:
                extra[f"item_p{p}_ms"] = (v * 1000, "ms", f"{len(items)} items")
    extra["failed_ratio"] = (phase.failed / phase.attempted, "1",
                             f"{phase.failed} of {phase.attempted} items")
    lines = [f"{name}  {key:14s} {v:.6g} {unit}  ({note})"
             for key, (v, unit, note) in {**rows, **extra}.items()]
    metrics = {k: v for k, (v, _, _) in rows.items()}
    units = {k: u for k, (_, u, _) in rows.items()}
    return (phase,), metrics, units, lines, extra


def run_one(name, seed, seconds, trace):
    from workloads import WORKLOADS

    meta = metadata()
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[name](seed)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        phases, metrics, units, lines, consistent = traced_run(name, wl, seed, seconds)
    else:
        phases, metrics, units, lines, extra = untraced_run(name, wl, seed, seconds)
        record["extra"] = {k: {"value": v, "unit": u, "n": note}
                           for k, (v, u, note) in extra.items()}
        consistent = True
    meta["loadavg_end"] = loadavg()
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [pr for p in phases for pr in p.problems]
    result = {
        "correct": failed == 0 and consistent, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update(meta=meta, pass_walls_s=[p.walls for p in phases],
                  setup_samples_s=[p.setups for p in phases], problems=problems[:50], **result)
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    print("meta " + json.dumps(meta))
    for line in lines:
        print(line)
    for pr in problems[:20]:
        print(f"{name}  FAILED CHECK: {pr}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed, seconds, trace):
    """Each workload in its own process, so one that crashes is recorded as
    failed and the others still report."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=seconds * 3 + 150)
            out, err, rc = proc.stdout, proc.stderr, proc.returncode
        except subprocess.TimeoutExpired as exc:
            out, err, rc = exc.stdout or "", "timed out", None
            out = out.decode() if isinstance(out, bytes) else out
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        print("\n".join(lines[:-1] if result else lines))
        if result is None:
            print(f"{name}  CRASHED (exit {rc}): {err.strip()[-500:]}")
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        summary["correct"] &= bool(result["correct"])
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def selftest():
    """Show that broken outputs are reported as failures, not as passes."""
    from workloads import ArcSweep, Bracelets, MutationWalk, VerifyAll

    results = []
    arc = ArcSweep(0)
    out = arc.run_pass([])
    results.append(("arc_sweep passes with the recorded golden digest", arc.check(out)[0] == 0))
    bad = ArcSweep(0, golden="0" * 64)
    failed, problems = bad.check(out)
    results.append(("a corrupted golden digest fails every arc of the pass",
                    failed == len(out) and any("digest" in p for p in problems)))
    br = Bracelets(0)
    out = br.run_pass([])
    i, j = [n for n, item in enumerate(br.items) if item[0].genus == 1][:2]
    out[i], out[j] = out[j], out[i]
    results.append(("a bracelet swapped with another fails its Chebyshev test", br.check(out)[0] == 2))
    mw = MutationWalk(0)
    mw.walks = mw.walks[:3] + [(mw.walks[0][0], (1, 99), 1)]
    lat = []
    failed, problems = mw.check(mw.run_pass(lat))
    steps = sum(len(seq) for _, seq, _ in mw.walks)
    results.append(("a mutation that raises is timed and fails its sequence",
                    failed == 2 and len(lat) == steps and "raised" in problems[0]))
    mw = MutationWalk(0)
    mw.walks = mw.walks[:4]
    out = mw.run_pass([])
    first = mw.check(out)[0]
    out[0], out[1] = out[1], out[0]
    failed, problems = mw.check(out)
    swapped = len(mw.walks[0][1]) + len(mw.walks[1][1])
    results.append(("a later pass whose final seeds differ from the checked pass fails them",
                    first == 0 and failed == swapped and "differs" in problems[0]))
    va = VerifyAll(0)
    crashed = subprocess.CompletedProcess([], 1, stdout="", stderr="Traceback ...")
    results.append(("a CLI child that exits nonzero fails every case of its pass",
                    va.check(crashed)[0] == va.items_per_pass))
    for what, ok in results:
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
    return 0 if all(ok for _, ok in results) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "clusterlab" / "__init__.py").is_file():
        print(f"clusterlab source tree not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.selftest:
        return selftest()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
