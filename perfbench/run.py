"""The doqkd benchmark: one workload per invocation, from the checkout root.

    python3 perfbench/run.py --workload keygen --seed 1 --seconds 12 --trace 0

Workloads (see ``workloads.py``):

- ``keygen``: one ``session.run_experiment`` per op on the bundled
  paper-default config, a fresh seed per op. Simulation, baseline,
  histograms, sifting and LDPC decoding, end to end.
- ``sweep``: one ``session.sweep`` over the full 285-point default format
  grid per op, on one dataset. Sifting-bound; no LDPC work.
- ``recorded``: truth-free ttag-v1 recordings to a secret key, ops
  cycling over six recordings and two frame formats. Decoding-bound; no
  simulation. The only workload that reads files in its ops.

A run generates its inputs from ``--seed`` in a child process, sets up
(import, config load, every LDPC code the ops will select), runs one
untimed warm-up op of each kind, then runs ops back to back, one
closed-loop client on one thread, for ``--seconds``. Every op's output is
checked and digested. The last line of stdout is the result as JSON; with
``--trace 0`` it carries the end-to-end metrics, with ``--trace 1`` the
per-layer ones. A traced run first repeats the untraced measurement, then
measures again with span tracing on, and reports the difference as the
tracing overhead. Full results, including per-op digests, the self-time
table and the spans, go to ``.bench_build/perfbench/results/``.

End-to-end metrics (``--trace 0``):

- ``setup_s``: median fresh-interpreter import time (five imports) plus
  the median of five config and dataset loads (with the recorded
  workload's baseline estimate), plus every cold LDPC code build. Builds
  are timed once each: one takes 10-17 s, long enough to average out
  scheduling noise.
- ``op_s_p50``: median wall time of one op (``session_s_p50``,
  ``sweep_s``, ``recorded_s_p50``). The recorded workload's two frame
  formats differ in cost, so there it is the mean of the two formats'
  medians, which does not depend on where the clock stops in the cycle.
  Runs have fewer than 20 ops, too few for a tail percentile.
- ``throughput_per_s``: work per op wall-second, taken the same way:
  session tags (keygen), grid points (sweep), sifted key bits through
  reconciliation, failed blocks included (recorded; the verified share is
  the per-layer ``ldpc.blocks_failed_frac``).
- ``peak_rss_mb``: peak resident memory of this process (MB = 2**20
  bytes), read after the untraced ops; input generation runs elsewhere.

``failed_ops_frac`` (ops that raised or failed a check, over ops
attempted) is printed, and carried by ``failed``/``attempted``.

Per-layer metrics (``--trace 1``) are per traced op unless noted; see
``layer_metrics``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import contextmanager
from pathlib import Path

import common

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 5  # import probes and workload set-ups per run; medians
PROBE = ("import time; t = time.perf_counter(); import numpy, doqkd; "
         "print(time.perf_counter() - t)")
WORKLOAD_METRIC_NAMES = {  # per-workload names of op_s_p50 and throughput_per_s
    "keygen": ("session_s_p50", "tags_per_s", "tags/s"),
    "sweep": ("sweep_s", "grid_points_per_s", "1/s"),
    "recorded": ("recorded_s_p50", "reconciliation_bits_per_s", "bit/s"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="doqkd benchmark")
    p.add_argument("--workload", required=True, choices=common.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full", choices=sorted(common.SIZES),
                   help="run sizes; 'tiny' is for the smoke test")
    return p.parse_args(argv)


def generate_inputs(args, workdir: Path) -> tuple[dict, float]:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).with_name("inputs.py")),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--size", args.size, "--out", str(workdir)],
                   check=True, env=common.child_env(), cwd=common.ROOT)
    elapsed = time.perf_counter() - t0
    return json.loads((workdir / "manifest.json").read_text()), elapsed


def probe_import() -> list[float]:
    """Import time of numpy and doqkd in fresh interpreters."""
    out = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run([sys.executable, "-c", PROBE], check=True,
                             capture_output=True, text=True,
                             env=common.child_env(), cwd=common.ROOT)
        out.append(float(res.stdout.strip()))
    return out


@contextmanager
def timed_builds(record: dict):
    """Time every cold LDPC code build made while the block runs."""
    from doqkd import ldpc, postproc
    original = postproc.make_code

    def make_code(n, rate, seed=1):
        misses = ldpc.make_code.cache_info().misses
        t0 = time.perf_counter()
        code = original(n, rate, seed)
        if ldpc.make_code.cache_info().misses > misses:
            record[f"{n}@{rate}"] = time.perf_counter() - t0
        return code
    postproc.make_code = make_code
    try:
        yield
    finally:
        postproc.make_code = original


def run_op(wl, i: int, kind: str, phase: str, tracer=None) -> dict:
    """Run, time and check one op; never raises for a failing op."""
    rec = {"i": i, "kind": kind, "phase": phase}
    gc.collect()  # the previous op's garbage is not this op's cost
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            t0 = time.perf_counter()
            if tracer is None:
                out = wl.op(i, kind)
            else:
                with tracer.op(i):
                    out = wl.op(i, kind)
            rec["wall_s"] = time.perf_counter() - t0
            rec["work"], rec["digests"], rec["errors"] = wl.check(out)
        except Exception:  # an op failure is a result, not a crash
            rec["errors"] = [traceback.format_exc()]
    rec["eigen_clamps"] = sum("symplectic eigenvalue" in str(w.message)
                              for w in caught)
    rec["warnings"] = sorted({str(w.message) for w in caught})
    return rec


def run_phase(wl, seconds: float, first: int, phase: str, reference: dict,
              tracer=None) -> list[dict]:
    """One cycle through ``wl.kinds``, then ops in cycle order until
    ``seconds`` have passed.

    For a repeatable workload, each op's digests must equal those of the
    first op of its kind, which ``reference`` keeps across phases.
    """
    ops = []
    t_end = time.perf_counter() + seconds
    while len(ops) < len(wl.kinds) or time.perf_counter() < t_end:
        kind = wl.kinds[len(ops) % len(wl.kinds)]
        rec = run_op(wl, first + len(ops), kind, phase, tracer)
        if wl.repeatable and "digests" in rec:
            expected = reference.setdefault(kind, rec["digests"])
            if rec["digests"] != expected:
                rec["errors"].append(f"digests {rec['digests']} differ from "
                                     f"the first op's {expected}")
        ops.append(rec)
    return ops


def pooled_median(wl, ops: list[dict], value) -> float:
    """Median of ``value`` per op group, averaged over groups; completed ops only."""
    by_group: dict[str, list[float]] = {}
    for o in ops:
        if not o["errors"]:
            by_group.setdefault(wl.group(o["kind"]), []).append(value(o))
    if not by_group:
        return 0.0
    return statistics.fmean(statistics.median(v) for v in by_group.values())


def end_to_end(wl, ops: list[dict]) -> dict:
    return {"op_s_p50": pooled_median(wl, ops, lambda o: o["wall_s"]),
            "throughput_per_s": pooled_median(wl, ops,
                                              lambda o: o["work"] / o["wall_s"])}


def layer_metrics(summary: dict, counts: dict, n_ops: int, builds: dict,
                  misses: int, clamps: int) -> dict:
    """Per-layer metrics of the traced ops, per op unless a ratio or total.

    ``*.s`` is self time; ``*.s_incl`` includes children. Totals:
    ``ldpc.make_code.s`` (cold builds during set-up) and
    ``ldpc.make_code.misses_in_ops`` (cache misses in all timed ops).
    """
    by, layer = summary["by_name"], summary["by_layer"]

    def per_op(x):
        return x / n_ops

    def self_s(name):
        return per_op(by.get(name, {}).get("self_s", 0.0))

    def calls(name):
        return per_op(by.get(name, {}).get("calls", 0))

    def ratio(a, b):
        return a / b if b else 0.0

    blocks = counts["ldpc.blocks"]
    read_s = by.get("io.read_ttag", {}).get("self_s", 0.0)
    return {
        "simulate.s": self_s("simulate.simulate_session"),
        "simulate.calls": calls("simulate.simulate_session"),
        "simulate.tags_out": per_op(counts["simulate.tags_out"]),
        "session.compute_baseline.s_incl": per_op(
            by.get("session.compute_baseline", {}).get("incl_s", 0.0)),
        "session.self_s": per_op(layer["session"]),
        "timetags.self_s": per_op(layer["timetags"]),
        "timetags.coincidence_histogram.s": self_s("timetags.coincidence_histogram"),
        "timetags.coincidence_histogram.calls": calls("timetags.coincidence_histogram"),
        "timetags.histogram_pairs": per_op(counts["timetags.histogram_pairs"]),
        "sifting.self_s": per_op(layer["sifting"]),
        "sifting.security_mask.s": self_s("sifting.security_mask"),
        "sifting.security_mask.calls": calls("sifting.security_mask"),
        "sifting.run_sifting.s": self_s("sifting.run_sifting"),
        "sifting.run_sifting.calls": calls("sifting.run_sifting"),
        "sifting.frames_kept": per_op(counts["sifting.frames_kept"]),
        "sifting.kept_ratio": ratio(counts["sifting.frames_kept"],
                                    counts["sifting.frames_common"]),
        "security.self_s": per_op(layer["security"]),
        "security.estimate_tfcm.s": self_s("security.estimate_tfcm"),
        "security.mutual_information.s": self_s("security.mutual_information"),
        "security.shannon_info.s": self_s("security.shannon_info"),
        "security.eigen_clamps": per_op(clamps),
        "ldpc.self_s": per_op(layer["ldpc"]),
        "ldpc.make_code.s": sum(builds.values()),
        "ldpc.make_code.misses_in_ops": misses,
        "ldpc.decode.s": self_s("ldpc.decode_syndrome"),
        "ldpc.blocks": per_op(blocks),
        "ldpc.ms_per_block": 1000.0 * ratio(
            by.get("ldpc.decode_syndrome", {}).get("self_s", 0.0), blocks),
        "ldpc.iterations_mean": ratio(counts["ldpc.iterations"], blocks),
        "ldpc.edge_updates": per_op(counts["ldpc.edge_updates"]),
        "ldpc.blocks_failed_frac": ratio(counts["ldpc.blocks_failed"], blocks),
        "postproc.self_s": per_op(layer["postproc"]),
        "postproc.reconcile_key.self_s": self_s("postproc.reconcile_key"),
        "postproc.verification_hash.s": self_s("postproc.verification_hash"),
        "postproc.privacy_amplify.s": self_s("postproc.privacy_amplify"),
        "postproc.pa_bits_in": per_op(counts["postproc.pa_bits_in"]),
        "postproc.pa_bits_out": per_op(counts["postproc.pa_bits_out"]),
        "io.read_ttag.s": per_op(read_s),
        "io.bytes_read": per_op(counts["io.bytes_read"]),
        "io.read_mb_per_s": ratio(counts["io.bytes_read"] / 2**20, read_s),
    }


def self_time_table(summary: dict, n_ops: int) -> dict:
    total = summary["by_name"].get("bench.op", {}).get("incl_s", 0.0)
    return {layer: {"self_s_per_op": s / n_ops,
                    "share": s / total if total else 0.0}
            for layer, s in sorted(summary["by_layer"].items(),
                                   key=lambda kv: -kv[1])}


def measure(args, workdir: Path) -> dict:
    """Generate inputs, set up, warm up and run the timed ops; the full record."""
    import doqkd
    import numpy as np

    import workloads
    from doqkd import ldpc, postproc, session

    manifest, input_gen_s = generate_inputs(args, workdir)
    import_s = probe_import()
    wl = workloads.load(args.workload, workdir)
    setups = [wl.setup() for _ in range(SETUP_REPEATS)]
    setup_parts = {k: statistics.median(s[k] for s in setups) for k in setups[0]}

    # warm-up: build the codes the ops will select and run one op per kind
    builds: dict[str, float] = {}
    reference: dict[str, dict] = {}
    with timed_builds(builds):
        for rate in wl.extra_rates:
            postproc.make_code(wl.config.block_length, rate, session.CODE_SEED)
        warmup = run_phase(wl, 0, -len(wl.kinds), "warmup", reference)
    setup_s = (statistics.median(import_s) + sum(setup_parts.values())
               + sum(builds.values()))

    misses0 = ldpc.make_code.cache_info().misses
    ops = run_phase(wl, args.seconds, 0, "untraced", reference)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = end_to_end(wl, ops)
    traced, per_layer, table, spans = [], None, None, None
    if args.trace:
        import tracer as tracing
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = run_phase(wl, args.seconds, len(ops), "traced", reference, tr)
        finally:
            tr.uninstall()
    misses = ldpc.make_code.cache_info().misses - misses0
    if args.trace:
        summary = tr.summary()
        per_layer = layer_metrics(summary, tr.counts, len(traced), builds, misses,
                                  sum(o["eigen_clamps"] for o in traced))
        traced_e2e = end_to_end(wl, traced)
        for k, v in e2e.items():
            per_layer[f"trace.overhead.{k}"] = traced_e2e[k] - v
        table = self_time_table(summary, len(traced))
        spans = tr.export()

    all_ops = ops + traced
    failed = sum(1 for o in all_ops if o["errors"])
    warmup_errors = [e for o in warmup for e in o["errors"]]
    return {
        "context": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size,
            "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "doqkd": doqkd.__version__, "platform": platform.platform(),
            "input_generation_s": input_gen_s, "datasets": manifest,
            "setup": {"import_s": import_s, **setup_parts, "code_builds_s": builds},
        },
        "correct": failed == 0 and misses == 0 and not warmup_errors,
        "attempted": len(all_ops), "failed": failed,
        "ldpc.make_code.misses_in_ops": misses,
        "end_to_end": {"setup_s": setup_s, **e2e, "peak_rss_mb": peak_rss_mb},
        "untraced_ops_ok": sum(1 for o in ops if not o["errors"]),
        "per_layer": per_layer, "self_time_table": table,
        "warmup": warmup, "ops": all_ops, "spans": spans,
    }


def print_summary(record: dict) -> None:
    ctx, e2e = record["context"], record["end_to_end"]
    lat_name, thr_name, thr_unit = WORKLOAD_METRIC_NAMES[ctx["workload"]]
    n = record["untraced_ops_ok"]
    print(f"doqkd benchmark: workload {ctx['workload']}, seed {ctx['seed']}, "
          f"size {ctx['size']}, {ctx['seconds']:g} s, trace {ctx['trace']}")
    print(f"  setup_s            {e2e['setup_s']:12.4f} s   (import median of "
          f"{len(ctx['setup']['import_s'])}, code builds "
          f"{sorted(ctx['setup']['code_builds_s'])})")
    print(f"  op_s_p50           {e2e['op_s_p50']:12.4f} s   n={n}  [{lat_name}]")
    print(f"  throughput_per_s   {e2e['throughput_per_s']:12.1f} 1/s n={n}  "
          f"[{thr_name}, {thr_unit}]")
    print(f"  peak_rss_mb        {e2e['peak_rss_mb']:12.1f} MB")
    print(f"  failed_ops_frac    {record['failed'] / record['attempted']:12.4f} "
          f"ratio ({record['failed']}/{record['attempted']})")
    print(f"  make_code misses in timed ops: {record['ldpc.make_code.misses_in_ops']}")
    for o in record["warmup"] + record["ops"]:
        if o["errors"]:
            print(f"  op {o['i']} ({o['kind']}, {o['phase']}) failed: "
                  f"{o['errors'][-1].strip().splitlines()[-1]}")
    if record["self_time_table"]:
        print("  self time per traced op, by layer:")
        for layer, row in record["self_time_table"].items():
            print(f"    {layer:10s} {row['self_s_per_op']:10.4f} s  "
                  f"{100 * row['share']:5.1f}%")
        for k in ("op_s_p50", "throughput_per_s"):
            print(f"  tracing overhead {k}: "
                  f"{record['per_layer']['trace.overhead.' + k]:+.4f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    common.import_doqkd()
    results_dir = common.WORK_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    workdir = common.WORK_ROOT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        record = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print_summary(record)
    print(f"  results: {out_path.relative_to(common.ROOT)}")
    reported = record["per_layer"] if args.trace else record["end_to_end"]
    listed = SPEC["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": reported[m["name"]], "unit": m["unit"]}
                    for m in listed}}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
