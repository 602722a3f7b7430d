"""Run one ballsep benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc-highdim --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the benchmark imports ``ballsep`` from the
checkout's ``src/`` and exits with code 1 when that is missing.  With
``--trace 0`` it measures the end-to-end metrics, with times scaled to the
nominal host speed (see perfbench/hostspeed.py); with ``--trace 1`` it
alternates plain and traced passes and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a readable
report.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
SETUP_REPEATS = 9
TRACE_DIR = ROOT / ".perfbench_out"

# (name, unit, layer it reads or None); see README.md for what each predicts
PER_LAYER = (
    ("montecarlo.sphere_block.s", "s", "montecarlo.sphere_block"),
    ("montecarlo.sphere_block.bytes", "bytes", "montecarlo.sphere_block"),
    ("montecarlo.block_rng.s", "s", "montecarlo.block_rng"),
    ("montecarlo.block.self_s", "s", "montecarlo.block"),
    ("montecarlo.block.calls", "count", "montecarlo.block"),
    ("montecarlo.bernoulli_estimate.self_s", "s", "montecarlo.bernoulli_estimate"),
    ("geometry.separates_batch.s", "s", "geometry.separates_batch"),
    ("geometry.separates_batch.rows", "count", "geometry.separates_batch"),
    ("geometry.exists_separating_bias_batch.s", "s", "geometry.exists_separating_bias_batch"),
    ("geometry.exists_separating_bias_batch.rows", "count", "geometry.exists_separating_bias_batch"),
    ("tessellation.estimate_all_pairs.self_s", "s", "tessellation.estimate_all_pairs"),
    ("geometry.instance_build.s", "s", "geometry.instance_build"),
    ("geometry.instance_build.calls", "count", "geometry.instance_build"),
    ("specfun.reg_inc_beta.s", "s", "specfun.reg_inc_beta"),
    ("specfun.reg_inc_beta.calls", "count", "specfun.reg_inc_beta"),
    ("specfun.reg_inc_beta.us_per_call", "us", "specfun.reg_inc_beta"),
    ("specfun.reg_inc_beta.reflected_ratio", "ratio", "specfun.lentz_fraction"),
    ("specfun.lentz_fraction.calls", "count", "specfun.lentz_fraction"),
    ("probability.closed_form.self_s", "s", "probability.closed_form"),
    ("selfcheck.lemma_sandwich.self_s", "s", "selfcheck.lemma_sandwich"),
    ("selfcheck.ordering_chain.self_s", "s", "selfcheck.ordering_chain"),
    ("selfcheck.beta_symmetry.self_s", "s", "selfcheck.beta_symmetry"),
    ("selfcheck.analytic_reductions.self_s", "s", "selfcheck.analytic_reductions"),
    ("cli.parse.s", "s", "cli.parse"),
    ("cli.format.s", "s", "cli.format"),
    ("cli.emit.bytes", "bytes", "cli.emit"),
    ("trace.overhead_ratio", "ratio", None),
)
# per-layer values that must repeat exactly for a fixed seed
EXACT_UNITS = ("count", "bytes", "ratio")


def cap_threads() -> dict:
    """Keep BLAS and OpenMP pools at or below the usable core count."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= NPROC):
            os.environ[var] = str(NPROC)
    return {var: os.environ[var] for var in THREAD_VARS}


def import_checkout():
    src = ROOT / "src"
    if not (src / "ballsep" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ballsep sources under {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(ROOT)]
    import ballsep

    if Path(ballsep.__file__).resolve().parent != src / "ballsep":
        sys.exit(f"perfbench: imported ballsep from {ballsep.__file__}, not from {src}")


def git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed, threads) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: deps.get(key) for key in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "nproc": NPROC,
        "commit": git_commit(),
        "seed": seed,
        "threads": threads,
    }


def setup_seconds(workload, seed) -> float:
    """Set-up time of one fresh interpreter, timed inside it."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload, str(seed), str(NPROC)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        sys.exit(f"perfbench: setup probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def one_pass(workload, gate, tracer=None):
    from perfbench import hostspeed

    start = time.perf_counter()
    if tracer is None:
        out = workload.run_pass()
    else:
        with tracer:
            out = workload.run_pass()
    wall = time.perf_counter() - start - out["probe_s"]
    info = workload.check(out, gate)
    info.update(
        wall=wall,
        probes=out["probes"],
        scale=hostspeed.factor(out["probes"], workload.speed_kind),
        items=out["items"],
        items_s=out["items_s"],
        latencies=out["latencies_ns"],
        scaled_latencies=out["scaled_ns"],
    )
    return info


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(passes, setup, scaled=True):
    """The end-to-end metrics and the number of calls the latencies cover.

    Times are scaled to the nominal host speed (see `hostspeed`) unless
    scaled is False: a pass's time and rate by the probes taken during it,
    each call's latency by the probe just before it, and the set-up time by
    all python probes of the run.  A call's latency is its median over the
    passes, so a burst of load from elsewhere on the host, which hits one
    pass, does not pass for a slow call; the quantiles are then taken over
    the calls."""
    from perfbench import hostspeed

    key = "scaled_latencies" if scaled else "latencies"
    per_call = [statistics.median(ns) for ns in zip(*(p[key] for p in passes))]
    scales = [p["scale"] if scaled else 1.0 for p in passes]
    setup_scale = 1.0
    if scaled:
        setup_scale = hostspeed.factor([probe for p in passes for probe in p["probes"]], "python")
    return {
        "setup_s": (statistics.median(setup) * setup_scale, "s"),
        "wall_s": (statistics.median(p["wall"] * f for p, f in zip(passes, scales)), "s"),
        "items_per_s": (
            statistics.median(p["items"] / (p["items_s"] * f) for p, f in zip(passes, scales)),
            "1/s",
        ),
        "call_p50_us": (quantile(per_call, 0.50) / 1e3, "us"),
        "call_p99_us": (quantile(per_call, 0.99) / 1e3, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, len(per_call)


def throughput(passes) -> dict:
    """The rates items_per_s stands for, under their own names per workload kind."""
    if passes[0]["samples"]:
        return {
            "samples_per_s": statistics.median(p["items"] / (p["items_s"] * p["scale"]) for p in passes),
            "eff_samples_per_s": statistics.median(
                p["effective"] / (p["items_s"] * p["scale"]) for p in passes
            ),
        }
    return {"cells_per_s": statistics.median(p["items"] / (p["items_s"] * p["scale"]) for p in passes)}


def layer_values(tracer) -> dict:
    """Per-layer values of one traced pass, before taking medians."""
    calls, incl, own, counts = tracer.calls, tracer.inclusive_s, tracer.self_s, tracer.counts
    beta_calls = calls["specfun.reg_inc_beta"]
    fractions = calls["specfun.lentz_fraction"]
    values = {}
    for name, unit, layer in PER_LAYER:
        if layer is None:
            continue
        suffix = name.rsplit(".", 1)[1]
        if suffix == "self_s":
            values[name] = own[layer]
        elif suffix == "s":
            values[name] = incl[layer]
        elif suffix == "calls":
            values[name] = calls[layer]
        elif suffix in ("rows", "bytes"):
            values[name] = counts[f"{layer}.{suffix}"]
        elif suffix == "us_per_call":
            values[name] = 1e6 * incl[layer] / beta_calls if beta_calls else 0.0
        elif suffix == "reflected_ratio":
            values[name] = tracer.reflected / fractions if fractions else 0.0
    return values


def absent_metrics(tracer) -> list:
    """Metrics whose layer has no wrapped name left, or whose count failed."""
    from perfbench.spans import TARGETS

    present = {layer for module, attribute, layer, _ in TARGETS
               if f"{module}.{attribute}" not in tracer.absent}
    if "montecarlo.bernoulli_estimate" in present and not tracer.block_unwrapped:
        present.add("montecarlo.block")
    return [
        name for name, unit, layer in PER_LAYER
        if layer is not None
        and (layer not in present or (unit in EXACT_UNITS and layer in tracer.uncounted))
    ]


def run_trace(workload, seconds, gate, report):
    from perfbench.spans import Tracer

    plain, traced, tracers = [], [], []  # pass times scaled to the nominal host speed
    measured = 0.0
    while measured < seconds or not traced:
        tracer = Tracer()
        for walls, pass_tracer in ((plain, None), (traced, tracer)):
            info = one_pass(workload, gate, pass_tracer)
            walls.append(info["wall"] * info["scale"])
            measured += info["wall"]
        tracers.append(tracer)
    per_pass = [layer_values(t) for t in tracers]
    metrics = {}
    for name, unit, layer in PER_LAYER:
        if layer is None:
            value = statistics.median(traced) / statistics.median(plain)
        elif unit in EXACT_UNITS:
            value = per_pass[0][name]
            gate.record(
                f"{name} repeats",
                all(p[name] == value for p in per_pass),
                f"differs between traced passes: {[p[name] for p in per_pass]}",
            )
        else:
            value = statistics.median(p[name] for p in per_pass)
        metrics[name] = (value, unit)
    absent = absent_metrics(tracers[0])
    report(f"scaled passes: {len(plain)} plain {[round(w, 4) for w in plain]}, "
           f"{len(traced)} traced {[round(w, 4) for w in traced]}")
    report(f"absent: {absent}")
    TRACE_DIR.mkdir(exist_ok=True)
    spans = {
        "workload": workload.name,
        "seed": workload.seed,
        "absent": absent,
        "layers": {
            layer: {"calls": tracers[0].calls[layer],
                    "inclusive_s": tracers[0].inclusive_s[layer],
                    "self_s": tracers[0].self_s[layer]}
            for layer in sorted(tracers[0].calls)
        },
        "edges": [[parent, child, n] for (parent, child), n in sorted(tracers[0].edges.items())],
    }
    path = TRACE_DIR / f"trace-{workload.name}-seed{workload.seed}.json"
    path.write_text(json.dumps(spans, indent=1) + "\n")
    report(f"spans of the first traced pass: {path.relative_to(ROOT)}")
    return metrics


def run_plain(workload, seconds, gate, report):
    """Timed passes.  The set-up probes run between passes, spread over the
    run, so that they sample the same stretch of time as the passes."""
    passes, setup = [], []
    measured = 0.0
    while len(passes) < MIN_PASSES or measured < seconds:
        passes.append(one_pass(workload, gate))
        measured += passes[-1]["wall"]
        if len(setup) < SETUP_REPEATS * min(1.0, measured / seconds):
            setup.append(setup_seconds(workload.name, workload.seed))
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_seconds(workload.name, workload.seed))
    report(f"passes: {len(passes)} {[round(p['wall'], 4) for p in passes]}")
    report(f"host-speed factors ({workload.speed_kind}): {[round(p['scale'], 3) for p in passes]}")
    report(f"setup_s probes: {[round(s, 4) for s in setup]}")
    return passes, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("mc-highdim", "mc-lowdim", "closed-forms"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must lie in [0, 2**32)")

    threads = cap_threads()
    import_checkout()
    from perfbench.workloads import WORKLOADS, Gate

    def report(line):
        print(f"[{args.workload}] {line}", flush=True)

    report(f"env: {json.dumps(environment(args.seed, threads), sort_keys=True)}")
    workload = WORKLOADS[args.workload](args.seed, NPROC)
    workload.prepare_references()
    gate = Gate()
    if args.trace:
        metrics = run_trace(workload, args.seconds, gate, report)
    else:
        passes, setup = run_plain(workload, args.seconds, gate, report)
        metrics, call_count = end_to_end(passes, setup)
        raw, _ = end_to_end(passes, setup, scaled=False)
        report("unscaled: " + ", ".join(f"{k} = {v:.6g} {u}" for k, (v, u) in raw.items()))
        beyond = call_count - 1 - int(0.99 * call_count)
        report(f"call latencies: {call_count} calls, each the median of {len(passes)} passes "
               f"(p99 has {beyond} beyond it)")
        for name, value in throughput(passes).items():
            report(f"{name} = {value:.6g} 1/s")
    workload.check_once(gate)
    ratio = gate.failed / gate.attempted
    report(f"failed_ratio = {ratio:.6g} ({gate.failed} of {gate.attempted} checks; "
           f"known defects {dict(gate.known)}, {len(gate.unexpected)} unexpected)")
    for line in gate.unexpected[:20]:
        report(f"UNEXPECTED: {line}")
    for name, (value, unit) in metrics.items():
        report(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not gate.unexpected,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
