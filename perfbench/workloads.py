"""The three workloads: inputs built from a seed, one pass, and its checks.

Every workload drives the library and ``ballsep.cli.main`` in this process.
Library calls go through module attributes looked up at call time, so a
traced pass sees the wrappers that `perfbench.spans` installs.  Instances
come from the benchmark's own generator (`general_pose`), not from
``ballsep.selfcheck``.

A pass returns what it produced; `check` compares that with the closed
forms, the mpmath references and the first pass, outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time
from collections import Counter

import numpy as np

import ballsep.cli
import ballsep.geometry as geometry
import ballsep.montecarlo as montecarlo
import ballsep.probability as probability
import ballsep.tessellation as tessellation

from . import hostspeed, oracle

_perf = time.perf_counter
_perf_ns = time.perf_counter_ns

Z_BOUND = 5.0
BLOCK = 1 << 16


def general_pose(rng: np.random.Generator, n: int, sin_phi: float):
    """Ball pair with a random axis, a random offset from the origin and
    random radii, at the given sin(phi); k is 1 to 2 times the least valid."""
    r, p = rng.uniform(0.5, 2.0, size=2)
    dist = (r + p) / sin_phi
    axis = rng.standard_normal(n)
    axis /= np.linalg.norm(axis)
    offset = rng.standard_normal(n)
    offset *= rng.uniform(0.0, 1.0) * dist / np.linalg.norm(offset)
    c = offset - 0.5 * dist * axis
    x = offset + 0.5 * dist * axis
    k = max(np.linalg.norm(c), np.linalg.norm(x)) * rng.uniform(1.0, 2.0)
    return geometry.make_instance(geometry.Ball(c, float(r)), geometry.Ball(x, float(p)), float(k))


def spread_sin_phi(u: float) -> float:
    """sin(phi) uniform in logit over [-7, 7] for u uniform in [0, 1]: from
    about 1e-3 to 0.999."""
    return float(1.0 / (1.0 + math.exp(7.0 - 14.0 * u)))


def grid_units(rng: np.random.Generator, rows: int, cols: int):
    """The cell centres of a rows x cols grid of the unit square, in seeded
    random order.  The cost of a closed form depends on n and sin(phi) alone,
    and its slowest calls lie on a narrow ridge of them, so drawing these two
    at random would move the p99 latency with the seed by 10% or more; on a
    fixed grid every seed has the same mix of cheap and costly calls, and the
    seed sets the order and the pose (axis, offset, radii, k) of each."""
    i, j = np.divmod(np.arange(rows * cols), cols)
    order = rng.permutation(rows * cols)
    return (i[order] + 0.5) / rows, (j[order] + 0.5) / cols


def run_cli(argv):
    """(exit code, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ballsep.cli.main([str(a) for a in argv])
    return code, out.getvalue()


def null_z(mean: float, p: float, samples: int) -> float:
    """z of an estimated mean under the closed form p (its own variance)."""
    var = p * (1.0 - p) / samples
    if var > 0.0:
        return (mean - p) / math.sqrt(var)
    return 0.0 if mean == p else math.inf


class Gate:
    """Tally of checks, each named by a key that is the same on every pass.

    Every pass is checked, but a check counts once per run, with the worst
    outcome any pass gave it, so `attempted` and `failed` depend on the seed
    alone and not on how many passes fit in the run.  A known closed-form
    defect (see `oracle`) counts as failed but is kept apart from the
    unexpected failures that make a run incorrect."""

    def __init__(self):
        self.outcomes = {}
        self.details = {}

    def record(self, key: str, outcome, detail: str = "") -> None:
        """outcome: True, False, or a class from `oracle.classify`."""
        if outcome is True:
            outcome = "ok"
        elif outcome is False:
            outcome = "wrong"
        worst = self.outcomes.get(key, "ok")
        if key not in self.outcomes or oracle.SEVERITY[outcome] > oracle.SEVERITY[worst]:
            self.outcomes[key] = outcome
            self.details[key] = f"{key}: {detail}" if detail else key

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(outcome != "ok" for outcome in self.outcomes.values())

    @property
    def known(self) -> Counter:
        return Counter(o for o in self.outcomes.values() if o not in ("ok", "wrong"))

    @property
    def unexpected(self) -> list:
        return [self.details[key] for key, o in self.outcomes.items() if o == "wrong"]


def _report_values(report):
    return (report.p_random_bias, report.p_random_weight, report.p_fully_random)


def _instance_reference(inst):
    return oracle.reference(
        inst.ball_a.center,
        inst.ball_a.radius,
        inst.ball_b.center,
        inst.ball_b.radius,
        inst.bias_half_range,
    )


def _closed_forms(inst):
    return _report_values(probability.separation_report(inst))


class Workload:
    """Shared parts: per-call latency instances, their audit, pass bookkeeping."""

    name = ""
    # the latency instances: (n values, sin(phi) values) of `grid_units`
    latency_grid = (1, 1000)
    audited = 64

    def __init__(self, seed: int, nproc: int):
        self.seed = seed
        self.nproc = nproc
        self.first = None
        self.references = None

    def _latency_pool(self, rng, dimension):
        """General-pose instances on the latency grid; dimension maps a unit
        coordinate to n."""
        units = grid_units(rng, *self.latency_grid)
        return [general_pose(rng, dimension(u), spread_sin_phi(v)) for u, v in zip(*units)]

    def prepare_references(self):
        """mpmath references for everything the checks audit (untimed)."""
        picks = np.random.default_rng([self.seed, 7]).choice(
            len(self.latency), self.audited, replace=False
        )
        self.audit_picks = sorted(int(i) for i in picks)
        self.references = {
            "latency": [_instance_reference(self.latency[i]) for i in self.audit_picks]
        }

    def run_pass(self):
        """Run the stages in order, timing each.  A slice of the per-call
        latency loop runs before every stage and after the last, so the
        latencies sample the whole pass rather than one moment of it.  A
        host-speed probe precedes each slice; each call's latency is scaled
        by the python probe next to it, and the pass's time excludes the
        probes (`probe_s`)."""
        stages = self.stages()
        slices = len(stages) + 1
        record = [None] * len(self.latency)
        probes = []
        out = {}
        stage_s = 0.0
        for k, (key, stage) in enumerate(stages):
            self.time_calls(k, slices, record, probes)
            start = _perf()
            out[key] = stage()
            if key in self.item_stages:
                stage_s += _perf() - start
        self.time_calls(len(stages), slices, record, probes)
        out.update(
            items=self.items,
            items_s=stage_s,
            latencies_ns=[ns for ns, _, _ in record],
            scaled_ns=[ns * scale for ns, scale, _ in record],
            calls=[_report_values(report) for _, _, report in record],
            probes=probes,
            probe_s=sum(p["python"] + p["numpy"] for p in probes),
        )
        return out

    def time_calls(self, start, step, record, probes):
        """separation_report on latency instances start, start + step, ...,
        after a host-speed probe."""
        probes.append(hostspeed.probe())
        scale = hostspeed.factor(probes[-1:], "python")
        report = probability.separation_report
        for i in range(start, len(self.latency), step):
            begin = _perf_ns()
            result = report(self.latency[i])
            record[i] = (_perf_ns() - begin, scale, result)

    def check_once(self, gate: Gate):
        """Checks made once per run, after the passes."""

    def check_calls(self, values, gate: Gate):
        same = self.first is None or values == self.first["calls"]
        gate.record("separation_report repeats", same, "outputs differ from the first pass")
        for i, ref in zip(self.audit_picks, self.references["latency"]):
            inst = self.latency[i]
            gate.record(
                f"separation_report call {i}",
                oracle.worst(values[i], ref),
                f"n={inst.dimension} sin_phi={inst.sin_phi!r} "
                f"got {values[i]} want {[float(v) for v in ref]}",
            )

    def check_cli(self, key, code, text, gate: Gate):
        same = self.first is None or self.first[key] == text
        gate.record(key, code == 0 and same, f"exit {code}, same output {same}")

    def check_estimate(self, label, mean, p, samples, gate: Gate):
        z = null_z(mean, p, samples)
        gate.record(label, abs(z) <= Z_BOUND, f"mean {mean!r} vs closed form {p!r}, z={z:.3g}")

    def check_estimate_table(self, key, code, text, inst, samples, gate: Gate):
        self.check_cli(key, code, text, gate)
        exact = dict(zip(("bias", "weight", "full"), _closed_forms(inst)))
        rows = (
            {row["estimator"]: row for row in csv.DictReader(io.StringIO(text))} if code == 0 else {}
        )
        for name in ("bias", "weight", "full"):
            row = rows.get(name)
            if row is None or float(row["exact"]) != exact[name]:
                gate.record(f"{key} {name}", False, "row missing or exact column off")
                continue
            self.check_estimate(f"{key} {name}", float(row["mean"]), exact[name], samples, gate)
        return sum(
            _effective(float(rows[name]["mean"]), exact[name], samples) for name in rows
        )


def _effective(mean, p, samples):
    """p(1-p)/std_error^2 of one estimate; its nominal count when se is 0."""
    se_sq = mean * (1.0 - mean) / samples
    return p * (1.0 - p) / se_sq if se_sq > 0.0 else float(samples)


class McHighdim(Workload):
    """n = 200: drawing sphere directions carries the pass."""

    name = "mc-highdim"
    speed_kind = "numpy"
    samples = 2 * BLOCK
    dimension = 200
    items = 5 * samples
    item_stages = ("estimate", "weight", "full")

    def __init__(self, seed, nproc):
        super().__init__(seed, nproc)
        rng = np.random.default_rng([seed, 1])
        self.symmetric = geometry.symmetric_instance(self.dimension, 0.5)
        # sin(phi) where the n = 200 hit rates sit well inside (0, 1)
        self.pair = general_pose(rng, self.dimension, float(rng.uniform(0.03, 0.12)))
        self.latency = self._latency_pool(rng, lambda _: self.dimension)

    def prepare_references(self):
        super().prepare_references()
        self.references["symmetric"] = _instance_reference(self.symmetric)
        self.references["pair"] = _instance_reference(self.pair)

    def stages(self):
        cfg = montecarlo.McConfig(samples=self.samples, seed=self.seed, chunks=self.nproc)
        return [
            ("estimate", lambda: run_cli(
                ["estimate", "--dim", self.dimension, "--sinphi", 0.5, "--samples", self.samples,
                 "--seed", self.seed, "--chunks", self.nproc, "--which", "all", "--format", "csv"]
            )),
            ("weight", lambda: montecarlo.estimate_p_weight(self.pair, cfg)),
            ("full", lambda: montecarlo.estimate_p_full(self.pair, cfg)),
        ]

    def check(self, out, gate: Gate):
        code, text = out["estimate"]
        effective = self.check_estimate_table("estimate", code, text, self.symmetric, self.samples, gate)
        _, p_weight, p_full = _closed_forms(self.pair)
        for label, est, p in (("pair weight", out["weight"], p_weight), ("pair full", out["full"], p_full)):
            self.check_estimate(label, est.mean, p, self.samples, gate)
            effective += _effective(est.mean, p, self.samples)
        for key, inst in (("symmetric", self.symmetric), ("pair", self.pair)):
            gate.record(f"{key} closed forms", oracle.worst(_closed_forms(inst), self.references[key]))
        self.check_calls(out["calls"], gate)
        if self.first is None:
            self.first = {"estimate": text, "calls": out["calls"]}
        return {"samples": out["items"], "effective": effective}


class McLowdim(Workload):
    """n <= 3: per-block fixed costs and the predicate carry the pass."""

    name = "mc-lowdim"
    speed_kind = "numpy"
    samples = 16 * BLOCK
    items = 3 * samples
    item_stages = ("estimate",)
    tessellate_samples = BLOCK
    pair_samples = BLOCK // 8
    pairs = 8
    # fixed widths, so the work per pass does not depend on the seed; chosen
    # so the joint hit rate of 8 pairs is typically neither near 0 nor 1
    # (0.14 to 0.59 fully random, 0.44 to 0.65 random weight, seeds 0 to 5)
    widths = {"fully-random": 96, "random-weight": 3}

    def __init__(self, seed, nproc):
        super().__init__(seed, nproc)
        rng = np.random.default_rng([seed, 2])
        self.symmetric = geometry.symmetric_instance(3, 0.5)
        self.planar = geometry.symmetric_instance(2, 0.5)
        self.pair_list = [
            general_pose(rng, 3, float(rng.uniform(0.2, 0.6))) for _ in range(self.pairs)
        ]
        self.latency = self._latency_pool(rng, lambda _: 3)

    def prepare_references(self):
        super().prepare_references()
        self.references["symmetric"] = _instance_reference(self.symmetric)
        self.references["planar"] = _instance_reference(self.planar)

    def all_pairs(self, chunks):
        cfg = montecarlo.McConfig(samples=self.pair_samples, seed=self.seed, chunks=chunks)
        return {
            mode: tessellation.estimate_all_pairs(self.pair_list, width, mode, cfg).mean
            for mode, width in self.widths.items()
        }

    def stages(self):
        return [
            ("estimate", lambda: run_cli(
                ["estimate", "--dim", 3, "--sinphi", 0.5, "--samples", self.samples,
                 "--seed", self.seed, "--chunks", self.nproc, "--which", "all", "--format", "csv"]
            )),
            ("tessellate", lambda: run_cli(
                ["tessellate", "--dim", 2, "--sinphi", 0.5, "--width", 64,
                 "--samples", self.tessellate_samples, "--seed", self.seed,
                 "--chunks", self.nproc, "--format", "csv"]
            )),
            ("joint", lambda: self.all_pairs(self.nproc)),
        ]

    def check(self, out, gate: Gate):
        code, text = out["estimate"]
        effective = self.check_estimate_table("estimate", code, text, self.symmetric, self.samples, gate)
        code, text = out["tessellate"]
        self.check_cli("tessellate", code, text, gate)
        if code == 0:
            row = next(csv.DictReader(io.StringIO(text)))
            p = probability.p_fully_random(self.planar)
            predicted = -math.expm1(64 * math.log1p(-p))
            self.check_estimate("tessellate estimate", float(row["estimate"]), predicted, self.tessellate_samples, gate)
        for key, inst in (("symmetric", self.symmetric), ("planar", self.planar)):
            gate.record(f"{key} closed forms", oracle.worst(_closed_forms(inst), self.references[key]))
        # biases are drawn from the widest range, which dilutes each pair's
        # fully random rate by k / k_draw
        k_draw = max(inst.bias_half_range for inst in self.pair_list)
        per_plane = {
            "fully-random": [
                probability.p_fully_random(inst) * inst.bias_half_range / k_draw
                for inst in self.pair_list
            ],
            "random-weight": [probability.p_random_weight(inst) for inst in self.pair_list],
        }
        for mode, mean in out["joint"].items():
            # every pair must be split, so no pair's own rate can be beaten
            width = self.widths[mode]
            ceiling = min(-math.expm1(width * math.log1p(-p)) for p in per_plane[mode])
            z = null_z(mean, ceiling, self.pair_samples)
            same = self.first is None or self.first["joint"][mode] == mean
            gate.record(
                f"all pairs {mode}",
                same and z <= Z_BOUND,
                f"{mean!r}, first pass {same}, ceiling {ceiling!r}",
            )
        self.check_calls(out["calls"], gate)
        if self.first is None:
            self.first = {
                "estimate": out["estimate"][1],
                "tessellate": out["tessellate"][1],
                "joint": out["joint"],
                "calls": out["calls"],
            }
        return {"samples": out["items"], "effective": effective}

    def check_once(self, gate: Gate):
        """All-pairs estimates must not depend on the chunk count."""
        single = self.all_pairs(1)
        for mode, mean in single.items():
            gate.record(
                f"all pairs {mode} chunk invariance",
                mean == self.first["joint"][mode],
                f"chunks=1 gives {mean!r}, chunks={self.nproc} gives {self.first['joint'][mode]!r}",
            )


class ClosedForms(Workload):
    """No Monte Carlo: sweep, validate and per-call closed forms."""

    name = "closed-forms"
    speed_kind = "python"
    latency_grid = (40, 50)
    sweep_dims = (2, 5000)
    sweep_deltas = (0.5, 2.0)
    sweep_audited = 400
    item_stages = ("sweep",)

    def __init__(self, seed, nproc):
        super().__init__(seed, nproc)
        rng = np.random.default_rng([seed, 3])
        lo, hi = math.log(2), math.log(1e4)
        self.latency = self._latency_pool(
            rng, lambda u: int(round(math.exp(lo + u * (hi - lo))))
        )
        self.cells = [
            (n, delta)
            for n in range(self.sweep_dims[0], self.sweep_dims[1] + 1)
            for delta in self.sweep_deltas
        ]
        self.items = len(self.cells)

    def prepare_references(self):
        super().prepare_references()
        picks = np.random.default_rng([self.seed, 8]).choice(
            len(self.cells), self.sweep_audited, replace=False
        )
        self.cell_picks = sorted(int(i) for i in picks)
        self.references["sweep"] = [oracle.sweep_reference(*self.cells[i]) for i in self.cell_picks]

    def stages(self):
        dims = f"{self.sweep_dims[0]}..{self.sweep_dims[1]}"
        deltas = ",".join(str(d) for d in self.sweep_deltas)
        return [
            ("sweep", lambda: run_cli(["sweep", "--dim", dims, "--delta", deltas])),
            ("validate", lambda: run_cli(["validate", "--samples", 10000, "--seed", self.seed])),
        ]

    def check(self, out, gate: Gate):
        code, text = out["sweep"]
        self.check_cli("sweep", code, text, gate)
        rows = list(csv.DictReader(io.StringIO(text))) if code == 0 else []
        if len(rows) != len(self.cells):
            gate.record("sweep rows", False, f"{len(rows)} rows, want {len(self.cells)}")
        else:
            for i, ref in zip(self.cell_picks, self.references["sweep"]):
                row = rows[i]
                values = (float(row["p_bias"]), float(row["p_weight"]), float(row["p_full"]))
                gate.record(
                    f"sweep cell {i}",
                    oracle.worst(values, ref),
                    f"n={row['n']} delta={self.cells[i][1]}: got {values}",
                )
        code, text = out["validate"]
        self.check_cli("validate", code, text, gate)
        self.check_calls(out["calls"], gate)
        if self.first is None:
            self.first = {"sweep": out["sweep"][1], "validate": text, "calls": out["calls"]}
        return {"samples": 0, "effective": 0.0}


WORKLOADS = {w.name: w for w in (McHighdim, McLowdim, ClosedForms)}
