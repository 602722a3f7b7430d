"""Spans around the calls into each ballsep module, recorded from outside.

Nothing under ``src/`` knows about tracing.  While a `Tracer` is active it
replaces module-level names with wrappers, in every ``ballsep`` module that
binds the same object (``tessellation`` holds its own copies of
``_sphere_block``, ``separates_batch`` and ``bernoulli_estimate``), and puts
the originals back when it exits.  A name that no longer exists is recorded
as absent instead of failing the run.

A span covers one call into a layer.  Its self time is its duration minus
the time of the spans opened directly inside it.  A call into a layer made
directly from the same layer (``separation_report`` calling
``p_fully_random``) stays inside the outer span.  Spans are aggregated as
they close: per layer the calls, inclusive and self seconds, and per
(parent layer, layer) edge the number of spans, which is the span tree of a
pass in aggregate.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

_perf = time.perf_counter


def _rows(args, kwargs):
    weights = kwargs["weights"] if "weights" in kwargs else args[0]
    return {"rows": int(weights.shape[0])}


def _sphere_bytes(args, kwargs):
    # float64 draws of an (m, n) block; computed from the shape, not measured
    m = kwargs["m"] if "m" in kwargs else args[1]
    n = kwargs["n"] if "n" in kwargs else args[2]
    return {"bytes": int(m) * int(n) * 8}


def _emit_bytes(args, kwargs):
    text = kwargs["text"] if "text" in kwargs else args[0]
    return {"bytes": len(text.encode("utf-8"))}


# (module, attribute, layer, counter).  An attribute "A.b" patches method b
# of class A in place, since callers hold the class itself.
TARGETS = (
    ("montecarlo", "_sphere_block", "montecarlo.sphere_block", _sphere_bytes),
    ("montecarlo", "_block_rng", "montecarlo.block_rng", None),
    ("montecarlo", "bernoulli_estimate", "montecarlo.bernoulli_estimate", None),
    ("geometry", "separates_batch", "geometry.separates_batch", _rows),
    ("geometry", "exists_separating_bias_batch", "geometry.exists_separating_bias_batch", _rows),
    ("tessellation", "estimate_all_pairs", "tessellation.estimate_all_pairs", None),
    ("geometry", "Ball.__post_init__", "geometry.instance_build", None),
    ("geometry", "make_instance", "geometry.instance_build", None),
    ("geometry", "symmetric_instance", "geometry.instance_build", None),
    ("specfun", "reg_inc_beta", "specfun.reg_inc_beta", None),
    ("specfun", "_lentz_fraction", "specfun.lentz_fraction", None),
    ("probability", "p_random_bias", "probability.closed_form", None),
    ("probability", "p_random_weight", "probability.closed_form", None),
    ("probability", "p_fully_random", "probability.closed_form", None),
    ("probability", "separation_report", "probability.closed_form", None),
    ("probability", "lemma_bounds", "probability.closed_form", None),
    ("probability", "asymptotic_envelope", "probability.closed_form", None),
    ("selfcheck", "check_lemma_sandwich", "selfcheck.lemma_sandwich", None),
    ("selfcheck", "check_ordering_chain", "selfcheck.ordering_chain", None),
    ("selfcheck", "check_beta_symmetry", "selfcheck.beta_symmetry", None),
    ("selfcheck", "check_analytic_reductions", "selfcheck.analytic_reductions", None),
    ("cli", "_merge_vector_flags", "cli.parse", None),
    ("cli", "_build_parser", "cli.parse", None),
    ("cli", "_parse_vector", "cli.parse", None),
    ("cli", "_parse_int_list", "cli.parse", None),
    ("cli", "_parse_float_list", "cli.parse", None),
    ("cli", "_csv_text", "cli.format", None),
    ("cli", "_json_lines", "cli.format", None),
    ("cli", "_key_value_text", "cli.format", None),
    ("cli", "_emit", "cli.emit", _emit_bytes),
)


class Tracer:
    """Aggregated spans of one traced pass; a context manager that patches."""

    def __init__(self):
        self.calls = Counter()
        self.inclusive_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.edges = Counter()
        self.reflected = 0
        self.absent = []
        self.uncounted = set()
        self.block_unwrapped = True
        self._stack = []
        self._open = Counter()
        self._beta_args = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def call(self, layer, fn, args, kwargs):
        stack = self._stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        stack.append(frame)
        self._open[layer] += 1
        start = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _perf() - start
            stack.pop()
            self._open[layer] -= 1
            self.calls[layer] += 1
            self.self_s[layer] += elapsed - frame[1]
            if self._open[layer] == 0:
                # re-entry below another layer is already inside this time
                self.inclusive_s[layer] += elapsed
            parent = stack[-1][0] if stack else "-"
            if stack:
                stack[-1][1] += elapsed
            self.edges[(parent, layer)] += 1

    def _wrap(self, layer, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                try:
                    measured = counter(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # the signature moved on; report the count as absent
                    tracer.uncounted.add(layer)
                else:
                    for key, value in measured.items():
                        tracer.counts[f"{layer}.{key}"] += value
            return tracer.call(layer, fn, args, kwargs)

        return traced

    def _wrap_bernoulli(self, layer, fn):
        tracer = self
        signature = inspect.signature(fn)
        self.block_unwrapped = "block_hits" not in signature.parameters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            hits = bound.arguments.get("block_hits")
            if hits is not None:
                # blocks of the all-pairs estimator run a closure defined in
                # tessellation; their time belongs to that layer
                module = getattr(hits, "__module__", "") or ""
                block = (
                    "tessellation.estimate_all_pairs"
                    if module.endswith("tessellation")
                    else "montecarlo.block"
                )
                bound.arguments["block_hits"] = functools.partial(
                    tracer.call_block, block, hits
                )
            return tracer.call(layer, fn, bound.args, bound.kwargs)

        return traced

    def call_block(self, layer, hits, *args, **kwargs):
        return self.call(layer, hits, args, kwargs)

    def _wrap_beta(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._beta_args.append(args[0] if args else kwargs.get("args"))
            try:
                return tracer.call(layer, fn, args, kwargs)
            finally:
                tracer._beta_args.pop()

        return traced

    def _wrap_fraction(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            beta_args = tracer._beta_args[-1] if tracer._beta_args else None
            kappa = getattr(beta_args, "kappa", None)
            if kappa is None or len(args) != 3:
                tracer.uncounted.add(layer)
            elif args[2] != kappa or args[0] != beta_args.y:
                # the direct route evaluates the fraction at (y, z, kappa)
                tracer.reflected += 1
            return tracer.call(layer, fn, args, kwargs)

        return traced

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        modules = {
            name.rpartition(".")[2]: module
            for name, module in list(sys.modules.items())
            if (name == "ballsep" or name.startswith("ballsep.")) and module is not None
        }
        for module_name, attribute, layer, counter in TARGETS:
            module = modules.get(module_name)
            owner_name, _, method = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attribute}")
                continue
            if attribute == "bernoulli_estimate":
                wrapper = self._wrap_bernoulli(layer, original)
            elif attribute == "reg_inc_beta":
                wrapper = self._wrap_beta(layer, original)
            elif attribute == "_lentz_fraction":
                wrapper = self._wrap_fraction(layer, original)
            else:
                wrapper = self._wrap(layer, original, counter)
            if owner_name:
                self._patch(owner, method, wrapper)
                continue
            for holder in modules.values():
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, name, wrapper)
        self._patch_parse_args()
        return self

    def _patch(self, holder, name, value):
        self._patches.append((holder, name, getattr(holder, name)))
        setattr(holder, name, value)

    def _patch_parse_args(self):
        # argparse does the parsing; time it on the parsers the CLI builds
        cli = sys.modules.get("ballsep.cli")
        build = getattr(cli, "_build_parser", None)
        if build is None:
            return
        tracer = self

        @functools.wraps(build)
        def traced_build(*args, **kwargs):
            parser = build(*args, **kwargs)
            parse = parser.parse_args
            parser.parse_args = functools.partial(tracer._call_parse, parse)
            return parser

        self._patch(cli, "_build_parser", traced_build)

    def _call_parse(self, parse, *args, **kwargs):
        return self.call("cli.parse", parse, args, kwargs)

    def __exit__(self, *exc):
        while self._patches:
            holder, name, value = self._patches.pop()
            setattr(holder, name, value)
        return False
