import ast
import importlib
import inspect
from pathlib import Path

import ballsep
from ballsep import montecarlo, specfun
from ballsep.montecarlo import McConfig

# The public surface: what the CLI and the estimators use.  A change that
# adds or removes a public name edits this list and says why.
PUBLIC = [
    "ArgumentOutOfRange",
    "Ball",
    "BallsOverlapOrTouch",
    "BallsepError",
    "BetaArgs",
    "DEFAULT_SEED",
    "DimensionMismatch",
    "DimensionTooSmall",
    "EmptyInstanceList",
    "Estimate",
    "InternalConsistencyError",
    "KInsufficient",
    "MODES",
    "McConfig",
    "NoConvergence",
    "SeparationInstance",
    "SeparationReport",
    "achieved_confidence",
    "asymptotic_envelope",
    "estimate_all_pairs",
    "estimate_p_bias",
    "estimate_p_full",
    "estimate_p_weight",
    "exists_separating_bias_batch",
    "lemma_bounds",
    "log_beta",
    "make_instance",
    "p_fully_random",
    "p_random_bias",
    "p_random_weight",
    "reg_inc_beta",
    "separates_batch",
    "separation_report",
    "symmetric_instance",
    "width_for_confidence",
    "__version__",
]


def test_every_public_name_resolves_once():
    assert len(set(ballsep.__all__)) == len(ballsep.__all__)
    for name in ballsep.__all__:
        assert hasattr(ballsep, name), name


def test_public_names_are_the_listed_ones():
    assert ballsep.__all__ == PUBLIC
    assert len(PUBLIC) == 36


# Ceilings on the library's size, which should only go down: lower one when a
# change shrinks its count, and raise it only for a change that states why.
MAX_PUBLIC_NAMES = 36
MAX_SOURCE_LINES = 2056


def test_library_size_does_not_grow():
    assert len(ballsep.__all__) <= MAX_PUBLIC_NAMES
    sources = sorted(Path(ballsep.__file__).parent.glob("*.py"))
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in sources)
    assert lines <= MAX_SOURCE_LINES, f"src/ballsep/*.py holds {lines} lines"


# numpy's versions of these differ from math's in the last bit for some arguments, so the
# closed forms, and selfcheck, which builds the columns they read, take math's, mapped over
# a column by specfun._each
NUMPY_TRANSCENDENTALS = {"exp", "log", "log1p", "expm1", "power", "sin", "cos", "arcsin"}


def test_closed_forms_use_no_numpy_transcendental():
    package = Path(ballsep.__file__).parent
    for name in ("specfun.py", "probability.py", "selfcheck.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        used = [
            f"{name}:{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in NUMPY_TRANSCENDENTALS
            and ast.unparse(node.value) in ("np", "numpy")
        ]
        imported = [
            f"{name}:{node.lineno}: from numpy import {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
            for alias in node.names
            if alias.name in NUMPY_TRANSCENDENTALS
        ]
        assert not used + imported, used + imported


def test_benchmark_import_surface_resolves(monkeypatch):
    # perfbench/workloads.py reaches the library through module attributes
    # looked up at call time; a name it uses that a change removes would
    # crash the benchmark run, so resolve each one here
    source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("ballsep."):
                    modules[alias.asname or alias.name] = importlib.import_module(alias.name)
    assert modules, "no ballsep module imports found"
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = ast.unparse(node.value)
            if owner in modules:
                used.add((owner, node.attr))
    assert ("montecarlo", "McConfig") in used
    for owner, name in sorted(used):
        assert hasattr(modules[owner], name), f"{owner}.{name}"
    McConfig(samples=1, seed=0, chunks=1)
    # perfbench/spans.py binds bernoulli_estimate's block_hits by name and
    # reads _sphere_block's positional arguments; a moved one turns those
    # per-layer metrics absent without failing the run
    assert "block_hits" in inspect.signature(montecarlo.bernoulli_estimate).parameters
    # (and its buffer comes as the keyword `out`)
    kinds = {p.name: p.kind for p in inspect.signature(montecarlo._sphere_block).parameters.values()}
    assert list(kinds) == ["rng", "m", "d", "n", "out"]
    assert set(list(kinds.values())[:4]) == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    assert kinds["out"] is inspect.Parameter.KEYWORD_ONLY
    # it also reads reg_inc_beta's one argument's .kappa and .y and the three
    # positional arguments of _lentz_fraction(a, b, x) to count reflected
    # calls; a moved one turns specfun.reg_inc_beta.reflected_ratio absent
    assert len(inspect.signature(specfun.reg_inc_beta).parameters) == 1
    assert list(inspect.signature(specfun._lentz_fraction).parameters) == ["a", "b", "x"]
    for param in inspect.signature(specfun._lentz_fraction).parameters.values():
        assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    seen = []
    original = specfun._lentz_fraction

    def recorded(*args, **kwargs):
        seen.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(specfun, "_lentz_fraction", recorded)
    direct = specfun.BetaArgs(0.3, 2.0, 3.0)
    specfun.reg_inc_beta(direct)
    specfun.reg_inc_beta(specfun.BetaArgs(0.9, 2.0, 3.0))
    assert seen == [((direct.y, direct.z, direct.kappa), {}), ((3.0, 2.0, 1.0 - 0.9), {})]


# perfbench/spans.py TARGETS entries that name nothing in ballsep; the tracer
# records each as absent, so its per-layer metric is absent on every run
KNOWN_ABSENT_TARGETS = {"cli._parse_vector"}


def test_benchmark_trace_targets_resolve():
    # the tracer records a (module, attribute) it cannot find as absent and
    # runs on, so a cut that removes a traced name would silently turn its
    # per-layer metric absent; resolve every entry as the tracer does
    source = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TARGETS"]
    ]
    entries = [tuple(map(ast.literal_eval, entry.elts[:2])) for entry in targets.elts]
    assert ("geometry", "Ball.__post_init__") in entries
    absent = set()
    for module_name, attribute in entries:
        owner = importlib.import_module(f"ballsep.{module_name}")
        for name in attribute.split("."):
            owner = getattr(owner, name, None)
        if owner is None:
            absent.add(f"{module_name}.{attribute}")
    assert absent <= KNOWN_ABSENT_TARGETS, sorted(absent - KNOWN_ABSENT_TARGETS)
