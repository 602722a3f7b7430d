import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
from pathlib import Path

import pytest

import ballsep
from ballsep import cli, montecarlo, specfun
from ballsep.geometry import Ball, make_instance, symmetric_instance
from ballsep.montecarlo import McConfig

# The public surface: what the CLI and the estimators use.  A change that
# adds or removes a public name edits this list and says why.
PUBLIC = [
    "Ball",
    "BallsepError",
    "DEFAULT_SEED",
    "Estimate",
    "InternalConsistencyError",
    "MODES",
    "McConfig",
    "SeparationInstance",
    "SeparationReport",
    "achieved_confidence",
    "asymptotic_envelope",
    "estimate_all_pairs",
    "estimate_p_full",
    "estimate_p_weight",
    "exists_separating_bias_batch",
    "lemma_bounds",
    "log_beta",
    "make_instance",
    "p_fully_random",
    "p_random_bias",
    "p_random_weight",
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
    assert len(PUBLIC) == 26


# Public names that no other ballsep module and no benchmark workload refers to, each
# kept for its own reason; every other public name is there because something uses it.
UNREFERENCED_PUBLIC = {
    "Estimate": "the type the estimators return",
    "SeparationReport": "the type separation_report returns",
    "lemma_bounds": "the paper's lemma sandwich, with README examples",
    "asymptotic_envelope": "the paper's large-n envelope, with README examples",
    "__version__": "the package version",
}


def _references(path: Path) -> set:
    """The names and attributes a module reads, less the names it defines at its top level."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    read = {
        node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    read |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    own = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    own |= {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    return read - own


def test_public_names_are_used_by_another_module_or_the_benchmark():
    # the public API holds what the CLI, the estimators and the benchmark use; a name
    # counts as used where a module that does not define it reads it in code, not in a
    # comment or a string
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    paths = [*Path(ballsep.__file__).parent.glob("*.py"), workloads]
    used = set().union(*map(_references, paths))
    unused = {name for name in ballsep.__all__ if name not in used}
    assert unused == set(UNREFERENCED_PUBLIC), sorted(unused ^ set(UNREFERENCED_PUBLIC))


# Ceilings on the library's size, which should only go down: lower one when a
# change shrinks its count, and raise it only for a change that states why.
MAX_PUBLIC_NAMES = 26
MAX_SOURCE_LINES = 1896


def test_library_size_does_not_grow():
    assert len(ballsep.__all__) <= MAX_PUBLIC_NAMES
    sources = sorted(Path(ballsep.__file__).parent.glob("*.py"))
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in sources)
    assert lines <= MAX_SOURCE_LINES, f"src/ballsep/*.py holds {lines} lines"


def test_errors_have_two_roots():
    # a caller tells bad input (BallsepError) only from a bug (InternalConsistencyError); a
    # refusal names its case in its message, not in an exception class of its own
    package = Path(ballsep.__file__).parent
    tree = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    roots = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert [(node.name, list(map(ast.unparse, node.bases))) for node in roots] == [
        ("BallsepError", ["Exception"]),
        ("InternalConsistencyError", ["Exception"]),
    ]
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        if path.name == "errors.py" or not classes:
            continue
        namespace = vars(importlib.import_module(f"ballsep.{path.stem}"))
        for node in classes:
            bases = [eval(ast.unparse(base), dict(namespace)) for base in node.bases]
            if any(isinstance(base, type) and issubclass(base, BaseException) for base in bases):
                found.append(f"{path.name}:{node.lineno}: {node.name}")
    assert not found, found


def test_validated_types_are_built_through_their_checks():
    # a frozen dataclass sets its fields with object.__setattr__ in __post_init__, after
    # or as part of its checks; object.__new__, or object.__setattr__ anywhere else, builds
    # or changes one around them
    found = []
    for path in sorted(Path(ballsep.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef) and function.name == "__post_init__"
            for node in ast.walk(function)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                call = ast.unparse(node.func)
                outside = call == "object.__setattr__" and id(node) not in allowed
                if call == "object.__new__" or outside:
                    found.append(f"{path.name}:{node.lineno}: {call}")
    assert not found, found


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
    # it also wraps _lentz_fraction and reads its three positional arguments (a, b, x),
    # direct or reflected, to count reflected calls inside a reg_inc_beta span; with
    # reg_inc_beta gone those counts read absent, but the fraction's span and shape stay
    assert list(inspect.signature(specfun._lentz_fraction).parameters) == ["a", "b", "x"]
    for param in inspect.signature(specfun._lentz_fraction).parameters.values():
        assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    seen = []
    original = specfun._lentz_fraction

    def recorded(*args, **kwargs):
        seen.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(specfun, "_lentz_fraction", recorded)
    for kappa in (0.3, 0.9):
        specfun._reg_inc_betas(*specfun._kappa_logs(kappa), 2.0, 3.0, specfun.log_beta(2.0, 3.0))
    assert seen == [((2.0, 3.0, 0.3), {}), ((3.0, 2.0, 1.0 - 0.9), {})]


def test_instances_the_benchmark_oracle_reads_hold_every_coordinate():
    # perfbench/oracle.py::reference takes n from len(center_a); the Monte Carlo workloads
    # pass it these symmetric instances, and any explicit one holds its own vectors.  On
    # centers shorter than the dimension it evaluates the wrong n, and raises
    # ZeroDivisionError (a = 0) on one coordinate
    explicit = make_instance(Ball([0.0, 1.0, 2.0], 0.5), Ball([3.0, 1.0, 2.0], 0.5), 5.0)
    for inst in [symmetric_instance(n, 0.5) for n in (200, 3, 2)] + [explicit]:
        lengths = (len(inst.ball_a.center), len(inst.ball_b.center))
        message = f"perfbench/oracle.py reads n from len(center_a): {lengths} in R^{inst.dimension}"
        assert lengths == (inst.dimension,) * 2, message


# perfbench/spans.py TARGETS entries that name nothing in ballsep; the tracer
# records each as absent, so its per-layer metric is absent on every run.
# specfun.reg_inc_beta went with BetaArgs: its layer read 0 calls and 0 s on every
# workload, because no command, estimator or validate battery called it.  cli's two list
# parsers became the one cli._parse_list; cli.parse still spans _build_parser and
# _merge_vector_flags, so that metric does not go absent
KNOWN_ABSENT_TARGETS = {
    "cli._parse_vector",
    "cli._parse_int_list",
    "cli._parse_float_list",
    "specfun.reg_inc_beta",
}


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
    assert absent == KNOWN_ABSENT_TARGETS, sorted(absent ^ KNOWN_ABSENT_TARGETS)


def _benchmark_spans():
    # perfbench/spans.py, loaded from its file; it imports nothing of ballsep or perfbench
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--dim", "2..5000", "--delta", "0.5,2.0"],
        ["sweep", "--dim", "2..5000", "--delta", "0.5,2.0", "--format", "json"],
        ["validate", "--samples", "100"],
    ],
    ids=["sweep-csv", "sweep-json", "validate"],
)
def test_benchmark_emit_counter_reads_every_byte(argv):
    # the tracer counts cli.emit.bytes from `_emit`'s first argument, and marks the count
    # absent, without failing the run, if that is not a str; output is written a piece at
    # a time, so the pieces must add up to every byte written
    written = io.StringIO()
    with _benchmark_spans().Tracer() as tracer, contextlib.redirect_stdout(written):
        assert cli.main(argv) == 0
    assert "cli.emit" not in tracer.uncounted
    assert tracer.counts["cli.emit.bytes"] == len(written.getvalue().encode("utf-8"))
    assert sorted(tracer.absent) == sorted(KNOWN_ABSENT_TARGETS)
