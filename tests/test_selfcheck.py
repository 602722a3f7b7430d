import gc
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

from ballsep import probability, selfcheck
from ballsep.errors import ArgumentOutOfRange, InternalConsistencyError
from ballsep.selfcheck import (
    check_analytic_reductions,
    check_beta_symmetry,
    check_lemma_sandwich,
    check_ordering_chain,
    grid_instances,
    run_all,
)
from ballsep.geometry import Ball, SeparationInstance, make_instance
from ballsep.montecarlo import _sphere_block
from ballsep.specfun import _each, _kappa_logs, _reg_inc_betas, log_beta


def test_all_batteries_pass_on_fresh_build():
    results = run_all(ordering_samples=300)
    assert len(results) == 4
    for result in results:
        assert result.passed, result.describe()


def test_describe_reports_cell_counts():
    result = check_lemma_sandwich(alpha_points=10, n_max=5)
    assert result.passed
    assert "40 cells" in result.describe()


def test_grid_covers_thirty_cells():
    grid = grid_instances()
    assert len(grid) == 30
    dims = {inst.dimension for inst in grid}
    assert dims == {2, 3, 5, 10, 50}


def _embedded(draw, i):
    # the instance of row i of a `_draw`, in R^n with zeros past its second coordinate
    n, r, p, c, x, k, _, _ = draw
    pad = (0, int(n[i]) - 2)
    return make_instance(Ball(np.pad(c[:, i], pad), r[i]), Ball(np.pad(x[:, i], pad), p[i]), k[i])


def test_random_instances_are_well_posed():
    rng = np.random.default_rng(0)
    for _ in range(200):
        inst = _embedded(selfcheck._draw(rng, 1), 0)
        assert inst.gap > 0.0
        assert inst.bias_half_range >= max(
            np.linalg.norm(inst.ball_a.center), np.linalg.norm(inst.ball_b.center)
        )


def _chain_instances(seed, samples):
    # the instances check_ordering_chain(samples, seed) evaluates, drawn _DRAW at a time
    rng, instances = np.random.default_rng(seed), []
    for start in range(0, samples, selfcheck._DRAW):
        draw = selfcheck._draw(rng, min(selfcheck._DRAW, samples - start))
        instances += [_embedded(draw, i) for i in range(len(draw[0]))]
    return instances


def _cells(rng, samples):
    # the (i, n, k, `_gap`) of each random instance of the chain, from `_random_block`'s columns
    cells = []
    for start in range(0, samples, probability._BLOCK):
        n, dist, r, p, k = selfcheck._random_block(rng, start, samples)
        gap = probability._cell(dist, r, p, k)
        rows = zip(n.tolist(), k.tolist(), *(column.tolist() for column in gap))
        cells += [(i, dim, k_i, tuple(fields)) for i, (dim, k_i, *fields) in enumerate(rows, start)]
    return cells


@pytest.mark.parametrize("seed", [1, 7, 42, 1 << 63])
def test_random_cells_are_their_instances_gaps(seed):
    # 2000 samples span two draws; each cell is what the scalar path reads of its instance
    cells = _cells(np.random.default_rng(seed), 2000)
    instances = _chain_instances(seed, 2000)
    assert len(cells) == len(instances) == 2000
    for i, (cell, inst) in enumerate(zip(cells, instances)):
        assert cell == (i, inst.dimension, inst.bias_half_range, probability._gap(inst))
        assert not inst.ball_a.center[2:].any() and not inst.ball_b.center[2:].any()
    (first,) = _cells(np.random.default_rng(seed), 1)
    inst = _embedded(selfcheck._draw(np.random.default_rng(seed), 1), 0)
    assert first == (0, inst.dimension, inst.bias_half_range, probability._gap(inst))


def test_random_cells_keep_their_stream():
    # the chain's values depend on (seed, samples) alone
    cells = _cells(np.random.default_rng(7), 2000)
    assert hashlib.sha1(repr(cells).encode()).hexdigest() == "6a06ae0e8b33918b166cdb15c828e8679e9acb21"


def _parent_draw(rng, n):
    # the full-coordinate draw the chain used before it drew in the two-dimensional
    # core: an axis uniform on the sphere and c a scaled standard normal in R^n
    r, p, delta = (float(rng.uniform(lo, hi)) for lo, hi in ((0.1, 5.0), (0.1, 5.0), (1e-3, 10.0)))
    axis = _sphere_block(rng, 1, n, n)[0]
    c = rng.standard_normal(n) * float(rng.uniform(0.1, 3.0))
    x = c + (r + p + delta) * axis
    k = math.sqrt(max(c.dot(c), x.dot(x))) * float(rng.uniform(1.0, 3.0))
    return np.linalg.norm(c), np.linalg.norm(x), np.linalg.norm(c - x), k


class _FixedDimension:
    """Generator stand-in whose integers are all n; it passes every other call to a
    default_rng(seed)."""

    def __init__(self, seed, n):
        self.rng, self.n = np.random.default_rng(seed), n

    def integers(self, low, high, size):
        return np.full(size, self.n)

    def __getattr__(self, name):
        return getattr(self.rng, name)


# fixed seeds make each comparison deterministic; under one law, 12 comparisons
# would all clear this floor with probability about 0.99
_LAW_P_FLOOR = 1e-3


@pytest.mark.parametrize("n", [2, 3, 50, 200])
def test_random_draws_keep_the_full_coordinate_law(n):
    # |c|/D, |x|/D and k/D, D = |c - x|, of the core draw and of the full-coordinate one,
    # 20,000 draws each: the population the chain checks must not drift
    _, _, _, c, x, k, cc, xx = selfcheck._draw(_FixedDimension(n, n), 20000)
    dist = np.abs(c[0] - x[0])
    core = np.sqrt(cc) / dist, np.sqrt(xx) / dist, k / dist
    rng = np.random.default_rng(1000 + n)
    norm_c, norm_x, dist, k = np.array([_parent_draw(rng, n) for _ in range(20000)]).T
    for got, want in zip(core, (norm_c / dist, norm_x / dist, k / dist)):
        assert ks_2samp(got, want).pvalue >= _LAW_P_FLOOR


def _one_draw(c, x, r, k, n=3):
    # a one-instance `_draw` with core centers c, x, radii r and bias half range k
    c, x = np.array([c], dtype=float).T, np.array([x], dtype=float).T
    return np.array([n]), np.array([r]), np.array([r]), c, x, np.array([k]), *np.square([c, x]).sum(axis=1)


@pytest.mark.parametrize("near, far", [(0, 1), (1, 0)])
def test_random_cells_check_k_against_both_centers(monkeypatch, near, far):
    # k covers one center but not the other, and the checks read each center's
    # squared norm from the draw
    centers = ([1.0, 0.0], [3.0, 0.0])
    draw = _one_draw(centers[near], centers[far], 0.5, 2.0)
    monkeypatch.setattr(selfcheck, "_draw", lambda rng, m: draw)
    with pytest.raises(InternalConsistencyError) as raised:
        selfcheck._random_block(np.random.default_rng(0), 0, 1)
    assert str(raised.value) == "random[0] n=3: bias half range 2.0 is below max(|c|, |x|) = 3.0"


def test_random_cells_check_k_is_finite(monkeypatch):
    monkeypatch.setattr(selfcheck, "_draw", lambda rng, m: _one_draw([0.5, 0.0], [2.0, 0.0], 0.5, math.inf))
    with pytest.raises(InternalConsistencyError) as raised:
        selfcheck._random_block(np.random.default_rng(0), 0, 1)
    assert str(raised.value) == "random[0] n=3: bias half range must be finite, got inf"


@pytest.mark.parametrize("chunk", [2, 4])
def test_random_cells_name_a_failing_cell_by_its_index(monkeypatch, chunk):
    # the second draw's first row is the third instance, whether it opens the second chunk
    # or joins the first draw in one; the first draw's centers at 0 take the norm's slow
    # path, and pass
    good = _one_draw([0.0, 0.0], [2.0, 0.0], 0.5, 2.0)
    pair = tuple(np.concatenate([v, v], axis=-1) for v in good)
    draws = iter([pair, _one_draw([0.5, 0.0], [2.0, 0.0], 1.0, 2.0, n=7)])
    monkeypatch.setattr(selfcheck, "_DRAW", 2)
    monkeypatch.setattr(probability, "_BLOCK", chunk)
    monkeypatch.setattr(selfcheck, "_draw", lambda rng, m: next(draws))
    rng = np.random.default_rng(0)
    if chunk == 2:
        n, *_ = selfcheck._random_block(rng, 0, 3)
        assert n.tolist() == [3, 3]
    with pytest.raises(InternalConsistencyError) as raised:
        selfcheck._random_block(rng, 2 if chunk == 2 else 0, 3)
    assert str(raised.value) == "random[2] n=7: balls overlap or touch (delta <= 0)"


def test_ordering_chain_builds_only_its_grid_instances(monkeypatch):
    calls = []
    original = SeparationInstance.__post_init__
    monkeypatch.setattr(SeparationInstance, "__post_init__", lambda inst: calls.append(1) or original(inst))
    assert check_ordering_chain(samples=10000).passed
    assert len(calls) == len(grid_instances()) == 30


def test_beta_symmetry_battery():
    result = check_beta_symmetry()
    assert result.passed
    assert result.cells == 99 * 25


def test_reductions_battery():
    result = check_analytic_reductions()
    assert result.passed


def test_reductions_battery_names_a_failing_case(monkeypatch):
    monkeypatch.setattr(probability, "p_random_bias", lambda inst: 0.25)
    result = check_analytic_reductions()
    assert result.failures == ["reference dim2 bias: got 0.25, want 0.5, off by 2.500e-01"]
    assert result.worst == 0.25


@pytest.mark.parametrize(
    "kwargs", [{"samples": -1}, {"samples": True}, {"seed": -1}, {"seed": 1 << 64}, {"seed": False}]
)
def test_ordering_chain_rejects_bad_samples_and_seed(kwargs):
    with pytest.raises(ArgumentOutOfRange):
        check_ordering_chain(**kwargs)


_report = probability._report


def _flipped(shape, gap):
    # the fully random probability with the subtracted term added instead, on the column
    # calls the batteries make; a float call, one instance's, is left alone
    (a, ln_a, ln_beta), (q, ln_q, ln_comp, sin_phi, scale, p_bias) = shape, gap
    if type(q) is not np.ndarray:
        return _report(shape, gap)
    incomplete = _reg_inc_betas(q, ln_q, ln_comp, a, 0.5, ln_beta)
    first = _each(math.exp, a * ln_q - ln_a - ln_beta)
    return p_bias, incomplete, scale * (first + sin_phi * incomplete)


def test_sign_flip_fault_is_caught(monkeypatch):
    # the ordering chain must reject it on the fixed grid
    monkeypatch.setattr(probability, "_report", _flipped)
    result = check_ordering_chain(samples=50)
    assert not result.passed
    assert any("grid" in cell for cell in result.failures)


def test_prefactor_fault_is_caught(monkeypatch):
    def doubled(shape, gap):
        p_bias, p_weight, p_full = _report(shape, gap)
        return p_bias, p_weight, np.minimum(1.0, 2.0 * p_full)

    monkeypatch.setattr(probability, "_report", doubled)
    result = check_ordering_chain(samples=50)
    assert not result.passed


def _recorded(monkeypatch, module, name):
    # the values a battery gets from module.name, in call order
    values, original = [], getattr(module, name)

    def record(*args):
        out = original(*args)
        # a tuple of columns is recorded as one tuple per row
        values.extend(zip(*out) if isinstance(out, tuple) else out)
        return out

    monkeypatch.setattr(module, name, record)
    return values


def _float_report(inst):
    # `_report` and `_lemma` of one instance, as float calls
    shape = probability._shape(inst.dimension)
    angle = probability._angle(math.asin(inst.sin_phi))
    return probability._report(shape, probability._gap(inst)), probability._lemma(angle, shape)


class TestBatchesEqualScalarBits:
    # each battery's column calls against one float call of the same entry per row
    @pytest.mark.parametrize("seed", [42, 1])
    def test_ordering_chain(self, seed):
        with pytest.MonkeyPatch.context() as patch:
            reports = _recorded(patch, probability, "_report")
            bounds = _recorded(patch, probability, "_lemma")
            assert check_ordering_chain(samples=500, seed=seed).passed
        instances = grid_instances() + _chain_instances(seed, 500)
        assert len(reports) == len(bounds) == len(instances)
        assert list(zip(reports, bounds)) == [_float_report(inst) for inst in instances]

    def test_lemma_sandwich(self):
        # alpha at both ends of the battery's range and at its middle
        with pytest.MonkeyPatch.context() as patch:
            bounds = _recorded(patch, probability, "_lemma")
            assert check_lemma_sandwich(alpha_points=3).passed
        alphas = np.linspace(0.01, 0.5 * math.pi - 0.01, 3).tolist()
        cells = [(n, alpha) for n in range(2, 201) for alpha in alphas]
        assert len(bounds) == len(cells)
        for (n, alpha), bound in zip(cells, bounds):
            assert bound == probability._lemma(probability._angle(alpha), probability._shape(n))
        assert bounds[-1] == probability.lemma_bounds(alphas[-1], 200)

    def test_beta_reflection(self, monkeypatch):
        values = _recorded(monkeypatch, selfcheck, "_reg_inc_betas")
        assert check_beta_symmetry().passed
        shapes = (0.5, 1.0, 2.5, 10.0, 50.0)
        kappas = np.linspace(0.01, 0.99, 99).tolist()
        scalar = [
            _reg_inc_betas(*_kappa_logs(x), *shape, log_beta(y, z))
            for y in shapes
            for z in shapes
            for kappa in kappas
            for x, shape in ((kappa, (y, z)), (1.0 - kappa, (z, y)))
        ]
        assert values == scalar


class TestChainColumns:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 1024), st.integers(0, 2**64 - 1))
    def test_draw_equals_its_instances_scalar_closed_forms(self, samples, seed):
        # the report and lemma columns of the chain's one `_draw` are, row by row, the float
        # calls of `_report` and `_lemma` on its instances
        with pytest.MonkeyPatch.context() as patch:
            reports = _recorded(patch, probability, "_report")
            bounds = _recorded(patch, probability, "_lemma")
            assert check_ordering_chain(samples=samples, seed=seed).passed
        fixed = len(grid_instances())
        assert len(reports) == len(bounds) == fixed + samples
        draw = selfcheck._draw(np.random.default_rng(seed), samples)
        instances = [_embedded(draw, i) for i in range(samples)]
        assert list(zip(reports[fixed:], bounds[fixed:])) == list(map(_float_report, instances))


def test_every_cell_of_the_grid_batteries_is_pinned(monkeypatch):
    # at tol=-inf every cell fails, so the failure lists name every cell; with the repr of
    # each cell's violation they pin the batteries' values bit for bit, which validate's
    # 4-digit output does not
    violations, record = [], selfcheck._record

    def recorded(result, column, label, *columns):
        violations.extend(map(repr, column.tolist()))
        record(result, column, label, *columns)

    monkeypatch.setattr(selfcheck, "_record", recorded)
    results = [
        check_lemma_sandwich(tol=-math.inf),
        check_ordering_chain(samples=2000, seed=3, tol=-math.inf),
        check_beta_symmetry(tol=-math.inf),
    ]
    assert [len(result.failures) for result in results] == [19900, 2030, 2475]
    lines = [line for r in results for line in (r.name, repr(r.worst), *r.failures)]
    digest = hashlib.sha1("\n".join(lines + violations).encode()).hexdigest()
    assert digest == "67c46f1058b1f93b3b5f2066fa19b2e172a73ab1"


def test_ordering_chain_memory_does_not_grow_with_samples():
    # the chain evaluates its cells in blocks of probability._BLOCK, each in one call that
    # keeps nothing of it, and keeps no instances, so one block and eight peak alike; a full
    # collection inside a run would empty the float and tuple free lists and trace their
    # refill, so each run starts from a collected heap
    check_ordering_chain(samples=10)
    peaks = []
    for samples in (probability._BLOCK, 8 * probability._BLOCK):
        gc.collect()
        tracemalloc.start()
        try:
            check_ordering_chain(samples=samples, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks
