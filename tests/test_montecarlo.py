import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ballsep import montecarlo
from ballsep.errors import BallsepError
from ballsep.geometry import (
    Ball,
    exists_separating_bias_batch,
    make_instance,
    separates_batch,
    symmetric_instance,
)
from ballsep.montecarlo import (
    DEFAULT_SEED,
    Estimate,
    McConfig,
    _block_rng,
    _planar_core,
    _sphere_block,
    estimate_p_full,
    estimate_p_weight,
)
from ballsep.probability import p_fully_random, p_random_bias, p_random_weight
from ballsep.tessellation import estimate_all_pairs

from _oracles import full_space_rates, random_bias_block_rate


def canonical_plane():
    return make_instance(Ball([-2.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0), 2.0)


def general_pose(rng, n, sin_phi):
    """Pair with random radii, axis and offset at the given sin(phi); its
    centers span a plane (rank 2)."""
    r, p = rng.uniform(0.5, 2.0, size=2)
    axis = rng.standard_normal(n)
    axis /= np.linalg.norm(axis)
    c = rng.standard_normal(n) * (r + p) / (sin_phi * math.sqrt(n))
    x = c + (r + p) / sin_phi * axis
    k = max(np.linalg.norm(c), np.linalg.norm(x)) * rng.uniform(1.0, 2.0)
    return make_instance(Ball(c, float(r)), Ball(x, float(p)), float(k))


def collinear_pose(rng, n, sin_phi):
    """Pair whose centers lie on one line through the origin (rank 1)."""
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    dist = 2.5 / sin_phi
    c = -0.3 * dist * u
    return make_instance(Ball(c, 1.0), Ball(c + dist * u, 1.5), 0.7 * dist * 1.2)


class TestConfig:
    def test_samples_validation_message(self):
        for samples in (0, -5):
            with pytest.raises(BallsepError, match=r"^samples must be >= 1$"):
                McConfig(samples=samples)

    def test_chunks_validation(self):
        for chunks in (0, 11):
            message = f"^chunks must be between 1 and samples, got {chunks}$"
            with pytest.raises(BallsepError, match=message):
                McConfig(samples=10, chunks=chunks)
        assert McConfig(samples=10, chunks=10).chunks == 10

    def test_seed_validation(self):
        for seed in (-1, 1 << 64):
            message = f"^seed must be a 64-bit unsigned int, got {seed}$"
            with pytest.raises(BallsepError, match=message):
                McConfig(samples=10, seed=seed)

    def test_bools_are_not_counts(self):
        # bool is an int subclass; samples=True once ran one sample
        for fields, message in (
            ({"samples": True}, "samples must be >= 1"),
            ({"samples": 10, "seed": False}, "seed must be a 64-bit unsigned int, got False"),
            ({"samples": 10, "chunks": True}, "chunks must be between 1 and samples, got True"),
        ):
            with pytest.raises(BallsepError, match=f"^{message}$"):
                McConfig(**fields)

    def test_estimate_std_error(self):
        est = Estimate(mean=0.25, samples=400)
        assert_allclose(est.std_error, math.sqrt(0.25 * 0.75 / 400), rtol=1e-15)
        assert Estimate(mean=0.0, samples=10).std_error == 0.0


class _ZerosFirst:
    """Generator stand-in whose first two rows of normals and of the
    chi-square tail (drawn as gamma variates) come out exactly zero."""

    def __init__(self):
        self.rng = np.random.default_rng(0)
        self.fresh = {"standard_normal", "standard_gamma"}

    def _first_rows_zero(self, name, out):
        if name in self.fresh:
            self.fresh.discard(name)
            out[:2] = 0.0
        return out

    def standard_normal(self, size=None, out=None):
        return self._first_rows_zero("standard_normal", self.rng.standard_normal(size, out=out))

    def standard_gamma(self, shape, size=None, out=None):
        return self._first_rows_zero("standard_gamma", self.rng.standard_gamma(shape, size, out=out))


class TestSampling:
    def test_sphere_samples_are_unit(self):
        rng = _block_rng(DEFAULT_SEED, 0)
        block = _sphere_block(rng, 4096, 7, 7)
        assert block.shape == (4096, 7)
        assert_allclose(np.linalg.norm(block, axis=1), 1.0, rtol=1e-12)

    def test_sphere_coordinates_centered(self):
        for d, n in ((3, 3), (2, 3), (2, 50)):
            rng = _block_rng(DEFAULT_SEED, 1)
            block = _sphere_block(rng, 65536, d, n)
            assert block.shape == (65536, d)
            # each coordinate has variance 1/n on the sphere
            bound = 4.0 / math.sqrt(n * 65536)
            assert np.all(np.abs(block.mean(axis=0)) < bound)

    @pytest.mark.parametrize("d, n", [(2, 3), (2, 4), (2, 200), (6, 50)])
    def test_core_rows_are_unit_in_full_space(self, d, n):
        rows = _sphere_block(_block_rng(5, 0), 4096, d, n)
        # replay the block's stream: d normals per row, then the tail
        replay = _block_rng(5, 0)
        g = replay.standard_normal((4096, d))
        if n - d == 1:
            t = np.square(replay.standard_normal(4096))
        else:
            t = replay.chisquare(n - d, 4096)
        sq_norm = np.sum(g * g, axis=1) + t
        assert_allclose(rows * np.sqrt(sq_norm)[:, None], g, rtol=1e-14, atol=0)
        # the full vector (g, rest) / norm has unit length in R^n
        assert_allclose(np.sum(rows * rows, axis=1) + t / sq_norm, 1.0, rtol=1e-14)

    @pytest.mark.parametrize("into_buffer", [False, True])
    @pytest.mark.parametrize("d, n", [(4, 4), (2, 5)])
    def test_zero_rows_are_redrawn(self, d, n, into_buffer):
        out = (np.full((19, d), np.nan), np.full((2, 19), np.nan)) if into_buffer else None
        block = _sphere_block(_ZerosFirst(), 16, d, n, out=out)
        if into_buffer:
            assert block.base is out[0]
        assert np.all(np.isfinite(block))
        assert np.all(np.any(block[:2] != 0.0, axis=1))
        if d == n:
            assert_allclose(np.linalg.norm(block, axis=1), 1.0, rtol=1e-12)

    def test_single_draw_helpers(self):
        # a single direction is a one-row block, with the bits of the
        # one-point sampler it replaced
        v = _sphere_block(_block_rng(9, 0), 1, 5, 5)[0]
        assert v.tolist() == [
            0.2978815438915242,
            -0.546482055118942,
            -0.5523416657140664,
            -0.5335960851656858,
            -0.15105578920996143,
        ]
        assert_allclose(np.linalg.norm(v), 1.0, rtol=1e-12)

    def test_block_rngs_disjoint(self):
        a = _block_rng(5, 0).standard_normal(8)
        b = _block_rng(5, 1).standard_normal(8)
        c = _block_rng(6, 0).standard_normal(8)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)
        assert_allclose(a, _block_rng(5, 0).standard_normal(8), rtol=0)

    @pytest.mark.parametrize(
        "first, second",
        [((42, 3), (41, 0)), ((42, 3), (43, 2)), ((5, 1), (4, 0)), ((0, 65535), (65535, 0))],
    )
    def test_block_keys_do_not_collide(self, first, second):
        # seed ^ index is the same for both pairs
        assert first[0] ^ first[1] == second[0] ^ second[1]
        a = _block_rng(*first).standard_normal(8)
        b = _block_rng(*second).standard_normal(8)
        assert not np.any(a == b)


class TestDrawIdentities:
    """The in-place draws of a block have the bits of the allocating calls they replace."""

    M = 4099

    def test_normals_into_a_buffer(self):
        out = np.empty((self.M, 2))
        _block_rng(3, 1).standard_normal(out=out)
        assert np.array_equal(out, _block_rng(3, 1).standard_normal((self.M, 2)))

    @pytest.mark.parametrize("t", [2, 3, 198, 9999])
    def test_chi_square_is_twice_a_gamma(self, t):
        out = np.empty(self.M)
        _block_rng(3, 2).standard_gamma(t / 2, out=out)
        assert np.array_equal(2.0 * out, _block_rng(3, 2).chisquare(t, self.M))

    @pytest.mark.parametrize("k", [1e-300, 1e-5, 0.75, 3.0, 1e150, 8e307])
    def test_uniform_biases_into_a_buffer(self, k):
        out = np.empty(self.M)
        assert montecarlo._uniform(_block_rng(3, 3), k, out) is out
        assert np.array_equal(out, _block_rng(3, 3).uniform(-k, k, self.M))

    @pytest.mark.parametrize("d, n", [(1, 2), (1, 3), (2, 2), (2, 5), (1, 200), (2, 200)])
    def test_sphere_block_into_a_buffer(self, d, n):
        buf = (np.full((self.M + 7, d), np.nan), np.full((2, self.M + 7), np.nan))
        rows = _sphere_block(_block_rng(3, 4), self.M, d, n, out=buf)
        assert rows.base is buf[0]
        assert np.array_equal(rows, _sphere_block(_block_rng(3, 4), self.M, d, n))


class TestWorkspace:
    """One call draws and tests every block in the same buffers."""

    @pytest.mark.parametrize(
        "pairs, modes, calls",
        [
            # each predicate runs once per pair in each block
            (
                2,
                ("fully-random", "random-weight"),
                {"_sphere_block": 4, "separates_batch": 8, "exists_separating_bias_batch": 8},
            ),
            # the bias pass tests its axis core with the fully random predicate and draws no weights
            (1, ("random-bias",), {"separates_batch": 4}),
        ],
        ids=["weight-modes", "random-bias"],
    )
    def test_every_block_reuses_the_call_buffers(self, monkeypatch, pairs, modes, calls):
        owners = {}

        def recording(name, fn):
            def wrapper(*args, out, **kwargs):
                buffers = out if isinstance(out, tuple) else (out,)
                # the arrays that own the memory of this call's buffers
                owners.setdefault(name, []).append(
                    tuple(buf if buf.base is None else buf.base for buf in buffers)
                )
                result = fn(*args, out=out, **kwargs)
                assert any(np.shares_memory(result, buf) for buf in buffers)
                return result

            monkeypatch.setattr(montecarlo, name, wrapper)

        for name in ("_sphere_block", "separates_batch", "exists_separating_bias_batch"):
            recording(name, getattr(montecarlo, name))
        rng = np.random.default_rng(4)
        instances = [general_pose(rng, 5, 0.3) for _ in range(pairs)]
        cfg = McConfig(samples=3 * 21845 + 7, seed=2)
        montecarlo.estimate_modes(instances, 3, modes, cfg)
        # four blocks, the last one short
        assert {name: len(seen) for name, seen in owners.items()} == calls
        for name, seen in owners.items():
            assert all(all(a is b for a, b in zip(call, seen[0])) for call in seen), name

    def test_calls_without_out_return_new_arrays(self):
        inst = canonical_plane()
        weights = _sphere_block(_block_rng(1, 0), 64, 2, 2)
        biases = _block_rng(1, 1).uniform(-2.0, 2.0, 64)
        for run in (
            lambda: _sphere_block(_block_rng(1, 0), 64, 2, 2),
            lambda: separates_batch(weights, biases, inst.ball_a, inst.ball_b),
            lambda: exists_separating_bias_batch(weights, inst.ball_a, inst.ball_b),
        ):
            first, second = run(), run()
            assert np.array_equal(first, second)
            assert not np.shares_memory(first, second)


class TestDeterminism:
    def test_same_config_same_mean(self):
        inst = canonical_plane()
        cfg = McConfig(samples=30000, seed=123)
        for run in (estimate_p_full, estimate_p_weight):
            assert run(inst, cfg).mean == run(inst, cfg).mean
        bias = estimate_all_pairs([inst], 1, "random-bias", cfg)
        assert bias.mean == estimate_all_pairs([inst], 1, "random-bias", cfg).mean

    def test_chunks_do_not_change_the_mean(self):
        inst = symmetric_instance(4, 0.5, k_factor=1.5)
        base = estimate_p_full(inst, McConfig(samples=150000, seed=7, chunks=1))
        for chunks in (2, 3, 4, 7):
            split = estimate_p_full(inst, McConfig(samples=150000, seed=7, chunks=chunks))
            assert split.mean == base.mean

    def test_chunks_invariance_other_estimators(self):
        inst = canonical_plane()
        for mode in ("random-weight", "random-bias"):
            one = estimate_all_pairs([inst], 1, mode, McConfig(samples=150000, seed=3, chunks=1))
            many = estimate_all_pairs([inst], 1, mode, McConfig(samples=150000, seed=3, chunks=5))
            assert one.mean == many.mean

    def test_seed_changes_the_stream(self):
        inst = canonical_plane()
        a = estimate_p_full(inst, McConfig(samples=50000, seed=1))
        b = estimate_p_full(inst, McConfig(samples=50000, seed=2))
        assert a.mean != b.mean

    def test_single_sample_runs(self):
        inst = canonical_plane()
        est = estimate_p_full(inst, McConfig(samples=1, seed=0))
        assert est.mean in (0.0, 1.0)
        assert est.std_error == 0.0

    def test_ball_swap_bias_estimate_identical(self):
        # the sampling weight's sign is canonicalized, so swapping the
        # balls reuses the same bias stream against the same axis
        inst = canonical_plane()
        swapped = make_instance(inst.ball_b, inst.ball_a, inst.bias_half_range)
        cfg = McConfig(samples=80000, seed=21)
        means = [estimate_all_pairs([pair], 1, "random-bias", cfg).mean for pair in (inst, swapped)]
        assert means[0] == means[1]


class TestCoupling:
    def test_full_never_exceeds_weight_on_shared_seed(self):
        # both estimators consume the identical weight stream, so the
        # domination is pointwise, not merely statistical
        for seed in (0, 1, 2, 77):
            for inst in (canonical_plane(), symmetric_instance(6, 0.7, k_factor=2.0)):
                cfg = McConfig(samples=40000, seed=seed)
                assert estimate_p_full(inst, cfg).mean <= estimate_p_weight(inst, cfg).mean


class TestAgreement:
    def test_estimates_track_closed_forms(self):
        cases = [
            canonical_plane(),
            symmetric_instance(3, 0.5),
            symmetric_instance(10, 0.3, k_factor=2.0),
        ]
        runners = (
            ("random-bias", p_random_bias),
            ("random-weight", p_random_weight),
            ("fully-random", p_fully_random),
        )
        cfg = McConfig(samples=100000, seed=DEFAULT_SEED)
        for inst in cases:
            for mode, closed in runners:
                exact = closed(inst)
                scatter = math.sqrt(exact * (1.0 - exact) / cfg.samples)
                mean = estimate_all_pairs([inst], 1, mode, cfg).mean
                assert abs(mean - exact) <= 4.0 * scatter + 1e-12


class TestPlanarCore:
    def test_collinear_centers_map_to_exact_plane_coordinates(self):
        inst = symmetric_instance(50, 0.4, k_factor=1.0)
        ((ball_a, ball_b),) = _planar_core([inst])
        assert ball_a.dimension == ball_b.dimension == 1
        half = inst.bias_half_range
        assert ball_a.center.tolist() == [half]
        assert ball_b.center.tolist() == [-half]
        assert (ball_a.radius, ball_b.radius) == (inst.ball_a.radius, inst.ball_b.radius)

    def test_core_keeps_norms_and_distances(self):
        rng = np.random.default_rng(8)
        pairs = [general_pose(rng, 50, 0.3) for _ in range(3)]
        cores = _planar_core(pairs)
        assert {ball.dimension for core in cores for ball in core} == {6}
        for inst, core in zip(pairs, cores):
            for ball, image in zip((inst.ball_a, inst.ball_b), core):
                assert_allclose(np.linalg.norm(image.center), np.linalg.norm(ball.center), rtol=1e-13)
                assert image.radius == ball.radius
            distance = np.linalg.norm(core[0].center - core[1].center)
            assert_allclose(distance, inst.center_distance, rtol=1e-13)

    def test_full_rank_span_is_the_instance_itself(self):
        rng = np.random.default_rng(9)
        pairs = [general_pose(rng, 3, 0.5) for _ in range(2)]
        cores = _planar_core(pairs)
        assert all(a is inst.ball_a and b is inst.ball_b for (a, b), inst in zip(cores, pairs))
        plane = canonical_plane()
        assert _planar_core([plane])[0][0].dimension == 1
        tilted = make_instance(Ball([-2.0, 0.5], 1.0), Ball([1.5, 2.0], 0.5), 3.0)
        assert _planar_core([tilted]) == [(tilted.ball_a, tilted.ball_b)]


class TestParentStreams:
    def test_planar_estimates_keep_their_values(self):
        # in the plane the core is the instance's own balls and draws no tail,
        # so these values are the ones the full-space sampler gives on the
        # same block streams
        inst = make_instance(Ball([-2.0, 0.5], 1.0), Ball([1.5, 2.0], 0.5), 3.0)
        other = make_instance(Ball([0.0, -2.0], 1.0), Ball([0.5, 2.5], 1.0), 3.0)
        cfg = McConfig(samples=70000, seed=13)
        assert estimate_p_full(inst, cfg).mean == 0.18545714285714285
        assert estimate_p_weight(inst, cfg).mean == 0.7413142857142857
        assert estimate_all_pairs([inst], 1, "random-bias", cfg).mean == 0.38462857142857143
        pinned = {"fully-random": 0.2360857142857143, "random-weight": 0.9576571428571429}
        for mode, mean in pinned.items():
            assert estimate_all_pairs([inst, other], 3, mode, cfg).mean == mean


class TestMultiPairStreams:
    """All-pairs means over three full blocks and a partial one, pinned with ==.

    The cores are full rank at n = 3 and of dimension 4 and 16 at n = 50,
    and every plane is tested against every pair, so a mask shared
    between pairs changes these values.
    """

    @pytest.mark.parametrize(
        "n, pairs, width, full, weight",
        [
            (3, 2, 1, 0.004440194697197032, 0.9017562419575511),
            (3, 2, 3, 0.027189502593835825, 0.9997863899908452),
            (3, 2, 96, 0.985372988785958, 1.0),
            (3, 8, 1, 0.0, 0.6674126329388189),
            (3, 8, 3, 9.1547146780592e-05, 0.9989472078120232),
            (3, 8, 96, 0.9829351535836177, 1.0),
            (50, 2, 1, 0.0034026234277489283, 0.7909293892062071),
            (50, 2, 3, 0.011687519072322246, 0.9971925541653952),
            (50, 2, 96, 0.7913213066796685, 1.0),
            (50, 8, 1, 0.0, 0.39322425271981),
            (50, 8, 3, 0.0, 0.9894110466890449),
            (50, 8, 96, 0.21014139444173574, 1.0),
        ],
    )
    def test_all_pairs_pinned(self, n, pairs, width, full, weight):
        rng = np.random.default_rng([n, pairs, 10])
        instances = [general_pose(rng, n, 0.05 if n == 3 else 0.02) for _ in range(pairs)]
        cfg = McConfig(samples=3 * (65536 // width) + 5, seed=11)
        assert estimate_all_pairs(instances, width, "fully-random", cfg).mean == full
        assert estimate_all_pairs(instances, width, "random-weight", cfg).mean == weight


class TestAllPairsBracket:
    """All-pairs means against a bracket from the single-pair closed forms.

    A plane separates pair i with probability p_i, independently of the trial's other
    planes, so pair i stays unseparated by all m of them with probability (1 - p_i)^m.
    The chance that every pair is separated is then at most the least of the pairs' own
    chances, and at least 1 minus the sum of their misses.  In fully random mode the
    biases span the widest range k_draw, so p_i = p_full,i k_i / k_draw.
    """

    SAMPLES = 1 << 13
    SIN_PHI = {("fully-random", 3): 0.1, ("fully-random", 50): 0.03}
    SIN_PHI |= {("random-weight", 3): 0.8, ("random-weight", 50): 0.3}

    @pytest.mark.parametrize("width", [1, 8, 96])
    @pytest.mark.parametrize("pairs", [2, 5, 8])
    @pytest.mark.parametrize("n", [3, 50])
    @pytest.mark.parametrize("mode", ["fully-random", "random-weight"])
    def test_mean_lies_in_the_bracket(self, mode, n, pairs, width):
        rng = np.random.default_rng([n, pairs, 28])
        instances = [general_pose(rng, n, self.SIN_PHI[mode, n]) for _ in range(pairs)]
        k_draw = max(inst.bias_half_range for inst in instances)
        if mode == "fully-random":
            per_plane = [p_fully_random(inst) * inst.bias_half_range / k_draw for inst in instances]
        else:
            per_plane = [p_random_weight(inst) for inst in instances]
        misses = [(1.0 - p) ** width for p in per_plane]
        low, high = 1.0 - sum(misses), 1.0 - max(misses)
        mean = estimate_all_pairs(instances, width, mode, McConfig(samples=self.SAMPLES)).mean

        def slack(bound):  # 5 standard errors of a mean of SAMPLES draws at the bound
            bound = min(max(bound, 0.0), 1.0)
            return 5.0 * math.sqrt(bound * (1.0 - bound) / self.SAMPLES)

        assert low - slack(low) <= mean <= high + slack(high), (low, mean, high)


class TestRankOneCore:
    """Centers on one line through the origin: the core samples one coordinate."""

    @staticmethod
    def instances():
        return [symmetric_instance(3, 0.5), collinear_pose(np.random.default_rng(31), 40, 0.3)]

    def test_core_is_a_line(self):
        for inst in self.instances() + [canonical_plane()]:
            ((ball_a, ball_b),) = _planar_core([inst])
            assert ball_a.dimension == ball_b.dimension == 1
            distance = np.linalg.norm(ball_a.center - ball_b.center)
            assert distance == pytest.approx(inst.center_distance, rel=1e-14)

    def test_full_hits_are_weight_hits(self):
        for inst in self.instances():
            (core,) = _planar_core([inst])
            rng = _block_rng(3, 0)
            weights = _sphere_block(rng, 65536, 1, inst.dimension)
            biases = rng.uniform(-inst.bias_half_range, inst.bias_half_range, 65536)
            full = separates_batch(weights, biases, *core)
            assert full.any()
            assert np.all(exists_separating_bias_batch(weights, *core)[full])
            for seed in (0, 1, 77):
                cfg = McConfig(samples=40000, seed=seed)
                assert estimate_p_full(inst, cfg).mean <= estimate_p_weight(inst, cfg).mean

    def test_chunks_do_not_change_the_means(self):
        for inst in self.instances():
            for run in (estimate_p_full, estimate_p_weight):
                one = run(inst, McConfig(samples=150000, seed=5, chunks=1))
                for chunks in (2, 3, 7):
                    assert run(inst, McConfig(samples=150000, seed=5, chunks=chunks)).mean == one.mean

    def test_width_one_pinned_at_n_40(self):
        # a chi-square(39) per weight; test_stream_pinned covers the n = 3 instance
        _, inst = self.instances()
        cfg = McConfig(samples=70000, seed=13)
        pinned = {"fully-random": 0.0021, "random-weight": 0.05594285714285714}
        for mode, mean in pinned.items():
            assert estimate_all_pairs([inst], 1, mode, cfg).mean == mean

    def test_stream_pinned(self):
        # one normal and one chi-square(2) per weight, then the biases
        inst = symmetric_instance(3, 0.5)
        cfg = McConfig(samples=70000, seed=13)
        assert estimate_p_full(inst, cfg).mean == 0.12284285714285714
        assert estimate_p_weight(inst, cfg).mean == 0.4984857142857143


class TestSharedSampler:
    """The single-pair estimators are the one-pair, width-1 all-pairs run."""

    def test_single_estimators_run_the_all_pairs_sampler(self, monkeypatch):
        calls = []
        sampler = montecarlo.estimate_all_pairs

        def recorded(instances, width, mode, cfg):
            calls.append((len(instances), width, mode))
            return sampler(instances, width, mode, cfg)

        monkeypatch.setattr(montecarlo, "estimate_all_pairs", recorded)
        cfg = McConfig(samples=1000, seed=3)
        for run in (estimate_p_full, estimate_p_weight):
            run(canonical_plane(), cfg)
        assert calls == [(1, 1, "fully-random"), (1, 1, "random-weight")]

    def test_random_bias_draws_no_weights(self, monkeypatch):
        inst = general_pose(np.random.default_rng(8), 6, 0.4)
        cfg = McConfig(samples=1000, seed=3)

        def forbidden(name):
            def fail(*args, **kwargs):
                raise AssertionError(f"random-bias mode ran {name}")

            monkeypatch.setattr(montecarlo, name, fail)

        # no planar core and no sphere draw: the weight is the axis core's +1
        forbidden("_planar_core")
        forbidden("_sphere_block")
        assert 0.0 < estimate_all_pairs([inst], 1, "random-bias", cfg).mean < 1.0
        assert 0.0 < estimate_all_pairs([inst], 3, "random-bias", cfg).mean < 1.0


class TestBiasPassAgainstOracle:
    """The bias pass equals the offsets (axis|c) - b tested directly, on the same streams."""

    @pytest.mark.parametrize("n", [2, 3, 50])
    @pytest.mark.parametrize("width, sin_phi", [(1, 0.3), (3, 0.3), (96, 0.97)])
    def test_means_equal_the_offset_arithmetic(self, n, width, sin_phi):
        inst = general_pose(np.random.default_rng([n, width, 27]), n, sin_phi)
        # two full blocks and a short one
        cfg = McConfig(samples=2 * (65536 // width) + 5, seed=19)
        mean = estimate_all_pairs([inst], width, "random-bias", cfg).mean
        assert 0.0 < mean < 1.0
        assert mean == random_bias_block_rate(inst, width, cfg.samples, cfg.seed)


def _two_sample_z(a, n_a, b, n_b):
    pooled = (a * n_a + b * n_b) / (n_a + n_b)
    var = pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b)
    if var == 0.0:
        return 0.0 if a == b else math.inf
    return (a - b) / math.sqrt(var)


class TestCoreAgainstOracle:
    """Core sampling against full-space weights from an independent stream."""

    CORE_SAMPLES = 1 << 17

    @pytest.mark.parametrize(
        "n, rank, sin_phi, oracle_samples",
        [
            (2, 2, 0.5, 1 << 15),
            (2, 1, 0.5, 1 << 15),
            (3, 2, 0.5, 1 << 15),
            (3, 1, 0.5, 1 << 15),
            (4, 2, 0.5, 1 << 15),
            (50, 2, 0.15, 1 << 15),
            (200, 2, 0.07, 1 << 15),
            (200, 1, 0.07, 1 << 15),
            (10**4, 2, 0.01, 4096),
            (10**4, 1, 0.01, 4096),
        ],
    )
    def test_single_pair(self, n, rank, sin_phi, oracle_samples):
        rng = np.random.default_rng([n, rank])
        pose = general_pose if rank == 2 else collinear_pose
        inst = pose(rng, n, sin_phi)
        assert _planar_core([inst])[0][0].dimension == rank
        cfg = McConfig(samples=self.CORE_SAMPLES, seed=1000 + n)
        full, weight = full_space_rates([inst], 1, oracle_samples, seed=n)
        for core_mean, oracle_mean in (
            (estimate_p_full(inst, cfg).mean, full),
            (estimate_p_weight(inst, cfg).mean, weight),
        ):
            z = _two_sample_z(core_mean, self.CORE_SAMPLES, oracle_mean, oracle_samples)
            assert abs(z) <= 4.0, (core_mean, oracle_mean, z)

    @pytest.mark.parametrize(
        "n, pairs, mode, width",
        [
            (3, 2, "fully-random", 4),
            (3, 2, "random-weight", 1),
            (50, 3, "fully-random", 64),
            (50, 3, "random-weight", 2),
        ],
    )
    def test_all_pairs(self, n, pairs, mode, width):
        rng = np.random.default_rng([n, pairs])
        instances = [general_pose(rng, n, 0.3 if n == 3 else 0.07) for _ in range(pairs)]
        assert _planar_core(instances)[0][0].dimension == min(n, 2 * pairs)
        self._check_all_pairs(instances, width, mode)

    @pytest.mark.parametrize("mode, width", [("fully-random", 64), ("random-weight", 2)])
    def test_all_pairs_on_one_line(self, mode, width):
        # three pairs centered on one line through the origin: a rank-1 core
        rng = np.random.default_rng([50, 1])
        u = rng.standard_normal(50)
        u /= np.linalg.norm(u)
        instances = [
            make_instance(Ball(start * u, r), Ball((start + dist) * u, p), 20.0)
            for start, dist, r, p in ((-3.0, 20.0, 1.0, 1.5), (-10.0, 16.0, 0.5, 0.5), (2.0, 12.0, 1.0, 0.5))
        ]
        assert [a.dimension for a, _ in _planar_core(instances)] == [1, 1, 1]
        self._check_all_pairs(instances, width, mode)

    @staticmethod
    def _check_all_pairs(instances, width, mode):
        samples = 1 << 14
        core_mean = estimate_all_pairs(instances, width, mode, McConfig(samples=samples, seed=77)).mean
        full, weight = full_space_rates(instances, width, samples, seed=78)
        oracle_mean = full if mode == "fully-random" else weight
        assert 0.05 < oracle_mean < 0.95
        z = _two_sample_z(core_mean, samples, oracle_mean, samples)
        assert abs(z) <= 4.0, (core_mean, oracle_mean, z)
