import ballsep

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
    "NonPositiveArgument",
    "SeparationInstance",
    "SeparationReport",
    "WidthPlan",
    "asymptotic_envelope",
    "bias_gap_interval",
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
    "plan_width",
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
    assert len(PUBLIC) == 39
