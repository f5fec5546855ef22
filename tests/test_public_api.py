import destab


def test_public_surface_is_pinned():
    assert sorted(destab.__all__) == [
        "CheckVerdict",
        "FiltrationSpec",
        "InstanceError",
        "PivotSet",
        "SheafData",
        "StabilityParam",
        "UniPoly",
        "check_k_semistable",
        "check_splitting",
        "constants",
        "decide_destabilizing",
        "gamma_vector",
        "is_critical",
        "k_of_level",
        "matrix_from_pivots",
        "mu_via_gamma",
        "mu_via_pivots",
        "objective",
        "ordered_tuples",
        "poly_cmp",
        "project_pivots",
        "r_value",
        "reduce_destabilizer",
        "validate_filtration",
    ]
    assert all(hasattr(destab, name) for name in destab.__all__)
