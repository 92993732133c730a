"""The verdict tolerances: the [tolerances] config keys and their defaults,
read by every verdict of the library and the CLI; --tol-scale multiplies each."""

DEFAULTS = {
    "rel_tol": 1e-9,      # sign, tie and domination tests, x the largest |value|
    "gap_tol": 1e-8,      # least norm gap a counterexample must open, absolute
    "chain_tol": 1e-6,    # R^3 proof-chain steps and conclusion, x the larger side
    "tail_tol": 1e-6,     # ray-profile values at the offset edge, x the row's peak
    "catalog_tol": 1e-5,  # catalog residuals, each relative to its closed form
}
