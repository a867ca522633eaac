"""The benchmark's fixed vocabulary: workloads, the names it asks gramcalc
about, and the per-layer predictions written down before measuring.

The name lists are copied from gramcalc rather than imported, so the
benchmark's inputs stay the same yardstick when the package is refactored.
A name that stops resolving makes the CLI exit 2, which the gate counts.
"""

WORKLOADS = {
    "check_default": (
        "gramcalc check all at the CLI defaults, the command users run to verify "
        "the catalog; the enumeration oracles do most of the work"
    ),
    "check_deep": (
        "the 37 checks without oracles at --max-n 24 in one process; laurent, "
        "scalar and grammar do the work and structures none"
    ),
    "cli_queries": (
        "one-off CLI calls, each in a fresh interpreter, so every call pays the "
        "import and fills its derivative chains from empty"
    ),
}

ORACLE_BACKED = (
    "andre_oracle",
    "beta_exp",
    "dumont_oracle",
    "eulerian_oracle",
    "forest_oracle",
    "jv_oracles",
    "peak_L",
    "peak_M",
    "peak_W",
)

NON_ORACLE = (
    "LL_MM",
    "LM_convolution",
    "L_squared_egf",
    "MW_shift",
    "M_convolution",
    "R_convolution",
    "andre_eulerian",
    "beta_grammar",
    "bivariate_gessel",
    "carlitz_scoville",
    "david_barton_closed",
    "david_barton_pde",
    "deriv_recurrence",
    "dumont_andre",
    "dumont_peak",
    "euler_complex",
    "eulerian_egf",
    "gamma_eulerian",
    "gamma_expansion",
    "gen_multiplicative",
    "gessel",
    "hoffman_PQQ",
    "hoffman_conv",
    "hoffman_egf",
    "inverse_pattern",
    "knuth_buckholtz",
    "left_peak_convolution",
    "ma_composition",
    "mfmy_conv",
    "p_andre",
    "p_eulerian_complex",
    "petersen",
    "pq_log",
    "springer",
    "springer_logconvex_sanity",
    "stembridge",
    "tangent_secant",
)

# `check all` reports in this order (sorted by name).
ALL_IDENTITIES = tuple(sorted(ORACLE_BACKED + NON_ORACLE))

# family -> its variables, for evaluating a family series at a point
FAMILY_VARS = {
    "eulerian_biv": ("x", "y"),
    "eulerian_uni": ("x",),
    "dumont": ("u", "v"),
    "andre_biv": ("u", "v"),
    "andre_uni": ("u",),
    "left_peak_biv": ("x", "y"),
    "left_peak_uni": ("x",),
    "interior_peak_biv": ("x", "y"),
    "interior_peak_uni": ("x",),
    "lr_peak_biv": ("x", "y"),
    "lr_peak_uni": ("x",),
    "R_family": ("x", "y"),
    "deriv_P": ("x",),
    "deriv_Q": ("x",),
    "planted_forest": ("v", "u"),
}
FAMILIES = tuple(FAMILY_VARS)

ELEMENTARY_SERIES = ("exp", "sin", "cos", "tan", "sec", "sinh", "cosh", "log1p")
SYMBOLIC_CLOSED_FORMS = ("hoffman_P", "hoffman_Q", "eulerian_egf")
STRUCTURE_KINDS = (
    "permutations",
    "inc_binary",
    "plane_012",
    "tree_012",
    "jv_tree",
    "jv_forest",
    "planted_forest",
)
LABEL_SCHEMES = ("L", "M", "W")

# Written before measuring: which end-to-end metric each layer's metrics
# should move, where the layer dominates, and where no change is predicted.
PREDICTIONS = [
    {
        "layer": "structures",
        "metrics": ["structures.oracle.calls", "structures.oracle.self_s",
                    "structures.perm_stats.calls", "structures.perm_stats.self_s",
                    "structures.visited"],
        "moves": "verify_s",
        "dominant_on": "check_default",
        "no_change_on": "check_deep",
    },
    {
        "layer": "laurent",
        "metrics": ["laurent.mul.calls", "laurent.mul.self_s", "laurent.mul.term_pairs",
                    "laurent.add.calls", "laurent.add.self_s", "laurent.new.calls",
                    "laurent.substitute.self_s", "laurent.exact_divide.self_s",
                    "laurent.evaluate.self_s", "laurent.substitute_rational.s"],
        "moves": "verify_s",
        "dominant_on": "check_deep",
        "no_change_on": "check_default (small share)",
    },
    {
        "layer": "scalar",
        "metrics": ["scalar.gaussian_ops.calls", "scalar.gaussian_ops.self_s"],
        "moves": "verify_s",
        "dominant_on": "check_deep",
        "no_change_on": "check_default",
    },
    {
        "layer": "grammar/families",
        "metrics": ["grammar.derive.calls", "grammar.derive.self_s",
                    "grammar.verify_transformation.s", "families.family_poly.calls",
                    "families.family_poly.self_s", "families.derive_steps",
                    "families.chain_hit_ratio"],
        "moves": "query_ms_p50",
        "dominant_on": "cli_queries",
        "no_change_on": "check_* (chains are reused)",
    },
    {
        "layer": "series",
        "metrics": ["series.closed_form.calls", "series.closed_form.s",
                    "series.mul.calls", "series.mul.self_s", "series.div.self_s"],
        "moves": "query_ms_p90",
        "dominant_on": "cli_queries",
        "no_change_on": "check_* (small)",
    },
    {
        "layer": "cli",
        "metrics": ["cli.import_s", "cli.main.calls", "cli.main.self_s"],
        "moves": "setup_s, query_ms_p50",
        "dominant_on": "cli_queries",
        "no_change_on": "check_* (under 2%)",
    },
    {
        "layer": "identities",
        "metrics": ["identities.run_identity.self_s", "identity.<name>.s"],
        "moves": "verify_s",
        "dominant_on": "all workloads",
        "no_change_on": "all workloads for a refactor of the checks",
    },
    {
        "layer": "trace",
        "metrics": ["trace.overhead_ratio"],
        "moves": "none",
        "dominant_on": "all workloads",
        "no_change_on": "-",
    },
]
