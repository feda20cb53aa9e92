"""Matroid computation and verification toolkit.

Finite fields, rank-oracle matroids with lazy views, named
constructions (projective and affine geometries, uniforms, spikes,
swirls, parallel-connection chains), minor and isomorphism search with
re-verifiable certificates, representability oracles, and a suite
runner wired to the `mforge` command line tool.

The public names load their submodule on first use (PEP 562), so a
process pays only for the submodules it touches.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_SUBMODULE = {
    name: module
    for module, names in {
        "gf": ("GF", "is_prime", "prime_power", "prime_powers_upto"),
        "matroid": ("Matroid", "LinearMatroid", "BasesMatroid", "bits", "mask_of",
                    "ksubset_masks", "direct_sum", "materialize_bases", "rank_axioms_hold"),
        "constructions": ("NamedMatroid", "pg", "ag", "uniform", "theta_graph", "free_spike",
                          "free_swirl", "parallel_connection", "two_sum", "two_sum_chain",
                          "principal_geometry_extension", "density_witness"),
        "minors": ("IsoCertificate", "MinorWitness", "LonglineStep", "DenseRestrictionReport",
                   "are_isomorphic", "iso_is_valid", "has_minor", "minor_is_valid",
                   "longest_line_minor", "longline_step", "dense_restriction",
                   "growth_hypothesis_holds", "weighted_density_exceeds",
                   "unavoidable_minor_of_extension"),
        "representability": ("SpikeWitness", "spike_rep_predicate",
                             "swirl_rep_predicate", "spike_witness_search",
                             "swirl_witness_search", "witness_is_valid",
                             "brute_force_linear_rep", "membership_flags", "ClassSpec",
                             "BaseReport", "eventual_base"),
        "serialize": ("matroid_to_json", "matroid_from_json", "io_roundtrip"),
        "records": ("CorpusCaps",),
        "corpus": ("corpus_generate", "descriptor"),
        "suites": ("SUITES", "SuiteReport", "run_suite"),
        "errors": ("MforgeError", "NotPrimePowerError", "SizeCapError", "SchemaError",
                   "NotAnExtensionError", "RepresentableInputError", "LemmaViolationError"),
    }.items()
    for name in names
}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
