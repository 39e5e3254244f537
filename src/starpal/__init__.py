"""Ordered triple palettes, star goodness, and auxiliary digraph machinery.

The package decides whether small link patterns (stars on k leaves) can be
embedded into a palette of ordered color triples, searches for extremal bad
palettes, and audits the counting chain that bounds the density of minimal
bad palettes.  All arithmetic is exact.
"""

from .audit import (AuditReport, AuditStep, ClaimReport, ColorRow, FValues,
                    GInequalityReport, PolicyData, XSetCounts, audit_chain,
                    audit_to_json, audit_to_jsonable, claim_check, f_values,
                    format_audit_kv, format_audit_text, g_inequality_check,
                    minimality_check, stars_bounds, target_density, x_sets)
from .digraphs import (AuxPolicy, CaroWeiReport, Digraph, TkSquareReport,
                       TripartiteReport, aux_digraph, brute_max_arcs,
                       caro_wei_check, degree_stats, find_transitive_tournament,
                       has_loop, is_tk_free, iter_loopless_digraphs, parse_digraph,
                       serialize_digraph, tk_square_check, tripartite_construction,
                       tripartite_report, turan_max_arcs)
from .errors import BudgetExceeded, EnumerationCapExceeded, FormatError
from .goodness import (DEFAULT_ENUM_CAP, DEFAULT_NODE_BUDGET, GoodnessWitness,
                       ThreeGraph, brute_force_is_good, is_bad, is_good, make_star,
                       parse_threegraph, serialize_threegraph, star_apex,
                       verify_witness)
from .palette import (POSITION_PAIRS, Palette, PaletteStats, admissible_pairs,
                      canonical_form, compute_stats, iter_all_triples, parse_palette,
                      permute_colors, remove_color, serialize_palette)
from .search import (SearchConfig, SearchReport, maximal_bad_extensions, minimalize,
                     random_bad_palette, random_maximal_bad_palette, search)

__version__ = "0.1.0"

__all__ = [
    "AuditReport", "AuditStep", "AuxPolicy", "BudgetExceeded", "CaroWeiReport",
    "ClaimReport", "ColorRow", "DEFAULT_ENUM_CAP", "DEFAULT_NODE_BUDGET",
    "Digraph", "EnumerationCapExceeded",
    "FValues", "FormatError", "GInequalityReport", "GoodnessWitness",
    "POSITION_PAIRS", "Palette", "PaletteStats", "PolicyData", "SearchConfig",
    "SearchReport", "ThreeGraph",
    "TkSquareReport", "TripartiteReport", "XSetCounts", "admissible_pairs",
    "audit_chain", "audit_to_json", "audit_to_jsonable", "aux_digraph",
    "brute_force_is_good", "brute_max_arcs", "canonical_form", "caro_wei_check",
    "claim_check", "compute_stats", "degree_stats",
    "f_values", "find_transitive_tournament", "format_audit_kv",
    "format_audit_text", "g_inequality_check", "has_loop",
    "is_bad", "is_good", "is_tk_free", "iter_all_triples", "iter_loopless_digraphs",
    "make_star", "maximal_bad_extensions", "minimality_check", "minimalize",
    "parse_digraph", "parse_palette", "parse_threegraph", "permute_colors",
    "random_bad_palette", "random_maximal_bad_palette", "remove_color", "search",
    "serialize_digraph", "serialize_palette", "serialize_threegraph",
    "star_apex", "stars_bounds", "target_density", "tk_square_check",
    "tripartite_construction", "tripartite_report", "turan_max_arcs",
    "verify_witness", "x_sets",
]
