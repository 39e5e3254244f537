"""Command line driver.

Thin argument handling over the library; all output is deterministic (sets
are sorted before printing) so repeated runs are byte-identical.  Exit codes:
0 success / property holds, 1 property violated, 2 usage or input error,
3 budget or enumeration cap exhausted, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from fractions import Fraction
from typing import Optional

from .audit import (_flag, audit_chain, audit_to_json, format_audit_kv,
                    format_audit_text, stars_bounds)
from .digraphs import (AuxPolicy, _arc_positions, _caro_wei_sums, _tk_free_classes,
                       _tk_square_sums, aux_digraph, brute_max_arcs,
                       find_transitive_tournament, parse_digraph, serialize_digraph,
                       tripartite_report, turan_max_arcs)
from .errors import BudgetExceeded, EnumerationCapExceeded
from .goodness import DEFAULT_NODE_BUDGET, _star_bad, is_good, make_star, parse_threegraph
from .palette import POSITION_PAIRS, compute_stats, parse_palette, serialize_palette
from .search import SearchConfig, search

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a killed writer

# The least k each verify lemma is stated for.
VERIFY_MIN_K = {"caro-wei": 2, "brown-harary": 3, "tk-square": 4}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _rational(text: str) -> Fraction:
    """Parse a `p/q` option; a zero denominator is a usage error like any bad literal."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _fr(x: Fraction, args: argparse.Namespace) -> str:
    if args.float:
        return f"{x} ({float(x):.10g})"
    return str(x)


def _emit_json(obj) -> int:
    print(json.dumps(obj, sort_keys=True))
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    p = parse_palette(_read_text(args.palette))
    st = compute_stats(p)
    if args.json:
        return _emit_json({
            "colors": st.num_colors,
            "triples": len(p.triples),
            "density": str(p.density),
            "min_degree": str(st.min_degree),
            "slices": [list(row) for row in st.slice_counts],
            "degrees": {
                f"{i},{j}": list(row) for (i, j), row in zip(POSITION_PAIRS, st.adm_degree)
            },
        })
    print(f"colors {st.num_colors}")
    print(f"triples {len(p.triples)}")
    print(f"density {_fr(p.density, args)}")
    print(f"min_degree {_fr(st.min_degree, args)}")
    for a in range(st.num_colors):
        row = st.slice_counts[a]
        print(f"slice color={a} pos1={row[0]} pos2={row[1]} pos3={row[2]}")
    m = st.num_colors
    for (i, j), row in zip(POSITION_PAIRS, st.adm_degree):
        for a, d in enumerate(row):
            print(f"degree pos={i},{j} color={a} d={d} e={_fr(Fraction(d, m), args)} co={m - d}")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    p = parse_palette(_read_text(args.palette))
    if args.graph is not None:
        w = is_good(p, parse_threegraph(_read_text(args.graph)), node_budget=args.node_budget)
    elif _star_bad(p, args.star, args.node_budget):
        w = None
    else:  # only a good verdict builds the star: its witness prints all C(K,2) pairs
        w = is_good(p, make_star(args.star), node_budget=args.node_budget)
    if args.json:
        if w is None:
            return _emit_json({"verdict": "bad"})
        return _emit_json({
            "verdict": "good",
            "ordering": list(w.ordering),
            "pairs": [[u, v, c] for (u, v), c in sorted(w.pair_coloring.items())],
        })
    if w is None:
        print("verdict bad")
    else:
        print("verdict good")
        print("ordering " + " ".join(str(v) for v in w.ordering))
        for (u, v), c in sorted(w.pair_coloring.items()):
            print(f"pair {u} {v} color {c}")
    return EXIT_OK


def cmd_aux(args: argparse.Namespace) -> int:
    p = parse_palette(_read_text(args.palette))
    d = aux_digraph(p, AuxPolicy(args.policy))
    if args.json:
        return _emit_json({
            "vertices": d.num_vertices,
            "arcs": [[u, v] for (u, v) in d.sorted_arcs()],
            "policy": args.policy,
        })
    sys.stdout.write(serialize_digraph(d))
    return EXIT_OK


def cmd_tk_find(args: argparse.Namespace) -> int:
    d = parse_digraph(_read_text(args.digraph))
    witness = find_transitive_tournament(d, args.k)
    if args.json:
        return _emit_json({"k": args.k,
                           "witness": list(witness) if witness is not None else None})
    if witness is None:
        print("absent")
    else:
        print("witness " + " ".join(str(v) for v in witness))
    return EXIT_OK


def cmd_turan_number(args: argparse.Namespace) -> int:
    formula = turan_max_arcs(args.n, args.k)
    brute: Optional[int] = None
    if args.brute:
        brute = brute_max_arcs(args.n, args.k)
    if args.json:
        _emit_json({"n": args.n, "k": args.k, "formula": formula, "brute": brute,
                    "agree": (brute == formula) if brute is not None else None})
    else:
        print(f"formula {formula}")
        if brute is not None:
            print(f"brute {brute}")
            print(f"agree {_flag(brute == formula)}")
    if brute is not None and brute != formula:
        return EXIT_VIOLATION
    return EXIT_OK


def _verify_rows(args) -> list[dict]:
    """One row per n of the verify sweep.

    The digraph lemmas read only degrees and T_k-freeness, so a digraph row
    sums the degrees of one member per `_tk_free_classes` class, weighted by
    its orbit size; the 2^(n(n-1)) labelled total is closed form.
    """
    rows = []
    if args.lemma == "brown-harary":
        for n in range(args.k, args.max_n + 1):
            formula, brute = turan_max_arcs(n, args.k), brute_max_arcs(n, args.k)
            rows.append({"n": n, "formula": formula, "brute": brute, "ok": formula == brute})
        return rows
    tau = _rational(args.tau) if args.tau is not None else None
    for n in range(1, args.max_n + 1):
        free = bad = 0
        for out, orbit in _tk_free_classes(n, args.k):
            holds = (_caro_wei_sums(out, args.k) if args.lemma == "caro-wei"
                     else _tk_square_sums(out, args.k, tau))[-1]
            free += orbit
            bad += orbit * (not holds)
        rows.append({"n": n, "digraphs": 1 << n * (n - 1), "tkfree": free, "violations": bad})
    return rows


def cmd_verify(args: argparse.Namespace) -> int:
    min_k = VERIFY_MIN_K[args.lemma]
    if args.k < min_k:
        raise ValueError(f"{args.lemma} needs k >= {min_k}")
    if args.tau is not None and args.lemma != "tk-square":
        raise ValueError(f"--tau applies to tk-square only, not {args.lemma}")
    first_n = args.k if args.lemma == "brown-harary" else 1
    if args.max_n < first_n:
        raise ValueError(f"--max-n {args.max_n} leaves nothing to check: "
                         f"the {args.lemma} sweep starts at n={first_n}")
    _arc_positions(args.max_n)  # refuse an over-cap --max-n before the first n
    rows = _verify_rows(args)
    if args.lemma == "brown-harary":
        checked, violations = len(rows), sum(not r["ok"] for r in rows)
        lines = [f"n={r['n']} formula={r['formula']} brute={r['brute']} "
                 f"{'ok' if r['ok'] else 'VIOLATION'}" for r in rows]
    else:
        checked = sum(r["tkfree"] for r in rows)
        violations = sum(r["violations"] for r in rows)
        lines = [" ".join(f"{key}={value}" for key, value in r.items()) for r in rows]
    all_hold = violations == 0
    if args.json:
        _emit_json({"lemma": args.lemma, "k": args.k, "rows": rows,
                    "checked": checked, "violations": violations, "all_hold": all_hold})
    else:
        print(f"lemma {args.lemma} k={args.k}")
        for line in lines:
            print(line)
        print(f"result {'all-hold' if all_hold else 'violated'} "
              f"checked={checked} violations={violations}")
    return EXIT_OK if all_hold else EXIT_VIOLATION


def cmd_audit(args: argparse.Namespace) -> int:
    p = parse_palette(_read_text(args.palette))
    report = audit_chain(p, args.star, node_budget=args.node_budget)
    if args.json:
        print(audit_to_json(report))
    elif args.kv:
        sys.stdout.write(format_audit_kv(report))
    else:
        sys.stdout.write(format_audit_text(report))
    return EXIT_OK if report.premised_steps_hold else EXIT_VIOLATION


def cmd_search(args: argparse.Namespace) -> int:
    cfg = SearchConfig(
        k=args.star,
        num_colors=args.colors,
        objective=args.objective.replace("-", "_"),
        mode=args.mode,
        seed=args.seed,
        iteration_budget=args.iterations,
        node_budget=args.node_budget,
        dedup=args.dedup,
        allow_large_exhaustive=args.allow_large_exhaustive,
    )
    report = search(cfg)
    if args.json:
        return _emit_json({
            "k": cfg.k,
            "colors": cfg.num_colors,
            "objective": cfg.objective,
            "mode": cfg.mode,
            "seed": cfg.seed,
            "dedup": cfg.dedup,
            "examined": report.num_candidates_examined,
            "bad_found": report.num_bad_found,
            "certificate": report.exhaustive_certificate,
            "budget_exhausted": not report.exhaustive_certificate,
            "best_objective": str(report.best_objective),
            "best_palette": [list(t) for t in report.best_palette.sorted_triples()],
        })
    print(f"# search k={cfg.k} colors={cfg.num_colors} objective={cfg.objective} "
          f"mode={cfg.mode} seed={cfg.seed} dedup={_flag(cfg.dedup)}")
    print(f"# examined {report.num_candidates_examined} bad {report.num_bad_found} "
          f"certificate {_flag(report.exhaustive_certificate)} "
          f"budget_exhausted {_flag(not report.exhaustive_certificate)}")
    print(f"# best {cfg.objective} {_fr(report.best_objective, args)}")
    sys.stdout.write(serialize_palette(report.best_palette))
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    eps = _rational(args.eps)
    report = tripartite_report(args.n, eps)
    d = report.digraph
    if args.json:
        return _emit_json({
            "shape": "tripartite",
            "n": args.n,
            "eps": str(eps),
            "parts": list(report.part_sizes),
            "t4_free": report.t4_free,
            "t3_witness": list(report.t3_witness) if report.t3_witness else None,
            "tau": str(report.tau),
            "sum_sq": str(report.sum_sq),
            "closed_form": str(report.closed_form),
            "equals_closed_form": report.equals_closed_form,
            "k4_bound": str(report.k4_bound),
            "exceeds_k4_bound": report.exceeds_k4_bound,
            "sixteenth": str(report.sixteenth),
            "exceeds_sixteenth": report.exceeds_sixteenth,
            "arcs": [[u, v] for (u, v) in d.sorted_arcs()],
        })
    parts = "/".join(str(s) for s in report.part_sizes)
    print(f"# construct tripartite n={args.n} eps={eps} parts={parts}")
    t3 = ("none" if report.t3_witness is None
          else " ".join(str(v) for v in report.t3_witness))
    print(f"# t4_free {_flag(report.t4_free)} t3_witness {t3}")
    print(f"# tau {_fr(report.tau, args)} sum_sq {_fr(report.sum_sq, args)} "
          f"closed_form {_fr(report.closed_form, args)} "
          f"equal {_flag(report.equals_closed_form)}")
    print(f"# k4_bound {_fr(report.k4_bound, args)} "
          f"exceeds_k4_bound {_flag(report.exceeds_k4_bound)}")
    print(f"# sixteenth {_fr(report.sixteenth, args)} "
          f"exceeds_sixteenth {_flag(report.exceeds_sixteenth)} "
          f"(the squared-excess sum scales as n/36, not n/16)")
    sys.stdout.write(serialize_digraph(d))
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    lower, upper = stars_bounds(args.k)
    if args.json:
        return _emit_json({"k": args.k, "lower": str(lower), "upper": str(upper)})
    print(f"lower {_fr(lower, args)} upper {_fr(upper, args)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starpal",
        description="Palette goodness, auxiliary digraphs, and extremal star-pattern searches.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, *, with_float=True, json_group=None):
        group = json_group or sp.add_mutually_exclusive_group()
        group.add_argument("--json", action="store_true", help="emit one JSON document")
        if with_float:  # JSON renders no decimals, so --float is refused with --json
            group.add_argument("--float", action="store_true",
                               help="append decimal renderings to exact rationals")

    sp = sub.add_parser("stats", help="exact palette statistics")
    sp.add_argument("palette", help="palette file, or - for stdin")
    add_common(sp)
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("check", help="decide palette goodness for a star or 3-graph")
    sp.add_argument("palette", help="palette file, or - for stdin")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--star", type=int, help="number of leaves k of the star")
    group.add_argument("--graph", help="3-graph file")
    sp.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    add_common(sp, with_float=False)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("aux", help="emit the auxiliary digraph of a palette")
    sp.add_argument("palette", help="palette file, or - for stdin")
    sp.add_argument("--policy", choices=[p.value for p in AuxPolicy], default="literal")
    add_common(sp, with_float=False)
    sp.set_defaults(func=cmd_aux)

    sp = sub.add_parser("tk-find", help="find a transitive k-tournament in a digraph")
    sp.add_argument("digraph", help="digraph file, or - for stdin")
    sp.add_argument("--k", type=int, required=True)
    add_common(sp, with_float=False)
    sp.set_defaults(func=cmd_tk_find)

    sp = sub.add_parser("turan-number", help="extremal arc count of T_k-free digraphs")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--brute", action="store_true", help="cross-check by enumeration")
    add_common(sp, with_float=False)
    sp.set_defaults(func=cmd_turan_number)

    sp = sub.add_parser("verify", help="exhaustive small-size sweeps of the degree lemmas")
    sp.add_argument("--lemma", choices=["caro-wei", "tk-square", "brown-harary"], required=True)
    sp.add_argument("--max-n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--tau", default=None, help="threshold override for tk-square (p/q)")
    add_common(sp, with_float=False)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("audit", help="audit the density bound chain on a palette")
    sp.add_argument("palette", help="palette file, or - for stdin")
    sp.add_argument("--star", type=int, required=True, help="number of leaves k (k >= 5)")
    fmt = sp.add_mutually_exclusive_group()
    fmt.add_argument("--kv", action="store_true", help="machine-readable per-step lines")
    sp.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET,
                    help="bounds the whole audit: |P| plus the nodes of its four "
                         "T_k searches (blocks D1, D2 and D under each policy)")
    add_common(sp, with_float=False, json_group=fmt)
    sp.set_defaults(func=cmd_audit)

    sp = sub.add_parser("search", help="search for extremal bad palettes")
    sp.add_argument("--star", type=int, required=True)
    sp.add_argument("--colors", type=int, required=True)
    sp.add_argument("--mode", choices=["exhaustive", "local"], default="exhaustive")
    sp.add_argument("--objective", choices=["density", "min-degree"], default="density")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--iterations", type=int, default=2000)
    sp.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    sp.add_argument("--dedup", action="store_true",
                    help="deduplicate palettes by canonical form")
    sp.add_argument("--allow-large-exhaustive", action="store_true",
                    help="permit the 3-color exhaustive sweep (requires --colors 3 and --dedup)")
    add_common(sp)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("construct", help="build reference digraph constructions")
    sp.add_argument("shape", choices=["tripartite"])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--eps", default="0", help="part shrinkage as a rational p/q")
    add_common(sp)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("bounds", help="density bounds for the k-star")
    sp.add_argument("--k", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_bounds)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():  # `warning: <message>`, not a source line
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter shutdown
        return code
    except BrokenPipeError:  # the reader left (`| head`): stop, and keep shutdown quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (BudgetExceeded, EnumerationCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # an input too large to hold fails the same way on every run
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError:  # a count past the index range, as in `palette 2**64`
        print("error: input too large", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
