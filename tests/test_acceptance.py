"""Acceptance suite.

Each test covers one acceptance criterion and prints a single
`CRITERION <n> PASS/FAIL` line with its elapsed time; pinned runtime limits
are asserted inside the criterion block so a blown limit is a failure.
"""

import contextlib
import functools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from starpal import (AuxPolicy, Palette, SearchConfig, aux_digraph,
                     brute_force_is_good, brute_max_arcs, caro_wei_check,
                     f_values, g_inequality_check, has_loop, is_good, is_tk_free,
                     iter_all_triples, iter_loopless_digraphs, make_star,
                     random_bad_palette, search, tk_square_check,
                     tripartite_report, turan_max_arcs, x_sets)
from starpal.audit import audit_chain
from starpal.digraphs import Digraph


@contextlib.contextmanager
def criterion(capsys, num, desc, limit=None):
    t0 = time.monotonic()
    status = "FAIL"
    try:
        yield
        elapsed = time.monotonic() - t0
        if limit is not None and elapsed >= limit:
            raise AssertionError(
                f"criterion {num} exceeded its {limit}s budget: {elapsed:.1f}s")
        status = "PASS"
    finally:
        elapsed = time.monotonic() - t0
        with capsys.disabled():
            print(f"\nCRITERION {num:2d} {status} ({elapsed:7.2f}s): {desc}")


def two_color_palettes():
    universe = list(iter_all_triples(2))
    for bits in range(1 << 8):
        yield Palette(2, [t for i, t in enumerate(universe) if bits >> i & 1])


@functools.lru_cache(maxsize=None)
def bad_two_color_palettes(k):
    star = make_star(k)
    return tuple(p for p in two_color_palettes() if is_good(p, star) is None)


def test_criterion_01_certified_extremum(capsys):
    with criterion(capsys, 1, "exhaustive 2-color search certifies the "
                   "S3-bad density optimum 1/4", limit=5.0):
        report = search(SearchConfig(k=3, num_colors=2, objective="density",
                                     mode="exhaustive"))
        assert report.exhaustive_certificate
        assert report.num_candidates_examined == 256
        assert report.best_objective == Fraction(1, 4)
        assert is_good(report.best_palette, make_star(3)) is None
        assert brute_force_is_good(report.best_palette, make_star(3)) is None


def test_criterion_02_oracle_equivalence(capsys):
    with criterion(capsys, 2, "is_good agrees with the brute-force oracle on "
                   "all 256 two-color palettes for S2 and S3", limit=60.0):
        for k in (2, 3):
            star = make_star(k)
            for p in two_color_palettes():
                fast = is_good(p, star)
                slow = brute_force_is_good(p, star)
                assert (fast is None) == (slow is None), (k, p.sorted_triples())


def test_criterion_03_turan_formula_agreement(capsys):
    with criterion(capsys, 3, "brute-force extremal arc counts match the "
                   "corrected formula on six (n, k) pairs", limit=600.0):
        for (n, k) in ((3, 3), (4, 3), (5, 3), (4, 4), (5, 4), (5, 5)):
            assert brute_max_arcs(n, k) == turan_max_arcs(n, k), (n, k)


def test_criterion_04_caro_wei_sweep(capsys):
    with criterion(capsys, 4, "ratio-sum degree bound holds for every T_k-free "
                   "loopless digraph on <= 4 vertices, k in {3, 4}; equality "
                   "on bidirected K22", limit=120.0):
        for k in (3, 4):
            for n in range(1, 5):
                for d in iter_loopless_digraphs(n):
                    if not is_tk_free(d, k):
                        continue
                    rep = caro_wei_check(d, k)
                    assert rep.holds, (k, n, d.sorted_arcs())
        k22 = Digraph(4, [(u, v) for u in (0, 1) for v in (2, 3)]
                      + [(v, u) for u in (0, 1) for v in (2, 3)])
        rep = caro_wei_check(k22, 3)
        assert rep.sum_ratio == 4 and rep.bound == 4 and rep.holds


def test_criterion_05_degree_square_sweep(capsys):
    with criterion(capsys, 5, "squared-excess bound holds for every T4-free "
                   "loopless digraph on <= 4 vertices at threshold 2/3; the "
                   "balanced construction attains equality", limit=120.0):
        tau = Fraction(2, 3)
        checked = 0
        violations = []
        for n in range(1, 5):
            for d in iter_loopless_digraphs(n):
                if not is_tk_free(d, 4):
                    continue
                checked += 1
                rep = tk_square_check(d, 4, tau)
                if not rep.holds:
                    violations.append((n, d.sorted_arcs(), rep.sum_sq, rep.bound))
        construction = tripartite_report(9, Fraction(0))
        assert construction.sum_sq == Fraction(9, 36)
        assert construction.sum_sq == construction.k4_bound
        assert not violations, (
            f"{len(violations)} of {checked} T4-free digraphs violate the "
            f"squared-excess bound at threshold 2/3; smallest: arcs="
            f"{violations[0][1]} sum={violations[0][2]} > bound={violations[0][3]}"
        )


def test_criterion_06_aux_digraph_property(capsys):
    with criterion(capsys, 6, "auxiliary digraph of every observed bad palette "
                   "is loop-free and transitive-tournament-free"):
        cases = []
        for k in (2, 3):
            cases.extend((p, k) for p in bad_two_color_palettes(k))
        best = search(SearchConfig(k=3, num_colors=2, objective="density",
                                   mode="exhaustive")).best_palette
        cases.append((best, 3))
        for seed in range(1000):
            m = seed % 3 + 1
            k = 3 + (seed // 3) % 3
            cases.append((random_bad_palette(k, m, random.Random(seed)), k))
        for (p, k) in cases:
            assert is_good(p, make_star(k)) is None
            d = aux_digraph(p, AuxPolicy.LITERAL)
            assert has_loop(d) is None, (k, p.sorted_triples())
            assert is_tk_free(d, k), (k, p.sorted_triples())


def test_criterion_07_g_inequality_grid(capsys):
    with criterion(capsys, 7, "cleared-form identity and nonnegative residual "
                   "of the g(x) bound on a 10^4-point grid for k in 4..15, "
                   "with both equality points exact", limit=10.0):
        points = 10 ** 4
        for k in range(4, 16):
            lo = Fraction(2, k - 3)
            span = Fraction(100) - lo
            grid = [lo + span * i / (points - 1) for i in range(points)]
            rep = g_inequality_check(k, grid)
            assert rep.identity_ok and rep.nonneg_ok, k
            eq = g_inequality_check(k, [Fraction(k - 2), lo])
            assert all(e.residual == 0 for e in eq.entries), k


def test_criterion_08_proof_chain_audit(capsys):
    with criterion(capsys, 8, "audited chain bounds every qualifying S5-bad "
                   "two-color palette by 7/16; counting identities exact on "
                   "all 256 palettes", limit=120.0):
        quarter = Fraction(1, 4)
        audited = 0
        for p in two_color_palettes():
            counts = x_sets(p)  # raises internally if closed forms disagree
            n = p.num_colors
            ie = n ** 3 - (counts.x1 + counts.x2 + counts.x3) \
                + (counts.x12 + counts.x13 + counts.x23)
            assert Fraction(ie, n ** 3) == 1 + Fraction(1, n) * f_values(p).total()
            report = audit_chain(p, 5)
            assert report.step("product_identity").holds
            if report.is_bad and report.min_degree >= quarter:
                audited += 1
                final = report.step("final_target")
                assert final.premise_ok
                assert final.holds and final.rhs == Fraction(7, 16)
                assert report.density <= Fraction(7, 16)
        assert audited >= 1


def test_criterion_09_tripartite_construction(capsys):
    with criterion(capsys, 9, "reference construction is T4-free with the exact "
                   "squared-excess sum; the n/16-scale claim is flagged, the "
                   "true scale is n/36", limit=30.0):
        expected = {
            (9, Fraction(0)): Fraction(1, 4),
            (30, Fraction(1, 30)): Fraction(21, 25),
            (90, Fraction(1, 90)): Fraction(1688, 675),
        }
        for (n, eps), sum_sq in expected.items():
            rep = tripartite_report(n, eps)
            assert rep.t4_free, (n, eps)
            assert rep.sum_sq == sum_sq, (n, eps)
            closed = (2 * (Fraction(1, 3) - eps) * (Fraction(1, 6) + eps) ** 2 * n
                      + (Fraction(1, 3) + 2 * eps) * (Fraction(1, 6) - 2 * eps) ** 2 * n)
            assert rep.sum_sq == closed and rep.equals_closed_form
            assert not rep.exceeds_sixteenth
            assert rep.exceeds_k4_bound == (eps > 0)


CLI_COMMANDS = (
    ("stats", "PAL", "--float"),
    ("check", "BAD", "--star", "3"),
    ("aux", "PAL", "--policy", "literal"),
    ("aux", "PAL", "--policy", "observation"),
    ("tk-find", "DIG", "--k", "3"),
    ("turan-number", "--n", "5", "--k", "4", "--brute"),
    ("verify", "--lemma", "caro-wei", "--max-n", "3", "--k", "3"),
    ("verify", "--lemma", "tk-square", "--max-n", "3", "--k", "4"),
    ("verify", "--lemma", "brown-harary", "--max-n", "4", "--k", "3"),
    ("audit", "BAD", "--star", "5", "--kv"),
    ("search", "--star", "3", "--colors", "2", "--mode", "exhaustive"),
    ("search", "--star", "3", "--colors", "2", "--mode", "local", "--seed", "3"),
    ("construct", "tripartite", "--n", "9", "--eps", "0"),
    ("bounds", "--k", "7", "--json"),
)


def test_criterion_10_cli_determinism(capsys, tmp_path):
    with criterion(capsys, 10, "every CLI subcommand is byte-identical across "
                   "repeated runs and interpreter hash seeds"):
        pal = tmp_path / "example.pal"
        pal.write_text("palette 2\n0 0 1\n")
        bad = tmp_path / "bad.pal"
        bad.write_text("palette 2\n0 1 0\n1 0 1\n")
        dig = tmp_path / "example.dig"
        dig.write_text("digraph 3\n0 1\n0 2\n1 2\n")
        paths = {"PAL": str(pal), "BAD": str(bad), "DIG": str(dig)}
        for template in CLI_COMMANDS:
            args = [paths.get(a, a) for a in template]
            outputs = set()
            for hash_seed in ("0", "1"):
                for _ in range(2):
                    env = os.environ.copy()
                    env["PYTHONHASHSEED"] = hash_seed
                    proc = subprocess.run(
                        [sys.executable, "-m", "starpal", *args],
                        capture_output=True, env=env)
                    assert proc.returncode == 0, (args, proc.stderr)
                    outputs.add(proc.stdout)
            assert len(outputs) == 1, args
