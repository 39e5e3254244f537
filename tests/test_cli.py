import inspect
import json
import os
import subprocess
import sys
import time

import pytest

import starpal.cli
import starpal.digraphs
from starpal import parse_digraph, parse_palette
from starpal.cli import main

EXAMPLE = "palette 2\n0 0 1\n"
BAD = "palette 2\n0 1 0\n1 0 1\n"


def run(*args, stdin=None, env_extra=None):
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "starpal", *args],
                          input=stdin, capture_output=True, text=True, env=env)


@pytest.fixture()
def example_file(tmp_path):
    path = tmp_path / "example.pal"
    path.write_text(EXAMPLE)
    return str(path)


@pytest.fixture()
def bad_file(tmp_path):
    path = tmp_path / "bad.pal"
    path.write_text(BAD)
    return str(path)


def test_stats_text(example_file):
    proc = run("stats", example_file)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "colors 2"
    assert lines[1] == "triples 1"
    assert lines[2] == "density 1/8"
    assert lines[3] == "min_degree 0"
    assert "degree pos=1,3 color=0 d=1 e=1/2 co=1" in lines


def test_stats_json(example_file):
    proc = run("stats", example_file, "--json")
    doc = json.loads(proc.stdout)
    assert doc["density"] == "1/8"
    assert doc["degrees"]["1,3"] == [1, 0]


def test_stats_reads_stdin():
    proc = run("stats", "-", stdin=EXAMPLE)
    assert proc.returncode == 0
    assert "density 1/8" in proc.stdout


def test_stats_float_rendering(example_file):
    proc = run("stats", example_file, "--float")
    assert "density 1/8 (0.125)" in proc.stdout


def test_check_good_and_bad(example_file, bad_file):
    good = run("check", example_file, "--star", "2")
    assert good.returncode == 0
    assert good.stdout.splitlines()[0] == "verdict good"
    assert any(line.startswith("ordering ") for line in good.stdout.splitlines())
    bad = run("check", bad_file, "--star", "3")
    assert bad.returncode == 0
    assert bad.stdout == "verdict bad\n"


def test_check_star_witness_is_pinned(tmp_path):
    path = tmp_path / "loop.pal"
    path.write_text("palette 2\n0 0 0\n")
    proc = run("check", str(path), "--star", "3")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["verdict good", "ordering 1 2 3 0"]
    assert lines[2:] == [f"pair {u} {v} color 0" for u in range(4) for v in range(u + 1, 4)]


def test_check_json(bad_file):
    doc = json.loads(run("check", bad_file, "--star", "3", "--json").stdout)
    assert doc == {"verdict": "bad"}
    doc = json.loads(run("check", bad_file, "--star", "2", "--json").stdout)
    assert doc["verdict"] == "good"
    assert len(doc["pairs"]) == 3


def test_check_with_graph_file(tmp_path, bad_file):
    graph = tmp_path / "star.3g"
    graph.write_text("threegraph 4\n0 1 2\n0 1 3\n0 2 3\n")
    proc = run("check", bad_file, "--graph", str(graph))
    assert proc.stdout == "verdict bad\n"


def test_aux_output_parses(example_file):
    proc = run("aux", example_file, "--policy", "literal")
    d = parse_digraph(proc.stdout)
    assert set(d.sorted_arcs()) == {(0, 1), (2, 2), (0, 3), (3, 0)}
    obs = run("aux", example_file, "--policy", "observation")
    assert (0, 0) in set(parse_digraph(obs.stdout).sorted_arcs())


def test_tk_find(tmp_path):
    path = tmp_path / "d.dig"
    path.write_text("digraph 3\n0 1\n0 2\n1 2\n")
    assert run("tk-find", str(path), "--k", "3").stdout == "witness 0 1 2\n"
    assert run("tk-find", str(path), "--k", "4").stdout == "absent\n"
    doc = json.loads(run("tk-find", str(path), "--k", "4", "--json").stdout)
    assert doc["witness"] is None


def test_tk_find_deeper_than_recursion_limit(tmp_path, capsys):
    n = 400
    path = tmp_path / "chain.dig"
    path.write_text(f"digraph {n}\n" + "".join(f"{u} {v}\n" for u in range(n)
                                                for v in range(u + 1, n)))
    # The DFS goes n levels deep; the limit leaves 100 frames above this one.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        assert main(["tk-find", str(path), "--k", str(n)]) == 0
    finally:
        sys.setrecursionlimit(limit)
    assert capsys.readouterr().out == "witness " + " ".join(map(str, range(n))) + "\n"


def test_turan_number():
    proc = run("turan-number", "--n", "5", "--k", "4", "--brute")
    assert proc.returncode == 0
    assert proc.stdout == "formula 16\nbrute 16\nagree true\n"
    doc = json.loads(run("turan-number", "--n", "4", "--k", "3", "--json").stdout)
    assert doc == {"agree": None, "brute": None, "formula": 8, "k": 3, "n": 4}


def test_verify_lemmas():
    proc = run("verify", "--lemma", "brown-harary", "--max-n", "4", "--k", "3")
    assert proc.returncode == 0
    assert proc.stdout.endswith("result all-hold checked=2 violations=0\n")
    proc = run("verify", "--lemma", "caro-wei", "--max-n", "3", "--k", "3", "--json")
    doc = json.loads(proc.stdout)
    assert doc["all_hold"] and doc["violations"] == 0
    proc = run("verify", "--lemma", "tk-square", "--max-n", "2", "--k", "4",
               "--tau", "2/3")
    assert proc.returncode == 0


def test_brown_harary_at_five_vertices_is_pinned():
    # Exact stdout at n = 5, where brute_max_arcs does the most work.
    golden = {
        ("verify", "--lemma", "brown-harary", "--max-n", "5", "--k", "3"):
            "lemma brown-harary k=3\nn=3 formula=4 brute=4 ok\nn=4 formula=8 brute=8 ok\n"
            "n=5 formula=12 brute=12 ok\nresult all-hold checked=3 violations=0\n",
        ("verify", "--lemma", "brown-harary", "--max-n", "5", "--k", "4"):
            "lemma brown-harary k=4\nn=4 formula=10 brute=10 ok\nn=5 formula=16 brute=16 ok\n"
            "result all-hold checked=2 violations=0\n",
        ("turan-number", "--n", "5", "--k", "3", "--brute", "--json"):
            '{"agree": true, "brute": 12, "formula": 12, "k": 3, "n": 5}\n',
    }
    for args, stdout in golden.items():
        proc = run(*args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, ""), args


def test_audit_formats(bad_file):
    kv = run("audit", bad_file, "--star", "5", "--kv")
    assert kv.returncode == 0
    assert "step=final_target" in kv.stdout
    doc = json.loads(run("audit", bad_file, "--star", "5", "--json").stdout)
    assert doc["density"] == "1/4"
    text = run("audit", bad_file, "--star", "5")
    assert text.returncode == 0
    assert "final_target" in text.stdout


def test_search_output_parses():
    proc = run("search", "--star", "3", "--colors", "2", "--mode", "exhaustive")
    assert proc.returncode == 0
    comments = [l for l in proc.stdout.splitlines() if l.startswith("#")]
    assert any("best density 1/4" in l for l in comments)
    assert "# examined 256 bad 4 certificate true budget_exhausted false" in comments
    body = "\n".join(l for l in proc.stdout.splitlines() if not l.startswith("#"))
    p = parse_palette(body + "\n")
    assert p.sorted_triples() == [(0, 1, 0), (1, 0, 1)]
    proc = run("search", "--star", "3", "--colors", "2", "--mode", "local",
               "--iterations", "20", "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["certificate"] is False and doc["budget_exhausted"] is True


BFS_K5 = ("--star", "5", "--colors", "3", "--dedup", "--allow-large-exhaustive")

# `starpal search` stdout on the benchmark's four extremal searches:
# (argv, config line, counts line, best density, colors, triples).
SEARCH_GOLDEN = {
    "plain-m2-k3": (
        ("--star", "3", "--colors", "2"),
        "k=3 colors=2 objective=density mode=exhaustive seed=0 dedup=false",
        "examined 256 bad 4 certificate true budget_exhausted false", "1/4", 2, "010 101"),
    "dedup-m3-k3": (
        ("--star", "3", "--colors", "3", "--dedup", "--allow-large-exhaustive"),
        "k=3 colors=3 objective=density mode=exhaustive seed=0 dedup=true",
        "examined 712 bad 41 certificate true budget_exhausted false", "2/9", 3,
        "010 012 101 121 210 212"),
    "dedup-m3-k5": (
        BFS_K5,
        "k=5 colors=3 objective=density mode=exhaustive seed=0 dedup=true",
        "examined 9688 bad 626 certificate true budget_exhausted false", "10/27", 3,
        "010 012 020 021 101 102 121 202 210 212"),
    "local-m5-k5": (
        ("--star", "5", "--colors", "5", "--mode", "local", "--seed", "0",
         "--iterations", "100"),
        "k=5 colors=5 objective=density mode=local seed=0 dedup=false",
        "examined 100 bad 36 certificate false budget_exhausted true", "7/25", 5,
        "010 012 013 014 020 021 023 024 030 034 101 120 121 141 213 232 242 243 "
        "301 303 321 323 324 341 343 402 403 410 412 413 414 430 431 432 434"),
}


@pytest.mark.parametrize("name", sorted(SEARCH_GOLDEN))
def test_search_stdout_is_pinned(capsys, name):
    argv, config, counts, best, m, triples = SEARCH_GOLDEN[name]
    assert main(["search", *argv]) == 0
    body = "".join(" ".join(word) + "\n" for word in triples.split())
    assert capsys.readouterr().out == (f"# search {config}\n# {counts}\n"
                                       f"# best density {best}\npalette {m}\n{body}")


# `stats` and `audit --star 5` output, byte for byte, on the 3-colour S_5
# optimum of SEARCH_GOLDEN (density 10/27), the README palette BAD and, for
# degrees 0, EXAMPLE.
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
M3 = "palette 3\n" + "".join(" ".join(t) + "\n" for t in SEARCH_GOLDEN["dedup-m3-k5"][5].split())
OUTPUT_GOLDEN = {
    "stats-m3.txt": (M3, "stats"),
    "stats-m3-float.txt": (M3, "stats", "--float"),
    "stats-m3.json": (M3, "stats", "--json"),
    "stats-example-float.txt": (EXAMPLE, "stats", "--float"),
    "audit-m3-k5.txt": (M3, "audit", "--star", "5"),
    "audit-m3-k5-kv.txt": (M3, "audit", "--star", "5", "--kv"),
    "audit-m3-k5.json": (M3, "audit", "--star", "5", "--json"),
    "audit-m2-k5.txt": (BAD, "audit", "--star", "5"),
    "audit-m2-k5-kv.txt": (BAD, "audit", "--star", "5", "--kv"),
    "audit-m2-k5.json": (BAD, "audit", "--star", "5", "--json"),
}


@pytest.mark.parametrize("name", sorted(OUTPUT_GOLDEN))
def test_stats_and_audit_stdout_is_pinned(tmp_path, capsys, name):
    text, command, *options = OUTPUT_GOLDEN[name]
    path = tmp_path / "p.pal"
    path.write_text(text)
    assert main([command, str(path), *options]) == 0
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        assert capsys.readouterr() == (fh.read(), "")


@pytest.mark.parametrize("budget, spent", [(5, 6), (40, 41), (1, 2), (13, 14), (60, 61)])
def test_search_budget_exhaustion_is_pinned(capsys, budget, spent):
    assert main(["search", *BFS_K5, "--node-budget", str(budget)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: node budget exhausted ({spent} checks, budget {budget})\n"


def test_search_budget_exhaustion_at_k3(capsys):
    argv = ["search", "--star", "3", *BFS_K5[2:], "--node-budget"]
    assert main([*argv, "30"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: node budget exhausted (31 checks, budget 30)\n"
    assert main([*argv, "40"]) == 0


def test_search_local_above_canonical_colors():
    # Nine colors is past canonical_form's reach; the report is a representative.
    proc = run("search", "--star", "4", "--colors", "9", "--mode", "local",
               "--iterations", "300")
    assert proc.returncode == 0, proc.stderr
    check = run("check", "-", "--star", "4", stdin=proc.stdout)
    assert check.returncode == 0
    assert check.stdout == "verdict bad\n"


def test_construct_output_parses():
    proc = run("construct", "tripartite", "--n", "9", "--eps", "0")
    assert proc.returncode == 0
    body = "\n".join(l for l in proc.stdout.splitlines() if not l.startswith("#"))
    d = parse_digraph(body + "\n")
    assert len(d.sorted_arcs()) == 54


def test_closed_stdout_exits_141_quietly():
    # The 98 KB of output outlast a 64 KiB pipe buffer, so the writer meets
    # the closed pipe after the reader leaves at the first line.
    with subprocess.Popen([sys.executable, "-m", "starpal", "construct", "tripartite",
                           "--n", "150", "--eps", "0"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline() == "# construct tripartite n=150 eps=0 parts=50/50/50\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == ""


def test_bounds():
    assert run("bounds", "--k", "5").stdout == "lower 7/16 upper 9/16\n"
    doc = json.loads(run("bounds", "--k", "3", "--json").stdout)
    assert doc == {"k": 3, "lower": "1/4", "upper": "1/4"}


def test_malformed_input_exits_2(tmp_path):
    path = tmp_path / "broken.pal"
    path.write_text("palette 2\n0 0 7\n")
    proc = run("stats", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert proc.stdout == ""


def test_duplicate_triple_warns_in_one_line(tmp_path, bad_file):
    path = tmp_path / "dup.pal"
    path.write_text(BAD + "0 1 0\n1 0 1\n")
    proc = run("stats", str(path))
    assert proc.returncode == 0
    assert proc.stdout == run("stats", bad_file).stdout
    assert proc.stderr == ("warning: line 4: duplicate triple (0, 1, 0) collapsed\n"
                           "warning: line 5: duplicate triple (1, 0, 1) collapsed\n")


def test_budget_exhaustion_exits_3(bad_file):
    proc = run("check", bad_file, "--star", "3", "--node-budget", "1")
    assert proc.returncode == 3
    assert "budget" in proc.stderr


def test_audit_rejects_nonpositive_node_budget(bad_file):
    proc = run("audit", bad_file, "--star", "5", "--node-budget", "0")
    assert proc.returncode == 2
    assert proc.stderr == "error: node budget must be positive\n"
    assert proc.stdout == ""


def test_check_rejects_nonpositive_node_budget(tmp_path):
    path = tmp_path / "empty.pal"
    path.write_text("palette 2\n")
    proc = run("check", str(path), "--star", "3", "--node-budget", "0")
    assert proc.returncode == 2
    assert proc.stderr == "error: node budget must be positive\n"
    assert proc.stdout == ""


def test_large_star_with_loop_is_good(tmp_path):
    path = tmp_path / "loop.pal"
    path.write_text("palette 2\n0 0 0\n0 1 0\n1 0 1\n1 1 1\n0 0 1\n")
    proc = run("check", str(path), "--star", "50")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "verdict good"


def test_usage_error_exits_2(bad_file, tmp_path):
    # The aux masks and slice counts of 10^18 colors raise MemoryError before
    # any allocation, so the input fails the same way on every run.
    huge = tmp_path / "huge.pal"
    huge.write_text("palette 1000000000000000000\n")
    proc = run("turan-number", "--n", "2", "--k", "3")
    assert proc.returncode == 2
    proc = run("nonsense-command")
    assert proc.returncode == 2
    # --float is refused where no renderer would read it.
    for argv, message in ((("audit", bad_file, "--star", "5", "--float"),
                           "unrecognized arguments: --float"),
                          (("bounds", "--k", "5", "--float", "--json"), "not allowed with")):
        proc = run(*argv)
        assert proc.returncode == 2
        assert message in proc.stderr
        assert proc.stdout == ""
    for argv in (("construct", "tripartite", "--n", "9", "--eps", "1/0"),
                 ("verify", "--lemma", "tk-square", "--max-n", "2", "--k", "4",
                  "--tau", "1/0"),
                 ("verify", "--lemma", "caro-wei", "--max-n", "2", "--k", "1"),
                 ("verify", "--lemma", "caro-wei", "--max-n", "0", "--k", "1"),
                 ("verify", "--lemma", "brown-harary", "--max-n", "1", "--k", "2"),
                 ("verify", "--lemma", "tk-square", "--max-n", "1", "--k", "3"),
                 # --max-n below the first n of the sweep leaves nothing to check.
                 ("verify", "--lemma", "brown-harary", "--max-n", "2", "--k", "3"),
                 ("verify", "--lemma", "tk-square", "--max-n", "0", "--k", "4"),
                 ("verify", "--lemma", "caro-wei", "--max-n", "-1", "--k", "3"),
                 # --tau and the exhaustive-only knobs are refused where they would be ignored.
                 ("verify", "--lemma", "caro-wei", "--max-n", "2", "--k", "3", "--tau", "1/2"),
                 ("verify", "--lemma", "brown-harary", "--max-n", "4", "--k", "3",
                  "--tau", "garbage"),
                 ("search", "--star", "3", "--colors", "2", "--mode", "local", "--dedup"),
                 ("search", "--star", "3", "--colors", "2", "--mode", "local",
                  "--allow-large-exhaustive"),
                 ("search", "--star", "3", "--colors", "2", "--allow-large-exhaustive"),
                 ("aux", str(huge)),
                 ("check", str(huge), "--star", "3"),
                 ("stats", str(huge))):
        proc = run(*argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


def test_audit_kv_and_json_are_exclusive(bad_file):
    proc = run("audit", bad_file, "--star", "5", "--kv", "--json")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "not allowed with" in proc.stderr


def test_construct_builds_the_digraph_once(monkeypatch, capsys):
    built = []
    original = starpal.digraphs.tripartite_construction

    def counting(n, eps):
        built.append((n, eps))
        return original(n, eps)

    monkeypatch.setattr(starpal.digraphs, "tripartite_construction", counting)
    # Also catch a second build through a name the CLI module imported.
    monkeypatch.setattr(starpal.cli, "tripartite_construction", counting, raising=False)
    for extra in ((), ("--json",)):
        built.clear()
        assert main(["construct", "tripartite", "--n", "9", "--eps", "0", *extra]) == 0
        assert len(built) == 1
    assert capsys.readouterr().out


def test_verify_refuses_over_cap_max_n_before_sweeping():
    # Sweeping n <= 5 first took about 30 s for caro-wei.
    for lemma, k in (("caro-wei", "3"), ("tk-square", "4"), ("brown-harary", "3")):
        start = time.perf_counter()
        proc = run("verify", "--lemma", lemma, "--max-n", "6", "--k", k)
        assert time.perf_counter() - start < 10
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "error: 30 arc positions exceed cap 20 (n=6)\n"


def test_output_is_hash_seed_independent(bad_file):
    outputs = set()
    for seed in ("0", "1", "31337"):
        proc = run("audit", bad_file, "--star", "5", "--kv",
                   env_extra={"PYTHONHASHSEED": seed})
        assert proc.returncode == 0
        outputs.add(proc.stdout)
    assert len(outputs) == 1
