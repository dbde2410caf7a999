"""Config parsing, task execution, artifacts, and exit codes."""

import json
import pathlib

import numpy as np
import pytest

from pconvex import cli
from pconvex.errors import ConfigError


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(tmp_path, text, *extra):
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    code = cli.main(["run", cfg, "--out", str(out), *extra])
    report = []
    if (out / "report.jsonl").exists():
        lines = (out / "report.jsonl").read_text().splitlines()
        report = [json.loads(line) for line in lines]
    return code, report, out


KMH_CFG = """
[domain]
box = 0:1, 0:1
ladder = 1/8, 1/16, 1/32

[weights]
phi = x1^2+x2^2

[task]
name = kmh
p = 1
g = bump(0.3, 0.7); 0
"""

HORMANDER_CFG = """
[domain]
box = 0:1, 0:1
h = 1/16

[weights]
phi = x1^2+x2^2

[task]
name = bounds
bound = hormander
p = 1
potential = bump(0.25, 0.75)
"""

BERNDTSSON_CFG = """
[domain]
box = 0:1, 0:1
h = 1/16

[weights]
phi = x1^2+x2^2
psi = cor42(p=1, D=1.4142135623730951, center=0.5:0.5)

[task]
name = bounds
bound = berndtsson
p = 1
alpha = 0.3
potential = bump(0.25, 0.75)
seed = 7
"""


# ---------------------------------------------------------------------------
# token-level parsing
# ---------------------------------------------------------------------------

class TestTokens:

    def test_numbers_and_fractions(self):
        assert cli._number("1/32") == 1.0 / 32.0
        assert cli._number(" 2.5 ") == 2.5
        with pytest.raises(ConfigError):
            cli._number("three")
        with pytest.raises(ConfigError):
            cli._number("1/0")

    def test_top_level_split_respects_parens(self):
        assert cli._split_top("bump(0.3, 0.7); 0", ";") == \
            ["bump(0.3, 0.7)", " 0"]
        with pytest.raises(ConfigError):
            cli._split_top("f(1", ",")

    def test_call_recognition(self):
        name, args, kwargs = cli._parse_call("cor42(1, D=2.0)")
        assert name == "cor42" and args == ["1"] and kwargs == {"D": "2.0"}
        assert cli._parse_call("x1^2+x2^2") is None
        assert cli._parse_call("notabuiltin(3)") is None
        with pytest.raises(ConfigError):
            cli._parse_call("cor42(D=1, D=2)")
        with pytest.raises(ConfigError):
            cli._parse_call("cor42(D=1, 2)")


# ---------------------------------------------------------------------------
# builtins listing
# ---------------------------------------------------------------------------

class TestListBuiltins:

    def test_contains_required_names(self):
        text = cli.list_builtins()
        assert "cor42" in text
        assert "df(" in text
        assert "-> weight" in text and "-> domain" in text

    def test_stable_output(self, capsys):
        assert cli.list_builtins() == cli.list_builtins()
        assert cli.main(["list-builtins"]) == 0
        assert "cor42" in capsys.readouterr().out


def test_bump_is_a_batched_field():
    assert "bump(lo=0.25, hi=0.75) -> field" in cli.list_builtins()
    lo, hi = 0.3, 0.7
    bump = cli._resolve_field(f"bump({lo}, {hi})", cli._Context(n=3), "g")

    def scalar(x):
        w, out = (hi - lo) / 2.0, 1.0
        for u in x:
            out *= (max(0.0, (u - lo) * (hi - u)) / w ** 2) ** 4
        return out

    X = np.random.default_rng(5).uniform(0.2, 0.8, (500, 3))
    want = np.array([scalar(x) for x in X])
    got = bump.jets(X, 0)
    # numpy's vectorised power may round the last bit unlike scalar **
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
    assert np.count_nonzero(want) > 50
    assert bump(X[7]) == got[7]
    with pytest.raises(TypeError, match="no 2-jets"):
        bump.jets(X, 2)


# ---------------------------------------------------------------------------
# config validation -> exit 2
# ---------------------------------------------------------------------------

class TestConfigErrors:

    def check(self, tmp_path, text):
        code, report, _ = run(tmp_path, text)
        assert code == 2 and report == []

    def test_degree_out_of_range(self, tmp_path):
        self.check(tmp_path, """
[domain]
box = 0:1, 0:1, 0:1
h = 1/4
[weights]
phi = 0.0
[task]
name = solve
p = 5
potential = bump()
""")

    def test_unknown_task(self, tmp_path):
        self.check(tmp_path, "[task]\nname = frobnicate\n")

    def test_unknown_key_flagged(self, tmp_path):
        self.check(tmp_path, KMH_CFG + "gg = 3\n")

    def test_ladder_must_decrease(self, tmp_path):
        self.check(tmp_path, KMH_CFG.replace("1/8, 1/16, 1/32",
                                             "1/8, 1/8, 1/32"))

    def test_h_and_ladder_exclusive(self, tmp_path):
        self.check(tmp_path, KMH_CFG.replace("ladder = 1/8, 1/16, 1/32",
                                             "ladder = 1/8, 1/16\nh = 1/8"))

    def test_malformed_box(self, tmp_path):
        self.check(tmp_path, KMH_CFG.replace("box = 0:1, 0:1",
                                             "box = 0:1, 1:0"))

    def test_missing_potential(self, tmp_path):
        self.check(tmp_path, HORMANDER_CFG.replace(
            "potential = bump(0.25, 0.75)", ""))

    def test_two_weight_bound_needs_psi(self, tmp_path):
        self.check(tmp_path, BERNDTSSON_CFG.replace(
            "psi = cor42(p=1, D=1.4142135623730951, center=0.5:0.5)", ""))

    def test_torus_needs_three_axes(self, tmp_path):
        self.check(tmp_path, """
[domain]
box = 0:1, 0:1
h = 1/4
r = torus(0.5, 0.2)
[weights]
phi = 0.0
[task]
name = cohomology
""")

    def test_expression_typo(self, tmp_path):
        self.check(tmp_path, KMH_CFG.replace("x1^2+x2^2", "x1^2+x3^2"))

    def test_df_requires_domain_r(self, tmp_path):
        self.check(tmp_path, HORMANDER_CFG.replace(
            "phi = x1^2+x2^2", "phi = df(K=1.0, eta=0.5)"))

    def test_unreadable_config(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.ini")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_not_ini_at_all(self, tmp_path):
        self.check(tmp_path, "just some text\n")


# ---------------------------------------------------------------------------
# tasks through the front door
# ---------------------------------------------------------------------------

class TestCheckPsh:

    def test_violation_found_and_named(self, tmp_path):
        code, report, _ = run(tmp_path, """
[domain]
box = -1:1, -1:1
[weights]
phi = x1^2-3*x2^2
[task]
name = check-psh
p = 2
""")
        assert code == 1
        rec = report[1]
        assert rec["pass"] is False and rec["verdict"] == "fail"
        assert rec["min_trace"] == pytest.approx(-4.0)
        assert len(rec["worst_x"]) == 2

    def test_convex_weight_passes(self, tmp_path):
        code, report, _ = run(tmp_path, """
[domain]
box = -1:1, -1:1
[weights]
phi = x1^2+x2^2
[task]
name = check-psh
p = 1
""")
        assert code == 0 and report[1]["verdict"] == "strict"


class TestBoundaryConvexity:

    def test_disk_is_strictly_convex(self, tmp_path):
        code, report, _ = run(tmp_path, """
[domain]
box = -1:1, -1:1
r = disk(1.0)
[task]
name = boundary-convexity
p = 1
per_axis = 40
""")
        assert code == 0
        rec = report[1]
        assert rec["verdict"] == "strict"
        assert rec["min_trace"] == pytest.approx(2.0, rel=1e-9)


class TestDfSearch:

    def test_disk_search_feasible(self, tmp_path):
        code, report, _ = run(tmp_path, """
[domain]
box = -1:1, -1:1
r = disk(1.0)
[weights]
phi = x1^2+x2^2
[task]
name = df-search
p = 1
per_axis = 13
""")
        assert code == 0
        rec = report[1]
        assert rec["feasible"] is True and rec["score"] > 0
        assert 0 < rec["eta_max_feasible"] < 1

    def test_found_pair_certifies_psh(self, tmp_path):
        code, report, _ = run(tmp_path, """
[domain]
box = -1:1, -1:1
r = disk(1.0)
[weights]
phi = df(K=0.5, eta=0.05)
[task]
name = check-psh
p = 1
per_axis = 15
min_depth = 0.05
""")
        assert code == 0 and report[1]["verdict"] == "strict"


class TestKmh:

    def test_ladder_run(self, tmp_path):
        code, report, out = run(tmp_path, KMH_CFG)
        assert code == 0
        recs = report[1:]
        assert len(recs) == 3
        residuals = [r["residual"] for r in recs]
        assert residuals[0] > residuals[1] > residuals[2]
        assert all(r["ratio_vs_previous"] >= 1.5 for r in recs[1:])
        csv = (out / "series.csv").read_text().splitlines()
        assert csv[0] == "h,lhs,residual,ratio"
        assert len(csv) == 4
        svg = (out / "plot.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_unsupported_form_failure_embedded(self, tmp_path):
        code, report, out = run(tmp_path, KMH_CFG.replace(
            "g = bump(0.3, 0.7); 0", "g = 1.0; 0"))
        assert code == 1
        assert "SupportError" in report[1]["error"]
        assert not (out / "series.csv").exists()


class TestSolve:

    def test_two_rungs(self, tmp_path):
        code, report, out = run(tmp_path, """
[domain]
box = 0:1, 0:1
ladder = 1/8, 1/16
[weights]
phi = x1^2+x2^2
[task]
name = solve
p = 1
potential = bump(0.25, 0.75)
""")
        assert code == 0
        recs = report[1:]
        assert [r["cells"] for r in recs] == [81, 289]
        assert all(r["residual"] <= 1e-10 for r in recs)
        assert all(r["iterations"] > 0 for r in recs)
        csv = (out / "series.csv").read_text().splitlines()
        assert csv[0] == "h,cells,iterations,residual"


class TestBounds:

    def test_hormander_record(self, tmp_path):
        code, report, _ = run(tmp_path, HORMANDER_CFG)
        assert code == 0
        rec = report[1]
        assert rec["test"] == "hormander" and rec["constant"] == 1.0
        assert rec["ratio"] == pytest.approx(0.015551, rel=1e-3)
        assert rec["pass"] is True

    def test_berndtsson_with_apriori(self, tmp_path):
        code, report, _ = run(tmp_path, BERNDTSSON_CFG)
        assert code == 0
        rec = report[1]
        assert rec["constant"] == pytest.approx(4.0 / 0.49)
        assert rec["apriori_sigma"] == pytest.approx(0.35)
        assert 0 < rec["apriori_worst_ratio"] <= 1.0

    def test_composite_emits_two_records(self, tmp_path):
        code, report, _ = run(tmp_path, BERNDTSSON_CFG.replace(
            "bound = berndtsson", "bound = composite").replace(
            "alpha = 0.3", "alpha = 0.25"))
        assert code == 0
        names = [r["test"] for r in report[1:]]
        assert names == ["minimal-estimate", "minimal-estimate-composite"]
        assert report[2]["constant"] == pytest.approx(16.0)

    def test_failing_precondition_embedded(self, tmp_path):
        code, report, _ = run(tmp_path, HORMANDER_CFG.replace(
            "phi = x1^2+x2^2", "phi = x1+x2"))
        assert code == 1
        assert "MembershipError" in report[1]["error"]


class TestCohomology:

    CFG = """
[domain]
box = -1.2:1.2, -1.2:1.2
h = 0.1
r = annulus(0.5, 1.0)

[weights]
phi = x1^2+x2^2

[task]
name = cohomology
expect = 1, 1, 0
check_weights = 2
seed = 3
"""

    def test_annulus_ranks(self, tmp_path):
        code, report, _ = run(tmp_path, self.CFG)
        assert code == 0
        assert [r["rank"] for r in report[1:]] == [1, 1, 0]
        assert all(r["pass"] for r in report[1:])

    def test_wrong_expectation_fails(self, tmp_path):
        code, report, _ = run(tmp_path, self.CFG.replace(
            "expect = 1, 1, 0", "expect = 1, 0, 0"))
        assert code == 1
        assert report[2]["pass"] is False

    def test_lanczos_records_repeat_byte_for_byte(self, tmp_path):
        # at h = 0.05 every degree of the ring has more than 2·n_eigs cells
        cfg = write(tmp_path, self.CFG.replace("h = 0.1", "h = 0.05"))
        lines = []
        for out in ("a", "b"):
            assert cli.main(["run", cfg, "--out", str(tmp_path / out)]) == 0
            lines.append((tmp_path / out / "report.jsonl").read_bytes()
                         .splitlines()[1:])
        assert lines[0] == lines[1]
        recs = [json.loads(line) for line in lines[0]]
        assert [r["rank"] for r in recs] == [1, 1, 0]
        assert all(r["num_cells"] > 60 for r in recs)
        assert all(r["eigs"] == 6 for r in recs)
        assert all(r["gap"] >= 10.0 for r in recs)


class TestPrekopa:

    def test_round_gaussian(self, tmp_path):
        code, report, out = run(tmp_path, """
[domain]
box = -6:6
[weights]
phi = x1^2+x2^2
[task]
name = prekopa
x_range = -1:1
x_count = 7
""")
        assert code == 0
        rec = report[1]
        assert rec["convex_input"] is True and rec["skipped"] is False
        assert rec["min_second_diff"] == pytest.approx(2.0, abs=1e-3)
        csv = (out / "series.csv").read_text().splitlines()
        assert csv[0] == "x,second_diff" and len(csv) == 8


class TestAlgebraBattery:

    def test_small_battery(self, tmp_path):
        code, report, _ = run(tmp_path, """
[task]
name = algebra-battery
n = 3
p = 2
cases = 120
seed = 11
""")
        assert code == 0
        checks = {r["check"] for r in report[1:]}
        assert checks == {"pairing-matrix", "spectrum", "spd-inverse-bound"}
        assert all(r["pass"] for r in report[1:])


# ---------------------------------------------------------------------------
# determinism and seeds
# ---------------------------------------------------------------------------

class TestDeterminism:

    def test_identical_reports_modulo_timestamp(self, tmp_path):
        cfg = write(tmp_path, BERNDTSSON_CFG)
        outs = []
        for sub in ("o1", "o2"):
            assert cli.main(["run", cfg, "--out",
                             str(tmp_path / sub)]) == 0
            outs.append(
                (tmp_path / sub / "report.jsonl").read_text().splitlines())
        assert outs[0][0] != "" and outs[0][1:] == outs[1][1:]
        first = json.loads(outs[0][0])
        assert {"timestamp", "config", "task", "seed"} <= set(first)

    def test_seed_override_changes_sampled_check_only(self, tmp_path):
        cfg = write(tmp_path, BERNDTSSON_CFG)
        recs = []
        for sub, seed in (("s1", "7"), ("s2", "99")):
            cli.main(["run", cfg, "--out", str(tmp_path / sub),
                      "--seed", seed])
            line = (tmp_path / sub /
                    "report.jsonl").read_text().splitlines()[1]
            recs.append(json.loads(line))
        a, b = recs
        assert a["lhs"] == b["lhs"] and a["ratio"] == b["ratio"]
        assert a["apriori_worst_ratio"] != b["apriori_worst_ratio"]

    def test_verbose_echoes_records(self, tmp_path, capsys):
        cfg = write(tmp_path, HORMANDER_CFG)
        cli.main(["run", cfg, "--out", str(tmp_path / "v"), "--verbose"])
        out = capsys.readouterr().out
        assert '"test": "hormander"' in out


# ---------------------------------------------------------------------------
# svg rendering
# ---------------------------------------------------------------------------

class TestSvg:

    def test_loglog_structure(self):
        pts = [(1 / 16, 1e-2), (1 / 32, 2.5e-3), (1 / 64, 6e-4)]
        svg = cli._svg_loglog(pts, "h", "residual", "demo")
        assert svg.count("<circle") == 3
        assert "polyline" in svg and svg.startswith("<svg")
        assert cli._svg_loglog(pts, "h", "residual", "demo") == svg


# ---------------------------------------------------------------------------
# shipped configuration corpus
# ---------------------------------------------------------------------------

REPO_CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

# every config in configs/ must run and exit as its header comment
# documents; the one deliberate counterexample exits 1
EXPECTED_EXIT = {"check_psh_indefinite.ini": 1}


@pytest.mark.parametrize(
    "name", sorted(p.name for p in REPO_CONFIGS.glob("*.ini")))
def test_shipped_config_runs_as_documented(tmp_path, name):
    code = cli.main(["run", str(REPO_CONFIGS / name),
                     "--out", str(tmp_path / "out")])
    assert code == EXPECTED_EXIT.get(name, 0)
    lines = (tmp_path / "out" / "report.jsonl").read_text().splitlines()
    assert len(lines) >= 2
    for line in lines:
        json.loads(line)


def test_config_corpus_is_nonempty():
    assert len(list(REPO_CONFIGS.glob("*.ini"))) >= 13
