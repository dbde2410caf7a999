"""Config parsing, task execution, artifacts, and exit codes."""

import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from pconvex import cli, discrete, errors, solver
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

CHECK_PSH_CFG = """
[domain]
box = -1:1, -1:1

[task]
name = check-psh
p = 1

[weights]
phi = x1^2+x2^2
"""

PREKOPA_CFG = """
[domain]
box = -6:6

[weights]
phi = x1^2+x2^2

[task]
name = prekopa
"""

BATTERY_CFG = """
[task]
name = algebra-battery
n = 3
p = 2
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


def test_builtin_signatures_and_center_default():
    lines = cli.list_builtins().splitlines()
    for sig in ("annulus(inner=0.5, outer=1.0, center=0:0) -> domain",
                "bump(lo=0.25, hi=0.75) -> field",
                "cor42(p=1, D=1.0, center=0:0) -> weight",
                "df(K=1.0, eta=0.5, center=0:0) -> weight",
                "disk(radius=1.0, center=0:0) -> domain",
                "torus(ring=0.55, tube=0.3) -> domain"):
        assert sig in lines
    # an absent center is the origin of the domain's own dimension
    ctx = cli._Context(n=3, r=None, p=None)
    X = np.random.default_rng(2).uniform(-1, 1, (20, 3))
    implicit = cli._field("cor42(p=2, D=1.5)", ctx, "weight")
    explicit = cli._field("cor42(p=2, D=1.5, center=0:0:0)", ctx,
                          "weight")
    assert np.array_equal(implicit.jets(X, 0), explicit.jets(X, 0))
    with pytest.raises(ConfigError, match="center has 2 components"):
        cli._field("cor42(center=0:0)", ctx, "weight")


def test_bump_is_a_batched_field():
    assert "bump(lo=0.25, hi=0.75) -> field" in cli.list_builtins()
    lo, hi = 0.3, 0.7
    bump = cli._field(f"bump({lo}, {hi})",
                      cli._Context(n=3, r=None, p=None), "field")

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
    with pytest.raises(TypeError, match="no 2-jets"):
        bump.jets(X, 2)


def test_bump_walked_on_its_support_keeps_every_bit():
    # the whole-array formula, walked on every row: off the open box
    # (lo, hi)ⁿ it gives 0, and NaN on any row with a NaN coordinate
    lo, hi = 0.3, 0.7
    bump = cli._field(f"bump({lo}, {hi})",
                      cli._Context(n=3, r=None, p=None), "field")
    rng = np.random.default_rng(23)
    X = rng.uniform(0.1, 0.9, (4000, 3))
    edge = rng.random(X.shape) < 0.1
    X[edge] = rng.choice([lo, hi, np.nextafter(lo, 1), np.nextafter(hi, 0),
                          np.inf, -np.inf, np.nan], np.count_nonzero(edge))
    X[:4] = [[np.nan, 0.5, 0.5], [np.nan, 0.9, 0.5], [lo, 0.5, 0.5],
             [0.5, 0.5, 0.5]]
    w = (hi - lo) / 2.0
    want = np.prod((np.maximum(0.0, (X - lo) * (hi - X)) / w ** 2) ** 4,
                   axis=1)
    got = bump.jets(X, 0)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.isnan(got[:2]).all() and got[2] == 0.0 and got[3] == 1.0
    assert 0 < np.count_nonzero(got > 0) < np.count_nonzero(got == 0)


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

    # keys that earlier versions accepted: each value is now fixed, and a
    # config that still sets one fails instead of being silently ignored
    @pytest.mark.parametrize("key, value", [
        ("samples", "3"), ("slack", "0.05"), ("tol", "1e-10"),
        ("y_points", "601"), ("collar", "0.05")], ids=lambda v: v)
    def test_removed_key_flagged(self, tmp_path, key, value):
        self.check(tmp_path, KMH_CFG + f"{key} = {value}\n")

    # keys whose one value in use is now a constant of their task
    @pytest.mark.parametrize("cfg, line", [
        (BATTERY_CFG, "cases = 500"), (PREKOPA_CFG, "x_range = -1:1"),
        (PREKOPA_CFG, "x_count = 7"), (KMH_CFG, "final_max = 2e-2")],
        ids=["cases", "x_range", "x_count", "final_max"])
    def test_fixed_value_key_flagged(self, tmp_path, capsys, cfg, line):
        self.check(tmp_path, cfg + line + "\n")
        key = line.split(" =")[0]
        assert f"[task] {key}: unknown key" in capsys.readouterr().err

    # a key only another task reads used to be accepted and ignored; the
    # error names the section, the key and the task
    @pytest.mark.parametrize("cfg, line, where", [
        (HORMANDER_CFG, "expect = 9", "[task] expect: task bounds"),
        (HORMANDER_CFG, "n = 5", "[task] n: task bounds"),
        (CHECK_PSH_CFG, "psi = x1", "[weights] psi: task check-psh"),
    ], ids=["bounds-expect", "bounds-n", "check-psh-psi"])
    def test_key_its_task_does_not_read(self, tmp_path, capsys, cfg, line,
                                        where):
        self.check(tmp_path, cfg + line + "\n")
        assert where in capsys.readouterr().err

    # min_depth is a depth in r: without r it used to be ignored, and every
    # lattice point of the box was sampled
    def test_min_depth_needs_r(self, tmp_path, capsys):
        self.check(tmp_path, """
[domain]
box = -1:1, -1:1
[weights]
phi = x1^2+x2^2
[task]
name = check-psh
p = 1
per_axis = 4
min_depth = 0.5
""")
        assert ("config error: [task] min_depth: a depth in r; needs "
                "[domain] r") in capsys.readouterr().err

    # a bounds key that only another bound reads is refused the same way;
    # nonpsh may take omega, and minimal requires it
    @pytest.mark.parametrize("cfg, line, where", [
        (HORMANDER_CFG, "omega = 0.4", "[weights] omega: bound hormander"),
        (HORMANDER_CFG, "psi = x1", "[weights] psi: bound hormander"),
        (BERNDTSSON_CFG, "omega = 0.4", "[weights] omega: bound berndtsson"),
    ], ids=["hormander-omega", "hormander-psi", "berndtsson-omega"])
    def test_key_its_bound_does_not_read(self, tmp_path, capsys, cfg, line,
                                         where):
        self.check(tmp_path, cfg.replace("phi = x1^2+x2^2",
                                         f"phi = x1^2+x2^2\n{line}"))
        assert f"{where} does not read this key" in capsys.readouterr().err

    # alpha is checked at load against its own bound's interval: nonpsh
    # takes 1.5, which berndtsson refuses
    def test_alpha_inside_its_bound_interval(self, tmp_path):
        cfg = BERNDTSSON_CFG.replace("bound = berndtsson", "bound = nonpsh")
        exp = cli.load_config(write(tmp_path, cfg.replace("alpha = 0.3",
                                                          "alpha = 1.5")))
        assert exp.options["alpha"] == 1.5

    def test_battery_axes_within_form_algebra(self, tmp_path, capsys):
        # exterior handles at most 12 axes; n = 40 used to exit 1 from it
        self.check(tmp_path, BATTERY_CFG.replace("n = 3", "n = 40"))
        assert "[task] n: must lie in [1, 12], got 40" in \
            capsys.readouterr().err

    def test_cohomology_needs_at_most_three_axes(self, tmp_path, capsys):
        self.check(tmp_path, """
[domain]
box = 0:1, 0:1, 0:1, 0:1
h = 1/2
[task]
name = cohomology
""")
        assert "[domain] box: cohomology supports n ≤ 3, got 4 axes" in \
            capsys.readouterr().err

    def test_boundary_degree_checked_at_load(self, tmp_path, monkeypatch):
        # tangential planes of a boundary in R^n have n - 1 axes; p = n is
        # refused by load_config, before any lattice is sampled
        def unreachable(*args, **kwargs):
            raise AssertionError("the task ran")
        monkeypatch.setattr(cli.weights, "lattice_samples", unreachable)
        text = """
[domain]
box = -1:1, -1:1
r = disk(1.0)
[task]
name = boundary-convexity
p = 2
"""
        with pytest.raises(ConfigError, match=r"\[task\] p: tangential "
                           r"planes need p <= 1"):
            cli.load_config(write(tmp_path, text))
        self.check(tmp_path, text)

    @pytest.mark.parametrize("box", ["0:inf", "-inf:1, 0:1", "0:nan"])
    def test_box_bound_not_finite(self, tmp_path, capsys, box):
        # 0:inf used to crash in GridDomain with an OverflowError traceback
        solve = HORMANDER_CFG.replace("name = bounds\nbound = hormander",
                                      "name = solve")
        self.check(tmp_path, solve.replace("box = 0:1, 0:1", f"box = {box}"))
        assert "[domain] box: want finite lo:hi" in capsys.readouterr().err

    # values that used to run vacuously, crash, or fail inside the task
    @pytest.mark.parametrize("cfg, extra, where", [
        (BERNDTSSON_CFG.replace("seed = 7", "seed = -1"), (), "[task] seed"),
        (BERNDTSSON_CFG, ("--seed", "-1"), "--seed"),
        (CHECK_PSH_CFG.replace("p = 1", "p = 1\nper_axis = 1"), (),
         "[task] per_axis"),
    ], ids=["seed-negative", "seed-flag-negative", "per_axis-1"])
    def test_out_of_range_value(self, tmp_path, capsys, cfg, extra, where):
        code, report, _ = run(tmp_path, cfg, *extra)
        assert code == 2 and report == []
        assert f"config error: {where}: must be >= " in capsys.readouterr().err

    # h = inf used to exit 0 with "h": Infinity in report.jsonl, and an
    # infinite rung to die in the log-log plot with an OverflowError
    @pytest.mark.parametrize("old, new, where", [
        ("h = 1/16", "h = inf", "[domain] h: must be positive and finite"),
        ("h = 1/16", "h = nan", "[domain] h: must be positive and finite"),
        ("h = 1/16", "ladder = inf, 1/8", "[domain] ladder: h values must "
         "be positive, finite")], ids=["h-inf", "h-nan", "ladder-inf"])
    def test_spacing_not_finite(self, tmp_path, capsys, old, new, where):
        self.check(tmp_path, HORMANDER_CFG.replace(old, new))
        assert where in capsys.readouterr().err

    # each used to print a traceback and exit 1 (the builtin raised a
    # plain ValueError), run vacuously on a zero potential, run LSMR on NaN
    # data to its budget, drop a NaN pair or write "K": Infinity
    @pytest.mark.parametrize("cfg, old, new, where", [
        ("check_psh_df_disk", "df(K=0.5, eta=0.05)", "df(K=0.5, eta=0)",
         "[weights] phi: eta must lie in (0, 1]"),
        ("check_psh_df_disk", "df(K=0.5, eta=0.05)", "df(K=-1, eta=0.5)",
         "[weights] phi: K must be positive"),
        ("check_psh_df_disk", "df(K=0.5, eta=0.05)", "cor42(p=0, D=1)",
         "[weights] phi: p must be >= 1"),
        ("check_psh_df_disk", "df(K=0.5, eta=0.05)", "cor42(p=1, D=0)",
         "[weights] phi: diameter must be positive"),
        ("hormander_ladder", "bump(0.25, 0.75)", "bump(nan, 0.75)",
         "[task] potential: bump: need finite lo < hi"),
        ("hormander_ladder", "bump(0.25, 0.75)", "bump(0.25, inf)",
         "[task] potential: bump: need finite lo < hi"),
        ("hormander_ladder", "bump(0.25, 0.75)", "bump(-inf, 0.75)",
         "[task] potential: bump: need finite lo < hi"),
        ("df_search_disk", "k_grid = 0.25, 0.5, 1, 2, 4", "k_grid = 0.5, nan",
         "[task] k_grid: values must be finite and > 0"),
        ("df_search_disk", "k_grid = 0.25, 0.5, 1, 2, 4", "k_grid = inf",
         "[task] k_grid: values must be finite and > 0"),
        # these loaded and failed in the task (exit 1), or put "nan" or
        # "inf" into a domain's expression text and failed to parse it there
        ("check_psh_df_disk", "df(K=0.5, eta=0.05)", "df(K=nan, eta=0.5)",
         "[weights] phi: K must be positive and finite, got nan"),
        ("check_psh_df_disk", "df(K=0.5, eta=0.05)", "df(K=inf, eta=0.5)",
         "[weights] phi: K must be positive and finite, got inf"),
        ("check_psh_df_disk", "df(K=0.5, eta=0.05)", "cor42(p=1, D=inf)",
         "[weights] phi: diameter must be positive and finite, got inf"),
        ("check_psh_df_disk", "df(K=0.5, eta=0.05)", "cor42(p=1, D=nan)",
         "[weights] phi: diameter must be positive and finite, got nan"),
        ("check_psh_df_disk", "disk(1.0)", "disk(nan)",
         "[domain] r: disk: radius must be finite, got nan"),
        ("check_psh_df_disk", "disk(1.0)", "disk(inf)",
         "[domain] r: disk: radius must be finite, got inf"),
        ("check_psh_df_disk", "disk(1.0)", "disk(1.0, center=nan:0)",
         "[domain] r: disk: center must be finite"),
        ("check_psh_df_disk", "disk(1.0)", "annulus(nan, 1.0)",
         "[domain] r: annulus: inner must be finite, got nan"),
        ("check_psh_df_disk", "disk(1.0)", "annulus(0.5, inf)",
         "[domain] r: annulus: outer must be finite, got inf"),
        ("betti_torus", "torus(0.55, 0.3)", "torus(inf, 0.3)",
         "[domain] r: torus: ring must be finite, got inf"),
        # these loaded and failed in the task: a report's PreconditionError
        # on alpha, a failed rank check, an EmptyDomain or a DomainError
        # from sampling outside the disk (exit 1); ratio_min = -3 exited 0,
        # with a check that could not fail
        ("berndtsson_diameter", "alpha = 0.3", "alpha = 1.0",
         "[task] alpha: alpha must lie in [0, 1); got 1.0"),
        ("berndtsson_diameter", "alpha = 0.3", "alpha = nan",
         "[task] alpha: alpha must lie in [0, 1); got nan"),
        ("minimal_estimate", "alpha = 0.64", "alpha = -0.2",
         "[task] alpha: alpha must lie in [0, 1); got -0.2"),
        ("composite_route", "alpha = 0.25", "alpha = 0",
         "[task] alpha: alpha0 must lie in (0, 1); got 0.0"),
        ("nonpsh_tilt", "alpha = 0.3", "alpha = 2",
         "[task] alpha: alpha must lie in [0, 2); got 2.0"),
        ("betti_ring", "expect = 1, 1, 0", "expect = -1, 1, 0",
         "[task] expect: need one rank >= 0 per degree 0..2"),
        ("kmh_ladder_2d", "ratio_min = 1.5", "ratio_min = nan",
         "[task] ratio_min: must be finite and > 0, got nan"),
        ("kmh_ladder_2d", "ratio_min = 1.5", "ratio_min = -3",
         "[task] ratio_min: must be finite and > 0, got -3.0"),
        ("check_psh_df_disk", "min_depth = 0.05", "min_depth = nan",
         "[task] min_depth: must be finite and >= 0, got nan"),
        ("check_psh_df_disk", "min_depth = 0.05", "min_depth = inf",
         "[task] min_depth: must be finite and >= 0, got inf"),
        ("check_psh_df_disk", "min_depth = 0.05", "min_depth = -0.5",
         "[task] min_depth: must be finite and >= 0, got -0.5"),
    ], ids=["df-eta-0", "df-K-negative", "cor42-p-0", "cor42-D-0",
            "bump-nan", "bump-inf", "bump-minus-inf", "k_grid-nan",
            "k_grid-inf", "df-K-nan", "df-K-inf", "cor42-D-inf",
            "cor42-D-nan", "disk-nan", "disk-inf", "disk-center-nan",
            "annulus-inner-nan", "annulus-outer-inf", "torus-ring-inf",
            "berndtsson-alpha-1", "berndtsson-alpha-nan",
            "minimal-alpha-negative", "composite-alpha-0",
            "nonpsh-alpha-2", "expect-negative", "ratio_min-nan",
            "ratio_min-negative", "min_depth-nan", "min_depth-inf",
            "min_depth-negative"])
    def test_shipped_config_value_out_of_range(self, tmp_path, capsys, cfg,
                                               old, new, where):
        text = (REPO_CONFIGS / f"{cfg}.ini").read_text(encoding="utf-8")
        assert text.count(old) == 1
        self.check(tmp_path, text.replace(old, new))
        assert f"config error: {where}" in capsys.readouterr().err

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

    # a field builtin has values but no 2-jets, so phi and psi refuse it
    # when the config loads, before any task can die on it without a
    # report; omega, potential and g are read by value and take it
    @pytest.mark.parametrize("cfg, old, new", [
        (HORMANDER_CFG, "phi = x1^2+x2^2", "phi = bump(0.25, 0.75)"),
        (CHECK_PSH_CFG, "phi = x1^2+x2^2", "phi = bump()"),
        (BERNDTSSON_CFG, "psi = cor42(p=1, D=1.4142135623730951, "
         "center=0.5:0.5)", "psi = bump(lo=0.2, hi=0.8)"),
        (PREKOPA_CFG, "phi = x1^2+x2^2", "phi = bump(0.25, 0.75)"),
    ], ids=["hormander-phi", "check-psh-phi", "berndtsson-psi",
            "prekopa-phi"])
    def test_field_builtin_is_not_a_weight(self, tmp_path, capsys, cfg, old,
                                           new):
        key = new.split()[0]
        self.check(tmp_path, cfg.replace(old, new))
        assert (f"config error: [weights] {key}: bump is a field builtin"
                in capsys.readouterr().err)

    def test_omega_takes_a_field_builtin(self, tmp_path):
        cfg = HORMANDER_CFG.replace("bound = hormander", "bound = nonpsh\n"
                                    "alpha = 0.5").replace(
            "phi = x1^2+x2^2", "phi = x1^2+x2^2\npsi = 0.0\n"
                               "omega = bump(0.25, 0.75)")
        exp = cli.load_config(write(tmp_path, cfg))
        assert exp.omega.jets(np.full((1, 2), 0.5), 0)[0] == 1.0

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
        # degree 1 is integrated in closed form, with no iterations
        assert all((r["method"], r["iterations"]) == ("primitive", 0)
                   for r in recs)
        csv = (out / "series.csv").read_text().splitlines()
        assert csv[0] == "h,cells,iterations,residual"

    def test_norm_reuses_the_solve_mass(self, tmp_path, monkeypatch):
        # per rung: the solve's degrees 1 and 2, and its degree-0 mass,
        # which the solution's norm reads back instead of building again
        calls = []

        def counting(cx, phi, p):
            calls.append(p)
            return mass(cx, phi, p)

        mass = discrete.mass
        monkeypatch.setattr(discrete, "mass", counting)
        monkeypatch.setattr(solver, "mass", counting)
        code, _, _ = run(tmp_path, """
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
        assert sorted(calls) == [0, 0, 1, 1, 2, 2]

    def test_degree_two_runs_lsmr(self, tmp_path):
        code, report, _ = run(tmp_path, """
[domain]
box = 0:1, 0:1
h = 1/16
[weights]
phi = x1^2+x2^2
[task]
name = solve
p = 2
potential = bump(0.25, 0.75); 0
""")
        assert code == 0
        (rec,) = report[1:]
        assert rec["method"] == "lsmr" and rec["iterations"] > 0
        assert rec["cells"] == 544 and rec["residual"] <= 1e-10


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

    @pytest.mark.parametrize("old, new, error", [
        ("potential = bump(0.25, 0.75)", "potential = nan",
         "sampled value nan on 0-cell 0 is not finite at x = [0.0, 0.0]"),
        ("potential = bump(0.25, 0.75)", "potential = inf",
         "sampled value inf on 0-cell 0 is not finite at x = [0.0, 0.0]"),
        ("phi = x1^2+x2^2", "phi = nan",
         "weighted mass entry is not a number on 1-cell 0 at "
         "x = [0.03125, 0.0]"),
    ], ids=["potential-nan", "potential-inf", "phi-nan"])
    def test_non_finite_input_named(self, tmp_path, old, new, error):
        # named where it enters, not after LSMR has run to its budget on a
        # NaN residual, and with no warning from d's gather on the way
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, report, _ = run(tmp_path, HORMANDER_CFG.replace(old, new))
        assert code == 1 and caught == []
        assert report[1]["error"] == f"DomainError: {error}"


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

    def test_ring_records_repeat_byte_for_byte(self, tmp_path):
        cfg = write(tmp_path, self.CFG.replace("h = 0.1", "h = 0.05"))
        lines = []
        for out in ("a", "b"):
            assert cli.main(["run", cfg, "--out", str(tmp_path / out)]) == 0
            lines.append((tmp_path / out / "report.jsonl").read_bytes()
                         .splitlines()[1:])
        assert lines[0] == lines[1]
        recs = [json.loads(line) for line in lines[0]]
        assert [r["rank"] for r in recs] == [1, 1, 0]
        assert [r["num_cells"] for r in recs] == [936, 1750, 814]
        assert all((r["components"], r["voids"], r["euler"]) == (1, 1, 0)
                   for r in recs)

    def test_underflowing_weight_is_named(self, tmp_path):
        # e^{-800 x1} times a vertex's dual area underflows from x1 = 0.9375
        code, report, _ = run(tmp_path, """
[domain]
box = 0:1, 0:1
h = 1/32
[weights]
phi = 800*x1
[task]
name = cohomology
""")
        assert code == 1
        assert report[1:] == [{
            "error": "DomainError: weighted mass entry underflowed to 0 on "
                     "0-cell 990 at x = [0.9375, 0.0]",
            "pass": False, "test": "cohomology"}]

    def test_every_weight_is_checked_in_every_degree(self, tmp_path,
                                                     monkeypatch):
        # φ and the two check weights, each in degrees 0, 1 and 2
        calls = []

        def counting(cx, phi, p):
            calls.append(p)
            return mass(cx, phi, p)

        mass = discrete.mass
        monkeypatch.setattr(discrete, "mass", counting)
        code, _, _ = run(tmp_path, self.CFG)
        assert code == 0
        assert calls == [0, 1, 2] * 3


class TestPrekopa:

    def test_round_gaussian(self, tmp_path):
        code, report, out = run(tmp_path, """
[domain]
box = -6:6
[weights]
phi = x1^2+x2^2
[task]
name = prekopa
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


@pytest.mark.parametrize("name", ["check_psh_indefinite", "df_search_disk"])
def test_constant_phi_is_reported_not_raised(tmp_path, name):
    # a number is a field with zero Hessian, which is not strictly p-psh:
    # both tasks write their report and exit 1 (they used to raise
    # "'float' object is not callable" and write nothing)
    text = (REPO_CONFIGS / f"{name}.ini").read_text(encoding="utf-8")
    cfg = write(tmp_path, re.sub(r"(?m)^phi = .*$", "phi = 2.0", text))
    out = tmp_path / "out"
    assert cli.run(cfg, out_dir=str(out)) == 1
    rec = json.loads((out / "report.jsonl").read_text().splitlines()[1])
    assert rec["pass"] is False
    if name == "check_psh_indefinite":
        assert rec["verdict"] == "semi" and rec["min_trace"] == 0.0
    else:
        assert rec["error"].startswith(
            "PreconditionError: weight field is not strictly p-psh (minimal "
            "p-trace 0.000e+00) at x = ")


def test_config_corpus_is_nonempty():
    assert len(list(REPO_CONFIGS.glob("*.ini"))) >= 13


def test_task_errors_catch_every_error_type():
    # a task that raises any of the package's errors gets a failed record
    # and exit 1, not a traceback
    types = [obj for obj in vars(errors).values()
             if isinstance(obj, type) and issubclass(obj, Exception)
             and not issubclass(obj, Warning)]
    assert len(types) == 14
    assert all(issubclass(t, cli._TASK_ERRORS) for t in types)


# ---------------------------------------------------------------------------
# start-up cost
# ---------------------------------------------------------------------------

# the tasks that never build a complex
NUMPY_ONLY_TASKS = ("check-psh", "boundary-convexity", "df-search", "kmh",
                    "prekopa", "algebra-battery")


def test_cli_import_leaves_lazy_scipy_modules_unloaded(tmp_path):
    # every process imports the cli; scipy.ndimage would add 0.1 s or more
    # to each start, and no task loads it; nor does any task load csgraph,
    # since components are found by hooking runs of the id grids.  The
    # tasks that build no complex run on numpy alone: scipy.sparse and its
    # submodules load only where a complex is built.
    configs = sorted(str(path) for path in REPO_CONFIGS.glob("*.ini")
                     if cli.load_config(str(path)).task in NUMPY_ONLY_TASKS)
    assert len(configs) == 9
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    script = f"""
import json, sys
import pconvex
from pconvex import cli
lazy = ('scipy.ndimage', 'scipy.sparse.csgraph')
at_import = sorted(m for m in lazy if m in sys.modules)
codes = [cli.run(path, out_dir={str(tmp_path)!r} + '/' + str(i))
         for i, path in enumerate({configs!r})]
after_runs = sorted(m for m in sys.modules
                    if m.startswith('scipy.sparse') or m in lazy)
print(json.dumps([at_import, codes, after_runs]))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    at_import, codes, after_runs = json.loads(proc.stdout.splitlines()[-1])
    assert at_import == []
    # exit 1: check_psh_indefinite's checks fail by design
    assert set(codes) <= {0, 1}, dict(zip(configs, codes))
    assert after_runs == []


def _scipy_modules_after(configs, tmp_path):
    """Exit codes of ``configs`` run in one fresh process, and the ``scipy``
    modules loaded after them."""
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    script = f"""
import json, sys
from pconvex import cli
codes = [cli.run(path, out_dir={str(tmp_path)!r} + '/' + str(i))
         for i, path in enumerate({configs!r})]
print(json.dumps([codes, sorted(m for m in sys.modules
                                if m.split('.')[0] == 'scipy')]))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cohomology_loads_neither_csgraph_nor_sparse_linalg(tmp_path):
    # the count merges runs of the complex's own id grids with numpy, so
    # a cohomology run loads no scipy module at all: neither csgraph and
    # the scipy.sparse.linalg it imports, which belong to the solves, nor
    # scipy.ndimage
    configs = sorted(str(path) for path in REPO_CONFIGS.glob("betti_*.ini"))
    assert len(configs) == 3
    codes, loaded = _scipy_modules_after(configs, tmp_path)
    assert codes == [0, 0, 0]
    assert loaded == []


def test_box_solves_load_neither_csgraph_nor_sparse_linalg(tmp_path):
    # on a box the degree-1 primitive is summed along a fixed tree, so a
    # bound report or solve there needs no graph search, and no LSMR
    configs = [str(REPO_CONFIGS / name)
               for name in ("hormander_ladder.ini", "solve_min_norm.ini")]
    codes, loaded = _scipy_modules_after(configs, tmp_path)
    assert codes == [0, 0]
    assert "scipy.sparse.csgraph" not in loaded
    assert "scipy.sparse.linalg" not in loaded


def test_box_bounds_and_solves_load_no_sparse_matrices(tmp_path):
    # on a box a degree-1 bound or solve applies d and its weighted adjoint
    # as gathers over the complex's columns and checks d∘d = 0 by cancelling
    # pairs, so scipy.sparse, or any scipy module, is never imported; its
    # import alone adds tens of MiB to a process
    configs = [str(REPO_CONFIGS / f"{name}.ini")
               for name in ("berndtsson_diameter", "composite_route",
                            "hormander_ladder", "minimal_estimate",
                            "nonpsh_tilt", "solve_min_norm")]
    for path in configs:
        e = cli.load_config(path)
        assert e.r is None and e.p == 1, path
    codes, loaded = _scipy_modules_after(configs, tmp_path)
    assert codes == [0] * 6
    assert loaded == []


def test_disk_solve_loads_no_scipy_and_repeats_its_bytes(tmp_path):
    # off a box the degree-1 primitive hooks the runs of the node grid with
    # numpy, so a disk run loads no scipy module; the hooking picks one
    # link per root and round by rule, so two runs write the same records
    disk = str(REPO_CONFIGS / "hormander_disk.ini")
    assert cli.load_config(disk).r is not None
    codes, loaded = _scipy_modules_after([disk, disk], tmp_path)
    assert codes == [0, 0]
    assert loaded == []
    first, second = ((tmp_path / str(i) / "report.jsonl").read_bytes()
                     .split(b"\n", 1)[1] for i in (0, 1))
    assert first and first == second
