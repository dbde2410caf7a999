"""Self-time arithmetic and the wrapping of pconvex's layers."""

import os

import pytest

import spans


def span(name, start, end, parent=-1, point_s=0.0):
    return [name, start, end, parent, point_s]


def test_self_time_of_nested_spans():
    recs = [span("run", 0.0, 10.0),
            span("build", 1.0, 3.0, 0),
            span("solve", 4.0, 9.0, 0),
            span("cg", 5.0, 7.0, 2),
            span("mass", 7.5, 8.0, 2, point_s=0.25)]
    assert spans.self_times(recs) == pytest.approx([3.0, 2.0, 2.5, 2.0, 0.25])


def test_self_time_of_recursive_spans():
    # cohomology_rank calls itself once per check weight
    recs = [span("rank", 0.0, 10.0),
            span("mass", 0.0, 1.0, 0),
            span("rank", 2.0, 5.0, 0),
            span("eigsh", 2.5, 4.0, 2),
            span("rank", 6.0, 8.0, 0)]
    own = spans.self_times(recs)
    assert own == pytest.approx([4.0, 1.0, 1.5, 1.5, 2.0])
    # the self times of all "rank" spans count each instant once
    assert own[0] + own[2] + own[4] == pytest.approx(10.0 - 1.0 - 1.5)


def test_self_time_counts_overlapping_children_once():
    recs = [span("a", 0.0, 10.0), span("b", 1.0, 5.0, 0),
            span("c", 4.0, 12.0, 0)]
    assert spans.self_times(recs)[0] == pytest.approx(1.0)


def test_self_times_from_a_later_mark():
    recs = [span("old", 0.0, 1.0), span("run", 2.0, 6.0),
            span("mass", 3.0, 4.0, 1)]
    assert spans.self_times(recs, first=1) == pytest.approx([3.0, 1.0])


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_wrappers_record_parents_points_and_partition_time():
    clock = Clock()
    tracer = spans.Tracer(clock)

    def leaf():
        clock.now += 1.0

    def evaluate():
        clock.now += 0.25

    point = tracer.point("eval", evaluate)
    inner = tracer.span("inner", leaf)

    def outer(depth):
        clock.now += 2.0
        point()
        if depth:
            traced_outer(depth - 1)
        inner()

    traced_outer = tracer.span("outer", outer)
    traced_outer(1)
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("outer", 0), ("inner", 1), ("inner", 0)]
    own = spans.self_times(tracer.spans)
    assert own == pytest.approx([2.0, 2.0, 1.0, 1.0])
    assert tracer.points["eval"] == pytest.approx([2, 0.5])
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(own) + tracer.points["eval"][1] == pytest.approx(total)


def test_install_reaches_names_imported_elsewhere(tmp_path):
    import pconvex
    from pconvex import cli, discrete, exterior, solver

    original = discrete.mass
    tracer = spans.Tracer()
    tracer.install(pconvex)
    try:
        assert solver.mass is discrete.mass is not original
        assert pconvex.mass is discrete.mass
        assert solver.quadform_pinv is exterior.quadform_pinv
        cfg = tmp_path / "solve.ini"
        cfg.write_text("[domain]\nbox = 0:1, 0:1\nh = 1/8\n"
                       "[weights]\nphi = x1^2+x2^2\n"
                       "[task]\nname = solve\np = 1\n"
                       "potential = bump(0.25, 0.75)\n", encoding="utf-8")
        mark = tracer.mark()
        assert cli.run(str(cfg), out_dir=str(tmp_path / "out")) == 0
        metrics = spans.layer_metrics(tracer, mark)
    finally:
        tracer.uninstall()
    assert discrete.mass is original and solver.mass is original
    parents = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans
               if s[3] >= 0}
    assert parents["solver.cg"] == "solver.minimal_solution"
    assert parents["discrete.sample_cochain"] == \
        "solver.closed_form_from_potential"
    assert metrics["discrete.mass_calls"] == 4     # 3 in the solve, 1 after
    assert metrics["solver.cg_iterations"] > 0
    assert metrics["discrete.cells"] == 81 + 144 + 64
    assert metrics["fieldexpr.point_evals"] > 0
    assert os.path.exists(tmp_path / "out" / "report.jsonl")
