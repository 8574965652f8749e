"""Tests of the benchmark's own code: input generation, span accounting,
the percentile rule and metric naming.

    python3 -m pytest -q udesbench/tests
"""

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import udes  # noqa: E402
import udes.cli  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# --------------------------------------------------------------------------
# the generator


def _design_pool(seed, tmp_path):
    w = workloads.DesignStream(udes, seed, str(tmp_path))
    return [(item.kind, item.eps, item.elems) for row in w.pool for item in row]


def _same_pool(a, b) -> bool:
    return all(ka == kb and ea == eb and np.array_equal(xa, xb) for (ka, ea, xa), (kb, eb, xb) in zip(a, b))


def test_design_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    a = _design_pool(7, tmp_path)
    b = _design_pool(7, tmp_path)
    c = _design_pool(8, tmp_path)
    assert len(a) == len(b) == len(c)
    assert _same_pool(a, b)
    assert not any(np.array_equal(xa, xc) for (_, _, xa), (_, _, xc) in zip(a, c))


def _cli_files(seed, tmp_path):
    d = tmp_path / f"seed{seed}-{len(list(tmp_path.iterdir()))}"
    d.mkdir()
    w = workloads.CliStructure(udes, seed, str(d))
    return [open(p, "rb").read() for paths in w.files for p in paths.values()]


def test_cli_set_files_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    a, b, c = _cli_files(3, tmp_path), _cli_files(3, tmp_path), _cli_files(4, tmp_path)
    assert a == b
    assert all(x != y for x, y in zip(a, c))


def test_mc_sampler_seeds_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    w1, w2, w3 = (workloads.McOracle(udes, s, str(tmp_path)) for s in (5, 5, 6))
    slots = [(c, s) for c in range(3) for s in range(len(w1.cycle))]
    seeds1 = [w1.sampler_seed(c, s) for c, s in slots]
    assert seeds1 == [w2.sampler_seed(c, s) for c, s in slots]
    assert not set(seeds1) & {w3.sampler_seed(c, s) for c, s in slots}
    assert len(set(seeds1)) == len(seeds1)


def test_generated_sets_are_what_they_claim(tmp_path):
    rng = np.random.default_rng(0)
    for elems in (workloads.completed_design(rng, 1), workloads.completed_design(rng, 2)):
        dev, gap = workloads.moment_defects(elems)
        assert dev < 1e-13 and abs(gap) < 1e-13
    dev, gap = workloads.moment_defects(workloads.min_1design(rng))
    assert dev > 0.1 and gap > 0.1


def test_independent_defects_match_the_library_on_a_near_design():
    rng = np.random.default_rng(1)
    elems = workloads.completed_design(rng, 2)
    elems[5] = workloads.rotate_x(1e-3) @ elems[5]
    dev, gap = workloads.moment_defects(elems)
    rep = udes.verify_design(udes.UnitarySet(list(elems)), 2)
    assert dev == pytest.approx(rep.max_twirl_deviation, rel=1e-9)
    assert gap == pytest.approx(rep.frame_gap, rel=1e-6)


# --------------------------------------------------------------------------
# span accounting


def _tree(spans):
    """spans: (parent, start, end) tuples."""
    parent = [p for p, _, _ in spans]
    return parent, [s for _, s, _ in spans], [e for _, _, e in spans]


def test_self_time_subtracts_direct_children_only():
    # 0:[0,10] has children 1:[1,4] and 2:[5,9]; 2 has child 3:[6,8]
    parent, start, end = _tree([(-1, 0, 10), (0, 1, 4), (0, 5, 9), (2, 6, 8)])
    assert tracer.self_times(parent, start, end) == [3, 3, 2, 2]


def test_self_time_takes_the_union_of_overlapping_and_clipped_children():
    # children [1,5] and [3,7] overlap (union 6); child [8,12] is clipped to [8,10]
    parent, start, end = _tree([(-1, 0, 10), (0, 1, 5), (0, 3, 7), (0, 8, 12)])
    assert tracer.self_times(parent, start, end)[0] == 2


def test_summary_of_a_nested_recursive_tree():
    names = ["cli.emit_json", "cli.main"]
    # main [0,20] -> emit [2,12] -> emit [4,8] (recursive); main -> emit [14,16]
    fn = [1, 0, 0, 0]
    parent, start, end = _tree([(-1, 0, 20), (0, 2, 12), (1, 4, 8), (0, 14, 16)])
    outer = [1, 1, 0, 1]
    out = tracer.summarize(names, fn, parent, [s / 1e3 for s in start], [e / 1e3 for e in end], outer, {})
    assert out["cli.main.calls"] == 1
    assert out["cli.main.self_ms"] == pytest.approx(20 - 10 - 2)
    assert out["cli.main.total_ms"] == pytest.approx(20)
    assert out["cli.emit_json.calls"] == 3
    assert out["cli.emit_json.self_ms"] == pytest.approx((10 - 4) + 4 + 2)
    # only outermost spans count towards total time, so recursion is not double counted
    assert out["cli.emit_json.total_ms"] == pytest.approx(10 + 2)


def test_tracer_records_nested_calls_with_a_fake_clock():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: next(ticks) / 1e3)
    inner = t.wrap("linalg.hs_norm", lambda x: x)
    outer = t.wrap("twirl.twirl_finite", lambda: inner(1) + inner(2))
    t.active = True
    assert outer() == 3
    t.active = False
    outer()  # inactive: not recorded
    out = t.summary()
    # outer [0,5], inner [1,2] and [3,4]
    assert out["twirl.twirl_finite.calls"] == 1
    assert out["twirl.twirl_finite.self_ms"] == pytest.approx(3)
    assert out["twirl.twirl_finite.total_ms"] == pytest.approx(5)
    assert out["linalg.hs_norm.calls"] == 2
    assert out["linalg.hs_norm.self_ms"] == pytest.approx(2)


def test_install_patches_every_binding_and_uninstall_restores_it():
    import udes.designs as designs
    import udes.groups as groups
    import udes.su2 as su2
    import udes.twirl as twirl

    before = (twirl.twirl_finite, designs.twirl_finite, su2.quaternion_of, groups.quaternion_of, udes.verify_design)
    t = tracer.Tracer()
    t.install()
    try:
        assert designs.twirl_finite is twirl.twirl_finite is not before[0]
        assert groups.quaternion_of is su2.quaternion_of is not before[2]
        assert udes.verify_design is designs.verify_design is not before[4]
        t.active = True
        udes.verify_design(udes.named_design("D").set, 1)
        t.active = False
    finally:
        t.uninstall()
    after = (twirl.twirl_finite, designs.twirl_finite, su2.quaternion_of, groups.quaternion_of, udes.verify_design)
    assert after == before
    out = t.summary()
    assert out["designs.verify_design.calls"] == 1
    assert out["twirl.twirl_finite.calls"] == 4


# --------------------------------------------------------------------------
# the percentile rule


def test_percentile_matches_numpy():
    rng = np.random.default_rng(2)
    xs = sorted(rng.random(37))
    for q in (0, 10, 50, 90, 100):
        assert harness.percentile(xs, q) == pytest.approx(np.percentile(xs, q))


@pytest.mark.parametrize("n, reported", [(1, False), (99, False), (100, True), (250, True)])
def test_p90_needs_ten_samples_beyond_it(n, reported):
    out = harness.latency_metrics([1e-3] * n)
    assert ("latency_p90_ms" in out) is reported
    assert out["latency_samples"] == n
    assert harness.tail_defined(n, 90) is reported
    if reported:
        assert n - (int(0.9 * (n - 1)) + 1) >= harness.TAIL_SAMPLES


def test_each_slot_is_timed_as_the_best_of_its_repeats():
    # 4 cycles of 3 slots; a slowed host inflates a different cycle each time
    latencies = [0.03, 0.02, 0.09, 0.01, 0.06, 0.03, 0.02, 0.02, 0.03, 0.01, 0.02, 0.05]
    kinds = ["a", "b", "c"] * 4
    assert harness.slot_best(latencies, kinds, 3) == [0.01, 0.02, 0.03]
    out = harness.best_of_cycles_metrics(latencies, kinds, cycle_ops=3, cycle_samples=300)
    assert out["ops_per_s"] == pytest.approx(3 / 0.06)
    assert out["samples_per_s"] == pytest.approx(300 / 0.06)
    assert out["latency_p50_ms"] == pytest.approx(20.0)
    assert (out["latency_p50_samples"], out["repeats"]) == (3, 4)
    assert "samples_per_s" not in harness.best_of_cycles_metrics(latencies, kinds, 3, 0)


def test_slots_of_one_kind_share_the_best_repeat():
    latencies = [0.05, 0.02, 0.04, 0.03, 0.01, 0.06]
    kinds = ["a", "b", "a"] * 2
    assert harness.slot_best(latencies, kinds, 3) == [0.03, 0.01, 0.03]


def test_setup_samples_are_spread_over_the_run(monkeypatch):
    monkeypatch.setattr(harness, "_wall", lambda code, env: 0.25)
    clock = harness.SetupClock("src", repeats=5, seconds=10.0)
    seen = []
    for elapsed in (0.5, 1.0, 4.5, 9.9):
        clock(elapsed)
        seen.append(len(clock.walls))
    assert seen == [1, 1, 3, 5]
    assert clock.setup_s() == 0.25 and len(clock.walls) == 5


# --------------------------------------------------------------------------
# metric names and BENCHMARK.json


def _all_metric_names():
    return [n for n, _ in run.END_TO_END + run.REPORTED] + [n for n, _, _ in tracer.metric_specs()]


def test_metric_names_use_only_letters_digits_underscore_dot_dash():
    names = _all_metric_names()
    assert len(names) == len(set(names))
    bad = [n for n in names if not NAME.match(n)]
    assert not bad


def test_benchmark_json_lists_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.metric_specs()
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"])
