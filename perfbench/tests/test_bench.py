"""Tests of the benchmark's own code (run: python -m pytest perfbench/tests)."""

import json
import random

import numpy as np
import pytest

import run
import spans
import workloads


def _inputs(ops):
    return [(op.argv[:1] + [a for a in op.argv[1:] if "/" not in a],
             op.variety, op.family) for op in ops]


@pytest.mark.parametrize("workload", ["enumerate", "recurse"])
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = workloads.generate(workload, 7, 2, tmp_path / "a")
    again = workloads.generate(workload, 7, 2, tmp_path / "b")
    other = workloads.generate(workload, 8, 2, tmp_path / "c")
    workloads.write_inputs(first + again)
    assert _inputs(first) == _inputs(again)
    assert sorted(p.read_text() for p in (tmp_path / "a").iterdir()) == \
        sorted(p.read_text() for p in (tmp_path / "b").iterdir())
    assert _inputs(first) != _inputs(other)


def test_enumerate_sizes_and_op_counts(tmp_path):
    ops = workloads.generate("enumerate", 1, 2, tmp_path)
    sizes = [op.variety.q ** op.variety.n for op in ops]
    assert len(ops) >= 100
    assert min(sizes) >= workloads.ENUM_MIN and max(sizes) <= workloads.ENUM_MAX
    assert len(workloads.generate("recurse", 1, 2, tmp_path)) >= 100


def _plateau_holds_p90(ops, plateau, above) -> bool:
    """op_ms.p90 interpolates at rank 0.9 * (ops - 1) of the sorted
    latencies; it must lie at least three ranks inside the plateau, given
    how many ops cost more than the plateau."""
    at = 0.9 * (len(ops) - 1)
    top = len(ops) - 1 - sum(map(above, ops))
    return top - sum(map(plateau, ops)) + 1 + 3 <= at <= top - 3


def test_tail_percentile_falls_inside_the_plateau(tmp_path):
    ops = workloads.generate("enumerate", 1, 2, tmp_path / "e")
    work = max(n * q ** n for q, n in workloads.PLATEAU)
    assert _plateau_holds_p90(
        ops, lambda op: (op.variety.q, op.variety.n) in workloads.PLATEAU,
        lambda op: op.variety.n * op.variety.q ** op.variety.n > work)
    ops = workloads.generate("recurse", 1, 2, tmp_path / "r")
    assert _plateau_holds_p90(
        ops, lambda op: op.variety is not None and op.variety.dynkin in
        {("A", 4), ("D", 5)} and op.variety.q in (53, 59),
        lambda op: op.family is not None or op.variety.dynkin == ("E", 6)
        and op.variety.q >= 37)


@pytest.mark.parametrize("samples, expected", [
    (19, None), (20, 50), (99, 50), (100, 90), (105, 90), (199, 90),
    (200, 95), (999, 95), (1000, 99), (10000, 99.9)])
def test_tail_percentile_has_ten_samples_beyond(samples, expected):
    assert run.tail_percentile(samples) == expected


def test_percentile_interpolates_between_ranks():
    assert run.percentile([5], 90) == 5
    assert run.percentile(range(1, 11), 50) == 5.5
    assert run.percentile(range(101), 90) == 90


def test_self_time_subtracts_direct_children():
    #   0 root [0, 10]: children 1, 2, 5
    #   1 [1, 4]: child 4;  2 [5, 9]: child 3;  6 is a second root
    parent = np.array([spans.ROOT, 0, 0, 2, 1, 0, spans.ROOT])
    start = np.array([0.0, 1.0, 5.0, 6.0, 2.0, 9.5, 20.0])
    end = np.array([10.0, 4.0, 9.0, 7.0, 3.5, 10.0, 21.0])
    assert spans.self_times(parent, start, end) == pytest.approx(
        [10 - 3 - 4 - 0.5, 3 - 1.5, 4 - 1, 1, 1.5, 0.5, 1])


def _ops_with_references(workload, tmp_path, count):
    run.import_cli()
    ops = workloads.generate(workload, 3, 2, tmp_path)
    workloads.write_inputs(ops)
    ops = sorted(ops, key=lambda op: op.variety.q ** op.variety.n
                 if op.variety else float("inf"))[:count]
    workloads.compute_references(ops, random.Random(0))
    return ops


def test_gate_flags_a_wrong_reference(tmp_path):
    cli = run.import_cli()
    ops = _ops_with_references("enumerate", tmp_path, 6)
    op = ops[0]
    _, code, stdout, _ = run.call(cli, op.argv)
    out = workloads.parse_stdout(stdout)
    assert workloads.check_output(op, code, out) is None
    op.expected += 1
    assert "reference" in workloads.check_output(op, code, out)
    assert workloads.check_output(op, 1, out) == "exit code 1"
    assert run.engine_gate(ops, 0)


def test_paper_check_output_is_checked_per_battery():
    op = workloads.Op(["check", "--suite", "paper"])
    out = [{"name": n, "ok": True} for n in workloads.PAPER_BATTERIES]
    assert workloads.check_output(op, 0, out) is None
    out[3]["ok"] = False
    assert "failed batteries" in workloads.check_output(op, 0, out)
    assert "unexpected" in workloads.check_output(op, 0, out[1:])


def test_traced_counts_equal_untraced_counts(tmp_path):
    ops = (_ops_with_references("enumerate", tmp_path / "e", 8)
           + _ops_with_references("recurse", tmp_path / "r", 8))
    cli = run.import_cli()
    from clustercount import recursion
    original = recursion.canonical_form

    plain = [run.call(cli, op.argv) for op in ops]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [run.call(cli, op.argv, tracer) for op in ops]
    finally:
        tracer.uninstall()
    assert recursion.canonical_form is original
    assert not tracer.missing
    for op, a, b in zip(ops, plain, traced):
        assert a[1] == b[1] == 0
        assert json.loads(a[2])["count"] == json.loads(b[2])["count"]
        assert workloads.check_output(op, b[1], json.loads(b[2])) is None
    metrics = spans.layer_metrics(tracer)
    assert metrics["cli.main.calls"] == len(ops)
    assert metrics["counting.points_yielded"] == 0
    assert metrics["recursion.keys"] >= metrics["recursion.nodes"] > 0
    assert metrics["counting.assignments"] == sum(
        op.variety.q ** op.variety.n for op in ops if "--method" in op.argv
        and op.argv[op.argv.index("--method") + 1] == "all")


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = spans.layer_metrics(spans.Tracer())
    layer["traced.wall_s"] = 0.0
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run.unit_of(name) for name in layer}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_singular_search_counts_points_and_ranks():
    cli = run.import_cli()
    argv = ["singular", "--type", "A", "--rank", "3", "--alpha", "1", "--q", "5"]
    plain = run.call(cli, argv)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run.call(cli, argv, tracer)
    finally:
        tracer.uninstall()
    assert plain[1:3] == traced[1:3]
    assert json.loads(traced[2])["count"] == 1
    metrics = spans.layer_metrics(tracer)
    assert metrics["counting.brute_points.calls"] == 1
    assert metrics["counting.points_yielded"] > metrics["singular.rank.calls"] > 0
    assert metrics["singular.useful_ratio"] == 1 / metrics["singular.rank.calls"]
