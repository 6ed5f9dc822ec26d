import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import clustercount
from clustercount import (CoeffMap, VarietyInstance, _countpy, brute_count,
                          cli, dynkin, field_from_order, qpoly)
from clustercount.cli import build_parser, main
from clustercount.forests import read_tree_file
from clustercount.singular import matching_singular_points
from clustercount.suites import PAPER_SUITE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_all_methods_agree(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                               "--q", "3", "--alpha", "1,1", "--method", "all")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == "10"
        assert payload["agree"] is True
        assert set(payload["methods"]) == {"brute", "recursion", "formula"}
        for rep in payload["methods"].values():
            assert rep["count"] == "10"
            assert isinstance(rep["count"], str)

    def test_e8_formula(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--type", "E", "--rank", "8",
                               "--q", "2", "--method", "formula")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == "381"
        assert payload["branch"] == "E8"

    def test_normal_form_alpha_shorthand(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--type", "A", "--rank", "3",
                               "--q", "5", "--alpha", "-1", "--method", "all")
        payload = json.loads(out)
        assert code == 0
        # alpha = -1 = 4 is generic for A_3 (special value is 1)
        assert payload["branch"] == "A-odd-generic"

    def test_tree_file(self, capsys, tmp_path):
        tree = tmp_path / "tree.txt"
        tree.write_text("1 2\n2 3\n")
        code, out, _ = run_cli(capsys, "count", "--tree-file", str(tree),
                               "--q", "5", "--method", "brute")
        payload = json.loads(out)
        assert code == 0
        # path on 3 vertices, all-ones = A_3 special: q^3 - 1 + q^2
        assert payload["count"] == str(5**3 - 1 + 25)

    def test_tree_file_takes_any_integer_labels(self, capsys, tmp_path):
        # -3, -1, 0, 5, 7 in sorted order are 1..5, so both files give one
        # tree with one coefficient order
        outs = []
        for name, text in (("signed", "-3 0\n0 -1\n0 5\n5 7\n"),
                           ("positive", "1 3\n3 2\n3 4\n4 5\n")):
            tree = tmp_path / f"{name}.txt"
            tree.write_text(text)
            for alpha in ("1,1,1,1,1", "2,3,1,4,2"):
                code, out, _ = run_cli(capsys, "count", "--tree-file",
                                       str(tree), "--q", "5", "--alpha", alpha,
                                       "--method", "all", "--stats")
                assert code == 0
                outs.append(re.sub(r'"elapsed_ms": [0-9.e+-]+',
                                   '"elapsed_ms": 0', out))
        assert outs[:2] == outs[2:]
        assert [json.loads(out)["count"] for out in outs[:2]] == ["3774",
                                                                  "3124"]

    def test_coeff_file(self, capsys, tmp_path):
        tree = tmp_path / "tree.txt"
        tree.write_text("1 2\n2 3\n")
        coeff = tmp_path / "coeff.txt"
        coeff.write_text("1 2\n")
        code, out, _ = run_cli(capsys, "count", "--tree-file", str(tree),
                               "--coeff-file", str(coeff), "--q", "5",
                               "--method", "brute")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == str(5**3 - 1)

    def test_prime_power_field(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                               "--q", "9", "--method", "all")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == str(9**2 + 1)

    def test_usage_error_no_variety(self, capsys):
        code, _, err = run_cli(capsys, "count", "--q", "5")
        assert code == 2
        assert "variety" in err

    def test_usage_error_bad_alpha_arity(self, capsys):
        code, _, err = run_cli(capsys, "count", "--type", "A", "--rank", "4",
                               "--q", "5", "--alpha", "1,2")
        assert code == 2

    @pytest.mark.parametrize("q,alpha", [("7", "-1,1,1"), ("9", "-1:1,1,-1")])
    def test_negative_alpha_spellings_agree(self, capsys, q, alpha):
        # a value that starts with '-' reads the same after a space as
        # after '='; the singular listing prints no timings to differ in
        base = ["singular", "--type", "A", "--rank", "3", "--q", q]
        spaced = run_cli(capsys, *base, "--alpha", alpha)
        glued = run_cli(capsys, *base, f"--alpha={alpha}")
        assert spaced == glued
        assert spaced[0] == 0
        assert json.loads(spaced[1])["variety"].startswith("forest[3v/2e]")

    @pytest.mark.parametrize("q,alpha,item", [
        ("9", "1:2:1,1,1", "item 1 (1:2:1)"),
        ("5", "1,1:1,1", "item 2 (1:1)")])
    def test_alpha_vector_too_long_rejected(self, capsys, q, alpha, item):
        code, out, err = run_cli(capsys, "count", "--type", "A", "--rank",
                                 "3", "--q", q, "--alpha", alpha)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --alpha {item}: vector longer than "
                              f"extension degree {1 if q == '5' else 2}")

    @pytest.mark.parametrize("alpha,message", [
        ("1,,1", "item 2 (): not an integer"),
        ("1,2.5,1", "item 2 (2.5): not an integer"),
        ("1:x", "item 1 (1:x): not a vector of integers")])
    def test_alpha_non_integer_item_rejected(self, capsys, alpha, message):
        code, out, err = run_cli(capsys, "count", "--type", "A", "--rank",
                                 "3", "--q", "9", "--alpha", alpha)
        assert code == 2
        assert out == ""
        assert err == f"error: --alpha {message}\n"

    @pytest.mark.parametrize("alpha", ["4", ""])
    def test_alpha_with_coeff_file_rejected(self, capsys, tmp_path, alpha):
        coeff = tmp_path / "coeff.txt"
        coeff.write_text("1 2\n")
        code, out, err = run_cli(capsys, "count", "--type", "A", "--rank",
                                 "3", "--q", "5", "--alpha", alpha,
                                 "--coeff-file", str(coeff))
        assert code == 2
        assert out == ""
        assert "--alpha" in err and "--coeff-file" in err

    def test_rank_with_tree_file_rejected(self, capsys, tmp_path):
        tree = tmp_path / "tree.txt"
        tree.write_text("1 2\n2 3\n")
        code, out, err = run_cli(capsys, "count", "--tree-file", str(tree),
                                 "--rank", "3", "--q", "5")
        assert code == 2
        assert out == ""
        assert "--rank" in err

    @pytest.mark.parametrize("text, message", [
        ("1 2\n1 3\n", "error: line 2: vertex 1 given twice"),
        ("1 2 3\n", "error: line 1: "),
        ("1 1,2\n", "error: line 1: vertex 1: vector longer than "
                     "extension degree 1")])
    def test_bad_coeff_file_rejected(self, capsys, tmp_path, text, message):
        coeff = tmp_path / "coeff.txt"
        coeff.write_text(text)
        code, out, err = run_cli(capsys, "count", "--type", "A", "--rank",
                                 "3", "--q", "5", "--coeff-file", str(coeff))
        assert code == 2
        assert out == ""
        assert err.startswith(message)

    @pytest.mark.parametrize("text, message", [
        ("1 2\n2 2\n", "error: line 2: loop edge at vertex 2"),
        ("1 2\n2 3\n3 1\n", "error: line 3: edge 1-3 closes a cycle"),
        ("1 2\n2 1\n", "error: line 2: edge 2-1 given twice, first on "
                        "line 1")])
    def test_bad_tree_file_rejected(self, capsys, tmp_path, text, message):
        tree = tmp_path / "tree.txt"
        tree.write_text(text)
        code, out, err = run_cli(capsys, "count", "--tree-file", str(tree),
                                 "--q", "3")
        assert code == 2
        assert out == ""
        assert err.startswith(message)

    def test_stats(self, capsys):
        argv = ["count", "--type", "E", "--rank", "8", "--q", "13",
                "--method", "recursion"]
        _, plain, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--stats")
        assert code == 0
        payload, plain = json.loads(out), json.loads(plain)
        assert payload.pop("stats") == {"nodes": 40, "canonical_forms": 41}
        payload.pop("elapsed_ms")
        plain.pop("elapsed_ms")
        assert payload == plain
        code, out, _ = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                               "--q", "3", "--stats")
        methods = json.loads(out)["methods"]
        assert methods["recursion"]["stats"] == {"nodes": 1,
                                                 "canonical_forms": 1}
        assert methods["brute"]["stats"] is None
        assert methods["formula"]["stats"] is None

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        code, out, err = run_cli(capsys, "count", "--type", "A", "--rank",
                                 "2", "--q", "3", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert "--jobs" in err

    @pytest.mark.parametrize("flag", ["--alpha", "--coeff-file"])
    def test_empty_coefficient_flag_rejected(self, capsys, flag):
        # an empty value is an error, not the all-ones default
        code, out, err = run_cli(capsys, "count", "--type", "A", "--rank",
                                 "2", "--q", "3", flag, "")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_bad_budget_variable(self, capsys, monkeypatch):
        # also for the methods that the budget does not bound
        monkeypatch.setenv("CLUSTERCOUNT_BUDGET", "abc")
        for method in ("all", "recursion", "formula"):
            code, out, err = run_cli(capsys, "count", "--type", "A", "--rank",
                                     "2", "--q", "3", "--method", method)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")
            assert "CLUSTERCOUNT_BUDGET" in err

    @pytest.mark.parametrize("value", ["0", "-1", "-1000000000"])
    def test_budget_below_one_is_a_usage_error(self, capsys, monkeypatch,
                                                value):
        # not "unlimited", not "over budget": exit 2 naming the value, also
        # for the methods that the budget does not bound
        variety = ["--type", "A", "--rank", "2", "--q", "3"]
        for command in (["count"], ["singular"],
                        ["count", "--method", "recursion"],
                        ["count", "--method", "formula"]):
            code, out, err = run_cli(capsys, *command, *variety,
                                     "--budget", value)
            assert (code, out) == (2, "")
            assert err == f"error: budget must be at least 1, got {value}\n"
        monkeypatch.setenv("CLUSTERCOUNT_BUDGET", value)
        for method in ("brute", "recursion", "formula"):
            code, out, err = run_cli(capsys, "count", *variety,
                                     "--method", method)
            assert (code, out) == (2, "")
            assert err == ("error: CLUSTERCOUNT_BUDGET must be at least 1, "
                           f"got {value}\n")

    def test_budget_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "count", "--type", "A", "--rank", "8",
                               "--q", "7", "--budget", "10", "--method",
                               "brute")
        assert code == 3
        assert "budget" in err

    def test_arithmetic_error_exit_code(self, capsys, monkeypatch):
        # a kernel that claims more points than the q^(2n) pairs (x, x')
        monkeypatch.setattr(_countpy, "count_block",
                            lambda q, mul, mulq, neg_inv, alpha, *rest:
                            q ** (2 * len(alpha)) + 1)
        code, out, err = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                                 "--q", "3", "--method", "brute")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")


class TestOtherCommands:
    def test_normalize_takes_no_budget(self, capsys):
        # normalize enumerates nothing, so a budget would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["normalize", "--type", "A", "--rank", "2", "--q", "3",
                  "--budget", "5"])
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err

    def test_normalize(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "--type", "A", "--rank",
                               "5", "--alpha", "2,3,4,5,6", "--q", "7")
        payload = json.loads(out)
        assert code == 0
        norm = payload["normalized"]
        assert [norm[str(v)] for v in range(2, 6)] == ["1"] * 4
        assert norm["1"] == "3"  # alpha1 * alpha5 / alpha3 = 2*6/4 mod 7
        assert payload["trace"]

    def test_singular(self, capsys):
        code, out, _ = run_cli(capsys, "singular", "--type", "A", "--rank",
                               "3", "--alpha", "1", "--q", "7")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 1
        pt = payload["singular_points"][0]
        assert pt["x"] == {"1": "0", "2": "6", "3": "0"}

    def test_singular_extension_field_digits(self, capsys):
        # A3 over F_9 with its special alpha = 1: the singular point has
        # x_2 = x'_2 = -1, printed as its base-3 digits low degree first
        code, out, _ = run_cli(capsys, "singular", "--type", "A", "--rank",
                               "3", "--alpha", "1", "--q", "9")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 1
        coords = {"1": "0,0", "2": "2,0", "3": "0,0"}
        assert payload["singular_points"] == [{"x": coords, "xp": coords}]

    def test_interpolate(self, capsys):
        code, out, _ = run_cli(capsys, "interpolate", "--type", "D", "--rank",
                               "4", "--branch", "generic", "--degree", "4")
        payload = json.loads(out)
        assert code == 0
        assert payload["polynomial"] == "q^4 - 2*q^2 + 1"
        assert payload["coefficients"] == ["1", "0", "-2", "0", "1"]
        assert payload["residuals"] == [0, 0]

    def test_interpolate_without_held_out_primes(self, capsys):
        code, out, _ = run_cli(capsys, "interpolate", "--type", "A", "--rank",
                               "2", "--extra", "0")
        payload = json.loads(out)
        assert code == 0
        assert payload["polynomial"] == "q^2 + 1"
        assert payload["held_out"] == []

    def test_interpolate_rank_zero(self, capsys):
        # the default degree bound is at least 1, so the empty forest fits 1
        code, out, _ = run_cli(capsys, "interpolate", "--type", "A", "--rank",
                               "0")
        payload = json.loads(out)
        assert code == 0
        assert payload["polynomial"] == "1"
        assert payload["samples"] == [[3, 1], [5, 1]]
        assert payload["held_out"] == [[7, 1], [11, 1]]
        assert payload["ok"] is True

    @pytest.mark.parametrize("flag, value", [("--extra", "-1"),
                                             ("--degree", "0"),
                                             ("--degree", "-2")])
    def test_interpolate_bad_sizes_rejected(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "interpolate", "--type", "A",
                                 "--rank", "2", flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_check_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--suite", "fibration")
        payload = json.loads(out)
        assert code == 0
        assert payload[0]["ok"] is True

    def test_check_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "check", "--suite", "nope")
        assert code == 2

    def test_check_help_lists_the_registry(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        listed = text.split("paper (everything) or one of: ", 1)[1]
        assert listed.split(", ") == list(PAPER_SUITE)


class TestFailedFit:
    """With the recursion one too high at q = 29, each fit that counts there
    is reported in the usual JSON with exit 1, not raised."""

    @pytest.fixture(autouse=True)
    def wrong_at_29(self, monkeypatch):
        real = qpoly.recursive_count

        def lying(instance, memo=None):
            rep = real(instance, memo)
            if instance.field.q == 29:
                return dataclasses.replace(rep, count=rep.count + 1)
            return rep

        monkeypatch.setattr(qpoly, "recursive_count", lying)

    def test_check_reports_every_battery(self, capsys):
        code, out, err = run_cli(capsys, "check", "--suite", "paper")
        assert code == 1 and err == ""
        results = json.loads(out)
        assert len(results) == len(PAPER_SUITE)
        failed = {r["name"]: r["failures"] for r in results if not r["ok"]}
        assert list(failed) == ["interpolation battery"]
        labels = failed["interpolation battery"]
        assert any(f.startswith("E6-generic") and f.endswith("residuals [0, -1]")
                   for f in labels)
        assert any(f.startswith("E7-generic") for f in labels)

    def test_wrong_sample_prime(self, capsys):
        code, out, err = run_cli(capsys, "interpolate", "--type", "E",
                                 "--rank", "8")
        assert code == 1 and err == ""
        payload = json.loads(out)
        assert 29 in [q for q, _ in payload["samples"]]
        assert payload["ok"] is False
        assert payload["residuals"] == ["98/33", "1190/33"]

    def test_wrong_held_out_prime(self, capsys):
        code, out, err = run_cli(capsys, "interpolate", "--type", "E",
                                 "--rank", "6")
        assert code == 1 and err == ""
        payload = json.loads(out)
        assert payload["polynomial"] == "q^6 + q^4 + q^3 + q^2 + 1"
        assert [q for q, _ in payload["held_out"]] == [23, 29]
        assert payload["residuals"] == [0, -1]
        assert payload["ok"] is False


def test_check_reports_a_battery_that_raises(capsys, monkeypatch):
    # a kernel that claims more points than the q^(2n) pairs (x, x') makes
    # brute force raise; each battery that counts by it fails with the raise
    # as its label, and the other batteries still run
    real = _countpy.count_block

    def lying(q, mul, mulq, neg_inv, alpha, *rest):
        return (real(q, mul, mulq, neg_inv, alpha, *rest)
                + q ** (2 * len(alpha)) + 1)

    monkeypatch.setattr(_countpy, "count_block", lying)
    code, out, err = run_cli(capsys, "check", "--suite", "paper")
    assert code == 1 and err == ""
    results = json.loads(out)
    assert len(results) == len(PAPER_SUITE)
    passed = [r["name"] for r in results if r["ok"]]
    assert passed == ["Z fibration battery",
                      "smoothness classification battery",
                      "cohomology consistency battery", "interpolation battery"]
    for r in results:
        if not r["ok"]:
            assert r["failures"][-1].startswith(
                "raised ArithmeticError: numpy scan of ")


class TestZeroCoefficients:
    """A zero coefficient is a point of the coefficient space: brute force,
    `singular` and `normalize` take it, and the methods that divide by it
    refuse it with exit 2."""

    # per variety: an alpha with zeros and with singular points, and one
    # with zeros on uncovered vertices only
    ALPHAS = {"A3": ("1,0,1", "0,2,3"), "D4": ("0,1,0,1", "0,0,2,3"),
              "tree": ("1,0,1,0,0", "0,2,3,2,3")}

    @pytest.fixture(params=[5, 4, 9], ids=lambda q: f"q{q}")
    def q(self, request):
        return request.param

    @pytest.fixture(params=list(ALPHAS))
    def variety(self, request, tmp_path):
        """(name, CLI arguments, forest) of a variety."""
        name = request.param
        if name == "tree":
            path = tmp_path / "tree.txt"
            path.write_text("1 2\n2 3\n2 4\n4 5\n")
            return name, ["--tree-file", str(path)], read_tree_file(path)
        return name, ["--type", name[0], "--rank", name[1]], dynkin(
            name[0], int(name[1]))

    @pytest.fixture
    def no_brute(self, monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("brute force ran on an input the recursion refuses")
        monkeypatch.setattr(cli, "brute_count", refuse)

    @staticmethod
    def _instance(forest, q, alpha):
        field = field_from_order(q)
        values = dict(zip(forest.vertices, map(int, alpha.split(","))))
        return VarietyInstance(forest, CoeffMap.make(field, values), field)

    @staticmethod
    def _count(capsys, args, q, *more):
        code, out, _ = run_cli(capsys, "count", *args, "--q", str(q),
                               "--method", "brute", *more)
        assert code == 0
        return json.loads(out)["count"]

    def test_brute_count_and_singular(self, capsys, q, variety):
        name, args, forest = variety
        alpha = self.ALPHAS[name][0]
        inst = self._instance(forest, q, alpha)
        assert (self._count(capsys, args, q, "--alpha", alpha)
                == str(brute_count(inst).count))
        code, out, _ = run_cli(capsys, "singular", *args, "--q", str(q),
                               "--alpha", alpha)
        assert code == 0
        text = inst.field.text
        expected = [{key: {str(v): text(c) for v, c in zip(forest.vertices, cs)}
                     for key, cs in (("x", xs), ("xp", xps))}
                    for xs, xps in matching_singular_points(inst)]
        assert expected  # each alpha was chosen to have singular points
        assert json.loads(out)["singular_points"] == expected

    def test_normalize_keeps_uncovered_zero(self, capsys, q, variety,
                                            tmp_path):
        name, args, _ = variety
        alpha = self.ALPHAS[name][1]
        code, out, _ = run_cli(capsys, "normalize", *args, "--q", str(q),
                               "--alpha", alpha)
        assert code == 0
        payload = json.loads(out)
        normalized = payload["normalized"]
        for v, a in zip(sorted(normalized, key=int), alpha.split(",")):
            if a == "0":
                assert int(v) not in payload["covered"]
                assert normalized[v] == payload["alpha"][v]
        coeff_file = tmp_path / "normalized.txt"
        coeff_file.write_text("".join(f"{v} {a}\n"
                                      for v, a in normalized.items()))
        assert (self._count(capsys, args, q, "--coeff-file", str(coeff_file))
                == self._count(capsys, args, q, "--alpha", alpha))

    @pytest.mark.parametrize("method", ["all", "recursion"])
    def test_recursion_refuses_before_brute_force(self, capsys, q, variety,
                                                  no_brute, method):
        name, args, _ = variety
        code, out, err = run_cli(capsys, "count", *args, "--q", str(q),
                                 "--alpha", self.ALPHAS[name][0],
                                 "--method", method)
        assert code == 2 and out == ""
        assert re.fullmatch(r"error: coefficient at vertex \d+ is zero\n", err)

    @pytest.mark.parametrize("name", ["A3", "D4"])
    @pytest.mark.parametrize("which", [0, 1])
    def test_formula_refuses(self, capsys, q, name, which):
        # a zero on a covered vertex stops its flip, one on a normal-form
        # slot the formula
        code, out, err = run_cli(capsys, "count", "--type", name[0],
                                 "--rank", name[1], "--q", str(q), "--alpha",
                                 self.ALPHAS[name][which], "--method",
                                 "formula")
        assert code == 2 and out == ""
        assert err.startswith("error: ")


def test_parser_built_once(capsys):
    # two commands in one process share the parser and both answer right
    parser = build_parser()
    code, out, _ = run_cli(capsys, "count", "--type", "A", "--rank", "2",
                           "--q", "3", "--method", "recursion")
    assert code == 0 and json.loads(out)["count"] == "10"
    code, out, _ = run_cli(capsys, "normalize", "--type", "A", "--rank", "2",
                           "--q", "5", "--alpha", "2,3")
    assert code == 0 and json.loads(out)["normalized"] == {"1": "1", "2": "1"}
    assert build_parser() is parser


def run_module(*argv, timeout=120):
    """`python -m clustercount` in a subprocess that imports the package
    from where this process did."""
    src = str(Path(clustercount.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "clustercount", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=os.environ | {"PYTHONPATH": path})


def test_module_invocation_smoke():
    proc = run_module("count", "--type", "A", "--rank", "1", "--q", "5",
                      "--method", "all")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == "4"


def _readme_cli_commands():
    """The argument lists of the commands in README's CLI example block,
    the first fenced block under its "## CLI" heading."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [line.split()[1:] for line in block.splitlines()
            if line.startswith("clustercount ")]


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    # every example exits 0 and prints one JSON document, run where the
    # tree.txt that the block names exists
    commands = _readme_cli_commands()
    assert {argv[0] for argv in commands} == {
        "count", "normalize", "singular", "interpolate", "check"}
    (tmp_path / "tree.txt").write_text("1 2\n2 3\n")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        json.loads(out)  # raises on a second document


def _readme_json_blocks():
    """(command, document) for each ```json block of README, the command
    being the code span of the heading right above the block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    blocks = re.findall(r"^#+ [^\n]*`([^`\n]+)`\n+```json\n(.*?)\n```",
                        text, re.M | re.S)
    assert len(blocks) == text.count("```json")  # every block has its command
    return [(command, json.loads(doc)) for command, doc in blocks]


def _without_elapsed(doc):
    if isinstance(doc, dict):
        return {k: _without_elapsed(v) for k, v in doc.items()
                if k != "elapsed_ms"}
    if isinstance(doc, list):
        return [_without_elapsed(v) for v in doc]
    return doc


README_JSON = _readme_json_blocks()


@pytest.mark.parametrize("command, documented", README_JSON,
                         ids=[command for command, _ in README_JSON])
def test_readme_json_matches_output(capsys, command, documented):
    # same nested keys in the same order, same values but timings
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0, err
    got, want = _without_elapsed(json.loads(out)), _without_elapsed(documented)
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("q", [str(10**18 + 9), str(2**31 + 11)])
def test_order_above_bound_exits_at_once(q):
    # rejected before q is factored, so a large prime does not hang
    proc = run_module("count", "--type", "A", "--rank", "1", "--q", q,
                      timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: field order {q} >= 2^31\n"


def test_singular_charges_listed_points_against_budget(tmp_path):
    # 5,776,800 points at q = 7: the scan alone (8 * 7^8 steps) is inside
    # the default budget, ranking a Jacobian at every point is not
    tree = tmp_path / "tree.txt"
    tree.write_text("1 2\n2 3\n2 4\n4 5\n8 9\n7\n")
    proc = run_module("singular", "--tree-file", str(tree), "--q", "7",
                      timeout=5)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "3003840008" in proc.stderr  # 8 * 7^8 + 8^3 * 5776800


# Each command's stdout, with every elapsed_ms value written as 0, as a
# sha256 prefix, and its exit code: a refactor must leave both unchanged.
GOLDEN = [
    ("count --type A --rank 2 --q 3 --method brute", 0, "48beb2ab98b5db49"),
    ("count --type A --rank 2 --q 3 --method recursion", 0, "304494eb27876930"),
    ("count --type E --rank 8 --q 2 --method formula", 0, "3afcf03861140a3f"),
    ("count --type A --rank 3 --q 5 --alpha -1 --method all", 0,
     "b09b93aeb6ac9f70"),
    ("count --type D --rank 4 --q 4 --alpha 2,3 --method all --stats", 0,
     "cf643e6ad389d52c"),
    ("count --type E --rank 7 --q 7 --alpha 3 --method all", 0,
     "3687a19be9b66d80"),
    ("count --type E --rank 8 --q 13 --method recursion --stats", 0,
     "4e7465b854996ef0"),
    ("count --type D --rank 5 --q 9 --method brute --stats", 0,
     "96ee864a73a5a122"),
    ("count --type A --rank 2 --q 1009 --method recursion --stats", 0,
     "67ec09560033af4d"),
    ("count --type A --rank 1 --q 7 --alpha -1 --method recursion --stats", 0,
     "0e0cdb8578297fc5"),
    ("count --type D --rank 4 --q 31 --method recursion --stats", 0,
     "9cad73cfc2bbbd0f"),
    ("count --type A --rank 4 --q 5 --method formula --stats", 0,
     "97f432ad8dce221b"),
    ("normalize --type A --rank 5 --alpha 2,3,4,5,6 --q 7", 0,
     "013ae062afd91df8"),
    ("normalize --type D --rank 7 --alpha 2,3,4,2,3,4,2 --q 5", 0,
     "bc6ca1c926631ac9"),
    ("normalize --type E --rank 8 --alpha 2,3,4,5,6,7,8,9 --q 11", 0,
     "8959f366cb8ede7d"),
    ("singular --type A --rank 3 --alpha 1 --q 7", 0, "a0434231a289c3a3"),
    ("singular --type A --rank 5 --alpha -1 --q 5", 0, "eb4e2a8715291911"),
    ("singular --type D --rank 4 --q 4", 0, "e7ae16632e1824fb"),
    ("interpolate --type D --rank 4 --branch generic --degree 4 --ascending",
     0, "f7549b00e03085f4"),
    ("check --suite cohomology", 0, "71855a881b47d867"),
    ("count --type E --rank 8 --q 256 --alpha 2,3,5,7,11,13,17,19 "
     "--method recursion --stats", 0, "42667d6257ad1afc"),
    ("count --type D --rank 6 --q 27 --alpha 5,7 --method recursion --stats",
     0, "d0b18f8e2d02b52a"),
    ("count --type A --rank 3 --q 16 --alpha 3:1 --method all --stats", 0,
     "5421711340d8b718"),
    ("count --type A --rank 2 --q 256 --method brute", 0, "c0f95e3fd9debb0b"),
    ("normalize --type E --rank 8 --alpha 2,3,4,5,6,7,8,9 --q 16", 0,
     "a986032f23ea8c05"),
    ("singular --type A --rank 5 --alpha 2 --q 9", 0, "28b6ae0277799054"),
    # the scan kernel around its dtype boundaries: q = 17 and 31 are the
    # first primes whose suffix product indices pass 255, q = 257 and 1024
    # need two-byte encodings
    ("count --type D --rank 4 --q 17 --alpha 3,5 --method all", 0,
     "085031354ee96ef6"),
    ("count --type A --rank 3 --q 31 --alpha 5 --method all", 0,
     "0881f38a43f8829a"),
    ("count --type A --rank 2 --q 257 --method brute", 0, "bbc8890e41ca2a82"),
    ("count --type A --rank 2 --q 1024 --alpha 3,5 --method brute", 0,
     "5ad69c5047549395"),
    ("count --type E --rank 6 --q 16 --method all", 0, "53a29cbcd39352fc"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN,
                         ids=[row[0] for row in GOLDEN])
def test_golden_output(capsys, command, code, digest):
    got, out, _ = run_cli(capsys, *command.split())
    masked = re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": 0', out)
    assert got == code
    assert hashlib.sha256(masked.encode()).hexdigest()[:16] == digest
