"""End-to-end tests for the command-line front end."""

import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    filiform_problem,
    free_nilpotent_problem,
    grushin_problem,
    lyndon_words,
    times_space,
    witt_dimension,
)
from lieweights import cli, exactalg, lieflt, osculating, weightcoord
from lieweights.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_PASS,
    ProblemError,
    load_problem,
    main,
    render_json,
)
from lieweights.jets import SampleReport
from lieweights.lieflt import check_clean
from lieweights.vfield import MAX_MONOMIALS, Chart, coordinate_field, parse_scalar
from lieweights.weightcoord import weighted_coordinates

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
BENCH_PROBLEMS = PROBLEMS.parent / "bench" / "problems"
PROBLEM_FILES = sorted(PROBLEMS.glob("*.json")) + sorted(BENCH_PROBLEMS.glob("*.json"))
PROBLEM_IDS = [str(p.relative_to(PROBLEMS.parent)) for p in PROBLEM_FILES]
EXAMPLE1 = str(PROBLEMS / "example1.json")
EXAMPLE2 = str(PROBLEMS / "example2.json")
HEISENBERG = str(PROBLEMS / "heisenberg.json")
BROKEN = str(PROBLEMS / "broken.json")


def run_report(command, path, tmp_path, *flags):
    out = tmp_path / "report.json"
    code = main([command, path, "--json", str(out), "--quiet", *flags])
    return code, json.loads(out.read_text())


def stage(report, name):
    for entry in report["stages"]:
        if entry["name"] == name:
            return entry
    raise AssertionError(f"stage {name} missing from {report}")


def write_problem(tmp_path, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return str(path)


UVW_DOC = {
    "variables": ["u", "v", "w"],
    "order": 5,
    "filtration": {
        "-1": ["du + 5*u^4*dw"],
        "-2": ["du + 5*u^4*dw"],
        "-3": ["du + 5*u^4*dw", "dv"],
        "-4": ["du + 5*u^4*dw", "dv"],
        "-5": "full",
    },
    "submanifold": {"tangent": [], "base_point": ["0", "0", "0"]},
}

# engel4 pushed forward by (x1, x2, x3, x4) -> (x1, x2 + x1^2, x3 + x2^2,
# x4 + 2*x1 + 1/2*x1*x3), the fields printed by format_vector_field
ENGEL4_PUSHED_DOC = {
    "variables": ["x1", "x2", "x3", "x4"],
    "order": 3,
    "filtration": {
        "-1": [
            "dx1 + 2*x1*dx2 + (2 + 1/2*x3 - 1/2*x2^2 + x1^2*x2 - 1/2*x1^4)*dx4",
            "dx2 + (x1 + 2*x2 - 2*x1^2)*dx3"
            " + (x3 + 1/2*x1^2 - x2^2 + 2*x1^2*x2 - x1^4)*dx4",
        ],
        "-2": [
            "dx1 + 2*x1*dx2 + (2 + 1/2*x3 - 1/2*x2^2 + x1^2*x2 - 1/2*x1^4)*dx4",
            "dx2 + (x1 + 2*x2 - 2*x1^2)*dx3"
            " + (x3 + 1/2*x1^2 - x2^2 + 2*x1^2*x2 - x1^4)*dx4",
            "dx3 + 1/2*x1*dx4",
        ],
        "-3": "full",
    },
    "submanifold": {"tangent": [], "base_point": ["0", "0", "0", "0"]},
}


def assert_no_osculating_over_claim(path, tmp_path, small, large):
    """The osculating stage at bound `small` does not pass with graded dims
    other than the ones it passes with at bound `large`."""
    _, report = run_report("osculate", path, tmp_path, "--degree-bound", str(large))
    settled = stage(report, "osculating")
    assert settled["verdict"] == "pass"
    _, report = run_report("osculate", path, tmp_path, "--degree-bound", str(small))
    osc = stage(report, "osculating")
    if osc["verdict"] == "pass":
        assert osc["data"]["graded_dims"] == settled["data"]["graded_dims"]


def reciprocal_sum(count):
    """1/(x+y+z+u+v+1)*dx + 1/(x+2*y+z+u+v+1)*dx + ..., count terms."""
    return " + ".join(f"1/(x+{k}*y+z+u+v+1)*dx" for k in range(1, count + 1))


def basic_doc():
    return {
        "variables": ["x", "y", "z"],
        "order": 2,
        "filtration": {"-1": ["dx", "dy + x*dz"], "-2": "full"},
        "submanifold": {"tangent": [], "base_point": ["0", "0", "0"]},
        "degree_bound": 2,
    }


class TestCoords:
    def test_example1_weights_and_coordinates(self, tmp_path):
        code, report = run_report("coords", EXAMPLE1, tmp_path)
        assert code == EXIT_PASS
        assert [s["name"] for s in report["stages"]] == [
            "bracket-compat",
            "clean",
            "weights",
            "coordinates",
        ]
        assert stage(report, "weights")["data"]["weights"] == [1, 2, 3]
        assert stage(report, "coordinates")["data"]["coordinates"] == [
            "x",
            "y",
            "z - 1/2*x^2",
        ]

    def test_example2_weights_and_coordinates(self, tmp_path):
        code, report = run_report("coords", EXAMPLE2, tmp_path)
        assert code == EXIT_PASS
        assert stage(report, "weights")["data"]["weights"] == [1, 2, 4]
        assert stage(report, "coordinates")["data"]["coordinates"] == [
            "x",
            "y",
            "z - x^2 - x*y",
        ]

    def test_coordinates_reparse_to_forward_map(self, tmp_path):
        for path in (EXAMPLE1, EXAMPLE2, HEISENBERG):
            _, report = run_report("coords", path, tmp_path)
            spec = load_problem(path)
            strings = stage(report, "coordinates")["data"]["coordinates"]
            W = weighted_coordinates(check_clean(spec.filtration, spec.submanifold))
            assert len(strings) == len(W.forward)
            for text, expected in zip(strings, W.forward):
                assert parse_scalar(text, spec.chart) == expected

    def test_heisenberg_axis_coordinates(self, tmp_path):
        code, report = run_report("coords", HEISENBERG, tmp_path)
        assert code == EXIT_PASS
        data = stage(report, "coordinates")["data"]
        assert data["coordinates"] == ["x", "y", "z - x*y"]
        assert stage(report, "weights")["data"]["weights"] == [0, 1, 2]


class TestCheck:
    def test_broken_fails_with_pointwise_witness(self, tmp_path):
        code, report = run_report("check", BROKEN, tmp_path)
        assert code == EXIT_FAIL
        assert [s["name"] for s in report["stages"]] == ["bracket-compat"]
        entry = stage(report, "bracket-compat")
        assert entry["verdict"] == "fail"
        witness = entry["data"]["witness"]
        assert witness["point"] == ["0", "0", "0"]
        assert witness["levels"] == [1, 1]

    def test_good_filtrations_pass(self, tmp_path):
        for path in (EXAMPLE1, EXAMPLE2, HEISENBERG):
            code, report = run_report("check", path, tmp_path)
            assert code == EXIT_PASS
            assert all(s["verdict"] == "pass" for s in report["stages"])

    def test_inconclusive_membership_exits_2(self, tmp_path):
        # bracket lands in the module pointwise but needs coefficients
        # beyond the bound, so the checker cannot decide either way
        doc = {
            "variables": ["x", "y"],
            "order": 2,
            "filtration": {"-1": ["dx", "x^3*dy"], "-2": ["dx", "x^3*dy"]},
            "submanifold": {"tangent": ["x", "y"], "base_point": ["0", "0"]},
            "degree_bound": 2,
        }
        code, report = run_report("check", write_problem(tmp_path, doc), tmp_path)
        assert code == EXIT_INCONCLUSIVE
        entry = stage(report, "bracket-compat")
        assert entry["verdict"] == "inconclusive"
        assert entry["data"]["reason"] == "degree_bound"
        # [dx, x^3*dy] = 3x^2*dy would need the coefficient 3/x on x^3*dy;
        # pairs with i + j past the order are tautological
        assert entry["data"]["unresolved"] == [[1, 1, 0, 1]]
        # the pipeline keeps going after an inconclusive stage
        assert stage(report, "clean")["verdict"] == "pass"


class TestReport:
    def test_example2_full_pipeline(self, tmp_path):
        code, report = run_report("report", EXAMPLE2, tmp_path)
        assert code == EXIT_PASS
        assert [s["name"] for s in report["stages"]] == [
            "bracket-compat",
            "clean",
            "weights",
            "coordinates",
            "jets",
            "osculating",
        ]
        jets = stage(report, "jets")["data"]
        assert jets["samples"] == {
            "tested": 100,
            "failed": 0,
            "first_failure": None,
        }
        assert jets["q_dimension"] == {
            "total": 8,
            "base": 0,
            "graded": [1, 2, 2, 3],
        }
        osc = stage(report, "osculating")["data"]
        assert osc["graded_dims"] == [1, 1, 1, 1]
        assert osc["tangent_dims"] == [0, 0, 1, 0]
        assert osc["quotient_dims"] == [1, 1, 0, 1]
        assert osc["expected_dims"] == [1, 1, 0, 1]
        assert osc["structure_constants"] == [[0, 1, 2, "1"], [0, 2, 3, "2"]]
        assert osc["unverified"] == []
        assert osc["checks"] == {
            "fiber_total": True,
            "per_degree": True,
            "maps_into": True,
        }

    def test_example1_full_pipeline(self, tmp_path):
        code, report = run_report("report", EXAMPLE1, tmp_path)
        assert code == EXIT_PASS
        assert stage(report, "jets")["data"]["q_dimension"]["total"] == 6
        osc = stage(report, "osculating")["data"]
        assert osc["graded_dims"] == [1, 1, 1]
        assert osc["tangent_dims"] == [0, 0, 0]
        assert osc["quotient_dims"] == [1, 1, 1]
        assert osc["structure_constants"] == []

    def test_heisenberg_axis_full_pipeline(self, tmp_path):
        code, report = run_report("report", HEISENBERG, tmp_path)
        assert code == EXIT_PASS
        assert stage(report, "clean")["data"]["ranks"] == [1, 2, 3]
        jets = stage(report, "jets")["data"]
        assert jets["q_dimension"] == {"total": 6, "base": 1, "graded": [2, 3]}
        osc = stage(report, "osculating")["data"]
        assert osc["graded_dims"] == [2, 1]
        assert osc["tangent_dims"] == [1, 0]
        assert osc["quotient_dims"] == [1, 1]
        assert osc["structure_constants"] == [[0, 1, 2, "1"]]

    def test_osculate_skips_jets(self, tmp_path):
        code, report = run_report("osculate", EXAMPLE2, tmp_path)
        assert code == EXIT_PASS
        names = [s["name"] for s in report["stages"]]
        assert "jets" not in names
        assert names[-1] == "osculating"

    @pytest.mark.parametrize("name", ["heisenberg", "singular_chart"])
    def test_osculate_dims_at_a_small_bound_are_inconclusive(self, tmp_path, name):
        # at bound 0 the graded dims are upper bounds that overshoot, so
        # the mismatch certifies nothing; bound 1 settles them
        path = str(PROBLEMS / f"{name}.json")
        code, report = run_report("osculate", path, tmp_path, "--degree-bound", "0")
        assert code == EXIT_INCONCLUSIVE
        osc = stage(report, "osculating")
        assert osc["verdict"] == "inconclusive"
        assert osc["data"]["reason"] == "degree_bound"
        assert osc["data"]["checks"] == {
            "fiber_total": False,
            "per_degree": False,
            "maps_into": True,
        }
        code, report = run_report("osculate", path, tmp_path, "--degree-bound", "1")
        assert code == EXIT_PASS
        assert stage(report, "osculating")["verdict"] == "pass"

    # Known over-claims: at these small bounds the osculating stage passes
    # with graded dims that a large bound does not confirm
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_example2_at_bound_0_does_not_pass_with_other_dims(self, tmp_path):
        assert_no_osculating_over_claim(EXAMPLE2, tmp_path, small=0, large=5)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    @pytest.mark.parametrize("bound", [2, 3])
    def test_uvw_at_a_small_bound_does_not_pass_with_other_dims(self, tmp_path, bound):
        # levels -1, -2: du + 5*u^4*dw; -3, -4 add dv; -5 is full
        path = write_problem(tmp_path, UVW_DOC)
        assert_no_osculating_over_claim(path, tmp_path, small=bound, large=8)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_engel4_pushforward_at_bound_2_does_not_pass_with_other_dims(self, tmp_path):
        # at default flags (osculate bound 2) every stage of report passes
        # with dims [2, 1, 2] and tangent dims [0, 0, 1]; bounds 3 and 4
        # give engel4's own [2, 1, 1] and [0, 0, 0]
        path = write_problem(tmp_path, ENGEL4_PUSHED_DOC)
        assert_no_osculating_over_claim(path, tmp_path, small=2, large=4)

    def test_corrections_expose_factorial_constants(self, tmp_path):
        _, report = run_report("coords", EXAMPLE2, tmp_path)
        recs = stage(report, "coordinates")["data"]["corrections"]
        by_index = {tuple(r["multi_index"]): r["constant"] for r in recs}
        assert by_index[(1, 1, 0)] == "1"
        assert by_index[(2, 0, 0)] == "2"
        assert by_index[(3, 0, 0)] == "6"

    def test_report_byte_identical_across_runs(self, tmp_path):
        for path in (EXAMPLE1, EXAMPLE2, HEISENBERG, BROKEN):
            first = tmp_path / "a.json"
            second = tmp_path / "b.json"
            main(["report", path, "--json", str(first), "--quiet"])
            main(["report", path, "--json", str(second), "--quiet"])
            assert first.read_bytes() == second.read_bytes()

    def test_render_json_empty_pipeline(self):
        assert json.loads(render_json([])) == {"stages": []}

    def test_text_output_lists_stages(self, capsys):
        code = main(["coords", EXAMPLE1])
        out = capsys.readouterr().out
        assert code == EXIT_PASS
        assert "coordinates" in out
        assert "z - 1/2*x^2" in out
        assert out.strip().endswith("overall: pass")

    def test_quiet_suppresses_text(self, capsys):
        main(["coords", EXAMPLE1, "--quiet"])
        assert capsys.readouterr().out == ""

    def test_jets_on_a_rational_chart_pass(self, capsys):
        # a/(1 + t) has a pole at t = -1, away from the base point t = 2
        code = main(["jets", str(PROBLEMS / "singular_chart.json")])
        out = capsys.readouterr().out
        assert code == EXIT_PASS
        assert "jets           pass  tested=100 failed=0 " in out

    def test_a_failed_sample_fails_the_stage(self, tmp_path, monkeypatch):
        failure = {"sample": 3, "components": []}
        monkeypatch.setattr(cli, "flowout_sample", lambda *args: SampleReport(5, 1, failure))
        code, report = run_report("jets", HEISENBERG, tmp_path)
        assert code == EXIT_FAIL
        data = stage(report, "jets")["data"]
        assert "reason" not in data
        assert data["samples"] == {"tested": 5, "failed": 1, "first_failure": failure}

    @pytest.mark.parametrize("certified", [True, False])
    def test_a_pass_needs_the_flowout_certificate(self, tmp_path, monkeypatch, certified):
        # five samples passed; without the certificate that proves nothing
        monkeypatch.setattr(
            cli, "flowout_sample", lambda *args: SampleReport(5, 0, None, certified=certified)
        )
        code, report = run_report("jets", HEISENBERG, tmp_path)
        data = stage(report, "jets")["data"]
        assert data["samples"] == {"tested": 5, "failed": 0, "first_failure": None}
        if certified:
            assert code == EXIT_PASS
            assert "reason" not in data
        else:
            assert code == EXIT_INCONCLUSIVE
            assert stage(report, "jets")["verdict"] == "inconclusive"
            assert data["reason"] == "uncertified"


class TestFlags:
    def test_samples_and_seed_override(self, tmp_path):
        code, report = run_report(
            "jets", HEISENBERG, tmp_path, "--samples", "7", "--seed", "5"
        )
        assert code == EXIT_PASS
        data = stage(report, "jets")["data"]
        assert data["samples"]["tested"] == 7
        assert data["seed"] == 5

    def test_degree_bound_override_reaches_stages(self, tmp_path):
        code, report = run_report(
            "check", EXAMPLE2, tmp_path, "--degree-bound", "3"
        )
        assert code == EXIT_PASS
        assert stage(report, "bracket-compat")["data"]["degree_bound"] == 3

    @pytest.mark.parametrize("command", ["check", "osculate"])
    @pytest.mark.parametrize("path", PROBLEM_FILES, ids=PROBLEM_IDS)
    def test_a_larger_bound_never_turns_a_pass_into_a_fail(self, tmp_path, path, command):
        # a larger bound may settle an inconclusive verdict, never refute a pass
        names = {EXIT_PASS: "pass", EXIT_FAIL: "fail", EXIT_INCONCLUSIVE: "inconclusive"}
        previous = {}
        for bound in range(5):
            code, report = run_report(
                command, str(path), tmp_path, "--degree-bound", str(bound)
            )
            verdicts = {s["name"]: s["verdict"] for s in report["stages"]}
            verdicts["overall"] = names[code]
            for name, verdict in previous.items():
                if verdict == "pass":
                    assert verdicts.get(name) != "fail", (bound, name)
            previous = verdicts

    @pytest.mark.parametrize(
        "first, second",
        [(["--quiet"], []), (["--degree-bound", "1"], [])],
        ids=["quiet-then-text", "bound-then-default"],
    )
    def test_calls_in_one_process_each_run_as_a_fresh_process(self, tmp_path, first, second):
        # the parser is built once per process, and no flag of one call
        # may reach the next
        out = tmp_path / "report.json"
        argv = ["check", EXAMPLE2, "--json", str(out)]

        def in_process(flags):
            text = io.StringIO()
            with redirect_stdout(text):
                code = main(argv + flags)
            return code, text.getvalue(), out.read_text()

        def fresh(flags):
            env = {**os.environ, "PYTHONPATH": str(PROBLEMS.parent / "src")}
            done = subprocess.run(
                [sys.executable, "-m", "lieweights.cli", *argv, *flags],
                capture_output=True,
                text=True,
                env=env,
                check=False,
            )
            return done.returncode, done.stdout, out.read_text()

        runs = [in_process(first), in_process(second)]
        assert runs == [fresh(first), fresh(second)]
        assert runs[0] != runs[1]
        assert cli._build_parser() is cli._build_parser()

    def test_file_values_feed_defaults(self, tmp_path):
        doc = basic_doc()
        doc["samples"] = 3
        doc["seed"] = 11
        code, report = run_report(
            "jets", write_problem(tmp_path, doc), tmp_path
        )
        assert code == EXIT_PASS
        data = stage(report, "jets")["data"]
        assert data["samples"]["tested"] == 3
        assert data["seed"] == 11

    def test_zero_samples_are_no_evidence(self, tmp_path):
        code, report = run_report("report", HEISENBERG, tmp_path, "--samples", "0")
        assert code == EXIT_INCONCLUSIVE
        entry = stage(report, "jets")
        assert entry["verdict"] == "inconclusive"
        assert entry["data"]["reason"] == "no_samples"
        assert entry["data"]["samples"] == {
            "tested": 0,
            "failed": 0,
            "first_failure": None,
        }
        # the pipeline keeps going after an inconclusive stage
        assert stage(report, "osculating")["verdict"] == "pass"

    def test_report_checks_cleanness_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_clean(*args):
            calls.append(args)
            return check_clean(*args)

        # weightcoord takes the clean result and cannot run check_clean
        assert not hasattr(weightcoord, "check_clean")
        monkeypatch.setattr(cli, "check_clean", counting_clean)
        code, _ = run_report("report", EXAMPLE1, tmp_path)
        assert code == EXIT_PASS
        assert len(calls) == 1


class TestInputErrors:
    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/problem.json"]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        assert main(["check", str(path)]) == EXIT_INPUT
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["explode", EXAMPLE1]) == EXIT_INPUT
        assert "invalid choice" in capsys.readouterr().err

    def test_duplicate_variables(self, tmp_path, capsys):
        doc = basic_doc()
        doc["variables"] = ["x", "x", "z"]
        assert main(["check", write_problem(tmp_path, doc)]) == EXIT_INPUT
        assert "distinct" in capsys.readouterr().err

    def test_invalid_variable_name(self, tmp_path, capsys):
        doc = basic_doc()
        doc["variables"] = ["x", "1y", "z"]
        assert main(["check", write_problem(tmp_path, doc)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "invalid coordinate name '1y'" in err
        assert err.count("\n") == 1

    def test_missing_level(self, tmp_path, capsys):
        doc = basic_doc()
        del doc["filtration"]["-2"]
        assert main(["check", write_problem(tmp_path, doc)]) == EXIT_INPUT
        assert "missing level" in capsys.readouterr().err

    def test_extra_level(self, tmp_path, capsys):
        doc = basic_doc()
        doc["filtration"]["-3"] = ["dz"]
        assert main(["check", write_problem(tmp_path, doc)]) == EXIT_INPUT
        assert "unexpected levels" in capsys.readouterr().err

    def test_full_only_at_top_level(self, tmp_path, capsys):
        doc = basic_doc()
        doc["filtration"]["-1"] = "full"
        assert main(["check", write_problem(tmp_path, doc)]) == EXIT_INPUT
        assert "full" in capsys.readouterr().err

    def test_unknown_tangent_name(self, tmp_path, capsys):
        doc = basic_doc()
        doc["submanifold"]["tangent"] = ["w"]
        assert main(["check", write_problem(tmp_path, doc)]) == EXIT_INPUT
        assert "tangent" in capsys.readouterr().err

    def test_bad_rational(self, tmp_path, capsys):
        doc = basic_doc()
        doc["submanifold"]["base_point"] = ["0", "1/0", "0"]
        assert main(["check", write_problem(tmp_path, doc)]) == EXIT_INPUT
        assert "rational" in capsys.readouterr().err

    def test_base_point_length_mismatch(self, tmp_path, capsys):
        doc = basic_doc()
        doc["submanifold"]["base_point"] = ["0", "0"]
        assert main(["check", write_problem(tmp_path, doc)]) == EXIT_INPUT
        assert "base_point" in capsys.readouterr().err

    def test_nonzero_fiber_base_point(self, tmp_path, capsys):
        doc = basic_doc()
        doc["submanifold"]["base_point"] = ["0", "1", "0"]
        assert main(["check", write_problem(tmp_path, doc)]) == EXIT_INPUT
        capsys.readouterr()

    def test_malformed_expression(self, tmp_path, capsys):
        doc = basic_doc()
        doc["filtration"]["-1"] = ["dx +"]
        assert main(["check", write_problem(tmp_path, doc)]) == EXIT_INPUT
        assert "cannot parse" in capsys.readouterr().err

    def test_bad_order(self, tmp_path, capsys):
        doc = basic_doc()
        doc["order"] = 0
        assert main(["check", write_problem(tmp_path, doc)]) == EXIT_INPUT
        assert "order" in capsys.readouterr().err

    def test_negative_degree_bound_flag(self, capsys):
        code = main(["report", HEISENBERG, "--degree-bound", "-3", "--quiet"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "degree bound must be non-negative" in err
        assert err.count("\n") == 1

    def test_negative_degree_bound_in_file(self, tmp_path, capsys):
        doc = basic_doc()
        doc["degree_bound"] = -1
        assert main(["report", write_problem(tmp_path, doc)]) == EXIT_INPUT
        assert "degree bound must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("degree_bound", 1.5), ("samples", True), ("seed", "3")]
    )
    def test_integer_keys_name_the_file(self, tmp_path, capsys, key, value):
        doc = basic_doc()
        doc[key] = value
        path = write_problem(tmp_path, doc)
        assert main(["report", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{path}: {key} must be an integer" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("bound", ["17", "30"])
    def test_degree_bound_flag_past_the_monomial_cap(self, capsys, bound):
        # heisenberg has 3 variables: bound 16 gives 969 monomials, 17 gives 1140
        code = main(["check", HEISENBERG, "--degree-bound", bound, "--quiet"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"over the limit of {MAX_MONOMIALS}" in err
        assert err.count("\n") == 1

    def test_degree_bound_in_file_past_the_monomial_cap(self, tmp_path, capsys):
        doc = json.loads(Path(HEISENBERG).read_text())
        doc["degree_bound"] = 1000000
        assert main(["check", write_problem(tmp_path, doc), "--quiet"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "degree bound 1000000 gives" in err
        assert err.count("\n") == 1

    def test_bound_at_the_monomial_cap_loads(self):
        assert math.comb(3 + 16, 3) <= MAX_MONOMIALS
        assert load_problem(HEISENBERG, degree_bound=16).degree_bound == 16

    @pytest.mark.parametrize("path", PROBLEM_FILES)
    def test_shipped_bounds_stay_under_the_monomial_cap(self, path):
        spec = load_problem(str(path))
        n = spec.chart.dim
        for bound in (spec.degree_bound, spec.filtration.default_degree_bound()):
            if bound is not None:
                assert math.comb(n + bound, n) <= MAX_MONOMIALS

    def test_deep_nesting_is_an_input_error(self, tmp_path, capsys):
        doc = basic_doc()
        doc["filtration"]["-1"] = ["(" * 3000 + "dx" + ")" * 3000]
        assert main(["check", write_problem(tmp_path, doc)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "nesting deeper than" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "expr",
        [
            "(1+x+y+z)^40*dx",
            "x^1000000*dy",
            # degree 12 but up to 84 * 84 terms
            "(1+x+y+z)^6*(1+x+y+z)^6*dx",
            # sums of reciprocals of linear forms: every intermediate is
            # under the caps, and the field is not polynomial
            pytest.param(reciprocal_sum(4), id="reciprocal_sum_4"),
            pytest.param(reciprocal_sum(6), id="reciprocal_sum_6"),
        ],
    )
    def test_degree_blowup_is_an_input_error(self, tmp_path, capsys, expr):
        message = "not a polynomial" if expr.startswith("1/") else "exceeds the limit of"
        doc = basic_doc()
        doc["variables"] = ["x", "y", "z", "u", "v"]
        doc["submanifold"]["base_point"] = ["0"] * 5
        doc["filtration"]["-1"] = [expr]
        assert main(["check", write_problem(tmp_path, doc)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_rationals_accept_plain_integers(self, tmp_path):
        doc = basic_doc()
        doc["submanifold"]["tangent"] = ["x"]
        doc["submanifold"]["base_point"] = [2, "0", "0"]
        spec = load_problem(write_problem(tmp_path, doc))
        assert spec.submanifold.base_point[0] == 2

    def test_base_point_exponent_past_the_digit_limit_is_refused_at_once(self, tmp_path, capsys):
        # Fraction("1e3000000") would expand the exponent into a
        # 3,000,001-digit numerator before anything checked it
        doc = json.loads(Path(HEISENBERG).read_text())
        doc["submanifold"]["base_point"] = ["1e3000000", "0", "0"]
        path = write_problem(tmp_path, doc)
        start = time.perf_counter()
        assert main(["check", path]) == EXIT_INPUT
        assert time.perf_counter() - start < 1
        assert "past the limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, value",
        [
            ("1e300", 10**300),
            ("1e-300", Fraction(1, 10**300)),
            ("0.5", Fraction(1, 2)),
            ("1/2", Fraction(1, 2)),
            (-3, -3),
            (4, 4),
        ],
    )
    def test_base_point_rationals_under_the_digit_limit_load(self, tmp_path, entry, value):
        doc = json.loads(Path(HEISENBERG).read_text())
        doc["submanifold"]["base_point"] = [entry, "0", "0"]
        spec = load_problem(write_problem(tmp_path, doc))
        assert spec.submanifold.base_point == (value, 0, 0)

    def test_base_point_digits_are_bounded_by_the_int_limit(self, tmp_path):
        # a numerator or denominator of exactly `limit` digits loads; one
        # more digit is refused, and 5e-limit reduces to 1/(2*10^(limit-1))
        limit = sys.get_int_max_str_digits()
        doc = json.loads(Path(HEISENBERG).read_text())
        for entry, ok in (
            (f"1e{limit - 1}", True),
            (f"1e{limit}", False),
            (f"5e-{limit}", True),
            (f"1e-{limit}", False),
            (f"{'9' * (limit - 1)}.{'9' * (limit - 1)}", False),
        ):
            doc["submanifold"]["base_point"] = [entry, "0", "0"]
            path = write_problem(tmp_path, doc)
            if ok:
                load_problem(path)
            else:
                with pytest.raises(ProblemError, match="past the limit"):
                    load_problem(path)


class TestChainedFiliform:
    def test_bound_two_passes_with_the_filiform_weights(self, tmp_path):
        path = write_problem(tmp_path, filiform_problem(6))
        code, report = run_report("report", path, tmp_path, "--degree-bound", "2")
        assert code == EXIT_PASS
        assert stage(report, "weights")["data"]["weights"] == [1, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("n, capped", [(5, 7), (6, 6)])
    def test_a_defaulted_bound_past_the_cap_is_lowered(self, tmp_path, capsys, n, capped):
        path = write_problem(tmp_path, filiform_problem(n))
        default = load_problem(path).filtration.default_degree_bound()
        assert math.comb(n + default, n) > MAX_MONOMIALS
        code, report = run_report("report", path, tmp_path)
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE)
        assert "Traceback" not in capsys.readouterr().err
        # the largest bound under the cap, echoed in the report
        assert stage(report, "bracket-compat")["data"]["degree_bound"] == capped
        assert math.comb(n + capped, n) <= MAX_MONOMIALS < math.comb(n + capped + 1, n)


class TestFreeNilpotent:
    """Free nilpotent groups in exponential coordinates, on 5, 8 and 14
    variables: the chart is already weighted, and the osculating algebra
    at the origin is the free nilpotent Lie algebra itself."""

    @pytest.mark.parametrize("letters, step", [(2, 3), (2, 4), (3, 3)])
    def test_default_report_recovers_the_free_algebra(self, tmp_path, letters, step):
        doc = free_nilpotent_problem(letters, step)
        path = write_problem(tmp_path, doc)
        code, report = run_report("report", path, tmp_path)
        assert code == EXIT_PASS
        words = lyndon_words(letters, step)
        assert stage(report, "weights")["data"]["weights"] == [len(w) for w in words]
        coords = stage(report, "coordinates")["data"]
        assert coords["coordinates"] == coords["inverse"] == doc["variables"]
        osc = stage(report, "osculating")["data"]
        witt = [witt_dimension(letters, k) for k in range(1, step + 1)]
        assert osc["graded_dims"] == witt
        assert sum(witt) == len(words)
        assert osc["unverified"] == []


class TestGrushin:
    """The Grushin-type family X = dx, Y = x^k dy (ROADMAP item 14): closed
    forms at the origin, and along the x-axis, where the osculating stage
    runs in the chart centred at a point off the origin."""

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("base", [None, 1, Fraction(-1, 2)], ids=["origin", "x=1", "x=-1/2"])
    @pytest.mark.parametrize("bound", ["2", "k+2"])
    def test_report_gives_the_closed_forms(self, tmp_path, k, base, bound):
        path = write_problem(tmp_path, grushin_problem(k, base))
        flags = ["--degree-bound", str(2 if bound == "2" else k + 2)]
        code, report = run_report("report", path, tmp_path, *flags)
        assert code == EXIT_PASS
        assert all(entry["verdict"] == "pass" for entry in report["stages"])
        osc = stage(report, "osculating")["data"]
        if base is None:
            weights, graded, tangent = [1, k + 1], [2] + [1] * k, [1] * k + [0]
        else:
            weights, graded, tangent = [0, 1], [2] + [0] * k, [1] + [0] * k
        assert stage(report, "weights")["data"]["weights"] == weights
        assert osc["graded_dims"] == graded
        assert osc["tangent_dims"] == tangent


# the model x R^k rows: (name, k, base) for free (2,3), (2,4) and (3,3) at
# k = 1..3, at t = 0 and t = (1, -1/2, 2)[:k], and filiform 5 and 6 at
# k = 1, 2, at t = (1, -1/2)[:k]
T_POINT = (1, Fraction(-1, 2), 2)
TIMES_SPACE_ROWS = [
    (name, k, base)
    for name in ("free_2_3", "free_2_4", "free_3_3")
    for k in (1, 2, 3)
    for base in ((0,) * k, T_POINT[:k])
] + [(name, k, T_POINT[:k]) for name in ("filiform_5", "filiform_6") for k in (1, 2)]


def model_closed_forms(name: str) -> tuple[dict, list[int], list[int]]:
    """A model document with N its origin, its weights and its graded dims:
    Witt's formula for a free nilpotent model, [2, 1, ..., 1] for the
    filiform model on n variables."""
    kind, *sizes = name.split("_")
    if kind == "free":
        letters, step = map(int, sizes)
        weights = [len(w) for w in lyndon_words(letters, step)]
        dims = [witt_dimension(letters, d) for d in range(1, step + 1)]
        return free_nilpotent_problem(letters, step), weights, dims
    (n,) = map(int, sizes)
    return filiform_problem(n), [1, *range(1, n)], [2] + [1] * (n - 2)


class TestTimesSpace:
    """A model times R^k with N the R^k factor (ROADMAP item 14): a
    positive-dimensional N at scale, whose tangency system has k tangent
    variables; the dt's add k to the first graded piece, all of it
    tangent, and the quotient is the model's."""

    @pytest.mark.parametrize(
        "name,k,base",
        TIMES_SPACE_ROWS,
        ids=[f"{n}_x{k}_t{','.join(map(str, b))}" for n, k, b in TIMES_SPACE_ROWS],
    )
    def test_report_gives_the_closed_forms(self, tmp_path, name, k, base):
        model, weights, dims = model_closed_forms(name)
        path = write_problem(tmp_path, times_space(model, k, base))
        code, report = run_report("report", path, tmp_path)
        assert code == EXIT_PASS
        assert all(entry["verdict"] == "pass" for entry in report["stages"])
        osc = stage(report, "osculating")["data"]
        assert stage(report, "weights")["data"]["weights"] == [0] * k + weights
        assert osc["graded_dims"] == [dims[0] + k, *dims[1:]]
        assert osc["tangent_dims"] == [k] + [0] * (len(dims) - 1)
        assert osc["quotient_dims"] == dims


class TestLoadProblem:
    @pytest.mark.parametrize(
        "doc,strings,distinct",
        [(None, 5, 3), (filiform_problem(10), 54, 10)],
        ids=["cartan235", "filiform10"],
    )
    def test_each_distinct_string_is_parsed_once(self, tmp_path, monkeypatch, doc, strings, distinct):
        # doc None is bench/problems/cartan235.json
        path = str(BENCH_PROBLEMS / "cartan235.json") if doc is None else write_problem(tmp_path, doc)
        levels = json.loads(Path(path).read_text())["filtration"]
        listed = [e for level in levels.values() if level != "full" for e in level]
        assert len(listed) == strings
        parsed = []
        real = cli.parse_vector_field

        def counting(text, chart):
            parsed.append(text)
            return real(text, chart)

        monkeypatch.setattr(cli, "parse_vector_field", counting)
        flt = load_problem(path).filtration
        assert parsed == list(dict.fromkeys(listed))
        assert len(parsed) == distinct
        # every level that lists a string holds the one field parsed from it
        by_text = {}
        for depth, level in enumerate(levels.values(), start=1):
            if level == "full":
                continue
            for text, field in zip(level, flt.levels[depth - 1]):
                assert by_text.setdefault(text, field) is field


class TestSharedDerivations:
    def test_cartan_report_enumerates_each_multi_index_list_once(self, tmp_path, monkeypatch):
        # one per question: bracket-compat's rung 0, the weighting's frame
        # words, the osculating monomials and the tangency monomials (in
        # the tangent variables only, none here); twenty calls with five
        # distinct arguments before the weighting owned its words
        calls = []
        real = exactalg.weighted_multiindices

        def counting(weights, bound):
            calls.append((tuple(weights), bound))
            return real(weights, bound)

        for module in (exactalg, lieflt, weightcoord, osculating):
            if hasattr(module, "weighted_multiindices"):
                monkeypatch.setattr(module, "weighted_multiindices", counting)
        path = str(BENCH_PROBLEMS / "cartan235.json")
        code, _ = run_report("report", path, tmp_path, "--degree-bound", "3")
        assert code == EXIT_PASS
        assert len(calls) <= 4
        assert len(set(calls)) == len(calls)
        assert ((), 3) in calls

    @pytest.mark.parametrize("name,depths", [("cartan235", set()), ("heisenberg", {1})])
    def test_fiber_class_labels_only_for_a_tangent_span(self, tmp_path, monkeypatch, name, depths):
        # N is a point on cartan235, so its tangent spans are empty and no
        # class is read; heisenberg's N is the x axis, a line, and only
        # depth 1 has a tangent vector.  verify_hh reads one class per
        # tangent span vector, at that vector's depth
        calls = []
        real = osculating.weighted_fiber_class

        def counting(field, weighting, depth):
            calls.append(depth)
            return real(field, weighting, depth)

        monkeypatch.setattr(osculating, "weighted_fiber_class", counting)
        code, report = run_report("report", str(PROBLEMS / f"{name}.json"), tmp_path)
        assert code == EXIT_PASS
        tangent_dims = stage(report, "osculating")["data"]["tangent_dims"]
        assert set(calls) == {d for d, dim in enumerate(tangent_dims, start=1) if dim}
        assert set(calls) == depths
        assert len(calls) == sum(tangent_dims)


class TestFullToken:
    def test_full_adjoins_coordinate_frame(self, tmp_path):
        spec = load_problem(write_problem(tmp_path, basic_doc()))
        top = spec.filtration.levels[-1]
        chart = Chart(("x", "y", "z"))
        # previous generators followed by the coordinate frame
        assert len(top) == 5
        assert top[:2] == spec.filtration.levels[0]
        assert top[2:] == tuple(coordinate_field(chart, a) for a in range(3))
        assert spec.filtration.chart == chart


# -- input fuzz ------------------------------------------------------------------

FUZZ_NAMES = ("x", "y", "z", "dx", "x_1")
FUZZ_COEFFS = (
    "1",
    "2",
    "{a}",
    "{a}^2",
    "{a}*{b}",
    "-{a}",
    "(1 + {a})",
    "{a}/2",
    "1/(1 + {a})",
    "({a}^2 - 1)/({a} - 1)",
    "1/({a} - {a})",
)
FUZZ_POINTS = st.one_of(
    st.just("0"),
    st.just(0),
    st.just("0"),
    st.integers(-2, 2),
    st.sampled_from(["1/2", "-1", "abc", "1/0", "", "0.5", None, True, 1.5, []]),
)


@st.composite
def problem_docs(draw):
    """Small problem documents, valid or not: 1-3 variables (some invalid
    or repeated), order <= 2, levels from a small grammar with rational
    terms, and base points of any JSON type."""
    names = draw(st.lists(st.sampled_from(FUZZ_NAMES), min_size=1, max_size=3, unique=True))
    # now and then an invalid, empty or repeated name
    if draw(st.integers(0, 3)) == 0:
        bad = draw(st.sampled_from(["1y", "", names[0]]))
        names.insert(draw(st.integers(0, len(names))), bad)

    def field():
        terms = []
        for _ in range(draw(st.integers(1, 2))):
            a, b, d = (draw(st.sampled_from(names)) for _ in range(3))
            coeff = draw(st.sampled_from(FUZZ_COEFFS)).format(a=a, b=b)
            terms.append(f"{coeff}*d{d}")
        return " + ".join(terms)

    order = draw(st.integers(1, 2))
    filtration = {}
    for depth in range(1, order + 1):
        if depth == order and draw(st.booleans()):
            filtration[str(-depth)] = "full"
        else:
            filtration[str(-depth)] = [field() for _ in range(draw(st.integers(1, 3)))]
    tangent = draw(st.lists(st.sampled_from(names), max_size=len(names), unique=True))
    size = max(0, len(names) + draw(st.sampled_from([0] * 6 + [-1, 1])))
    return {
        "variables": names,
        "order": order,
        "filtration": filtration,
        "submanifold": {
            "tangent": tangent,
            "base_point": [draw(FUZZ_POINTS) for _ in range(size)],
        },
        "samples": draw(st.integers(0, 5)),
        "degree_bound": draw(st.integers(0, 2)),
    }


@settings(max_examples=100, deadline=timedelta(seconds=10))
@given(problem_docs(), st.sampled_from(["check", "report"]))
def test_fuzzed_problems_exit_cleanly(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, path])
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_INPUT)
    text = err.getvalue()
    if code == EXIT_INPUT:
        assert text.startswith("error: ") and text.count("\n") == 1
        assert text.endswith("\n")
    else:
        assert text == ""


def test_scale_rows_times_every_stage_of_a_row():
    # the scale-table harness on its smallest row: one JSON line with the
    # process time of load, each report stage and render
    script = Path(__file__).resolve().parent / "scale_rows.py"
    out = subprocess.run(
        [sys.executable, str(script), "free_2_5"],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    (line,) = out.stdout.splitlines()
    row = json.loads(line)
    stages = list(cli.STAGE_ORDER)
    assert set(row) == {
        "input", "n", "load", *stages, "render", "total",
        "verdicts", "osculating_bound", "report_bytes",
    }
    assert (row["input"], row["n"], row["osculating_bound"]) == ("free_2_5", 14, 2)
    assert row["verdicts"] == {stage: "pass" for stage in stages}
    assert row["total"] == pytest.approx(sum(row[k] for k in ("load", *stages, "render")))
    assert row["total"] < 1.0
    assert row["report_bytes"] > 0
    # an unknown row is refused before any row runs
    refused = subprocess.run(
        [sys.executable, str(script), "free_9_9"], capture_output=True, text=True, timeout=60
    )
    assert refused.returncode == 2 and refused.stdout == ""
