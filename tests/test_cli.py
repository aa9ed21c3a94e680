"""Scenario runner and oracle CLI: schema, exit codes, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from sheafforms import (
    FreeModule,
    ParseError,
    RationalField,
    SelfCheckFailed,
    UnknownSuite,
    cli,
    scenario,
    span,
    symplectic,
    topology,
)
from sheafforms.oracles import (
    discrete_pair_space,
    random_alternating_form,
    random_global_section,
    sierpinski_space,
)
from sheafforms.scenario import (
    format_section,
    format_submodule,
    load_scenario,
    oracle_report,
    parse_section,
    parse_submodule,
    report_to_json,
    run_scenario_dict,
    scenario_from_dict,
)

Q = RationalField()


def base_doc(**overrides):
    doc = {
        "space": {"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]},
        "field": "rationals",
        "rank": 2,
        "gram": [[["0/1", "1/1"], ["-1/1", "0/1"]]],
        "tasks": [],
    }
    doc.update(overrides)
    return doc


DEMOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


def run_cli(*args, env=None, interpreter_flags=()):
    full_env = dict(os.environ)
    full_env.pop("SHEAFFORMS_FIELD", None)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, *interpreter_flags, "-m", "sheafforms", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


class TestParsing:
    def test_minimal_scenario(self):
        scn = scenario_from_dict(base_doc())
        assert scn.module.rank == 2
        assert scn.field.name == "rationals"

    def test_missing_total_open_is_parse_error(self):
        doc = base_doc(space={"points": ["a", "b"], "opens": [[], ["a"]]})
        with pytest.raises(ParseError) as err:
            scenario_from_dict(doc)
        assert "MissingEmptyOrTotal" in err.value.message

    def test_wrong_gram_arity(self):
        doc = base_doc(gram=[[["0/1"]]])
        with pytest.raises(ParseError):
            scenario_from_dict(doc)

    def test_bad_scalar(self):
        doc = base_doc(gram=[[["0/1", "nope"], ["-1/1", "0/1"]]])
        with pytest.raises(ParseError):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("gram", [
        [[[0, 1], [-1, 0]]],
        [[["0/1", 1.5], ["-1/1", "0/1"]]],
        [[["0/1", None], ["-1/1", "0/1"]]],
    ])
    def test_non_string_scalar_is_parse_error(self, gram):
        with pytest.raises(ParseError):
            scenario_from_dict(base_doc(gram=gram))

    def test_non_string_scalar_in_task_is_task_parse_error(self):
        doc = base_doc(tasks=[{"op": "orthogonal", "submodule": {"generators": [
            {"open": ["a", "b"], "vectors": [[1, 0]]}]}}])
        report = run_scenario_dict(doc)
        assert report["tasks"][0]["error"]["code"] == "ParseError"
        assert not report["ok"]

    @pytest.mark.parametrize("field", [5, True, ["rationals"]])
    def test_field_name_must_be_a_string(self, field):
        with pytest.raises(ParseError):
            scenario_from_dict(base_doc(field=field))

    @pytest.mark.parametrize("rank,gram", [
        (True, [[["0/1"]]]),
        (False, [[]]),
        (2.0, [[["0/1", "1/1"], ["-1/1", "0/1"]]]),
        ("2", [[["0/1", "1/1"], ["-1/1", "0/1"]]]),
    ])
    def test_rank_must_be_an_integer(self, rank, gram):
        # each Gram matrix fits the rank the value would pass for
        with pytest.raises(ParseError) as err:
            scenario_from_dict(base_doc(rank=rank, gram=gram))
        assert "'rank' has the wrong type" in err.value.message

    E1 = {"open": ["a", "b"], "vectors": [["1/1", "0/1"]]}
    E2 = {"open": ["a", "b"], "vectors": [["0/1", "1/1"]]}
    LINE = {"generators": [E1]}
    GRAM = [[["0/1", "1/1"], ["-1/1", "0/1"]]]

    @staticmethod
    def indiscrete(npoints, nopens):
        """A space on npoints points whose opens list holds nopens entries."""
        points = [f"p{i}" for i in range(npoints)]
        return {"points": points, "opens": [[]] * (nopens - 1) + [points]}

    @pytest.mark.parametrize("npoints,nopens,rank,message", [
        (scenario.MAX_POINTS + 1, 2, 1,
         f"space: at most {scenario.MAX_POINTS} points are allowed, got {scenario.MAX_POINTS + 1}"),
        (2, scenario.MAX_OPENS + 1, 1,
         f"space: at most {scenario.MAX_OPENS} opens are allowed, got {scenario.MAX_OPENS + 1}"),
        (2, 2, scenario.MAX_RANK + 1,
         f"scenario: rank must be at most {scenario.MAX_RANK}, got {scenario.MAX_RANK + 1}"),
        (scenario.MAX_POINTS, scenario.MAX_OPENS, scenario.MAX_RANK, None),
    ], ids=["points_above", "opens_above", "rank_above", "all_at_limit"])
    def test_document_size_limits(self, npoints, nopens, rank, message):
        gram = [[["0/1"] * rank for _ in range(rank)]]
        doc = base_doc(space=self.indiscrete(npoints, nopens), rank=rank, gram=gram)
        if message is None:
            scn = scenario_from_dict(doc)
            assert (len(scn.space.points), scn.module.rank) == (npoints, rank)
            return
        with pytest.raises(ParseError) as err:
            scenario_from_dict(doc)
        assert err.value.message == message

    @pytest.mark.parametrize("count", [scenario.MAX_TASKS, scenario.MAX_TASKS + 1])
    def test_task_list_limit(self, tmp_path, count):
        doc = base_doc(tasks=[{"op": "classify"}] * count)
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("run", str(path))
        if count <= scenario.MAX_TASKS:
            assert len(scenario_from_dict(doc).tasks) == count
            assert proc.returncode == 0, proc.stderr
            assert len(json.loads(proc.stdout)["tasks"]) == count
            return
        message = f"scenario: at most {scenario.MAX_TASKS} tasks are allowed, got {count}"
        with pytest.raises(ParseError) as err:
            scenario_from_dict(doc)
        assert err.value.message == message
        assert proc.returncode == 2
        assert proc.stderr.startswith("ParseError:") and message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("level,doc", [
        ("task", base_doc(tasks=[{"op": "orthogonal"}])),
        ("task", base_doc(tasks=[{"op": "witt", "target_gram": GRAM, "sigma": []}])),
        ("task", base_doc(tasks=[{"op": "project", "submodule": LINE}])),
        ("task", base_doc(tasks=[{"op": "envelope"}])),
        ("task", base_doc(tasks=[{"op": "orthogonal", "submodule": {"generators": 5}}])),
        ("task", base_doc(tasks=[{"op": "symplectic_basis", "partial": [1]}])),
        ("task", base_doc(tasks=[{"op": "symplectic_basis", "partial": []}])),
        ("task", base_doc(tasks=[{"op": "symplectic_basis", "partial": 0}])),
        ("task", base_doc(tasks=[{"op": "symplectic_basis", "partial": {"r": []}}])),
        ("task", base_doc(tasks=[
            {"op": "symplectic_basis", "partial": {"r": {"1": E1, "01": E2}}}])),
        ("task", base_doc(tasks=[{"op": "symplectic_basis", "partial": {"r": {"1_0": E1}}}])),
        ("task", base_doc(tasks=[{"op": "symplectic_basis", "partial": {"r": {"+1": E1}}}])),
        ("task", base_doc(tasks=[
            {"op": "symplectic_basis", "partial": {"r": {"1": E1}, "q": {"1": E2}}}])),
        ("document", base_doc(space={"points": ["a", "b"], "opens": [1, 2]})),
        ("task", base_doc(tasks=[
            {"op": "oracle", "suite": "reflexivity", "bounds": {"cases": "x"}}])),
        ("task", base_doc(tasks=[{"op": "oracle", "suite": "reflexivity", "bounds": [1]}])),
        ("task", base_doc(tasks=[
            {"op": "oracle", "suite": "reflexivity", "bounds": {"case": 1}}])),
        ("task", base_doc(tasks=[{"op": "oracle", "suite": "reflexivity", "max_rank": "2"}])),
        ("task", base_doc(tasks=[{"op": "oracle", "suite": "reflexivity", "seed": "x"}])),
        ("task", base_doc(tasks=[{"op": "oracle", "suite": "reflexivity", "seed": True}])),
    ], ids=[
        "orthogonal_no_submodule", "witt_no_submodule", "project_no_section",
        "envelope_no_submodule", "generators_not_a_list", "partial_not_an_object",
        "partial_empty_list", "partial_zero", "partial_side_not_an_object",
        "partial_index_named_twice", "partial_index_with_underscore", "partial_index_with_sign",
        "partial_unknown_side",
        "open_not_a_list", "bounds_cases_string", "bounds_not_an_object", "bounds_unknown_key",
        "max_rank_string", "seed_string", "seed_bool",
    ])
    def test_malformed_field_is_parse_error(self, level, doc):
        if level == "document":
            with pytest.raises(ParseError):
                scenario_from_dict(doc)
            return
        report = run_scenario_dict(doc)
        (task,) = report["tasks"]
        assert task["status"] == "error"
        assert task["error"]["code"] == "ParseError"
        assert not report["ok"]

    def test_component_count_is_checked_before_the_matrices(self):
        # two malformed matrices for one component: the count is the error
        grams = [[["nope"]], [["nope"]]]
        with pytest.raises(ParseError) as err:
            scenario_from_dict(base_doc(gram=grams))
        assert err.value.message == "gram: expected 1 component matrices, got 2"
        doc = base_doc(tasks=[{"op": "witt", "target_gram": grams, "submodule": self.LINE,
                               "sigma": []}])
        (task,) = run_scenario_dict(doc)["tasks"]
        assert task["error"] == {
            "code": "ParseError",
            "message": "witt.target_gram: expected 1 component matrices, got 2",
            "witness": {},
        }

    @pytest.mark.parametrize("key", ["0", "2", "-1"])
    def test_partial_index_out_of_range_is_partial_relations_violated(self, key):
        doc = base_doc(tasks=[{"op": "symplectic_basis", "partial": {"r": {key: self.E1}}}])
        (task,) = run_scenario_dict(doc)["tasks"]
        assert task["error"]["code"] == "PartialRelationsViolated"

    @pytest.mark.parametrize("partial", [None, {}, {"r": None, "s": {}}, {"r": {"1": E1}}])
    def test_partial_null_empty_or_canonical_runs(self, partial):
        task = {"op": "symplectic_basis", "partial": partial}
        (report,) = run_scenario_dict(base_doc(tasks=[task]))["tasks"]
        assert report["status"] == "ok"

    @pytest.mark.parametrize("level,doc", [
        ("document", base_doc(space={"points": [["a"], "b"], "opens": [[], ["b"]]})),
        ("document", base_doc(space={"points": ["a", True], "opens": [[], ["a"], ["a", True]]})),
        ("document", base_doc(space={"points": ["a", "b"], "opens": [[], [["a"]], ["a", "b"]]})),
        ("task", base_doc(tasks=[{"op": "orthogonal", "submodule": {"generators": [
            {"open": [["a"]], "vectors": [["1/1", "0/1"]]}]}}])),
        ("task", base_doc(tasks=[{"op": "orthogonal", "submodule": {"generators": [
            {"open": "ab", "vectors": [["1/1", "0/1"]]}]}}])),
    ], ids=["list_point", "bool_point", "list_in_open", "list_in_section_open",
            "section_open_not_a_list"])
    def test_point_must_be_a_string_or_integer(self, level, doc):
        if level == "document":
            with pytest.raises(ParseError):
                scenario_from_dict(doc)
            return
        (task,) = run_scenario_dict(doc)["tasks"]
        assert task["error"]["code"] == "ParseError"

    def test_integer_points(self):
        doc = base_doc(space={"points": [1, 2], "opens": [[], [1], [1, 2]]},
                       tasks=[{"op": "orthogonal", "submodule": {"generators": [
                           {"open": [1, 2], "vectors": [["1/1", "0/1"]]}]}}])
        report = run_scenario_dict(doc)
        assert report["header"]["points"] == [1, 2]
        assert report["ok"]

    def test_unknown_op(self):
        doc = base_doc(tasks=[{"op": "frobnicate"}])
        with pytest.raises(ParseError):
            scenario_from_dict(doc)

    def test_unknown_suite_in_task(self):
        doc = base_doc(tasks=[{"op": "oracle", "suite": "nope"}])
        with pytest.raises(ParseError):
            scenario_from_dict(doc)

    def test_load_scenario_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_scenario(str(tmp_path / "absent.json"))

    def test_load_scenario_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        with pytest.raises(ParseError):
            load_scenario(str(path))


class TestRoundTrip:
    def test_section_round_trip(self):
        rng = Random(2)
        for space in (sierpinski_space(), discrete_pair_space()):
            module = FreeModule(space, Q, 3)
            for u in range(len(space.opens)):
                sec = module.zero_section(u)
                assert parse_section(format_section(sec), module, "t") == sec
            for _ in range(10):
                sec = random_global_section(rng, module)
                assert parse_section(format_section(sec), module, "t") == sec

    def test_submodule_round_trip(self):
        rng = Random(3)
        space = discrete_pair_space()
        module = FreeModule(space, Q, 3)
        for _ in range(10):
            sub = span(
                module, [random_global_section(rng, module) for _ in range(2)]
            )
            assert parse_submodule(format_submodule(sub), module, "f") == sub

    def test_report_json_round_trip(self):
        doc = base_doc(tasks=[{"op": "classify"}, {"op": "normal_form"}])
        report = run_scenario_dict(doc)
        text = report_to_json(report)
        assert json.loads(text) == report


class TestScenarioExecution:
    def test_normal_form_task_certificate(self):
        doc = base_doc(tasks=[{"op": "normal_form"}])
        report = run_scenario_dict(doc)
        assert report["ok"]
        task = report["tasks"][0]
        assert task["status"] == "ok"
        assert task["certificate"]["congruent_to_standard"] is True
        p = task["payload"]["matrices"][0]
        assert p == [["1/1", "0/1"], ["0/1", "1/1"]]

    def test_classify_counterexample_scenario(self):
        doc = base_doc(gram=[[["1/1", "1/1"], ["0/1", "1/1"]]],
                       tasks=[{"op": "classify"}])
        report = run_scenario_dict(doc)
        assert report["ok"]  # classify itself succeeds, with a witness
        task = report["tasks"][0]
        assert task["payload"]["orthosymmetric"] is False
        witness = task["payload"]["witness"]
        # spec'd counterexample pair: r = e2, s = e1
        assert witness["r"]["vectors"] == [["0/1", "1/1"]]
        assert witness["s"]["vectors"] == [["1/1", "0/1"]]

    def test_task_error_embedded_and_flagged(self):
        doc = base_doc(tasks=[
            {"op": "project",
             "submodule": {"generators": [
                 {"open": ["a", "b"], "vectors": [["1/1", "0/1"]]}]},
             "section": {"open": ["a", "b"], "vectors": [["1/1", "1/1"]]}},
        ])
        report = run_scenario_dict(doc)
        assert not report["ok"]
        task = report["tasks"][0]
        assert task["status"] == "error"
        assert task["error"]["code"] == "IsotropicSubmodule"

    def test_empty_open_section_task_rejected(self):
        doc = base_doc(tasks=[
            {"op": "project",
             "submodule": {"generators": [
                 {"open": ["a", "b"], "vectors": [["1/1", "0/1"]]}]},
             "section": {"open": [], "vectors": []}},
        ])
        report = run_scenario_dict(doc)
        task = report["tasks"][0]
        assert task["status"] == "error"
        assert task["error"]["code"] == "EmptyOpen"

    def test_all_ops_execute(self):
        rng = Random(9)
        space_doc = {"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]}
        module = FreeModule(sierpinski_space(), Q, 4)
        form = random_alternating_form(rng, module)
        gram_doc = [
            [[Q.format(x) for x in row] for row in g] for g in form.gram
        ]
        e = module.canonical_basis()
        from sheafforms import gram_schmidt_extend, PartialFamily

        basis = gram_schmidt_extend(form, PartialFamily.of())
        iso_gen = format_section(basis.r[0])
        hyper_gens = [format_section(basis.r[0]), format_section(basis.s[0])]
        doc = {
            "space": space_doc,
            "field": "rationals",
            "rank": 4,
            "gram": gram_doc,
            "tasks": [
                {"op": "classify"},
                {"op": "radical"},
                {"op": "radical", "submodule": {"generators": [iso_gen]}},
                {"op": "orthogonal", "submodule": {"generators": [iso_gen]}},
                {"op": "orthogonal", "submodule": {"generators": [iso_gen]}, "side": "right"},
                {"op": "project", "submodule": {"generators": hyper_gens},
                 "section": format_section(e[2])},
                {"op": "symplectic_basis", "partial": {"r": {"1": iso_gen}}},
                {"op": "normal_form"},
                {"op": "decomposition"},
                {"op": "envelope", "submodule": {"generators": [iso_gen]}},
                {"op": "witt",
                 "target_gram": gram_doc,
                 "submodule": {"generators": [iso_gen]},
                 "sigma": [iso_gen]},
                {"op": "oracle", "suite": "reflexivity", "seed": 4,
                 "bounds": {"cases": 5}},
            ],
        }
        report = run_scenario_dict(doc, seed=1)
        for task in report["tasks"]:
            assert task["status"] == "ok", task
        assert report["ok"]

    def test_tasks_carry_timing(self):
        doc = base_doc(tasks=[{"op": "classify"}])
        report = run_scenario_dict(doc)
        assert "time_ms" in report["tasks"][0]


class TestCertificateStatus:
    def test_false_certificate_fails_the_task(self, monkeypatch, tmp_path, capsys):
        # the library decides the congruence once, in the completion; a
        # completion that fails it is a coded error entry, not a traceback
        monkeypatch.setattr(symplectic, "_congruent", lambda form, gram_cols, rows: None)
        doc = base_doc(tasks=[{"op": "normal_form"}, {"op": "classify"}])
        report = run_scenario_dict(doc)
        failed, fine = report["tasks"]
        assert failed["status"] == "error"
        assert failed["error"]["code"] == "SelfCheckFailed"
        assert failed["error"]["message"] == "the completed basis fails P^T G P == A_2n"
        assert "payload" not in failed and "certificate" not in failed
        assert fine["status"] == "ok"
        assert report["ok"] is False
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["ok"] is False

    def test_classify_certificate_rechecks_the_witness(self):
        doc = base_doc(gram=[[["1/1", "1/1"], ["0/1", "1/1"]]], tasks=[{"op": "classify"}])
        (task,) = run_scenario_dict(doc)["tasks"]
        assert task["certificate"] == {"witness_rechecked": True}


def asymmetric_doc(side):
    """Gram [[1,1],[0,1]] is neither symmetric nor alternating, so the left
    and right orthogonals of span(e_1) differ: (1,-1) and (0,1)."""
    return base_doc(
        gram=[[["1/1", "1/1"], ["0/1", "1/1"]]],
        tasks=[{"op": "orthogonal", "side": side, "submodule": {"generators": [
            {"open": ["a", "b"], "vectors": [["1/1", "0/1"]]}]}}],
    )


class TestOrthogonalSides:
    @pytest.mark.parametrize("side,row", [
        ("left", ["1/1", "-1/1"]),
        ("right", ["0/1", "1/1"]),
    ])
    def test_certificate_checks_the_requested_side(self, side, row):
        report = run_scenario_dict(asymmetric_doc(side))
        (task,) = report["tasks"]
        assert task["status"] == "ok", task
        assert task["payload"]["orthogonal"]["bases"] == [[row]]
        assert task["certificate"] == {
            "annihilates_carrier": True, "dimension_formula": True,
        }
        assert report["ok"]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_zero_submodule_breaks_only_the_dimension_formula(self, monkeypatch, side):
        # the zero submodule annihilates every carrier, but has dimension 0
        # where the formula asks for rank - rank(F G) = 1
        monkeypatch.setattr(
            scenario.BilinearForm, "orthogonal", lambda form, f, side="left": span(form.module, [])
        )
        (task,) = run_scenario_dict(asymmetric_doc(side))["tasks"]
        assert task["status"] == "certificate_failed"
        assert task["certificate"] == {
            "annihilates_carrier": True, "dimension_formula": False,
        }

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_cli_exit_zero(self, tmp_path, side):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(asymmetric_doc(side)))
        proc = run_cli("run", str(path))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"]


class TestOracleReports:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            oracle_report("nope", 0, Q)

    def test_deterministic_within_process(self):
        a = oracle_report("splitting", 5, Q, {"cases": 10})
        b = oracle_report("splitting", 5, Q, {"cases": 10})
        assert report_to_json(a) == report_to_json(b)

    def test_no_timing_in_oracle_report(self):
        report = oracle_report("reflexivity", 1, Q, {"cases": 3})
        assert "time_ms" not in report_to_json(report)


class TestOracleBounds:
    @pytest.mark.parametrize("task", [
        {"suite": "reflexivity", "max_rank": 0},
        {"suite": "orthosymmetry_dichotomy", "bounds": {"max_rank": -1}},
        {"suite": "gram_schmidt", "max_rank": 1},
        {"suite": "witt", "bounds": {"max_rank": 1, "cases": 1}},
        {"suite": "reflexivity", "bounds": {"cases": -3}},
        {"suite": "scholium_invertibility", "bounds": {"cases": -1}},
        {"suite": "reflexivity", "bounds": {"cases": 401}},
        {"suite": "gram_schmidt", "max_rank": 9},
    ])
    def test_out_of_range_bound_is_task_parse_error(self, task):
        report = run_scenario_dict(base_doc(tasks=[{"op": "oracle", **task}]))
        (entry,) = report["tasks"]
        assert entry["status"] == "error"
        assert entry["error"]["code"] == "ParseError"
        assert not report["ok"]

    @pytest.mark.parametrize("args", [
        ("reflexivity", "--max-rank", "0"),
        ("gram_schmidt", "--max-rank", "1"),
        ("witt", "--cases", "-1"),
        ("scholium_invertibility", "--cases", "401"),
        ("witt", "--max-rank", "9"),
    ])
    def test_cli_exit_two_without_traceback(self, args):
        proc = run_cli("oracle", *args)
        assert proc.returncode == 2
        assert proc.stderr.startswith("ParseError:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestProcessLevel:
    def test_run_ok_exit_zero(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(base_doc(tasks=[{"op": "normal_form"}])))
        out_path = tmp_path / "report.json"
        proc = run_cli("run", str(path), "--out", str(out_path))
        assert proc.returncode == 0
        report = json.loads(out_path.read_text())
        assert report["ok"]
        assert json.loads(proc.stdout) == report

    def test_run_task_error_exit_one(self, tmp_path):
        path = tmp_path / "scn.json"
        doc = base_doc(tasks=[
            {"op": "envelope",
             "submodule": {"generators": [
                 {"open": ["a", "b"], "vectors": [["1/1", "0/1"]]},
                 {"open": ["a", "b"], "vectors": [["0/1", "1/1"]]}]}},
        ])
        path.write_text(json.dumps(doc))
        proc = run_cli("run", str(path))
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["tasks"][0]["error"]["code"] == "NotTotallyIsotropic"

    def test_run_malformed_exit_two(self, tmp_path):
        path = tmp_path / "scn.json"
        doc = base_doc(space={"points": ["a", "b"], "opens": [[], ["a"]]})
        path.write_text(json.dumps(doc))
        proc = run_cli("run", str(path))
        assert proc.returncode == 2
        assert "MissingEmptyOrTotal" in proc.stderr

    @pytest.mark.parametrize("content", [
        json.dumps(base_doc(gram=[[[0, 1], [-1, 0]]])).encode(),
        json.dumps(base_doc(rank=True, gram=[[["0/1"]]])).encode(),
        b"{oops",
        b"[1, 2]",
        b"\xff\xfe{}",
    ], ids=["number_scalar", "bool_rank", "bad_json", "non_object_root", "non_utf8"])
    def test_run_malformed_value_exit_two_without_traceback(self, tmp_path, content):
        path = tmp_path / "scn.json"
        path.write_bytes(content)
        proc = run_cli("run", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("ParseError:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("name", ["finite_field_checks", "symplectic_tour"])
    def test_demo_certificates_hold_under_optimize_flag(self, name):
        # -O strips assert statements, so no certificate may rest on one
        proc = run_cli("run", str(DEMOS / f"{name}.json"), interpreter_flags=("-O",))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["ok"]
        for task in report["tasks"]:
            assert task["status"] == "ok", task
            assert task["certificate"] and all(task["certificate"].values()), task

    def test_oracle_bitwise_determinism_across_processes(self):
        args = ("oracle", "gram_schmidt", "--seed", "12", "--cases", "6")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_unwritable_out_exit_two_without_traceback(self, tmp_path, command):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(base_doc(tasks=[{"op": "normal_form"}])))
        out_path = tmp_path / "missing" / "report.json"
        args = (str(path),) if command == "run" else ("reflexivity", "--cases", "2")
        proc = run_cli(command, *args, "--out", str(out_path))
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["ok"]  # the report is still printed
        assert proc.stderr.startswith(f"cannot write --out {out_path}:")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert not out_path.exists()

    def test_oracle_unknown_suite_exit_two(self):
        proc = run_cli("oracle", "made_up")
        assert proc.returncode == 2
        assert "UnknownSuite" in proc.stderr

    def test_env_field_is_echoed(self):
        proc = run_cli(
            "oracle", "reflexivity", "--cases", "3",
            env={"SHEAFFORMS_FIELD": "gf:5"},
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["header"]["env_field"] == "gf:5"
        assert report["header"]["field"] == "gf:5"

    def test_explicit_field_beats_env(self):
        proc = run_cli(
            "oracle", "reflexivity", "--cases", "3", "--field", "gf:7",
            env={"SHEAFFORMS_FIELD": "gf:5"},
        )
        report = json.loads(proc.stdout)
        assert report["header"]["field"] == "gf:7"
        assert report["header"]["env_field"] == "gf:5"

    def test_scenario_field_from_env_when_missing(self, tmp_path):
        doc = base_doc(tasks=[{"op": "classify"}])
        doc.pop("field")
        doc["gram"] = [[["0", "1"], ["2", "0"]]]
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("run", str(path), env={"SHEAFFORMS_FIELD": "gf:3"})
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["header"]["field"] == "gf:3"
        assert report["header"]["env_field"] == "gf:3"


def alternating_doc(rank, scalar, tasks, seed=0):
    """A one-point space over the rationals whose one Gram matrix is
    alternating, with the entries above the diagonal drawn by `scalar`."""
    rng = Random(seed)
    gram = [["0/1"] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            num, den = scalar(rng)
            gram[i][j], gram[j][i] = f"{num}/{den}", f"{-num}/{den}"
    return base_doc(space={"points": ["a"], "opens": [[], ["a"]]}, rank=rank,
                    gram=[gram], tasks=tasks)


def digits(rng, n):
    return rng.randrange(10 ** (n - 1), 10**n)


class TestScalarSize:
    """Scalars and results have a size limit of the library's own: a scalar
    of more than `MAX_SCALAR_DIGITS` digits is a parse error, and a result
    entry with more digits than the interpreter converts is a coded error
    entry. Neither ends in a traceback, whatever the interpreter's digit
    limit."""

    @pytest.mark.parametrize("limit", [None, "640"])
    def test_long_gram_entries_are_a_parse_error(self, tmp_path, limit):
        # rank 8 with entries of 1,000 digits: before the limit, the normal
        # form's entries passed the interpreter's digit limit when formatted
        doc = alternating_doc(8, lambda rng: (digits(rng, 1000), 1), [{"op": "normal_form"}])
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("run", str(path), env=limit and {"PYTHONINTMAXSTRDIGITS": limit})
        assert proc.returncode == 2
        assert proc.stderr == (
            f"ParseError: gram[0]: a scalar has more than {scenario.MAX_SCALAR_DIGITS}"
            " digits\n"
        )
        assert proc.stdout == ""

    @pytest.mark.parametrize("where", ["gram", "section", "bases", "target_gram"])
    def test_every_scalar_of_a_document_is_counted(self, where):
        long = "1" * (scenario.MAX_SCALAR_DIGITS + 1) + "/1"
        doc = base_doc()
        if where == "gram":
            doc["gram"][0][0][1] = long
        elif where == "section":
            doc["tasks"] = [{"op": "project", "submodule": [], "section": {
                "open": ["a", "b"], "vectors": [[long, "0/1"]]}}]
        elif where == "bases":
            doc["tasks"] = [{"op": "radical", "submodule": {"bases": [[[long, "0/1"]]]}}]
        else:
            doc["tasks"] = [{"op": "witt", "target_gram": [[["0/1", long], ["0/1", "0/1"]]],
                             "submodule": [], "sigma": []}]
        if where == "gram":
            with pytest.raises(ParseError, match=f"more than {scenario.MAX_SCALAR_DIGITS} digits"):
                run_scenario_dict(doc)
            return
        (task,) = run_scenario_dict(doc)["tasks"]
        assert task["error"]["code"] == "ParseError"
        assert f"more than {scenario.MAX_SCALAR_DIGITS} digits" in task["error"]["message"]

    def test_scalar_at_the_limit_is_admitted(self):
        num = "9" * (scenario.MAX_SCALAR_DIGITS // 2)
        den = "7" * (scenario.MAX_SCALAR_DIGITS - len(num))
        # padding and the sign are not digits, so they do not count
        doc = base_doc(gram=[[["0/1", f"  {num}/{den}  "], [f"-{num}/{den}", "0/1"]]])
        assert scenario_from_dict(doc).form.gram[0][0][1] == Fraction(int(num), int(den))
        doc["gram"][0][0][1] = f"{num}/{den}7"
        with pytest.raises(ParseError):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("limit,code", [(None, 0), ("640", 1)])
    def test_entry_too_long_to_format_is_an_error_entry(self, tmp_path, limit, code):
        # an isometry between two rank-8 forms with entries of 10/10 digits
        # has entries of about 1,700 digits: formatted under the default
        # limit of 4,300 digits, refused by their bit length under 640
        doc = alternating_doc(8, lambda rng: (digits(rng, 10), digits(rng, 10)), [])
        target = alternating_doc(8, lambda rng: (digits(rng, 10), digits(rng, 10)), [], seed=1)
        doc["tasks"] = [
            {"op": "witt", "target_gram": target["gram"], "submodule": [], "sigma": []},
            {"op": "classify"},
        ]
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("run", str(path), env=limit and {"PYTHONINTMAXSTRDIGITS": limit})
        assert proc.returncode == code, proc.stderr
        assert proc.stderr == ""
        witt, classify = json.loads(proc.stdout)["tasks"]
        assert classify["status"] == "ok"
        if limit is None:
            assert witt["status"] == "ok"
            assert max(len(x) for m in witt["payload"]["matrices"] for row in m for x in row) > 1280
        else:
            assert witt["status"] == "error"
            assert witt["error"]["code"] == "EntryTooLong"
            assert "more than the 640 digits" in witt["error"]["message"]


class TestSelfCheckFailures:
    """A construction that fails the check it makes on its own result raises
    `SelfCheckFailed`, which the report shows as a coded error entry."""

    SYMPLECTIC = {"normal_form", "symplectic_basis", "decomposition", "envelope", "witt"}

    def test_a_failed_topology_check_is_not_malformed_input(self, monkeypatch, tmp_path, capsys):
        # a space of more than 3 points fails its minimal-neighbourhood
        # check; its points are named so that no live space holds its
        # content, or the memo of validated spaces would skip `_build`
        build = topology._build

        def broken(points, candidates):
            if len(points) > 3:
                raise SelfCheckFailed(f"the minimal neighborhood of {points[0]!r} is not open")
            return build(points, candidates)

        monkeypatch.setattr(topology, "_build", broken)
        points = ["broken0", "broken1", "broken2", "broken3"]
        doc = base_doc(space={"points": points, "opens": [[], points]})
        with pytest.raises(SelfCheckFailed):
            scenario_from_dict(doc)
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "SelfCheckFailed: the minimal neighborhood of 'broken0' is not open\n"

    def test_failed_congruence_is_a_coded_entry_without_traceback(self):
        script = (
            "import sys\n"
            "from sheafforms import cli, symplectic\n"
            "symplectic._congruent = lambda form, gram_cols, rows: None\n"
            "sys.exit(cli.main(['run', sys.argv[1]]))\n"
        )
        env = dict(os.environ)
        env.pop("SHEAFFORMS_FIELD", None)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(DEMOS / "symplectic_tour.json")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        report = json.loads(proc.stdout)
        assert report["ok"] is False
        ops = {task["op"] for task in report["tasks"]}
        assert self.SYMPLECTIC <= ops
        for task in report["tasks"]:
            if task["op"] in self.SYMPLECTIC:
                assert task["status"] == "error", task
                assert task["error"]["code"] == "SelfCheckFailed"
            else:
                assert task["status"] == "ok", task
