"""Command-line interface: subcommands, exit codes, deterministic output."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from math import factorial
from pathlib import Path

import pytest

import cig.ci
from cig import __version__
from cig.cli import main
from cig.groups import FiniteGroup


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_accepted_quotient_verification(self, capsys):
        code, out, _ = run_cli(
            capsys, "quotient", "verify", "--group", "Z6",
            "--normal", "3", "--set1", "1", "--set2", "2",
        )
        assert code == 0
        assert "status: accepted" in out

    def test_ci_pair_equivalent(self, capsys):
        code, out, _ = run_cli(
            capsys, "ci", "pair", "--group", "Z4", "--set1", "1", "--set2", "3"
        )
        assert code == 0
        assert "ci_equivalent" in out

    def test_ci_pair_not_isomorphic(self, capsys):
        code, out, _ = run_cli(
            capsys, "ci", "pair", "--group", "Z4", "--set1", "1", "--set2", "2"
        )
        assert code == 0
        assert "not_isomorphic" in out

    def test_non_ci_witness_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "ci", "pair", "--group", "Z8",
            "--set1", "1,2,5", "--set2", "1,5,6",
        )
        assert code == 1
        assert "non_ci_witness" in out

    def test_non_ci_group_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "ci", "group", "--group", "Z8")
        assert code == 1

    def test_order_sixteen_witness_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "ci", "group", "--group", "Z2xZ8"
        )
        assert code == 1
        result = json.loads(out)["result"]
        assert result["is_ci"] is False and result["exhaustive"] is True
        s1, s2, iso = result["witness"]
        assert len(s1) == len(s2) and s1 != s2
        assert sorted(iso) == list(range(16))

    def test_order_seventeen_digraph_sweep_answers(self, capsys):
        # 39,203 connection sets to list, inside the sweep bound.
        code, out, _ = run_cli(capsys, "--format", "json", "ci", "group", "--group", "Z17")
        assert code == 0
        assert json.loads(out)["result"]["is_ci"] is True

    def test_order_twenty_one_digraph_sweep_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "ci", "group", "--group", "Z21")
        assert code == 2
        assert "past the sweep bound of 262144" in err
        assert out == ""

    def test_rejected_certificate_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "quotient", "verify", "--group", "Z4",
            "--normal", "2", "--set1", "0,1", "--set2", "0,1",
        )
        assert code == 1
        assert "status: rejected" in out
        # The checks are listed in the order the certificate runs them.
        assert out.splitlines()[4:] == [
            "  ok  quotient_isomorphic",
            "  ok  lift_cases_agree",
            "  ok  lift_arc_identity_side1",
            "  ok  lift_arc_identity_side2",
            "  FAIL  aut_wreath_equality_side1",
            "  FAIL  aut_wreath_equality_side2",
            "  FAIL  unique_block_system_side1",
            "  FAIL  unique_block_system_side2",
            "  ok  alpha_found",
            "  ok  alpha_preserves_cosets",
            "  ok  alpha_fixes_subgroup",
            "  ok  alpha_bar_well_defined",
            "  ok  alpha_bar_maps_sets",
        ]

    def test_out_of_range_index_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "ci", "pair", "--group", "Z4", "--set1", "9", "--set2", "1"
        )
        assert code == 2
        assert "out of range" in err

    @pytest.mark.parametrize("value", ["--1", "\u00b2"])
    def test_non_index_exits_two_naming_the_flag(self, capsys, value):
        code, out, err = run_cli(
            capsys, "ci", "pair", "--group", "Z8", f"--set1={value}", "--set2", "1"
        )
        assert code == 2
        assert f"--set1: {value!r} is not an element index" in err
        assert out == ""

    def test_bad_spec_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "cayley", "--group", "B9", "--set", "1")
        assert code == 2
        assert "position" in err

    def test_usage_error_exits_two(self, capsys):
        assert main(["ci"]) == 2
        assert main(["--format", "yaml", "iso"]) == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("--search-cap 3 ci pair --group Z6 --set1 1 --set2 5", "exceeds search cap 3"),
            ("--search-cap 3 ci group --group Z6", "exceeds search cap 3"),
            ("--search-cap 3 quotient verify --group Z6 --normal 3 --set1 1 --set2 2",
             "exceeds search cap 3"),
            # Z8/<4>: non-isomorphic quotients, so only the quotient search runs.
            ("--search-cap 3 quotient verify --group Z8 --normal 4 --set1 1 --set2 2",
             "exceeds search cap 3"),
            ("--aut-cap 5 ci group --group Z6", "exceeds automorphism cap 5"),
            # The quotient digraphs (32 vertices) are within the default cap,
            # the lifted ones are not.
            ("quotient verify --group Z64 --normal 32 --set1 1 --set2 3",
             "digraph order 64 exceeds search cap 40"),
        ],
    )
    def test_cap_takes_effect(self, capsys, argv, message):
        code, _, err = run_cli(capsys, *argv.split())
        assert code == 2
        assert message in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("--search-cap 0 iso --group Z6 --set1 1 --set2 5", "--search-cap"),
            ("--aut-cap -1 ci pair --group Z6 --set1 1 --set2 5", "--aut-cap"),
            ("--threads 2 ci group --group Z8", "usage:"),
            ("--closure-cap 5 ci group --group Z8", "usage:"),
            ("catalog list --max-order -4", "--max-order"),
            ("catalog list --max-order 0", "--max-order"),
            ("ci group --group Z8 --budget 0", "--budget"),
            ("ci group --group Z8 --budget -1", "--budget"),
            ("ci group --group Z8 --budget abc", "--budget"),
        ],
    )
    def test_invalid_knob_exits_two(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 2
        assert message in err
        assert out == ""

    def test_graph_mode_violation_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "ci", "pair", "--group", "Z4",
            "--set1", "1", "--set2", "1", "--mode", "graph",
        )
        assert code == 2
        assert "inverse-closed" in err

    def test_quotient_past_the_cap_exits_two_before_any_step(self, capsys, monkeypatch):
        # The trivial kernel: the quotient is Z48 itself, past the cap of 40.
        def step(*args):
            raise AssertionError("ran before the refusal")

        for name in ("neighbourhood_key", "automorphic_image_search", "find_isomorphism"):
            monkeypatch.setattr(cig.ci, name, step)
        code, out, err = run_cli(
            capsys, "quotient", "verify", "--group", "Z48",
            "--normal", "0", "--set1", "1", "--set2", "5",
        )
        assert code == 2
        assert out == ""
        assert "digraph order 48 exceeds search cap 40" in err

    def test_certificate_builds_each_lift_and_quotient_group_once(self, capsys, monkeypatch):
        # G/H once and one Cayley digraph per set: each quotient set's digraph
        # is built once, for the isomorphism check, and handed with its
        # automorphism group to `verify_lift_structure`, which reads the
        # lifted digraph's out-masks straight off G's table (in fiber order)
        # and builds no Cayley digraph of G.
        built, quotients = [], []
        cayley, quotient = cig.ci.cayley, FiniteGroup.quotient
        monkeypatch.setattr(
            cig.ci, "cayley", lambda g, s: built.append(g.order) or cayley(g, s)
        )
        monkeypatch.setattr(
            FiniteGroup, "quotient", lambda g, h: quotients.append(h) or quotient(g, h)
        )
        code, out, _ = run_cli(
            capsys, "quotient", "verify", "--group", "Z6",
            "--normal", "3", "--set1", "1", "--set2", "2",
        )
        assert code == 0 and "status: accepted" in out
        assert built == [3, 3]
        assert quotients == [frozenset({0, 3})]

    def test_non_normal_kernel_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "quotient", "verify", "--group", "S3",
            "--normal", "1", "--set1", "1", "--set2", "1",
        )
        assert code == 2
        assert "not normal" in err

    def test_missing_group_file_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "cayley", "--group", "file:/no/such/file.json", "--set", ""
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "obj",
        [
            pytest.param({"order": 2, "table": [["0", "1"], ["1", "0"]]}, id="string_entries"),
            pytest.param({"order": 2, "table": [[0, 1], [1, 0]], "labels": 5}, id="int_labels"),
            pytest.param({"order": 2, "table": 7}, id="int_table"),
            pytest.param({"order": 2, "table": [[0, 1], [1, 0.0]]}, id="float_entry"),
            pytest.param({"order": 2, "table": [[False, 1], [1, 0]]}, id="bool_entry"),
        ],
    )
    def test_malformed_group_file_exits_two(self, capsys, tmp_path, obj):
        path = tmp_path / "group.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "cayley", "--group", f"file:{path}", "--set", "")
        assert code == 2
        assert err.startswith("error:")
        assert out == ""


class TestStructuredOutput:
    def test_envelope_has_version_and_config(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "iso", "--group", "Z4",
            "--set1", "1", "--set2", "3",
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["tool"] == "cig"
        assert blob["version"] == __version__
        assert blob["config"]["command"] == "iso"
        assert blob["config"]["options"]["set1"] == [1]
        assert blob["result"]["isomorphic"] is True

    @pytest.mark.parametrize(
        "argv,expected",
        [
            ([], {"search_cap": 40, "aut_cap": 24}),
            (["--search-cap", "12"], {"search_cap": 12, "aut_cap": 24}),
            (["--aut-cap", "11"], {"search_cap": 40, "aut_cap": 11}),
            (["--search-cap", "12", "--aut-cap", "11"], {"search_cap": 12, "aut_cap": 11}),
        ],
    )
    def test_config_echoes_limits_in_effect(self, capsys, argv, expected):
        code, out, _ = run_cli(
            capsys, "--format", "json", *argv, "catalog", "list", "--max-order", "2"
        )
        assert code == 0
        config = json.loads(out)["config"]
        assert {key: config[key] for key in expected} == expected
        assert "threads" not in config and "closure_cap" not in config

    def test_byte_identical_reruns(self, capsys):
        argv = [
            "--format", "json", "quotient", "verify", "--group", "Z6",
            "--normal", "3", "--set1", "1", "--set2", "2",
        ]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_catalog_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "catalog", "list", "--max-order", "8"
        )
        blob = json.loads(out)
        assert {"spec": "Q8", "order": 8} in blob["result"]["groups"]
        assert len(blob["result"]["groups"]) == 14

    def test_cayley_emit_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "cayley", "--group", "Z3", "--set", "1", "--emit", "json"
        )
        assert code == 0
        assert json.loads(out) == {"order": 3, "arcs": [[0, 1], [1, 2], [2, 0]]}

    def test_cayley_emit_dot(self, capsys):
        code, out, _ = run_cli(
            capsys, "cayley", "--group", "Z3", "--set", "1", "--emit", "dot"
        )
        assert code == 0
        assert "digraph" in out and "0 -> 1;" in out

    def test_wreath_aut_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "wreath", "aut",
            "--g1-group", "Z2", "--g1-set", "1",
            "--g2-group", "Z2", "--g2-set", "1",
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["result"]["equal"] is False
        assert blob["result"]["dichotomy"]["predicted_order"] == 24

    def test_wreath_aut_looped_outer_factor(self, capsys):
        # Cay(Z4, {0,1,3}) is looped at every vertex, so the product is
        # Cay(Z4, {0,1,3}) wr K°_7, whatever the inner factor's arcs.
        code, out, _ = run_cli(
            capsys, "--format", "json", "wreath", "aut",
            "--g1-group", "Z4", "--g1-set", "0,1,3",
            "--g2-group", "Z7", "--g2-set", "3",
        )
        assert code == 0
        result = json.loads(out)["result"]
        order = 8 * factorial(7) ** 4
        assert (result["product_aut_order"], result["wreath_order"]) == (order, 19208)
        assert result["dichotomy"] == {
            "r": 1, "s": 7, "inner_kind": "complete", "predicted_order": order,
        }

    def test_empty_set_allowed(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "cayley", "--group", "Z4", "--set", ""
        )
        assert code == 0
        assert json.loads(out)["result"]["arc_count"] == 0


# One command per kind of `--format json` result: a ci_equivalent pair, a
# non-CI group witness, an accepted and a hypothesis_not_ci certificate (which
# carry `alpha` and `alpha_bar`), and a wreath blow-up.
JSON_SNAPSHOT_COMMANDS = (
    "ci pair --group Z6 --set1 1 --set2 5",
    "ci group --group Z8",
    "quotient verify --group Z6 --normal 3 --set1 1 --set2 2",
    "quotient verify --group Z16 --normal 8 --set1 1,2,5 --set2 1,5,6",
    "wreath aut --g1-group Z2 --g1-set 1 --g2-group Z2 --g2-set 1",
    "quotient verify --group Z4 --normal 2 --set1 0,1 --set2 0,1",
    "quotient verify --group Z8 --normal 4 --set1 1 --set2 1,2",
    "quotient verify --group Z4 --normal 0 --set1 1 --set2 3",
)
JSON_SNAPSHOT = Path(__file__).parent / "snapshots" / "cli_json.txt"


def json_transcript() -> str:
    """Each command line, its stdout and its exit code, in order."""
    parts = []
    for command in JSON_SNAPSHOT_COMMANDS:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["--format", "json", *command.split()])
        parts.append(f"$ cig --format json {command}\n{out.getvalue()}exit {code}\n")
    return "".join(parts)


class TestJsonBytes:
    def test_json_output_matches_snapshot_bytes(self):
        assert json_transcript().encode() == JSON_SNAPSHOT.read_bytes()


class TestConsoleScript:
    def test_module_entry_point(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "cig.cli", "catalog", "list", "--max-order", "4"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "Z2xZ2" in proc.stdout

    def test_environment_sets_no_cap(self, child_env):
        # Caps come only from the flags: a variable that names a cap, even an
        # invalid value, leaves the defaults in effect.
        proc = subprocess.run(
            [sys.executable, "-m", "cig.cli", "--format", "json", "iso",
             "--group", "Z6", "--set1", "1", "--set2", "5"],
            capture_output=True,
            text=True,
            env=child_env(CIG_SEARCH_CAP="3", CIG_AUT_CAP="0"),
        )
        assert proc.returncode == 0, proc.stderr
        config = json.loads(proc.stdout)["config"]
        assert (config["search_cap"], config["aut_cap"]) == (40, 24)
