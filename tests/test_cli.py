"""End-to-end tests for the command line interface."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import randposet
from randposet import threshold
from randposet.cli import _TABLE1, main
from randposet.correspondence import count_copies
from randposet.posets import catalog, vee
from randposet.ramsey import parse_dimacs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- antichains -------------------------------------------------------------------


def test_antichains_text_output(capsys):
    code, out, _ = run(capsys, "antichains", "chain:3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "4 antichains"
    assert lines[-1] == "{}"
    assert len(lines) == 5


def test_antichains_count_only_and_json(capsys):
    code, out, _ = run(capsys, "antichains", "boolean:2", "--count-only")
    assert code == 0
    assert out.strip() == "6 antichains"
    code, out, _ = run(capsys, "antichains", "boolean:2", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["count"] == 6
    assert len(record["antichains"]) == 6
    assert record["antichains"][-1] == []


def test_antichains_capacity_exit_code(capsys):
    code, _, err = run(capsys, "antichains", "antichain:24", "--cap", "100")
    assert code == 2
    assert "capacity" in err.lower()


def test_unknown_poset_is_a_usage_error(capsys):
    code, _, err = run(capsys, "antichains", "no-such-poset")
    assert code == 1
    assert "error" in err.lower()


def test_bad_subcommand_is_a_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


# -- cstar and classify ----------------------------------------------------------


def test_cstar_json_record(capsys):
    code, out, _ = run(capsys, "cstar", "diamond", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["value"] == pytest.approx(0.4476995514, abs=1e-6)
    assert record["class"] == "Balanced"
    assert record["converged"] is True
    assert record["lower"] <= record["value"] <= record["upper"]


def test_cstar_text_output(capsys):
    code, out, _ = run(capsys, "cstar", "chain:2")
    assert code == 0
    assert "value 0.5493" in out
    assert "class Uniform" in out
    assert "bracket [" in out


def test_cstar_default_tolerance_above_eight_elements(capsys):
    code, out, _ = run(capsys, "cstar", "chain:9", "--json")
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-6


def test_cstar_json_on_chains(capsys):
    # The converged flag must stay a plain bool that JSON can hold.
    for spec in ("chain:2", "chain:3", "chain:4"):
        code, out, _ = run(capsys, "cstar", spec, "--json")
        assert code == 0
        assert json.loads(out)["converged"] is True


def test_cstar_above_the_size_cap_exits_capacity(capsys):
    code, out, err = run(capsys, "cstar", "chain:15")
    assert code == 2
    assert out == ""
    assert err.startswith("capacity error: ") and err.count("\n") == 1


def test_cstar_out_of_memory_exits_capacity(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 512. MiB for an array with shape (8193, 8193)")

    monkeypatch.setattr(threshold, "c_star", exhausted)
    code, out, err = run(capsys, "cstar", "v")
    assert code == 2
    assert out == ""
    assert err == "capacity error: out of memory: Unable to allocate 512. MiB for an array with shape (8193, 8193)\n"


def test_cstar_crossed_bracket_exits_unconverged(capsys, monkeypatch):
    dual = threshold._dual_upper_bound
    monkeypatch.setattr(threshold, "_dual_upper_bound", lambda *a: dual(*a) - 1e-6)
    code, out, _ = run(capsys, "cstar", "v")
    assert code == 3
    assert "note: bracket crossed" in out
    assert "UNCONVERGED: bracket crossed" in out
    assert "bracket width -" not in out


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_cstar_stats_go_to_stderr_only(capsys, extra):
    code, plain, err = run(capsys, "cstar", "y'", *extra)
    assert code == 0 and err == ""
    code, out, err = run(capsys, "cstar", "y'", "--stats", *extra)
    assert code == 0
    assert out == plain
    stats = json.loads(err)
    assert stats["full_evaluations"] >= len(stats["polls"]) >= 1
    poll = stats["polls"][0]
    assert set(poll) == {
        "full_evaluations", "working_set", "misses", "polish", "lp_pivots", "lp_gap", "seconds",
        "bracket_width",
    }
    assert poll["lp_pivots"] >= 1 and abs(poll["lp_gap"]) <= 1e-12
    assert poll["polish"] in {"improved", "no gain", "failed"}
    assert set(poll["seconds"]) == {"ascent", "polish", "lp"}
    assert all(s >= 0 for s in poll["seconds"].values())


def test_table1_stats_name_each_row(capsys):
    code, plain, _ = run(capsys, "table1", "--rows", "C(2),V")
    code, out, err = run(capsys, "table1", "--rows", "C(2),V", "--stats")
    assert code == 0
    assert out == plain
    rows = json.loads(err)["rows"]
    assert [r["name"] for r in rows] == ["C(2)", "V"]
    # C(2) is certified at the uniform start without an ascent.
    assert rows[0]["stats"]["polls"] == [] and len(rows[1]["stats"]["polls"]) == 1


# sha256 of the text stdout of `table1` and of `cstar <spelling>` for each
# table1 row, so the byte-identical stdout rule is checked, not eyeballed.
CSTAR_STDOUT_SHA256 = {
    "table1": "e076a1942c744c30d4b95a0745e894582e8500b2307c2cbffa553d0210b28ecf",
    "chain:2": "8c6087361d426d49fbcd61cf2485b837d60e56807e3609d8c5f21511b0aa1871",
    "v": "85e92eb2281a4a0dcf987512f629f8ffdb5bbcc23d8fc9e479fb71edce5ea1b1",
    "layered:2,2": "3a4fa833b80d9d6acc6c59c78302c357507e64156ceeed91487a04ba46ae103c",
    "chain:3": "6e27433ab61e3e54de78ce9c81844a8174d637d73f20d0888402ce13fa9d33b3",
    "lambda'": "443dbc569383186c5400cd066e976130408a83daed591e813aeb862801eac8ab",
    "diamond": "eeabc90700c579c7ea82bb952d59dc7c98182d8cfa387cb7d5e7d5e093a51ac0",
    "y": "14664bc0a514c47c1b9c4ffa3f812348e7a7d74fc22411d49401dd7f2e2d0611",
    "y'": "dbc2571b9624041e08506274cc8508a8e70e67dafe5bb22e249ce95fd4bbfc6c",
    "t2": "b09050093ccbc49e0e9fb0390ee6a6bb96bdefde4609faedd4323e2bfb66ee30",
    "fish": "07fc4c47b334849a9632eb510a007c7192f561c4ec095cbf3bddccaecf8c1eda",
    "layered:2,1,2": "a2d71a9f6522a05b16dfc190e77c97b628df5e9b0b9224fc73a6e466e3e0b393",
    "layered:1,2,2": "26ce99debf9b53009c8f67ff36d3c2603a1c341ef28ba58442381bac2852a1c0",
    "chain:4": "d87c1c5c832ccc5f3b50cbb3e621111a4b35312fd41dadfb04e4f0fefb5e195c",
    "layered:1,1,2,1": "b71c1d1b87b6583c60baa2af95611017fdb25316a4b8871469186b6a49d40ed4",
    "layered:1,1,1,2": "249af6a2fb0ad8ddf17de35b2218d7912d9bb9d8fcdf32e3b0bf57c8eab4e60c",
    "y''": "a35ff12063af8b5eb58b27aadb7036f59ebd4b1c9b93847a1e91839890439f48",
    "dd": "4e2d23f19cb237279887d5bd3977c7171a9ac0f6a1b445082f7de72d3df2b0b6",
    "layered:2,3,2": "c0fac4101790e66cc728920411f3e86a6d032f202b63bfd6626984116e70f2ce",
    "boolean:3": "0851424fbf5510733dc9a22beae564d01be9d8cc99edb76705fb5af4fb1f8433",
    "layered:1,2,1,2,1": "65b9bfba28f706d9a2fca7254b168661f329e46d4b2a7003db17ba693aab4486",
}


@pytest.mark.parametrize("argv", [["table1"]] + [["cstar", row[1]] for row in _TABLE1], ids=" ".join)
def test_cstar_text_stdout_is_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CSTAR_STDOUT_SHA256[argv[-1]]


SCIPY_BLOCKED = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from randposet.cli import main
from randposet.posets import diamond
from randposet.threshold import bounded_upper_bound, star_threshold
assert main(["cstar", "diamond", "--json"]) == 0
assert main(["table1", "--rows", "V"]) == 0
star_threshold()
bounded_upper_bound(diamond())
"""


def test_commands_run_without_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(randposet.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert '"poset": "diamond"' in proc.stdout and proc.stdout.count("\nV ") == 1


def test_classify_text_and_json(capsys):
    code, out, _ = run(capsys, "classify", "chain:2")
    assert code == 0
    assert out.startswith("class Uniform")
    code, out, _ = run(capsys, "classify", "dd", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["class"] == "Balanced"
    assert record["details"]["balanced_x"] == pytest.approx(0.1329159960, abs=1e-8)


# -- counting ---------------------------------------------------------------------


def test_count_matches_library(capsys):
    code, out, _ = run(capsys, "count", "v", "--n", "3", "--mode", "injective")
    assert code == 0
    assert int(out.strip()) == count_copies(vee(), 3, mode="injective")
    code, out, _ = run(capsys, "count", "v", "--n", "3", "--mode", "weak", "--json")
    assert code == 0
    assert json.loads(out)["count"] == 5 ** 3


def test_count_rejects_negative_ground_set(capsys):
    code, out, err = run(capsys, "count", "chain:2", "--n", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_count_has_no_method_option(capsys):
    code, out, err = run(capsys, "count", "chain:2", "--n", "3", "--method", "scan")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# -- the results table -------------------------------------------------------------


def test_table1_selected_rows(capsys):
    code, out, _ = run(capsys, "table1", "--rows", "V,DD", "--json")
    assert code == 0
    record = json.loads(out)
    assert len(record["rows"]) == 2
    by_name = {row["name"]: row for row in record["rows"]}
    assert by_name["DD"]["flags"] == []
    assert by_name["V"]["flags"] == []
    assert by_name["DD"]["computed"]["value"] == pytest.approx(0.38166486, abs=1e-6)


@pytest.mark.parametrize(
    "rows, named", [("V,nope", "'nope'"), ("nope", "'nope'"), ("V,,C(2)", "''")]
)
def test_table1_unknown_row_is_a_usage_error(capsys, monkeypatch, rows, named):
    def no_rows(*args, **kwargs):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(threshold, "c_star", no_rows)
    code, out, err = run(capsys, "table1", "--rows", rows)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.rstrip().endswith(named)


def test_table1_known_open_row_is_flagged_but_passes(capsys):
    code, out, _ = run(capsys, "table1", "--rows", "P(3)", "--json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["flags"] == ["class-mismatch (known)"]
    assert row["note"]


@pytest.mark.parametrize(
    "argv",
    [
        ["cstar", "chain:3", "--tol", "nan"],
        ["cstar", "chain:3", "--tol", "-1"],
        ["table1", "--rows", "C(2)", "--tol", "nan"],
        ["table1", "--rows", "V", "--value-tol", "nan"],
        ["table1", "--rows", "V", "--value-tol", "-1"],
    ],
)
def test_bad_tolerance_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# -- ramsey commands ----------------------------------------------------------------


def test_ramsey_bounds_chain_pair(capsys):
    code, out, _ = run(capsys, "ramsey-bounds", "--p", "chain:2", "--q", "chain:2", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["exact"] == pytest.approx(0.4620981204, abs=1e-6)


def test_ramsey_bounds_family_argument(capsys):
    code, out, _ = run(capsys, "ramsey-bounds", "--p", "v,lambda", "--q", "v,lambda", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["lower"] == pytest.approx(0.4158883083, abs=1e-6)


def test_ramsey_bounds_host_takes_a_catalog_spelling(capsys):
    code, out, _ = run(capsys, "ramsey-bounds", "--p", "chain:2", "--q", "y", "--h-poset", "y''", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["lower_source"] == "user-supplied host"
    assert record["lower"] == threshold.c_star(catalog("y''")).value
    assert not any("arrow" in note for note in record["notes"])


def test_ramsey_bounds_reject_a_host_that_does_not_arrow(capsys):
    # The double diamond does not arrow (diamond, diamond), so its c*
    # (0.38166, above the tower's 0.32890) is no lower bound.
    code, out, _ = run(capsys, "ramsey-bounds", "--p", "diamond", "--q", "diamond", "--h-poset", "dd", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["lower"] is None and record["lower_source"] == ""
    assert record["exact"] is None
    assert any("does not arrow the pair" in note for note in record["notes"])


def test_arrows_command(capsys):
    code, out, _ = run(capsys, "arrows", "--host", "boolean:2", "--p", "chain:2", "--q", "chain:2")
    assert code == 0
    assert out.strip() == "true"
    code, out, _ = run(capsys, "arrows", "--host", "boolean:1", "--p", "chain:2", "--q", "chain:2", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["arrows"] is False
    assert sorted(set(record["witness"])) in ([1], [1, 2], [2])


def test_ramsey_number_command(capsys):
    code, out, _ = run(capsys, "ramsey-number", "--p", "chain:2", "--q", "chain:2")
    assert code == 0
    assert out.strip() == "2"
    code, out, _ = run(capsys, "ramsey-number", "--p", "chain:2", "--q", "chain:2", "--n-max", "1")
    assert code == 0
    assert "none" in out


# -- SAT plumbing --------------------------------------------------------------------


def test_sat_encode_stdout_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "sat-encode", "--host", "boolean:2", "--pattern", "chain:2")
    assert code == 0
    assert out.startswith("p cnf 4 ")
    path = tmp_path / "avoid.cnf"
    code, out, _ = run(capsys, "sat-encode", "--host", "boolean:2", "--pattern", "chain:2",
                       "--output", str(path))
    assert code == 0
    assert "wrote" in out
    cnf = parse_dimacs(path.read_text(encoding="utf-8"))
    assert cnf.num_vars == 4


# Golden DIMACS text: each copy's comment, then its all-negative and all-positive clause.
_ENCODE_B2_CHAIN2 = (
    "p cnf 4 10\n"
    "c copy 0,1\n"
    "-1 -2 0\n"
    "1 2 0\n"
    "c copy 0,2\n"
    "-1 -3 0\n"
    "1 3 0\n"
    "c copy 0,3\n"
    "-1 -4 0\n"
    "1 4 0\n"
    "c copy 1,3\n"
    "-2 -4 0\n"
    "2 4 0\n"
    "c copy 2,3\n"
    "-3 -4 0\n"
    "3 4 0\n"
)
_ENCODE_B3_EDGES = (
    "p cnf 8 24\n"
    "c copy 0,1\n"
    "-1 -2 0\n"
    "1 2 0\n"
    "c copy 0,2\n"
    "-1 -3 0\n"
    "1 3 0\n"
    "c copy 0,4\n"
    "-1 -5 0\n"
    "1 5 0\n"
    "c copy 1,3\n"
    "-2 -4 0\n"
    "2 4 0\n"
    "c copy 1,5\n"
    "-2 -6 0\n"
    "2 6 0\n"
    "c copy 2,3\n"
    "-3 -4 0\n"
    "3 4 0\n"
    "c copy 2,6\n"
    "-3 -7 0\n"
    "3 7 0\n"
    "c copy 3,7\n"
    "-4 -8 0\n"
    "4 8 0\n"
    "c copy 4,5\n"
    "-5 -6 0\n"
    "5 6 0\n"
    "c copy 4,6\n"
    "-5 -7 0\n"
    "5 7 0\n"
    "c copy 5,7\n"
    "-6 -8 0\n"
    "6 8 0\n"
    "c copy 6,7\n"
    "-7 -8 0\n"
    "7 8 0\n"
)


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["--host", "boolean:2", "--pattern", "chain:2"], _ENCODE_B2_CHAIN2),
        (["--host", "boolean:3", "--pattern", "boolean:1", "--mode", "subcube"], _ENCODE_B3_EDGES),
    ],
)
def test_sat_encode_golden_text(capsys, argv, golden):
    code, out, _ = run(capsys, "sat-encode", *argv)
    assert code == 0
    assert out == golden


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_sat_outputs_are_pinned(tmp_path, capsys):
    # Digests and solver counts recorded when the CNF was a list of clause tuples.
    code, b5b3, _ = run(capsys, "sat-encode", "--host", "boolean:5", "--pattern", "boolean:3")
    assert code == 0
    assert sha256(b5b3) == "612ff87aeca90581aee383bb586734eb7d1aa6a19cb86ecfb30db43a4692f809"
    code, out, _ = run(capsys, "sat-encode", "--host", "boolean:6", "--pattern", "layered:2,1,2")
    assert code == 0
    assert sha256(out) == "bf351a856613e0a5fb1a0ee6c0ddebaa02b30d921796ddd311700fc45330de41"
    # Recorded while the copy search still met every copy once per automorphism.
    code, out, _ = run(
        capsys, "sat-encode", "--host", "boolean:5", "--pattern", "boolean:3", "--mode", "all-induced"
    )
    assert code == 0
    assert sha256(out) == "d01b8f271bb7189cf148205f9ebed5dce543bfdc0716e75013f44d153f809cbc"
    path = tmp_path / "b5b3.cnf"
    path.write_text(b5b3, encoding="utf-8")
    code, out, err = run(capsys, "sat-solve", "--dimacs", str(path), "--json", "--stats")
    assert code == 0
    assert sha256(out) == "f294d8a2351273ef13541a66801ab9f051417490c6ea42bca7a3e2f6cabff1cf"
    assert json.loads(err)["solver"] == dict(decisions=16, conflicts=0, propagations=32, restarts=0, learnt=0)
    code, out, err = run(capsys, "sat-solve", "--host", "boolean:6", "--pattern", "layered:2,1,2", "--stats")
    assert code == 0 and out == "UNSAT\n"
    assert json.loads(err)["solver"] == dict(decisions=79, conflicts=72, propagations=283, restarts=0, learnt=71)


@pytest.mark.parametrize(
    "argv,stages",
    [
        (["sat-encode", "--host", "boolean:3", "--pattern", "chain:3"], {"copies", "cnf", "dimacs_write"}),
        (["sat-solve", "--host", "boolean:3", "--pattern", "chain:3", "--json"], {"copies", "cnf", "solve"}),
        (["sat-solve", "--dimacs", "{cnf}"], {"dimacs_parse", "solve"}),
    ],
)
def test_sat_stats_go_to_stderr_only(tmp_path, capsys, argv, stages):
    path = tmp_path / "b3c3.cnf"
    run(capsys, "sat-encode", "--host", "boolean:3", "--pattern", "chain:3", "--output", str(path))
    argv = [arg.format(cnf=path) for arg in argv]
    code, plain, err = run(capsys, *argv)
    assert code == 0 and err == ""
    code, out, err = run(capsys, *argv, "--stats")
    assert code == 0
    assert out == plain
    stats = json.loads(err)
    assert stats["num_vars"] == 8 and stats["num_clauses"] == 36
    assert set(stats["seconds"]) == stages and all(s >= 0 for s in stats["seconds"].values())
    if argv[0] == "sat-solve":
        assert set(stats["solver"]) == {"decisions", "conflicts", "propagations", "restarts", "learnt"}
    else:
        assert "solver" not in stats


def test_sat_encode_beyond_the_copy_guard_is_a_capacity_error(tmp_path, capsys):
    code, out, err = run(capsys, "sat-encode", "--host", "boolean:7", "--pattern", "boolean:3",
                         "--output", str(tmp_path / "p7.cnf"))
    assert code == 2
    assert "20^7" in err
    assert not (tmp_path / "p7.cnf").exists()


def test_sat_solve_from_dimacs(tmp_path, capsys):
    path = tmp_path / "avoid.cnf"
    run(capsys, "sat-encode", "--host", "boolean:2", "--pattern", "chain:2",
        "--output", str(path))
    capsys.readouterr()
    code, out, _ = run(capsys, "sat-solve", "--dimacs", str(path))
    assert code == 0
    assert out.strip().splitlines()[0] == "UNSAT"


def test_sat_solve_from_patterns(capsys):
    code, out, _ = run(capsys, "sat-solve", "--host", "boolean:3", "--pattern", "boolean:3",
                       "--mode", "all-induced", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "sat"
    assert len(record["colouring"]) == 8


def test_sat_encode_rejects_an_empty_host(tmp_path, capsys):
    empty = tmp_path / "empty.poset"
    empty.write_text("")
    code, out, err = run(capsys, "sat-encode", "--host", str(empty), "--pattern", "chain:2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sat_solve_rejects_non_integer_dimacs(tmp_path, capsys):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 2 1\n1 -2 0\n%\n0\n", encoding="utf-8")
    code, out, err = run(capsys, "sat-solve", "--dimacs", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "line 3" in err


def test_sat_solve_rejects_a_short_dimacs_body(tmp_path, capsys):
    path = tmp_path / "short.cnf"
    path.write_text("p cnf 2 3\n1 0\n", encoding="utf-8")
    code, out, err = run(capsys, "sat-solve", "--dimacs", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "3 clauses" in err and "holds 1" in err


@pytest.mark.parametrize(
    "text,expected",
    [
        ("p cnf 2 2\n1\n2 0\n-1 0\n", ["SAT", "colouring 2 1"]),
        ("p cnf 1 2\n1 0\n0\n", ["UNSAT"]),
        ("p cnf 2 2\n1 0 2 0\n", ["SAT", "colouring 1 1"]),
    ],
)
def test_sat_solve_reads_clauses_up_to_their_zero(tmp_path, capsys, text, expected):
    path = tmp_path / "spread.cnf"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "sat-solve", "--dimacs", str(path))
    assert code == 0
    assert out.splitlines() == expected


def test_sat_solve_zero_time_budget_is_unknown(capsys):
    code, out, _ = run(capsys, "sat-solve", "--host", "boolean:3", "--pattern", "boolean:3",
                       "--mode", "all-induced", "--time-budget", "0")
    assert code == 3
    assert out.strip() == "UNKNOWN"


@pytest.mark.parametrize(
    "argv",
    [
        ["sat-solve", "--host", "boolean:3", "--pattern", "chain:2", "--time-budget", "nan"],
        ["sat-solve", "--host", "boolean:3", "--pattern", "chain:2", "--time-budget", "-1"],
        ["simulate", "--pattern", "v", "--n", "16", "--c", "0", "--trials", "1",
         "--budget", "nan"],
        ["ramsey-number", "--p", "chain:2", "--q", "chain:2", "--n-max", "-1"],
        ["cstar", "chain:3", "--max-iter", "-5"],
    ],
)
def test_bad_budget_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sat_solve_requires_an_input(capsys):
    code, _, err = run(capsys, "sat-solve")
    assert code == 1
    assert "need either" in err


# -- simulation ------------------------------------------------------------------------


def test_simulate_csv_stdout(capsys):
    code, out, _ = run(capsys, "simulate", "--pattern", "chain:2", "--n", "8",
                       "--c", "0.1,1.5", "--trials", "3", "--seed", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c,trials,successes,p_hat"
    assert len(lines) == 3


def test_simulate_deterministic_outputs(tmp_path, capsys):
    argv = ["simulate", "--pattern", "v", "--n", "9", "--c-grid", "0.2:0.6:0.2",
            "--trials", "4", "--seed", "11", "--output"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + [str(p1)]) == 0
    assert main(argv + [str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text(encoding="utf-8").count("\n") == 4


def test_simulate_weight_sidecar(tmp_path, capsys):
    sidecar = tmp_path / "weights.json"
    code, out, _ = run(capsys, "simulate", "--pattern", "chain:2", "--n", "10",
                       "--c", "0.1", "--trials", "2", "--seed", "3",
                       "--record-weights", str(sidecar))
    assert code == 0
    records = json.loads(sidecar.read_text(encoding="utf-8"))
    assert records and all(abs(sum(r["weighting"]) - 1.0) < 1e-12 for r in records)


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_simulate_stats_go_to_stderr_only(tmp_path, capsys, extra):
    argv = ["simulate", "--pattern", "v", "--n", "10", "--c", "0.3,0.6", "--trials", "3", "--seed", "5"]
    code, plain, err = run(capsys, *argv, "--record-weights", str(tmp_path / "a.json"), *extra)
    assert code == 0 and err == ""
    code, out, err = run(capsys, *argv, "--record-weights", str(tmp_path / "b.json"), "--stats", *extra)
    assert code == 0
    assert out == plain
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    cells = json.loads(err)["cells"]
    assert [cell["c"] for cell in cells] == [0.3, 0.6]
    for cell in cells:
        assert set(cell) == {"c", "seconds", "words", "max_words"}
        assert cell["seconds"] >= 0 and 0 <= cell["max_words"] <= cell["words"] <= 3 * cell["max_words"]
    # At n = 10 a cell at c keeps about 2^10 e^(-10c) words a trial.
    assert cells[0]["words"] > cells[1]["words"] > 0


def test_simulate_grid_validation(capsys):
    code, _, err = run(capsys, "simulate", "--pattern", "chain:2", "--n", "8",
                       "--c-grid", "0.5:0.1:0.1")
    assert code == 1
    code, _, err = run(capsys, "simulate", "--pattern", "chain:2", "--n", "8")
    assert code == 1
    assert "need --c-grid or --c" in err


def test_simulate_json_output(capsys):
    code, out, _ = run(capsys, "simulate", "--pattern", "chain:2", "--n", "8",
                       "--c", "0.3", "--trials", "2", "--seed", "0", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["pattern"] == "chain:2"
    assert record["rows"][0]["trials"] == 2


@pytest.mark.parametrize(
    "grid",
    [
        ["--c", "-0.1"],
        ["--c", "nan"],
        ["--c", "abc"],
        ["--c", "0.3,x"],
        ["--c-grid", "0.1:abc:0.1"],
        ["--c-grid", "nan:1:0.1"],
    ],
)
def test_simulate_rejects_bad_exponents(capsys, grid):
    code, out, err = run(capsys, "simulate", "--pattern", "v", "--n", "8", "--trials", "2", *grid)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_simulate_rejects_negative_trials(capsys):
    code, out, err = run(capsys, "simulate", "--pattern", "v", "--n", "8", "--c", "0.3",
                         "--trials", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "trials" in err


# -- files the CLI cannot open ---------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["sat-solve", "--dimacs", "{tmp}/missing.cnf"],
        ["cstar", "{tmp}"],
        ["ramsey-bounds", "--p", "diamond", "--q", "diamond", "--h-poset", "{tmp}/missing"],
        ["simulate", "--pattern", "v", "--n", "6", "--c", "0.5", "--trials", "1",
         "--record-weights", "{tmp}/no-such-dir/weights.json"],
    ],
    ids=["missing-dimacs", "directory-poset", "missing-host", "unwritable-sidecar"],
)
def test_unopenable_file_is_one_error_line(tmp_path, capsys, argv):
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
