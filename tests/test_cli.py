import json
import os

import pytest

from cuspcount.cli import main

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "plane_cubic_tangency.oracle")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- argument plumbing ---------------------------------------------------------------


def test_bad_inc_syntax_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--family", "S", "--r", "2", "--d", "3", "--inc", "2x7"])
    assert exc.value.code == 2
    assert "CODIM:COUNT" in capsys.readouterr().err


def test_removed_rr2_flag_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--family", "RR2", "--r", "3", "--d1", "1", "--d2", "1",
              "--inc", "2:2", "--inc", "3:2", "--experimental-rr2-general-r"])
    assert exc.value.code == 2
    assert "--experimental-rr2-general-r" in capsys.readouterr().err


def test_removed_cache_flag_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--family", "R", "--r", "2", "--d", "4", "--inc", "2:11",
              "--cache", "gw.cache"])
    assert exc.value.code == 2
    assert "--cache" in capsys.readouterr().err


def test_hyperplanes_scale_the_count(capsys):
    code, out, _ = run_cli(capsys, "--family", "S", "--r", "2", "--d", "3",
                           "--inc", "2:7", "--hyperplanes", "2")
    # two hyperplane incidences multiply the plane cusp count 24 by d^2
    assert (code, out) == (0, "216\n")


def test_joint_k_reaches_the_join(capsys):
    code, out, _ = run_cli(capsys, "--family", "NR", "--r", "2", "--d1", "3",
                           "--d2", "1", "--inc", "2:9", "--joint-k", "1")
    assert (code, out) == (0, "1512\n")


# -- count mode ----------------------------------------------------------------------


def test_plane_cusp_count(capsys):
    code, out, _ = run_cli(capsys, "--family", "S", "--r", "2", "--d", "3",
                           "--inc", "2:7")
    assert code == 0
    assert out == "24\n"


def test_json_embeds_canonical_key(capsys):
    code, out, _ = run_cli(capsys, "--family", "S", "--r", "2", "--d", "3",
                           "--inc", "2:7", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"query": "S;r=2;d=3;t=0;h=0;c2=7;s=0",
                               "value": 24}


def test_rational_and_nodal_counts(capsys):
    code, out, _ = run_cli(capsys, "--family", "R", "--r", "2", "--d", "4",
                           "--inc", "2:11")
    assert (code, out) == (0, "620\n")
    code, out, _ = run_cli(capsys, "--family", "N", "--r", "2", "--d", "3",
                           "--inc", "2:8")
    assert (code, out) == (0, "24\n")


def test_split_families(capsys):
    code, out, _ = run_cli(capsys, "--family", "NR", "--r", "2", "--d1", "3",
                           "--d2", "1", "--inc", "2:10", "--special-codim", "0")
    # only the 8+2 distribution survives: C(10,8) * 72
    assert (code, out) == (0, "3240\n")
    code, out, _ = run_cli(capsys, "--family", "RR2", "--r", "2", "--d1", "1",
                           "--d2", "2", "--inc", "2:7", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].endswith(",42")
    assert out.splitlines()[1].startswith("RR2-split;r=2;d1=1;d2=2;")


@pytest.mark.parametrize("argv, fragment", [
    (["--family", "R", "--r", "2", "--d", "3", "--inc", "2:8",
      "--tangent", "1"], "--tangent"),
    (["--family", "NR", "--r", "2", "--d1", "1", "--d2", "2",
      "--inc", "2:7", "--joint-l", "1"], "--joint-l"),
    (["--family", "S", "--r", "2", "--d1", "1", "--d2", "2"], "--d"),
    (["--family", "N", "--r", "2", "--d", "3", "--inc", "2:8",
      "--table"], "--table"),
    # 2:-1 and 2:8 would sum to the valid 2:7
    (["--family", "S", "--r", "2", "--d", "3", "--inc", "2:-1",
      "--inc", "2:8"], "--inc 2:-1"),
    (["--family", "N", "--r", "2", "--d", "-1", "--inc", "2:1"], "degree"),
    (["--family", "NR", "--r", "2", "--d1", "0", "--d2", "3", "--inc", "2:8"],
     "degree"),
    (["--family", "RR2", "--r", "2", "--d1", "2", "--d2", "-1",
      "--inc", "2:2"], "degree"),
    (["--family", "R", "--r", "3", "--d", "0", "--hyperplanes", "3"], "degree"),
    (["--family", "S", "--r", "2", "--d", "0", "--table"], "degree"),
    (["--family", "N", "--r", "1", "--d", "2", "--inc", "1:1"],
     "ambient dimension"),
    # the grid sets its own conditions; count mode has no --points
    (["--family", "S", "--r", "2", "--d", "3", "--table", "--inc", "2:5"],
     "--inc does not apply to --table"),
    (["--family", "S", "--r", "2", "--d", "3", "--table", "--tangent", "1"],
     "--tangent does not apply to --table"),
    (["--family", "S", "--r", "2", "--d", "3", "--table", "--hyperplanes", "1"],
     "--hyperplanes does not apply to --table"),
    (["--family", "S", "--r", "2", "--d", "3", "--table",
      "--special-codim", "1"], "--special-codim does not apply to --table"),
    (["--family", "S", "--r", "2", "--d", "3", "--table", "--joint-k", "1"],
     "--joint-k does not apply to --table"),
    (["--family", "S", "--r", "2", "--d", "3", "--inc", "2:7", "--points", "3"],
     "--points"),
    (["--family", "NR", "--r", "2", "--d1", "3", "--d2", "1", "--inc", "2:9",
      "--joint-k", "-1"], "negative --joint-k"),
    (["--family", "RR2", "--r", "2", "--d1", "1", "--d2", "2", "--inc", "2:7",
      "--joint-l", "-1"], "negative --joint-l"),
    (["--family", "R", "--r", "2", "--d", "1", "--inc", "3:1"],
     "insertion codimension 3 outside 0..2"),
    (["--family", "S", "--r", "2", "--d", "3", "--inc", "2:4", "--inc", "5:1"],
     "incidence codimension 5 exceeds the ambient dimension"),
    (["--family", "N", "--r", "2", "--d", "3", "--inc", "2:4", "--inc", "5:1"],
     "incidence codimension 5 exceeds the ambient dimension"),
    (["--family", "N", "--r", "2", "--d", "3", "--inc", "2:6", "--inc", "3:1"],
     "incidence codimension 3 exceeds the ambient dimension"),
    (["--family", "NR", "--r", "2", "--d1", "2", "--d2", "1", "--inc", "2:4",
      "--inc", "5:1"], "incidence codimension 5 exceeds the ambient dimension"),
    (["--family", "RR2", "--r", "2", "--d1", "1", "--d2", "2", "--inc", "2:6",
      "--inc", "3:1"], "incidence codimension 3 exceeds the ambient dimension"),
])
def test_flag_validation(capsys, argv, fragment):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert fragment in err


# each mode: its degree flags, the rest of a valid invocation, and the
# optional flags it takes (README's "Command line" table)
MODES = {
    "S": (["--d", "3"], ["--family", "S", "--r", "2", "--inc", "2:7"],
          {"--d", "--tangent", "--inc", "--hyperplanes", "--special-codim"}),
    "N": (["--d", "3"], ["--family", "N", "--r", "2", "--inc", "2:8"],
          {"--d", "--tangent", "--inc", "--hyperplanes", "--special-codim"}),
    "R": (["--d", "4"], ["--family", "R", "--r", "2", "--inc", "2:11"],
          {"--d", "--inc", "--hyperplanes"}),
    "NR": (["--d1", "3", "--d2", "1"], ["--family", "NR", "--r", "2", "--inc", "2:10"],
           {"--d1", "--d2", "--tangent", "--inc", "--hyperplanes",
            "--special-codim", "--joint-k"}),
    "RR2": (["--d1", "1", "--d2", "2"], ["--family", "RR2", "--r", "2", "--inc", "2:7"],
            {"--d1", "--d2", "--tangent", "--inc", "--hyperplanes", "--joint-k",
             "--joint-l"}),
    "table": (["--d", "3"], ["--family", "S", "--r", "2", "--table"],
              {"--d", "--points"}),
}
# every optional flag, with a value it parses
FLAG_VALUES = {"--d": "3", "--d1": "1", "--d2": "2", "--tangent": "0",
               "--inc": "2:1", "--hyperplanes": "1", "--special-codim": "0",
               "--joint-k": "0", "--joint-l": "0", "--points": "0"}


@pytest.mark.parametrize("flag", list(FLAG_VALUES))
@pytest.mark.parametrize("mode", list(MODES))
def test_mode_flag_table(capsys, mode, flag):
    degrees, argv, takes = MODES[mode]
    code, out, err = run_cli(capsys, *degrees, *argv, flag, FLAG_VALUES[flag])
    if flag in takes:
        assert "does not apply" not in err
    else:
        assert (code, out) == (2, "")
        assert err.startswith("error: %s does not apply to " % flag)


@pytest.mark.parametrize("mode", list(MODES))
def test_mode_requires_its_degrees(capsys, mode):
    degrees, argv, _ = MODES[mode]
    assert run_cli(capsys, *degrees, *argv)[0] == 0
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: %s is required for " % degrees[0])


def test_repeated_inc_counts_add_up(capsys):
    code, out, _ = run_cli(capsys, "--family", "S", "--r", "2", "--d", "3",
                           "--inc", "2:3", "--inc", "2:4")
    assert (code, out) == (0, "24\n")


# -- oracle-backed queries -------------------------------------------------------------


TANGENT_ARGS = ("--family", "S", "--r", "2", "--d", "3", "--tangent", "1",
                "--inc", "2:6", "--special-codim", "0")


def test_missing_oracle_lists_keys(capsys):
    code, out, err = run_cli(capsys, *TANGENT_ARGS)
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert lines[0] == "missing stored counts for 44 key(s):"
    assert len(lines) == 45
    assert all(line.startswith("  ") for line in lines[1:])


def test_double_join_outside_plane_lists_keys(capsys):
    code, out, err = run_cli(capsys, "--family", "RR2", "--r", "3", "--d1", "1",
                             "--d2", "1", "--inc", "2:2", "--inc", "3:2")
    assert (code, out) == (3, "")
    assert ("  RR2;r=3;d1=1;d2=1;G1=[t=0;h=0;c2=1;c3=1;s=none];"
            "G2=[t=0;h=0;c2=1;c3=1;s=none];k=0;l=0") in err.splitlines()


def test_fixture_satisfies_query(capsys):
    code, out, _ = run_cli(capsys, *TANGENT_ARGS, "--oracle", FIXTURE)
    assert (code, out) == (0, "60\n")


def test_inconsistent_oracle_exits_4(tmp_path, capsys):
    text = open(FIXTURE).read().replace(" = 72 ", " = 73 ")
    poisoned = tmp_path / "poisoned.oracle"
    poisoned.write_text(text)
    code, _, err = run_cli(capsys, *TANGENT_ARGS, "--oracle", str(poisoned))
    assert code == 4
    assert err.startswith("consistency failure:")


# -- table mode ----------------------------------------------------------------------


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "--family", "S", "--r", "2", "--d", "3",
                           "--table", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,C,C_l,C_p"
    assert lines[1] == "0,24,12,2"
    assert lines[2].startswith("1,needs-oracle")


def test_table_points(capsys):
    code, out, _ = run_cli(capsys, "--family", "S", "--r", "2", "--d", "4",
                           "--table", "--points", "1", "--format", "csv")
    assert code == 0
    assert "0,2304,864,102" in out.splitlines()


# -- file errors ----------------------------------------------------------------------


def test_missing_oracle_file_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, *TANGENT_ARGS,
                             "--oracle", str(tmp_path / "absent.oracle"))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "absent.oracle" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, payload", [
    ("latin1.oracle", b"\xff\n"),
])
def test_unreadable_oracle_file_exits_2(tmp_path, capsys, name, payload):
    path = tmp_path / name
    path.write_bytes(payload)
    code, out, err = run_cli(capsys, *TANGENT_ARGS, "--oracle", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: %s: " % path)
    assert "Traceback" not in err




JSON_RECORD = {"family": "N", "r": 3, "degrees": 2,
               "constraint": "t=1;h=0;c2=5;s=0", "joint": None, "value": 42}


@pytest.mark.parametrize("indent", [None, 2], ids=["one_line", "pretty"])
def test_json_oracle_file_exits_2(tmp_path, capsys, indent):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps([JSON_RECORD], indent=indent))
    code, out, err = run_cli(capsys, *TANGENT_ARGS, "--oracle", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: %s:1: " % path)
    assert "'KEY = VALUE' text lines" in err
    assert "Traceback" not in err


def test_none_count_in_stored_key_exits_2(tmp_path, capsys):
    path = tmp_path / "counts.oracle"
    path.write_text("N;r=3;d=2;t=none;h=0;c2=5;s=0 = 7\n")
    code, out, err = run_cli(capsys, "--family", "S", "--r", "2", "--d", "3",
                             "--inc", "2:7", "--oracle", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: %s:1: " % path)
    assert "Traceback" not in err
