import copy
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tropehrhart
from tropehrhart.cli import build_parser, main, parse_int
from tropehrhart.errors import ValidationError

from conftest import FANO_DIAGRAM, FANO_LINES


P2_FAN = {"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[1, 2], [2, 3], [1, 3]]}
# a rank-zero bundle: the matroid's only basis is empty, both elements loops
RANK_ZERO = {"fan": P2_FAN, "matroid": {"m": 2, "bases": [[]]},
             "diagram": [[0, 0], [1, 1], [0, 0]]}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    bases = [
        sorted(b)
        for b in itertools.combinations(range(1, 8), 3)
        if set(b) not in FANO_LINES
    ]
    fano = {
        "fan": {"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[1, 2], [2, 3], [1, 3]]},
        "matroid": {"m": 7, "bases": bases},
        "diagram": [list(row) for row in FANO_DIAGRAM],
    }
    u23_bundle = {
        "fan": {"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[1, 2], [2, 3], [1, 3]]},
        "matroid": {"m": 3, "bases": [[1, 2], [1, 3], [2, 3]]},
        "diagram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    }
    bad = dict(u23_bundle, diagram=[[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    # twisted down by one: every parliament polytope is empty
    no_sections = dict(u23_bundle, diagram=[[0, -1, -1], [-1, 0, -1], [-1, -1, 0]])
    # one parliament reaches 10^6 along the first axis
    wide = dict(u23_bundle, diagram=[[10**6, 0, 0], [0, 1, 0], [0, 0, 1]])
    # O(1) on P^5: beyond the dimension cap of vertex enumeration
    p5_rays = [[int(i == j) for j in range(5)] for i in range(5)] + [[-1] * 5]
    p5 = {"fan": {"rays": p5_rays,
                  "cones": [list(c) for c in itertools.combinations(range(1, 7), 5)]},
          "matroid": {"m": 1, "bases": [[1]]}, "diagram": [[1]] + [[0]] * 5}
    # a line bundle with no sections whose characters span 2001 x 2001
    far_empty = {"fan": P2_FAN, "matroid": {"m": 1, "bases": [[1]]},
                 "diagram": [[2000], [0], [-4000]]}
    # the second ray has three coordinates in a 2-d fan
    ragged_fan = dict(u23_bundle, fan={"rays": [[1, 0], [0, 1, 0], [-1, -1]],
                                       "cones": [[1, 2], [2, 3], [1, 3]]})
    paths = {}
    for name, data in [
        ("fano", fano),
        ("u23_bundle", u23_bundle),
        ("bad", bad),
        ("no_sections", no_sections),
        ("ragged_fan", ragged_fan),
        ("wide", wide),
        ("p5", p5),
        ("far_empty", far_empty),
        ("rank_zero", RANK_ZERO),
        ("u23_matroid", {"m": 3, "bases": [[1, 2], [1, 3], [2, 3]]}),
        ("chain", {"terms": [{"coeff": 2, "vertices": [[0, 0], [1, 0], ["1/1", "2/2"]]}]}),
        ("mixed_chain", {"terms": [{"coeff": 1, "vertices": [[0, 0], [1, 0]]},
                                   {"coeff": 1, "vertices": [[0, 0, 0]]}]}),
        ("ragged_chain", {"terms": [{"coeff": 1,
                                     "vertices": [[0, 0], [2, 0, 5], [0, 2]]}]}),
    ]:
        path = root / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_chi_total(files, capsys):
    code, out = run(capsys, "chi", "--bundle", files["fano"])
    assert code == 0
    assert json.loads(out)["chi_total"] == 27


def test_chi_at_a_character_reads_chi_off_the_codimension_totals(
    files, capsys, monkeypatch
):
    # one section-kernel call per codimension and none for chi_u
    def no_chi_u(self, u):
        raise AssertionError("euler_char_u called")

    monkeypatch.setattr(tropehrhart.tropvb.TropicalVectorBundle, "euler_char_u", no_chi_u)
    code, out = run(capsys, "chi", "--bundle", files["fano"], "--u", "-1,0")
    assert code == 0
    assert out.strip() == '{"chi_u": 2, "h0_by_codim": [7, 8, 3], "u": [-1, 0]}'


def test_chi_table(files, capsys):
    code, out = run(capsys, "chi", "--bundle", files["fano"], "--u", "0,0", "--table")
    assert code == 0
    assert "chi = 9 - 9 + 3 = 3" in out


def test_h0(files, capsys):
    code, out = run(capsys, "h0", "--bundle", files["fano"])
    assert code == 0
    assert json.loads(out)["h0_total"] == 27
    code, out = run(capsys, "h0", "--bundle", files["fano"], "--u", "1,1")
    assert json.loads(out)["h0_u"] == 1


def test_h0_without_global_sections(files, capsys):
    code, out = run(capsys, "h0", "--bundle", files["no_sections"])
    assert code == 0
    assert json.loads(out) == {"h0_total": 0, "nonzero": []}


def test_h0_answers_wherever_chi_does(files, capsys):
    # h0 scans the chi box under the same margin rule: on P^5 both answer,
    # and a box above the point cap refuses both, sections or none
    code, out = run(capsys, "h0", "--bundle", files["p5"])
    assert code == 0
    assert json.loads(out) == {"h0_total": 6, "nonzero": [
        {"h0": 1, "u": u} for u in ([0] * 5, [1, -1, 0, 0, 0], [1, 0, -1, 0, 0],
                                    [1, 0, 0, -1, 0], [1, 0, 0, 0, -1], [1] + [0] * 4)
    ]}
    code, out = run(capsys, "chi", "--bundle", files["p5"])
    assert (code, json.loads(out)["chi_total"]) == (0, 6)
    refused = {"error": {"message": "box has 4012009 points, above the cap of 1048576",
                         "type": "BoxTooLargeError"}}
    for command in ("h0", "chi"):
        code, out = run(capsys, command, "--bundle", files["far_empty"])
        assert (code, json.loads(out)) == (2, refused)


def test_h0_runs_no_double_description(files, capsys, monkeypatch):
    from tropehrhart import chains, lattice, tropvb

    def refuse(*args, **kwargs):
        raise AssertionError("double description")

    assert not hasattr(tropvb, "vertex_enumeration")
    monkeypatch.setattr(lattice, "vertex_enumeration", refuse)
    monkeypatch.setattr(chains, "vertex_enumeration", refuse)
    monkeypatch.setattr(lattice.HPolyhedron, "generators", refuse)
    code, out = run(capsys, "h0", "--bundle", files["fano"])
    report = json.loads(out)
    assert (code, report["h0_total"], len(report["nonzero"])) == (0, 27, 19)
    code, out = run(capsys, "h0", "--bundle", files["p5"])
    assert (code, json.loads(out)["h0_total"]) == (0, 6)


def test_validate_good(files, capsys):
    code, out = run(capsys, "validate", "--bundle", files["u23_bundle"])
    assert code == 0
    report = json.loads(out)
    assert report["valid"] and report["rank"] == 2
    assert report["adapted_bases"]["1,2"] == [1, 2]


def test_validate_bad_row(files, capsys):
    code, out = run(capsys, "validate", "--bundle", files["bad"])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "RowNotInBergmanError"
    assert err["row"] == 1
    assert err["level_set"] == [1, 2]


def test_cone_errors_name_the_file_ray_numbers(tmp_path, capsys):
    # the star pentagon fan covers the plane twice; file cones [1, 3] and
    # [2, 4] are the first pair that overlaps
    rays = [[1, 0], [1, 3], [-3, 1], [-3, -2], [1, -3]]
    star = {"fan": {"rays": rays, "cones": [[i, (i + 1) % 5 + 1] for i in range(1, 6)]},
            "matroid": {"m": 1, "bases": [[1]]}, "diagram": [[0]] * 5}
    # two flags demanding disjoint triples as adapted bases on cone [1, 2]
    apart = {"fan": P2_FAN,
             "matroid": {"m": 4, "bases": [list(b) for b in itertools.combinations(range(1, 5), 3)]},
             "diagram": [[2, 1, 0, 0], [0, 0, 2, 1], [0, 0, 0, 0]]}
    errors = []
    for name, data in (("star", star), ("apart", apart)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        code, out = run(capsys, "validate", "--bundle", str(path))
        assert code == 2
        errors.append(json.loads(out)["error"])
    assert errors[0] == {"type": "ValidationError",
                         "message": "cones [1, 3] and [2, 4] do not meet in a face"}
    assert errors[1] == {"type": "NoCommonApartmentError", "cone": [1, 2],
                         "message": "rows of cone with rays [1, 2] lie in no common apartment"}


def test_missing_file(capsys):
    code, out = run(capsys, "validate", "--bundle", "/nonexistent.json")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValidationError"


def test_malformed_inputs_exit_2(tmp_path, capsys):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    code, out = run(capsys, "validate", "--bundle", str(bad_json))
    assert code == 2 and "malformed JSON" in json.loads(out)["error"]["message"]

    bad_number = tmp_path / "badnum.json"
    bad_number.write_text(json.dumps({
        "fan": {"rays": [[1, 0], ["x", 1], [-1, -1]],
                "cones": [[1, 2], [2, 3], [1, 3]]},
        "matroid": {"m": 3, "bases": [[1, 2], [1, 3], [2, 3]]},
        "diagram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    }))
    code, out = run(capsys, "validate", "--bundle", str(bad_number))
    assert code == 2

    code, out = run(capsys, "alpha-eval", "--chain", str(bad_json))
    assert code == 2


# every bundle here is 2-d and the chain file holds 2-d vertices; the mixed
# chain has a 2-d and a 3-d piece
@pytest.mark.parametrize("argv", [
    ["chi", "--bundle", "u23_bundle", "--u", "1"],
    ["chi", "--bundle", "u23_bundle", "--u", "1,0,5"],
    ["h0", "--bundle", "u23_bundle", "--u", "0"],
    ["alpha-eval", "--bundle", "u23_bundle", "--u", "0,0,0,0"],
    ["alpha-eval", "--chain", "chain", "--u", "0"],
    ["chi", "--bundle", "u23_bundle", "--u", "a,b"],
    ["chi", "--bundle", "u23_bundle", "--u", "1.5,0"],
    ["chi", "--bundle", "u23_bundle", "--box", "0,0"],
    ["chi", "--bundle", "u23_bundle", "--box", "0:3"],
    ["chi", "--bundle", "u23_bundle", "--box=-3,-3:3,x"],
    ["alpha-eval", "--bundle", "u23_bundle", "--box=-3,-3,-3:3,3,3"],
    ["alpha-eval", "--chain", "mixed_chain", "--u", "0,0"],
    ["alpha-eval", "--chain", "ragged_chain", "--u", "1,0"],
    # boxes that miss the support of chi: each printed a total of 0
    ["chi", "--bundle", "u23_bundle", "--box=3,3:-3,-3"],
    ["chi", "--bundle", "u23_bundle", "--box=40,40:50,50"],
    ["alpha-eval", "--bundle", "u23_bundle", "--box=40,40:50,50"],
    ["chi", "--bundle", "u23_bundle", "--box=-2,-2:2,1"],
    ["alpha-eval", "--u", "0,0"],
    ["resolve", "--bundle", "u23_bundle", "--f", "0,x,0"],
    *([cmd, "--bundle", "ragged_fan"]
      for cmd in ("validate", "chi", "h0", "alpha-eval", "hrr", "resolve")),
], ids=lambda argv: " ".join(argv))
def test_malformed_or_wrong_length_arguments_exit_2(files, capsys, argv):
    argv = [files.get(a, a) for a in argv]
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValidationError"


def test_box_above_point_cap_exits_at_once(files, capsys):
    start = time.monotonic()
    code, out = run(capsys, "chi", "--bundle", files["u23_bundle"],
                    "--box=-1000,-1000:1000,1000")
    assert time.monotonic() - start < 5
    assert code == 2
    assert json.loads(out)["error"]["type"] == "BoxTooLargeError"


def test_h0_box_above_point_cap_exits_at_once(files, capsys):
    # the h0 box spans the characters: about 10^12 points here
    start = time.monotonic()
    code, out = run(capsys, "h0", "--bundle", files["wide"])
    assert time.monotonic() - start < 5
    assert code == 2
    assert json.loads(out)["error"]["type"] == "BoxTooLargeError"


def test_chi_on_a_million_point_box_is_fast(files, capsys):
    # 1001^2 points; the per-point loop over euler_char_u took about 30 s
    start = time.monotonic()
    code, out = run(capsys, "chi", "--bundle", files["u23_bundle"],
                    "--box=-500,-500:500,500")
    assert time.monotonic() - start < 10
    assert code == 0
    assert out == '{"box": [[-500, -500], [500, 500]], "chi_total": 8}\n'


@pytest.mark.parametrize("value, expected", [
    (7, 7), (-(2**70), -(2**70)), ("12", 12), ("-6/2", -3),
    (True, ValidationError), (False, ValidationError), ("1/2", ValidationError),
    (1.0, ValidationError), ("x", ValidationError), (None, ValidationError),
])
def test_parse_int(value, expected):
    if expected is ValidationError:
        with pytest.raises(ValidationError):
            parse_int(value)
    else:
        assert parse_int(value) == expected
        assert type(parse_int(value)) is int


def test_box_containing_the_chi_box_is_accepted(files, capsys):
    code, out = run(capsys, "alpha-eval", "--bundle", files["u23_bundle"],
                    "--box=-3,-2:2,4")
    assert code == 0
    assert out == '{"alpha_total": 8, "box": [[-3, -2], [2, 4]]}\n'


# options a command cannot use together: a report at one character sums no
# box, and a chain file has no box check and is no bundle.  The Fano box
# -4,-3:3,3 contains the computed chi box, 0,0:1,1 does not
@pytest.mark.parametrize("argv, pair", [
    (["chi", "--bundle", "fano", "--u", "0,0", "--box=0,0:1,1"], "--u and --box"),
    (["chi", "--bundle", "fano", "--u", "0,0", "--box=-4,-3:3,3"], "--u and --box"),
    (["alpha-eval", "--bundle", "fano", "--u", "0,0", "--box=0,0:1,1"],
     "--u and --box"),
    (["alpha-eval", "--bundle", "fano", "--u", "0,0", "--box=-4,-3:3,3"],
     "--u and --box"),
    (["alpha-eval", "--chain", "chain", "--u", "0,0", "--box=-4,-3:3,3"],
     "--chain and --box"),
    (["alpha-eval", "--chain", "chain", "--box=-4,-3:3,3"], "--chain and --box"),
    (["alpha-eval", "--chain", "chain", "--bundle", "fano", "--u", "0,0"],
     "--chain and --bundle"),
    (["alpha-eval", "--chain", "chain", "--bundle", "fano", "--box=-4,-3:3,3"],
     "--chain and --bundle"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_options_a_command_cannot_use_together_exit_2(files, capsys, argv, pair):
    want = {"error": {"type": "ValidationError",
                      "message": f"{pair} cannot be given together"}}
    code, out = run(capsys, *[files.get(a, a) for a in argv])
    assert (code, json.loads(out)) == (2, want)
    # refused before any file is loaded: missing files give the same error
    code, out = run(capsys, *[a + ".missing" if a in files else a for a in argv])
    assert (code, json.loads(out)) == (2, want)


# a vector that starts with a minus sign, given after a space, is read as
# the same value as after `=`
@pytest.mark.parametrize("argv", [
    ["chi", "--bundle", "fano", "--u", "-1,0"],
    ["h0", "--bundle", "fano", "--u", "-1,-1"],
    ["alpha-eval", "--bundle", "fano", "--u", "-1,0"],
    ["alpha-eval", "--chain", "chain", "--u", "-1,0"],
    ["resolve", "--bundle", "u23_bundle", "--f", "-1,0,0"],
    ["chi", "--bundle", "fano", "--box", "-4,-3:3,3"],
    ["alpha-eval", "--bundle", "fano", "--box", "-4,-3:3,3"],
], ids=lambda argv: " ".join(argv))
def test_negative_vector_after_a_space_reads_as_after_equals(files, capsys, argv):
    argv = [files.get(a, a) for a in argv]
    code, out = run(capsys, *argv)
    assert code == 0
    assert "error" not in json.loads(out)
    assert run(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}") == (code, out)


# the README examples, byte for byte: reports stay identical across refactors
GOLDEN = [
    ("chi --bundle fano",
     '{"box": [[-3, -3], [3, 3]], "chi_total": 27}'),
    ("alpha-eval --bundle fano",
     '{"alpha_total": 27, "box": [[-3, -3], [3, 3]]}'),
    ("alpha-eval --bundle fano --u 0,0",
     '{"alpha_u": 3, "chi_u": 3, "equal": true, "u": [0, 0]}'),
    ("chi --bundle fano --u 0,0",
     '{"chi_u": 3, "h0_by_codim": [9, 9, 3], "u": [0, 0]}'),
    ("chi --bundle u23_bundle",
     '{"box": [[-2, -2], [2, 2]], "chi_total": 8}'),
    ("alpha-eval --bundle u23_bundle",
     '{"alpha_total": 8, "box": [[-2, -2], [2, 2]]}'),
]


@pytest.mark.parametrize("argv, stdout", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_golden_stdout(files, capsys, argv, stdout):
    code, out = run(capsys, *[files.get(a, a) for a in argv.split()])
    assert code == 0
    assert out == stdout + "\n"


def test_alpha_eval_bundle(files, capsys):
    code, out = run(capsys, "alpha-eval", "--bundle", files["fano"], "--u", "0,0")
    report = json.loads(out)
    assert report == {"alpha_u": 3, "chi_u": 3, "equal": True, "u": [0, 0]}
    code, out = run(capsys, "alpha-eval", "--bundle", files["fano"])
    assert json.loads(out)["alpha_total"] == 27


def test_chain_file_above_dimension_cap_exits_2(tmp_path, capsys):
    # a 5-d simplex: refused before any hull is computed, never evaluated
    simplex = [[0] * 5] + [[int(i == j) for j in range(5)] for i in range(5)]
    path = tmp_path / "simplex5.json"
    path.write_text(json.dumps({"terms": [{"coeff": 1, "vertices": simplex}]}))
    code, out = run(capsys, "alpha-eval", "--chain", str(path), "--u", "0,0,0,0,0")
    assert code == 2
    report = json.loads(out)
    assert "value" not in report
    assert report["error"]["type"] == "UnsupportedDimensionError"


def test_zero_coordinate_chain_file_exits_2_before_any_hull(tmp_path, capsys, monkeypatch):
    # no --u could address a 0-dimensional chain, so the file is refused
    def no_hull(*args):
        raise AssertionError("hull computed")

    monkeypatch.setattr("tropehrhart.lattice._hull_data", no_hull)
    path = tmp_path / "empty_vertices.json"
    path.write_text(json.dumps({"terms": [{"coeff": 1, "vertices": [[], []]}]}))
    for u in ("0,0", "0"):
        code, out = run(capsys, "alpha-eval", "--chain", str(path), "--u", u)
        assert code == 2
        assert json.loads(out) == {"error": {
            "type": "ValidationError",
            "message": "chain piece vertices need at least one coordinate",
        }}


def test_chain_file_without_terms_exits_2(tmp_path, capsys):
    # the empty chain fixes no ambient dimension, so no --u is checked
    # against it: any --u would read 0
    path = tmp_path / "no_terms.json"
    path.write_text(json.dumps({"terms": []}))
    for u in ("1,2,3,4,5,6,7", "0,0"):
        code, out = run(capsys, "alpha-eval", "--chain", str(path), "--u", u)
        assert code == 2
        assert json.loads(out) == {"error": {
            "type": "ValidationError",
            "message": "chain has no terms",
        }}


def test_chain_file_spellings_print_the_same_report(tmp_path, capsys):
    # a 3-d cloud of +-e_i and interior points, written with JSON ints, with
    # "k" strings and with "2k/2" strings, and three pieces of mixed sign
    axes = [[s * int(i == j) for j in range(3)] for i in range(3) for s in (1, -1)]
    clouds = [axes + [[0, 0, 0], [1, 1, 0]], axes + [[2, 1, 1], [0, -1, 1]], axes]
    spellings = {
        "ints": lambda x: x,
        "strings": str,
        "halves": lambda x: f"{2 * x}/2",
    }
    outputs = {}
    for name, spell in spellings.items():
        terms = [{"coeff": c, "vertices": [[spell(x) for x in v] for v in cloud]}
                 for c, cloud in zip((2, -1, 3), clouds)]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"terms": terms}))
        outputs[name] = [
            run(capsys, "alpha-eval", "--chain", str(path), "--u", u)
            for u in ("0,0,0", "1,1,0", "2,1,1", "1,0,1", "5,0,0")
        ]
    assert outputs["ints"] == outputs["strings"] == outputs["halves"]
    assert [json.loads(out)["value"] for _, out in outputs["ints"]] == [4, 2, -1, -1, 0]


def test_alpha_eval_chain_file(files, capsys):
    code, out = run(capsys, "alpha-eval", "--chain", files["chain"], "--u", "0,0")
    assert json.loads(out)["value"] == 2
    code, out = run(capsys, "alpha-eval", "--chain", files["chain"], "--u", "5,5")
    assert json.loads(out)["value"] == 0


def test_hrr(files, capsys):
    code, out = run(capsys, "hrr", "--bundle", files["u23_bundle"])
    assert code == 0
    assert json.loads(out) == {"equal": True, "lhs": "8/1", "rhs": 8}


def test_alpha_eval_and_hrr_on_p4(tmp_path, capsys):
    # the line bundle O(1) on P^4: chi counts the 5 lattice points of the
    # standard simplex, and both chain commands answer in dimension 4
    rays = [[int(i == j) for j in range(4)] for i in range(4)] + [[-1] * 4]
    cones = [list(c) for c in itertools.combinations(range(1, 6), 4)]
    path = tmp_path / "p4.json"
    path.write_text(json.dumps({
        "fan": {"rays": rays, "cones": cones},
        "matroid": {"m": 1, "bases": [[1]]},
        "diagram": [[1], [0], [0], [0], [0]],
    }))
    code, out = run(capsys, "alpha-eval", "--bundle", str(path))
    assert code == 0 and json.loads(out)["alpha_total"] == 5
    code, out = run(capsys, "hrr", "--bundle", str(path))
    assert code == 0
    assert out == '{"equal": true, "lhs": "5/1", "rhs": 5}\n'


def test_resolve(files, capsys):
    code, out = run(
        capsys, "resolve", "--bundle", files["u23_bundle"], "--f", "0,0,0"
    )
    report = json.loads(out)
    assert report["k_class_identity"] is True
    f0 = report["bundles"][0]
    assert f0["codim"] == 0 and f0["rank"] == 6
    assert f0["characters"]["1,2"] == [
        [0, 0], [0, 0], [0, 1], [0, 1], [1, 0], [1, 0]
    ]


def test_hrr_on_a_rank_zero_bundle(files, capsys):
    code, out = run(capsys, "hrr", "--bundle", files["rank_zero"])
    assert code == 0
    assert json.loads(out) == {"equal": True, "lhs": "0/1", "rhs": 0}


def test_resolve_check_bound_on_a_rank_zero_bundle(files, capsys):
    # without a non-loop element there is no row bound to check
    code, out = run(capsys, "resolve", "--bundle", files["rank_zero"], "--check-bound")
    assert code == 0
    report = json.loads(out)
    assert report["k_class_identity"] is True
    assert [b["rank"] for b in report["bundles"]] == [0, 0, 0]


def _u816_bundle():
    """U(8, 16) on the projective plane; each ray's row holds a flag of
    flats of size below 8, and the cones' adapted bases differ."""
    rows = [{1: 2, 2: 1, 3: 1, 4: 1}, {5: 2, 6: 1, 7: 1}, {9: 1, 10: 1, 11: 1}]
    return {
        "fan": P2_FAN,
        "matroid": {"m": 16, "bases": [
            list(b) for b in itertools.combinations(range(1, 17), 8)]},
        "diagram": [[row.get(e, 0) for e in range(1, 17)] for row in rows],
    }


def test_uniform_16_element_bundle_validates_and_chi_equals_alpha(tmp_path, capsys):
    path = tmp_path / "u816.json"
    path.write_text(json.dumps(_u816_bundle()))
    code, out = run(capsys, "validate", "--bundle", str(path))
    assert code == 0
    report = json.loads(out)
    assert (report["rank"], report["ground_size"]) == (8, 16)
    assert report["adapted_bases"]["1,3"] == [1, 2, 3, 4, 5, 9, 10, 11]
    code, out = run(capsys, "chi", "--bundle", str(path))
    assert code == 0
    chi = json.loads(out)
    code, out = run(capsys, "alpha-eval", "--bundle", str(path))
    assert code == 0
    alpha = json.loads(out)
    assert chi["chi_total"] == alpha["alpha_total"]
    assert chi["box"] == alpha["box"]


def test_taut_check(files, capsys):
    code, out = run(capsys, "taut-check", "--matroid", files["u23_matroid"])
    report = json.loads(out)
    assert code == 0
    assert report["all_equal"] is True
    assert report["failures"] == []
    assert report["verified_box"]["max_coord"] == 3


@pytest.mark.parametrize("bound", ["0", "-1", "1"])
def test_taut_check_rejects_box_below_two(files, capsys, bound):
    # a box with max_coord <= 1 lies entirely on its margin shell
    code, out = run(capsys, "taut-check", "--matroid", files["u23_matroid"],
                    "--max-coord", bound)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("bound", ["4611686018427387904", "3074457345618258602"])
def test_taut_check_refuses_a_bound_beyond_int64_before_the_sweep(
        files, capsys, monkeypatch, bound):
    import tropehrhart.taut as taut

    def no_arrays(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(taut, "_symmetry_classes", no_arrays)
    monkeypatch.setattr(taut, "_slice_box", no_arrays)
    code, out = run(capsys, "taut-check", "--matroid", files["u23_matroid"],
                    "--max-coord", bound)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "BoxTooLargeError"


BIG = 2**54
# a line bundle on P^2 whose characters (2^54, 2^54), (2^54 - 1, 2^54) and
# (2^54, 2^54 - 1) lie beyond 2^53; and a matroid with two parallel
# elements, on which a row with one entry 2^54 is not a Bergman point
BIG_BUNDLE = {"fan": P2_FAN, "matroid": {"m": 1, "bases": [[1]]},
              "diagram": [[BIG], [BIG], [-2 * BIG + 1]]}
BIG_BAD_ROW = {"fan": P2_FAN, "matroid": {"m": 2, "bases": [[1], [2]]},
               "diagram": [[BIG, 0], [0, 0], [0, 0]]}


def _numbers(obj):
    """Every int of a parsed report, booleans left out."""
    if isinstance(obj, dict):
        return [x for v in obj.values() for x in _numbers(v)]
    if isinstance(obj, list):
        return [x for v in obj for x in _numbers(v)]
    return [obj] if type(obj) is int else []


def test_integers_from_2_to_the_53_print_as_strings(tmp_path, capsys):
    big, bad = tmp_path / "big.json", tmp_path / "bad.json"
    big.write_text(json.dumps(BIG_BUNDLE))
    bad.write_text(json.dumps(BIG_BAD_ROW))
    near = [str(BIG - 1), str(BIG)]
    box = [[str(BIG - 2)] * 2, [str(BIG + 1)] * 2]
    u = ["--u", f"{BIG},{BIG}"]
    want = [
        (["chi"], {"box": box, "chi_total": 3}),
        (["chi", *u], {"chi_u": 1, "h0_by_codim": [3, 3, 1], "u": [str(BIG)] * 2}),
        (["alpha-eval"], {"alpha_total": 3, "box": box}),
        (["alpha-eval", *u],
         {"alpha_u": 1, "chi_u": 1, "equal": True, "u": [str(BIG)] * 2}),
        (["h0"], {"h0_total": 3, "nonzero": [
            {"h0": 1, "u": near}, {"h0": 1, "u": near[::-1]},
            {"h0": 1, "u": [str(BIG)] * 2}]}),
        (["h0", *u], {"h0_u": 1, "u": [str(BIG)] * 2}),
        (["hrr"], {"equal": True, "lhs": "3/1", "rhs": 3}),
    ]
    for argv, report in want:
        code, out = run(capsys, argv[0], "--bundle", str(big), *argv[1:])
        assert code == 0 and json.loads(out) == report, argv
    code, out = run(capsys, "resolve", "--bundle", str(big))
    report = json.loads(out)
    assert code == 0 and report["k_class_identity"] is True
    assert report["f"] == [str(BIG), str(BIG), str(-2 * BIG + 1)]
    assert report["bundles"][2]["characters"] == {
        "1,2": [[str(BIG)] * 2], "1,3": [near[::-1]], "2,3": [near]}
    assert all(abs(x) < 2**53 for x in _numbers(report))
    code, out = run(capsys, "validate", "--bundle", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["entries"] == [str(BIG), 0]


def test_flag_sum(capsys):
    code, out = run(capsys, "flag-sum", "--m", "5")
    assert json.loads(out) == {"m": 5, "sum": -1}


@pytest.mark.parametrize("m", ["0", "8"])
def test_flag_sum_outside_its_range_exits_2(capsys, m):
    code, out = run(capsys, "flag-sum", "--m", m)
    assert code == 2
    assert json.loads(out) == {"error": {
        "message": "flag enumeration supported for m in 1..7",
        "type": "ValidationError",
    }}


def test_reports_are_deterministic(files, capsys):
    _, first = run(capsys, "chi", "--bundle", files["fano"])
    _, second = run(capsys, "chi", "--bundle", files["fano"])
    assert first == second
    _, third = run(capsys, "resolve", "--bundle", files["u23_bundle"])
    _, fourth = run(capsys, "resolve", "--bundle", files["u23_bundle"])
    assert third == fourth


def test_one_parser_serves_every_call_of_a_process(files, capsys):
    # each call, made in this order in one process, prints what the same
    # command prints first thing in a fresh interpreter
    calls = [
        ["chi", "--bundle", files["fano"], "--u", "0,0", "--table"],
        ["chi", "--bundle", files["fano"], "--u", "0,0"],
        ["validate", "--bundle", files["u23_bundle"], "--table"],
        ["validate", "--bundle", files["u23_bundle"]],
        ["chi", "--bundle"],  # refused by argparse with SystemExit
        ["h0", "--bundle", files["u23_bundle"]],
        ["chi", "--bundle", files["u23_bundle"]],
        ["chi", "--bundle", files["u23_bundle"], "--u", "1,0"],
    ]
    src = str(Path(tropehrhart.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "tropehrhart.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
    assert build_parser() is build_parser()


# ---------------------------------------------------------------------------
# malformed input never reaches the internal-error exit
# ---------------------------------------------------------------------------

FUZZ_BASES = {
    "u23": {"fan": P2_FAN, "matroid": {"m": 3, "bases": [[1, 2], [1, 3], [2, 3]]},
            "diagram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    "p1xp1": {"fan": {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                      "cones": [[1, 2], [2, 3], [3, 4], [4, 1]]},
              "matroid": {"m": 3, "bases": [[1, 2], [1, 3], [2, 3]]},
              "diagram": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]]},
    "rank_zero": RANK_ZERO,
    "chain": {"terms": [{"coeff": 2, "vertices": [[0, 0], [1, 0], ["1/1", "2/2"]]},
                        {"coeff": -1, "vertices": [[0, 0], [3, 1]]}]},
}
FUZZ_LEAVES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([17, 10**6, -10**6, 2**70, 1.5, None, True, "", "x",
                     "3", "1/2", "-1/3", "1/0", [], [1], [[1]], {}]),
)
FUZZ_ARGS = st.one_of(
    st.sampled_from(["0,0", "1,0", "0", "0,0,0", "0,0,0,0", "a,b", "1.5,0",
                     "", ",", "1,,2", " 1, 2", "0,x,0", "99999999999999999999,0",
                     "-3,-3:3,3", "-2,-2:2,2", "3,3:-3,-3", "0:3", "-1,-1:1"]),
    st.text(alphabet="0123456789,-:x/ .", max_size=12),
)
TOTALS = ("chi_total", "alpha_total", "h0_total", "value", "chi_u", "alpha_u",
          "h0_u", "lhs", "bundles", "valid")


def _paths(obj, prefix=()):
    """Paths to every node below the root of a JSON document."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    out = []
    for k, v in items:
        out += [prefix + (k,)] + _paths(v, prefix + (k,))
    return out


@st.composite
def mutated_cli_cases(draw):
    """(document, argv) with up to three edits (set a node to a stray value,
    delete it, or repeat a list entry) and malformed option strings; the
    argv names the document as FILE."""
    name = draw(st.sampled_from(sorted(FUZZ_BASES)))
    doc = copy.deepcopy(FUZZ_BASES[name])
    for _ in range(draw(st.integers(0, 3))):
        paths = _paths(doc)
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        edit = draw(st.sampled_from(["set", "set", "delete", "repeat"]))
        if edit == "set":
            parent[path[-1]] = copy.deepcopy(draw(FUZZ_LEAVES))
        elif edit == "delete":
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.append(copy.deepcopy(parent[path[-1]]))
    if name == "chain":
        argv = ["alpha-eval", "--chain", "FILE"]
        options = ["--u"]
    else:
        argv = [draw(st.sampled_from(
            ["validate", "chi", "h0", "alpha-eval", "hrr", "resolve"])), "--bundle", "FILE"]
        options = {"chi": ["--u", "--box"], "alpha-eval": ["--u", "--box"],
                   "h0": ["--u"], "resolve": ["--f"]}.get(argv[0], [])
    for opt in options:
        if draw(st.booleans()):
            argv.append(f"{opt}={draw(FUZZ_ARGS)}")
    if argv[0] == "resolve" and draw(st.booleans()):
        argv.append("--check-bound")
    return doc, argv


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_cli_cases())
def test_mutated_files_and_arguments_never_exit_1(tmp_path, capsys, case):
    doc, argv = case
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    report = json.loads(out)
    assert code in (0, 2), report
    if code == 2:
        assert set(report) == {"error"}
    else:
        assert any(k in report for k in TOTALS)
