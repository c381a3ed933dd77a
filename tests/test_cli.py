import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from yperiod import __version__
from yperiod.cli import build_parser, main
from yperiod.dynkin import DynkinType
from yperiod.ysystem import verify_folding

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_boxtimes_pentagon(capsys, monkeypatch):
    code, out, err = run(capsys, monkeypatch, ["verify", "--pair", "A2", "A1"])
    assert code == 0
    assert "minimal period: 5" in out
    assert "verified" in out
    assert "round" in err  # progress goes to stderr


def test_verify_json_output(capsys, monkeypatch):
    code, out, _ = run(
        capsys, monkeypatch,
        ["verify", "--pair", "A2", "A2", "--system", "direct", "--output", "json"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True
    assert obj["pair"] == ["A2", "A2"]
    assert obj["period_bound"] == 12
    assert obj["tool"] == "yperiod" and "version" in obj and "flags" in obj


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--pair", "A2", "A1", "--big"],
        ["verify", "--pair", "A1", "A1", "--system", "square", "--rounds", "2"],
        ["verify", "--pair", "B2", "A1", "--system", "fold", "--rounds", "6", "--big"],
    ],
)
def test_text_header_flags_parse_back(capsys, monkeypatch, argv):
    # a set switch prints bare, an unset one not at all, so that the
    # header's flags give back the namespace that made them
    argv = [*argv, "--output", "text"]
    code, out, _ = run(capsys, monkeypatch, argv)
    assert code == 0
    tool, version, command, *flags = out.splitlines()[0].split()
    assert (tool, version, command) == ("yperiod", __version__, argv[0])
    parser = build_parser()
    assert parser.parse_args([command, *flags]) == parser.parse_args(argv)


def test_verify_bad_pair_is_input_error(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["verify", "--pair", "Z9", "A1"])
    assert code == 2
    assert "error" in err


def test_verify_big_guard(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["verify", "--pair", "A5", "A4"])
    assert code == 2
    assert "--big" in err


def test_verify_fold_big_guard_counts_the_lifted_product(capsys, monkeypatch):
    # B3 x B3 has 9 vertices, but a fold run mutates its 25-vertex lift
    # A5 x A5, which the guard refuses before any round runs
    def no_run(*args, **kwargs):
        pytest.fail("the guard let a fold run of the 25-vertex lift start")

    with monkeypatch.context() as m:
        m.setattr("yperiod.cli.verify_folding", no_run)
        code, out, err = run(capsys, monkeypatch,
                             ["verify", "--pair", "B3", "B3", "--system", "fold"])
    assert code == 2 and out == ""
    assert err == "error: lifted product has 25 vertices; pass --big to run anyway\n"
    # B2 x B2 lifts to the 9 vertices of A3 x A3
    code, out, _ = run(capsys, monkeypatch, ["verify", "--pair", "B2", "B2", "--system", "fold"])
    assert code == 0 and out.splitlines()[-1] == "verdict: verified"


def test_verify_rejects_nonpositive_rounds(capsys, monkeypatch):
    for system in ("fold", "boxtimes"):
        for rounds in ("0", "-3"):
            code, out, err = run(
                capsys, monkeypatch,
                ["verify", "--pair", "B2", "A1", "--system", system, "--rounds", rounds],
            )
            assert code == 2 and out == ""
            assert "max_rounds must be at least 1" in err


def test_verify_direct_refuses_rounds(capsys, monkeypatch):
    # the direct system runs a fixed number of steps; a --rounds it would
    # ignore is refused instead of echoed in the report's flags
    code, out, err = run(
        capsys, monkeypatch,
        ["verify", "--pair", "A2", "A1", "--system", "direct", "--rounds", "3"],
    )
    assert code == 2 and out == ""
    assert err.startswith("error: --rounds does not apply to the direct system")


def test_verify_fold_system(capsys, monkeypatch):
    code, out, _ = run(
        capsys, monkeypatch,
        ["verify", "--pair", "B2", "A1", "--system", "fold", "--output", "json"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["system"] == "fold" and obj["verified"]


def test_verify_valued_pair_boxtimes(capsys, monkeypatch):
    code, out, _ = run(
        capsys, monkeypatch,
        ["verify", "--pair", "B2", "A1", "--output", "json"],
    )
    assert code == 0
    assert json.loads(out)["verified"]


def test_unknown_flag_rejected(capsys, monkeypatch):
    for argv in (["verify", "--pair", "A2", "A1", "--bogus"],
                 ["verify", "--pair", "A2", "A1", "--trace"],
                 ["fold", "--pair", "B2", "A1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize(
    "argv, code",
    [(["verify", "--pair", "A2", "A1"], 0),
     (["verify", "--pair", "A2", "A1", "--rounds", "3"], 1),
     (["verify", "--pair", "X9", "A1"], 2)],
)
def test_console_entry_exit_status_and_streams(argv, code):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-m", "yperiod.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == code, done.stderr
    if code == 2:
        assert done.stdout == "" and done.stderr.startswith("error: cannot parse")
        return
    # stdout is the report alone, from its header to its verdict; the
    # progress lines go to stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith(f"yperiod {__version__} verify ")
    assert lines[-1] == ("verdict: verified" if code == 0 else "verdict: NOT verified")
    assert not any(line.startswith("[A2 x A1]") for line in lines)
    assert "[A2 x A1] round 1/" in done.stderr


def test_mutate_empty_sequence_echoes(capsys, monkeypatch):
    quiver = '{"vertices": [1, 2], "b": [[0, 1], [-1, 0]]}'
    code, out, _ = run(capsys, monkeypatch, ["mutate"], stdin=quiver)
    assert code == 0
    assert out.count("1 -> 2 (1,1)") == 1
    assert "input quiver" in out


def test_mutate_involution_echoes_input(capsys, monkeypatch):
    quiver = '{"vertices": [1, 2], "b": [[0, 1], [-1, 0]]}'
    code, out, _ = run(
        capsys, monkeypatch, ["mutate", "1", "1", "--output", "json"], stdin=quiver
    )
    assert code == 0
    trace = json.loads(out)["trace"]
    assert len(trace) == 3
    assert trace[0]["quiver"] == trace[2]["quiver"]


def test_mutate_boxtimes_round_returns_input(capsys, monkeypatch):
    from yperiod.dynkin import DynkinType
    from yperiod.quiver import alternating_quiver, quiver_to_json, triangle_product
    from yperiod.ysystem import mu_boxtimes_sequence

    a2 = alternating_quiver(DynkinType("A", 2))
    box = triangle_product(a2, a2)
    seq = [f"({u},{x})" for (u, x) in mu_boxtimes_sequence(a2, a2)]
    code, out, _ = run(
        capsys, monkeypatch,
        ["mutate", *seq, "--output", "json"],
        stdin=json.dumps(quiver_to_json(box)),
    )
    assert code == 0
    trace = json.loads(out)["trace"]
    assert trace[0]["quiver"] == trace[-1]["quiver"]


def test_mutate_with_seed_data(capsys, monkeypatch):
    quiver = '{"vertices": [1, 2], "b": [[0, 1], [-1, 0]]}'
    code, out, _ = run(
        capsys, monkeypatch,
        ["mutate", "1", "--seed-data", "--output", "json"],
        stdin=quiver,
    )
    assert code == 0
    trace = json.loads(out)["trace"]
    assert trace[1]["seed"]["f"] == ["1 + y1", "1"]


def test_mutate_bad_vertex(capsys, monkeypatch):
    quiver = '{"vertices": [1, 2], "b": [[0, 1], [-1, 0]]}'
    code, _, err = run(capsys, monkeypatch, ["mutate", "9"], stdin=quiver)
    assert code == 2


def test_mutate_refuses_other_spellings_of_a_vertex(capsys, monkeypatch):
    # a vertex is named by its label as format_quiver prints it; int()
    # would also read "01", "+1", " 2" and "1_0" (that is 10)
    quiver = '{"vertices": [1, 2], "b": [[0, 1], [-1, 0]]}'
    for token in ("01", "+1", " 2", "1_0"):
        code, out, err = run(capsys, monkeypatch, ["mutate", token], stdin=quiver)
        assert code == 2 and out == "", token
        assert err == f"error: vertex {token!r} is not in the quiver\n"
    ten = json.dumps({"vertices": list(range(1, 11)), "b": [[0] * 10] * 10})
    code, out, err = run(capsys, monkeypatch, ["mutate", "1_0"], stdin=ten)
    assert code == 2 and "is not in the quiver" in err
    code, out, _ = run(capsys, monkeypatch, ["mutate", "10"], stdin=ten)
    assert code == 0 and "# after mutating at 10" in out


def test_mutate_with_seed_data_text(capsys, monkeypatch):
    # the text form prints each seed as one line of seed JSON, the one the
    # JSON form holds
    quiver = '{"vertices": [1, 2], "b": [[0, 1], [-1, 0]]}'
    code, out, _ = run(capsys, monkeypatch, ["mutate", "1", "--seed-data"], stdin=quiver)
    assert code == 0
    seeds = [json.loads(line[len("seed: "):]) for line in out.splitlines()
             if line.startswith("seed: ")]
    code, j_out, _ = run(
        capsys, monkeypatch, ["mutate", "1", "--seed-data", "--output", "json"], stdin=quiver
    )
    assert code == 0
    assert seeds == [entry["seed"] for entry in json.loads(j_out)["trace"]]
    assert [s["f"] for s in seeds] == [["1", "1"], ["1 + y1", "1"]]


def test_mutate_bad_json(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["mutate", "1"], stdin="not json")
    assert code == 2


def test_mutate_malformed_json_is_input_error(capsys, monkeypatch):
    for quiver in (
        '{"vertices": 5, "b": []}',
        '{"vertices": [1, 2], "b": [[0, 1.5], [-1.5, 0]]}',
        '{"vertices": [1, 2], "b": [[0, true], [-1, 0]]}',
        '{"vertices": [1, 2], "b": [[0, 1], [-1, 0]], "d": [1.9, 1.2]}',
    ):
        code, out, err = run(capsys, monkeypatch, ["mutate", "1"], stdin=quiver)
        assert code == 2 and out == "" and err.startswith("error: "), quiver


def test_mutate_unhashable_vertex_label_is_input_error(capsys, monkeypatch):
    quiver = '{"vertices": [{}, 2], "b": [[0, 1], [-1, 0]]}'
    code, out, err = run(capsys, monkeypatch, ["mutate", "2"], stdin=quiver)
    assert code == 2 and out == ""
    assert err.startswith("error: bad quiver JSON: unhashable type")


def _products_lifts(capsys, monkeypatch, pair):
    code, out, _ = run(capsys, monkeypatch, ["products", "--pair", *pair, "--output", "json"])
    assert code == 0
    return json.loads(out)["lifts"]


def test_fold_b2_a1(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["products", "--pair", "B2", "A1"])
    assert code == 0
    assert "lifts to A3" in out
    code, out, _ = run(capsys, monkeypatch, ["verify", "--pair", "B2", "A1", "--system", "fold"])
    assert code == 0
    assert "verified" in out


def test_fold_g2_a1_json(capsys, monkeypatch):
    lifts = _products_lifts(capsys, monkeypatch, ["G2", "A1"])
    assert lifts["G2"]["lifted_type"] == "D4"
    assert len(lifts["G2"]["orbits"]) == 2
    code, out, _ = run(
        capsys, monkeypatch,
        ["verify", "--pair", "G2", "A1", "--system", "fold", "--output", "json"],
    )
    assert code == 0
    assert json.loads(out)["verified"]


def test_fold_trivially_folds_to_unit_symmetrizers(capsys, monkeypatch):
    lifts = _products_lifts(capsys, monkeypatch, ["A2", "A1"])
    assert lifts["A2"]["d"] == [1, 1] and lifts["A1"]["d"] == [1]
    assert lifts["A2"]["orbits"] == [["1"], ["2"]]
    code, _, _ = run(capsys, monkeypatch, ["verify", "--pair", "A2", "A1", "--system", "fold"])
    assert code == 0


def test_fold_c2_from_a3(capsys, monkeypatch):
    # C2 had no cover: the table asked for D3, an illegal rank
    code, out, _ = run(
        capsys, monkeypatch,
        ["verify", "--pair", "C2", "A1", "--system", "fold", "--output", "json"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] and obj["minimal_period"] == 3
    c2 = _products_lifts(capsys, monkeypatch, ["C2", "A1"])["C2"]
    assert c2["lifted_type"] == "A3"
    # orbits listed in base vertex order, as d is
    assert c2["orbits"] == [["2"], ["1", "3"]] and c2["d"] == [2, 1]


@pytest.mark.parametrize("pair", [["A2", "A1"], ["B2", "A1"]])
def test_fold_reports_what_verify_fold_reports(capsys, monkeypatch, pair):
    # products prints the covers, verify --system fold the verdict alone,
    # simply laced pairs included; that verdict is the engine's report
    lifts = _products_lifts(capsys, monkeypatch, pair)
    code, out, _ = run(
        capsys, monkeypatch, ["verify", "--system", "fold", "--pair", *pair, "--output", "json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert set(lifts) == set(pair) and "lifts" not in obj
    for key in ("tool", "version", "command", "flags"):
        obj.pop(key)
    report = verify_folding(*map(DynkinType.parse, pair))
    assert obj == json.loads(json.dumps(report.to_json()))


def test_products_text(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["products", "--pair", "A2", "A2"])
    assert code == 0
    for name in ("tensor", "triangle", "square"):
        assert f"# {name} product" in out
    assert "(2,2) -> (1,1) (1,1)" in out  # the triangle return arrow


def test_products_text_prints_the_symmetrizer_of_a_valued_product(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["products", "--pair", "B2", "A1"])
    assert code == 0
    assert out.splitlines().count("d: 1 2") == 3
    code, out, _ = run(capsys, monkeypatch, ["products", "--pair", "A2", "A2"])
    # the covers' indented d lines follow the products, one per factor type
    assert code == 0 and not any(line.startswith("d:") for line in out.splitlines())
    assert out.splitlines().count("  d: 1 1") == 1


def test_exit_codes_are_verdict_function(capsys, monkeypatch):
    # same command, text and json, must agree on verdict and exit code
    c1, t_out, _ = run(capsys, monkeypatch, ["verify", "--pair", "A2", "A1"])
    c2, j_out, _ = run(
        capsys, monkeypatch, ["verify", "--pair", "A2", "A1", "--output", "json"]
    )
    assert c1 == c2 == 0
    assert json.loads(j_out)["verified"] is ("verdict: verified" in t_out)


def test_output_env_is_not_read(capsys, monkeypatch):
    # --output alone sets the format; the default is text
    argv = ["products", "--pair", "A2", "A1"]
    monkeypatch.setenv("YPERIOD_OUTPUT", "json")
    code, out, _ = run(capsys, monkeypatch, argv)
    assert code == 0 and out.startswith("# tensor product A2 x A1")
    code, out, _ = run(capsys, monkeypatch, ["verify", "--pair", "A2", "A1"])
    assert code == 0 and out.startswith(f"yperiod {__version__} verify --output text ")
    code, out, _ = run(capsys, monkeypatch, ["products", "--pair", "B2", "A1", "--output", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["flags"]["output"] == "json" and obj["triangle"]["d"] == [1, 2]


def test_broken_seed_invariant_exits_with_a_report(capsys, monkeypatch):
    from test_ysystem import _negate_matrix_on_mutation

    _negate_matrix_on_mutation(monkeypatch, 7)  # see test_broken_seed_invariant_is_a_failing_report
    code, out, _ = run(
        capsys, monkeypatch,
        ["verify", "--pair", "B2", "A1", "--system", "fold", "--output", "json"],
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["verified"] is False
    assert obj["counterexample"]["check"] == "seed_invariant"


def test_direct_counterexample_exits_one(capsys, monkeypatch):
    from test_ysystem import _perturb_last_step_of_first_trial

    _perturb_last_step_of_first_trial(monkeypatch, 10)  # A2 x A1: 2 (3 + 2) steps
    code, out, _ = run(
        capsys, monkeypatch,
        ["verify", "--pair", "A2", "A1", "--system", "direct", "--output", "json"],
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["verified"] is False and obj["counterexample"]["check"] == "exact_return"


def test_direct_counterexample_text_names_it(capsys, monkeypatch):
    from test_ysystem import _perturb_last_step_of_first_trial

    _perturb_last_step_of_first_trial(monkeypatch, 10)
    code, out, _ = run(
        capsys, monkeypatch, ["verify", "--pair", "A2", "A1", "--system", "direct"]
    )
    assert code == 1
    lines = out.splitlines()
    check = "exact_return_after_double_bound: FAIL  (5 random positive rational starts)"
    assert f"  check {check}" in lines
    (line,) = [x for x in lines if x.startswith("counterexample: ")]
    assert line.startswith("counterexample: {'trial': 0, 'check': 'exact_return', "
                           "'detail': 'no return within 10 steps', 'start_prev': [")
    assert lines[-1] == "verdict: NOT verified"
