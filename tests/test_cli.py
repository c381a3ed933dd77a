import json

import pytest

from yperiod.cli import main


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


def test_verify_bad_pair_is_input_error(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["verify", "--pair", "Z9", "A1"])
    assert code == 2
    assert "error" in err


def test_verify_big_guard(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["verify", "--pair", "A5", "A4"])
    assert code == 2
    assert "--big" in err


def test_verify_rejects_nonpositive_rounds(capsys, monkeypatch):
    for system in ("fold", "boxtimes"):
        for rounds in ("0", "-3"):
            code, out, err = run(
                capsys, monkeypatch,
                ["verify", "--pair", "B2", "A1", "--system", system, "--rounds", rounds],
            )
            assert code == 2 and out == ""
            assert "max_rounds must be at least 1" in err


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
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--pair", "A2", "A1", "--bogus"])
    assert exc.value.code == 2


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


def test_mutate_bad_json(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["mutate", "1"], stdin="not json")
    assert code == 2


def test_fold_b2_a1(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["fold", "--pair", "B2", "A1"])
    assert code == 0
    assert "lifts to A3" in out
    assert "verified" in out


def test_fold_g2_a1_json(capsys, monkeypatch):
    code, out, _ = run(
        capsys, monkeypatch, ["fold", "--pair", "G2", "A1", "--output", "json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["lifts"]["G2"]["lifted_type"] == "D4"
    assert len(obj["lifts"]["G2"]["orbits"]) == 2
    assert obj["verified"]


def test_fold_simply_laced_needs_force(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["fold", "--pair", "A2", "A1"])
    assert code == 2
    assert "--force" in err
    code, out, _ = run(capsys, monkeypatch, ["fold", "--pair", "A2", "A1", "--force"])
    assert code == 0


def test_products_text(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["products", "--pair", "A2", "A2"])
    assert code == 0
    for name in ("tensor", "triangle", "square"):
        assert f"# {name} product" in out
    assert "(2,2) -> (1,1) (1,1)" in out  # the triangle return arrow


def test_products_env_output_format(capsys, monkeypatch):
    monkeypatch.setenv("YPERIOD_OUTPUT", "json")
    code, out, _ = run(capsys, monkeypatch, ["products", "--pair", "B2", "A1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["triangle"]["d"] == [1, 2]


def test_exit_codes_are_verdict_function(capsys, monkeypatch):
    # same command, text and json, must agree on verdict and exit code
    c1, t_out, _ = run(capsys, monkeypatch, ["verify", "--pair", "A2", "A1"])
    c2, j_out, _ = run(
        capsys, monkeypatch, ["verify", "--pair", "A2", "A1", "--output", "json"]
    )
    assert c1 == c2 == 0
    assert json.loads(j_out)["verified"] is ("verdict: verified" in t_out)


def test_output_env_is_read_on_every_call(capsys, monkeypatch):
    argv = ["products", "--pair", "A2", "A1"]
    monkeypatch.setenv("YPERIOD_OUTPUT", "json")
    code, out, _ = run(capsys, monkeypatch, argv)
    assert code == 0 and json.loads(out)["flags"]["output"] == "json"
    monkeypatch.setenv("YPERIOD_OUTPUT", "text")
    code, out, _ = run(capsys, monkeypatch, argv)
    assert code == 0 and out.startswith("# tensor product A2 x A1")
    monkeypatch.delenv("YPERIOD_OUTPUT")
    code, out, _ = run(capsys, monkeypatch, argv + ["--output", "json"])
    assert code == 0 and json.loads(out)["flags"]["output"] == "json"
