import json
import math
from pathlib import Path

import numpy as np
import pytest

import polydet.cli as cli
import polydet.engines
from polydet.engines import ENGINES, PolydetResult
from polydet.matrices import matrix_to_json, random_matrix

REPO_ROOT = Path(__file__).resolve().parent.parent

A2 = np.array([[1, 2], [3, 4]], dtype=complex)
B2 = np.array([[5, 6], [7, 8]], dtype=complex)


def write_matrix(path, m):
    path.write_text(matrix_to_json(m))
    return str(path)


@pytest.fixture
def two_files(tmp_path):
    return [
        write_matrix(tmp_path / "a.json", A2),
        write_matrix(tmp_path / "b.json", B2),
    ]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_compute_two_matrices(capsys, two_files):
    code, out = run_cli(capsys, "compute", *two_files)
    assert code == 0
    payload = json.loads(out)
    assert payload["engine"] == "subset_sum"
    assert abs(payload["re"] - (-2)) < 1e-12
    assert abs(payload["im"]) < 1e-12


def test_compute_repeated_file_gives_determinant(capsys, tmp_path):
    # eps(A, ..., A) takes one determinant on the roots grid from n = 4 on; at
    # n <= 3 the 2^(n-1) Leibniz determinants of the sign grid cost no more
    for n, grid in ((3, "signs"), (4, "roots")):
        m = random_matrix(n, 8)
        path = write_matrix(tmp_path / f"m{n}.json", m)
        code, out = run_cli(capsys, "compute", *[path] * n)
        assert code == 0
        payload = json.loads(out)
        value = complex(payload["re"], payload["im"])
        assert abs(value - np.linalg.det(m)) < 1e-9
        assert payload["grid"] == grid


def test_compute_names_the_grid(capsys, tmp_path, two_files):
    # distinct arguments take the +-1 sign table; eps(A, A, A, B) takes the
    # roots grid (4 determinants, against 8 on the table)
    _, out = run_cli(capsys, "compute", *two_files)
    assert json.loads(out)["grid"] == "signs"
    a, b = (write_matrix(tmp_path / f"{k}.json", random_matrix(4, k)) for k in (1, 2))
    _, out = run_cli(capsys, "compute", a, a, a, b)
    assert json.loads(out)["grid"] == "roots"


def test_compute_engine_names_round_trip(capsys, two_files):
    for name in ENGINES:
        code, out = run_cli(capsys, "compute", "--engine", name, *two_files)
        assert code == 0
        payload = json.loads(out)
        assert payload["engine"] == name
        assert abs(payload["re"] - (-2)) < 1e-9


def test_compute_wrong_count_exits_2(capsys, two_files):
    code = cli.main(["compute", two_files[0]])
    assert code == 2


def test_compute_mixed_sizes_exits_2_with_message(capsys, tmp_path, two_files):
    three = write_matrix(tmp_path / "c.json", random_matrix(3, 5))
    assert cli.main(["compute", two_files[0], three]) == 2
    err = capsys.readouterr().err
    assert err.startswith("polydet: error: ") and "mixes matrix shapes" in err


def test_compute_malformed_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["compute", str(bad), str(bad)]) == 2


def test_compute_missing_file_exits_2(capsys, tmp_path):
    assert cli.main(["compute", str(tmp_path / "absent.json"), str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize(
    "payload, message",
    [
        # a declared n that the data do not have: nothing of size n x n is built
        ({"n": 100000, "re": [[1.0]]}, '"re"/"im" must be 100000x100000 arrays, got (1, 1) and (1, 1)'),
        ({"n": 2.9, "re": [[1, 2], [3, 4]]}, '"n" must be an integer, got 2.9'),
    ],
    ids=("n-beyond-the-data", "fractional-n"),
)
def test_compute_rejects_a_bad_declared_n(capsys, tmp_path, payload, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["compute", str(path), str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"polydet: error: {message}\n"


@pytest.mark.parametrize("field", ("re", "im"))
def test_compute_names_a_ragged_field(capsys, tmp_path, field):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "re": [[1, 2], [3, 4]], field: [[1, 2], [3]]}))
    assert cli.main(["compute", str(path), str(path)]) == 2
    assert capsys.readouterr().err == f'polydet: error: "{field}" is ragged: its nested lists do not form an array\n'


def test_expand_text(capsys):
    code, out = run_cli(capsys, "expand", "--n", "2")
    assert code == 0
    assert out.strip() == "1/2*Tr(A)*Tr(B) - 1/2*Tr(A*B)"


def test_expand_n5_has_seven_classes(capsys):
    code, out = run_cli(capsys, "expand", "--n", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    classes = set()
    for term in payload["terms"]:
        classes.add(tuple(sorted(len(w) for w in term["words"])))
    assert len(classes) == 7


def test_expand_guard_exits_2(capsys):
    assert cli.main(["expand", "--n", "7"]) == 2


def test_expand_custom_labels(capsys):
    code, out = run_cli(capsys, "expand", "--n", "2", "--labels", "X,Y")
    assert code == 0
    assert out.strip() == "1/2*Tr(X)*Tr(Y) - 1/2*Tr(X*Y)"


def test_expand_deterministic_output(capsys):
    _, first = run_cli(capsys, "expand", "--n", "4", "--format", "json")
    _, second = run_cli(capsys, "expand", "--n", "4", "--format", "json")
    assert first == second


def test_verify_passes(capsys):
    code, out = run_cli(capsys, "verify", "--trials", "3", "--n", "2..3")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.strip().splitlines())


def test_verify_json_output(capsys):
    code, out = run_cli(capsys, "verify", "--trials", "2", "--n", "2..3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["properties"]) >= 10


def test_verify_deterministic_bytes(capsys):
    _, first = run_cli(capsys, "verify", "--trials", "2", "--n", "2..3", "--json", "--seed", "4")
    _, second = run_cli(capsys, "verify", "--trials", "2", "--n", "2..3", "--json", "--seed", "4")
    assert first == second


def test_verify_corrupted_engine_exits_1(capsys, monkeypatch):
    good = ENGINES["volume"]
    monkeypatch.setitem(
        polydet.engines.ENGINES,
        "volume",
        lambda mats: PolydetResult(good(mats).value * 1.01, "volume", len(mats)),
    )
    code = cli.main(["verify", "--trials", "2", "--n", "2..3"])
    assert code == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--trials", "0", "--json"], "trials must be >= 1, got 0"),
        (["verify", "--trials", "-3"], "trials must be >= 1, got -3"),
        (["verify", "--n", "1"], "every n in n_values must be >= 2, got 1"),
        (["verify", "--n", "0..3"], "every n in n_values must be >= 2, got 0"),
        (["bench", "--n", "2", "--trials", "0"], "repetitions must be >= 1, got 0"),
        (["anomaly", "fields_n3.json", "couplings.json", "--trials", "0"], "trials must be >= 1, got 0"),
        (["anomaly", "fields_n2.json", "couplings.json", "--json", "--trials", "0"], "trials must be >= 1, got 0"),
        (["verify", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["bench", "--n", "2", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["anomaly", "fields_n3.json", "couplings.json", "--seed", "-7"], "--seed must be >= 0, got -7"),
        (["expand", "--n", "2", "--labels", "A,"], "label 2 of 2 is empty"),
        (["expand", "--n", "3", "--labels", ",B,C"], "label 1 of 3 is empty"),
    ],
)
def test_runs_that_would_check_nothing_exit_2_naming_the_argument(capsys, argv, message):
    argv = [str(REPO_ROOT / "configs" / a) if a.endswith(".json") else a for a in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"polydet: error: {message}\n"


def test_bench_csv_shape(capsys):
    code, out = run_cli(
        capsys, "bench", "--n", "2..3", "--engine", "subset_sum,volume", "--trials", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "engine,n,mean_ns,stddev_ns"
    assert len(lines) == 1 + 2 * 2
    for line in lines[1:]:
        name, n, mean_ns, stddev_ns = line.split(",")
        assert name in ENGINES
        assert int(n) in (2, 3)
        assert float(mean_ns) > 0
        assert float(stddev_ns) >= 0


def test_bench_unknown_engine_exits_2(capsys):
    assert cli.main(["bench", "--engine", "quantum"]) == 2
    assert "expected one of" in capsys.readouterr().err


def test_run_bench_unknown_engine_raises_the_dispatch_error():
    with pytest.raises(ValueError, match="unknown engine 'quantum'; expected one of"):
        cli.run_bench([2], ["quantum"])


def test_bench_guarded_cell_is_skipped(capsys):
    code, out = run_cli(capsys, "bench", "--n", "6,7", "--engine", "naive", "--trials", "1")
    assert code == 0
    assert [line.split(",")[:2] for line in out.strip().splitlines()[1:]] == [["naive", "6"]]


def test_bench_engine_failure_exits_2_with_message(capsys, monkeypatch):
    def broken(mats):
        raise RuntimeError("engine exploded")

    monkeypatch.setitem(polydet.engines.ENGINES, "volume", broken)
    assert cli.main(["bench", "--n", "2", "--engine", "volume", "--trials", "1"]) == 2
    assert "engine exploded" in capsys.readouterr().err


def test_bench_rows_follow_the_input_order_and_skip_guarded_cells():
    # naive is guarded above n = 6, so its n = 7 cell has no row
    rows = cli.run_bench([3, 7, 2], ["naive", "subset_sum"], repetitions=3, seed=2)
    assert [(name, n) for name, n, _, _ in rows] == [
        ("naive", 3),
        ("naive", 2),
        ("subset_sum", 3),
        ("subset_sum", 7),
        ("subset_sum", 2),
    ]
    for _, _, mean, std in rows:
        assert math.isfinite(mean) and mean > 0
        assert math.isfinite(std) and std >= 0


def test_bench_out_file(capsys, tmp_path):
    target = tmp_path / "bench.csv"
    code = cli.main(
        ["bench", "--n", "2", "--engine", "subset_sum", "--trials", "1", "--out", str(target)]
    )
    assert code == 0
    assert target.read_text().startswith("engine,n,mean_ns,stddev_ns")


def test_anomaly_bundled_config(capsys):
    fields = str(REPO_ROOT / "configs" / "fields_n3.json")
    couplings = str(REPO_ROOT / "configs" / "couplings.json")
    code, out = run_cli(capsys, "anomaly", fields, couplings, "--json", "--trials", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["invariance"] == "ok"
    assert payload["su_invariance_max_deviation"] < 1e-9
    assert payload["axial_phase_max_deviation"] < 1e-9
    assert payload["field_expansion"]["max_residual"] < 1e-8
    kappa = payload["field_expansion"]["kappa_re"]
    assert abs(kappa - 96 * math.sqrt(2)) < 1e-6
    assert "value" in payload["lagrangian"] and "value_shifted" in payload["lagrangian"]


def test_anomaly_zero_fields(capsys, tmp_path):
    zeros = {"n": 3, "multiplets": [{"s": [0] * 9, "p": [0] * 9}, {"s": [0] * 9, "p": [0] * 9}]}
    fields = tmp_path / "zeros.json"
    fields.write_text(json.dumps(zeros))
    couplings = str(REPO_ROOT / "configs" / "couplings.json")
    code, out = run_cli(capsys, "anomaly", str(fields), couplings, "--json", "--trials", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["su_invariance_max_deviation"] is None
    assert payload["lagrangian"]["value"] == 0


def test_anomaly_names_an_indeterminate_invariance(capsys, tmp_path):
    # a zero second multiplet zeroes eps(A1, A1, A2): the ratios carry nothing,
    # which the report says in so many words, and the run still succeeds
    bundled = json.loads((REPO_ROOT / "configs" / "fields_n3.json").read_text())
    bundled["multiplets"][1] = {"s": [0] * 9, "p": [0] * 9}
    fields = tmp_path / "zero_second.json"
    fields.write_text(json.dumps(bundled))
    couplings = str(REPO_ROOT / "configs" / "couplings.json")
    code, out = run_cli(capsys, "anomaly", str(fields), couplings, "--json", "--trials", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["invariance"] == "indeterminate"
    assert payload["su_invariance_max_deviation"] is None
    assert payload["axial_phase_max_deviation"] is None
    code, out = run_cli(capsys, "anomaly", str(fields), couplings, "--trials", "2")
    assert code == 0
    assert "invariance ratios: indeterminate (base value too small)" in out


def test_anomaly_reports_only_indeterminate_ratios_as_such(capsys, monkeypatch):
    fields = str(REPO_ROOT / "configs" / "fields_n3.json")
    couplings = str(REPO_ROOT / "configs" / "couplings.json")
    monkeypatch.setattr(cli, "random_matrix", lambda n, seed, kind: np.ones((n, n - 1)))
    assert cli.main(["anomaly", fields, couplings, "--json", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "u_left must be square" in captured.err


def test_anomaly_two_flavors(capsys):
    fields = str(REPO_ROOT / "configs" / "fields_n2.json")
    couplings = str(REPO_ROOT / "configs" / "couplings.json")
    code, out = run_cli(capsys, "anomaly", fields, couplings, "--json", "--trials", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    assert payload["invariance"] == "ok"
    assert payload["axial_phase_max_deviation"] < 1e-9
    assert "field_expansion" not in payload


def test_anomaly_text_report(capsys):
    fields = str(REPO_ROOT / "configs" / "fields_n3.json")
    couplings = str(REPO_ROOT / "configs" / "couplings.json")
    code, out = run_cli(capsys, "anomaly", fields, couplings, "--trials", "3")
    assert code == 0
    assert "invariance" in out
    assert "kappa" in out
    assert "lagrangian" in out


def test_anomaly_malformed_input_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3}')
    couplings = str(REPO_ROOT / "configs" / "couplings.json")
    assert cli.main(["anomaly", str(bad), couplings]) == 2


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n": 3.7, "multiplets": [{}, {}]}, '"n" must be an integer from 2 to 5, got 3.7'),
        ({"n": 3000, "multiplets": [{}, {}]}, '"n" must be an integer from 2 to 5, got 3000'),
        ({"n": 3, "multiplets": [{}, 7]}, "multiplet 1 must be an object, got int"),
        (
            {"n": 3, "multiplets": [{"S": [1.0] * 9, "P": [2.0] * 9}, {}]},
            "multiplet 0 has unknown key 'S'; expected \"s\" or \"p\"",
        ),
        ({"n": 2, "multiplets": [{"s": [[1, 2], [3]]}]}, 'multiplet 0 "s" is ragged: its nested lists do not form an array'),
        ({"n": 2, "multiplets": [{}, {"p": [[1, 2], 3]}]}, 'multiplet 1 "p" is ragged: its nested lists do not form an array'),
    ],
    ids=(
        "fractional-n",
        "n-beyond-the-generators",
        "non-object-multiplet",
        "misspelt-component-key",
        "ragged-s",
        "ragged-p",
    ),
)
def test_anomaly_rejects_a_bad_field_configuration(capsys, tmp_path, fields, message):
    path = tmp_path / "fields.json"
    path.write_text(json.dumps(fields))
    couplings = str(REPO_ROOT / "configs" / "couplings.json")
    assert cli.main(["anomaly", str(path), couplings]) == 2
    assert capsys.readouterr().err == f"polydet: error: {message}\n"


@pytest.mark.parametrize(
    "field, value, shown",
    [("c3", [1, "inf"], "(1+infj)"), ("f0", "nan", "nan")],
)
def test_anomaly_rejects_non_finite_couplings(capsys, tmp_path, field, value, shown):
    couplings = json.loads((REPO_ROOT / "configs" / "couplings.json").read_text())
    couplings[field] = value
    path = tmp_path / "couplings.json"
    path.write_text(json.dumps(couplings))
    fields = str(REPO_ROOT / "configs" / "fields_n3.json")
    assert cli.main(["anomaly", fields, str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"polydet: error: invalid couplings JSON: {field} must be finite, got {shown}\n"


VALID_COUPLINGS = {"c1": 1.2, "c2": 0.8, "c3": [0.5, 0.1], "c4": [-0.3, 0.2], "f0": 0.9}
PAIR = "a number, a numeric string or a [re, im] pair"


@pytest.mark.parametrize(
    "couplings, message",
    [
        ([1.2, 0.8], "expected an object of c1, c2, c3, c4, f0, got list"),
        ({k: v for k, v in VALID_COUPLINGS.items() if k != "f0"}, "f0 is missing; expected a number or a numeric string"),
        ({**VALID_COUPLINGS, "c1": [1, 2, 3]}, f"c1 must be {PAIR}, got [1, 2, 3]"),
        ({**VALID_COUPLINGS, "c1": {"re": 1}}, f"c1 must be {PAIR}, got {{'re': 1}}"),
        ({**VALID_COUPLINGS, "f0": 10**400}, "f0 must be finite, got inf"),
    ],
    ids=("list-payload", "missing-f0", "three-parts", "object-value", "integer-beyond-float"),
)
def test_anomaly_names_the_coupling_at_fault(capsys, tmp_path, couplings, message):
    path = tmp_path / "couplings.json"
    path.write_text(json.dumps(couplings))
    fields = str(REPO_ROOT / "configs" / "fields_n3.json")
    assert cli.main(["anomaly", fields, str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"polydet: error: invalid couplings JSON: {message}\n"


def test_compute_out_file(capsys, tmp_path, two_files):
    target = tmp_path / "result.json"
    code = cli.main(["compute", *two_files, "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["engine"] == "subset_sum"
