import json
import math
import resource
import subprocess
import sys
import time

import pytest

import symres.cli
from symres.cli import main

POWER_SUMS = {"n": 3, "A1": "1", "A2": "-3", "A3": "3"}
PURE_S3 = {"n": 3, "A1": "0", "A2": "0", "A3": "1"}
PURE_S1_CUBED = {"n": 3, "A1": "1", "A2": "0", "A3": "0"}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- closed ---------------------------------------------------------------------

def test_closed_vanishing_signals_exit_three(tmp_path, capsys):
    path = write_json(tmp_path, "s3.json", PURE_S3)
    code, out, _ = run_cli(capsys, "closed", path)
    assert code == 3
    assert out == (
        '{"canonical": "0", "paper": "0", "vanishes": true, "factors": '
        '[{"k": 0, "Y": "2", "exp": 1}, {"k": 1, "Y": "0", "exp": 2}, '
        '{"k": 2, "Y": "0", "exp": 1}], "ratio": null, "value": "0"}\n')


def test_closed_nonvanishing(tmp_path, capsys):
    path = write_json(tmp_path, "ps.json", POWER_SUMS)
    code, out, _ = run_cli(capsys, "closed", path)
    assert code == 0
    assert out == (
        '{"canonical": "531441", "paper": "8503056", "vanishes": false, "factors": '
        '[{"k": 0, "Y": "54", "exp": 1}, {"k": 1, "Y": "54", "exp": 2}, '
        '{"k": 2, "Y": "54", "exp": 1}], "ratio": "16", "value": "531441"}\n')


def test_closed_nonvanishing_n4(tmp_path, capsys):
    path = write_json(tmp_path, "ps4.json", dict(POWER_SUMS, n=4))
    code, out, _ = run_cli(capsys, "closed", path)
    assert code == 0
    assert out == (
        '{"canonical": "1853020188851841", "paper": "474373168346071296", '
        '"vanishes": false, "factors": [{"k": 0, "Y": "54", "exp": 1}, '
        '{"k": 1, "Y": "54", "exp": 3}, {"k": 2, "Y": "54", "exp": 3}, '
        '{"k": 3, "Y": "54", "exp": 1}], "ratio": "256", '
        '"value": "1853020188851841"}\n')


def test_closed_paper_normalization_flag(tmp_path, capsys):
    path = write_json(tmp_path, "ps.json", POWER_SUMS)
    code, out, _ = run_cli(capsys, "closed", path, "--paper-normalization")
    assert code == 0
    assert json.loads(out)["value"] == "8503056"


def test_closed_rejects_small_n(tmp_path, capsys):
    path = write_json(tmp_path, "bad.json", {"n": 2, "A1": "1", "A2": "0", "A3": "0"})
    code, out, err = run_cli(capsys, "closed", path)
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


@pytest.mark.parametrize("command", ["closed", "sweep"])
@pytest.mark.parametrize("n", [3.7, "3", True])
def test_rejects_non_integer_n(tmp_path, capsys, command, n):
    payload = dict(SWEEP_3X3 if command == "sweep" else POWER_SUMS, n=n)
    path = write_json(tmp_path, "bad.json", payload)
    code, out, err = run_cli(capsys, command, path)
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


def test_memory_error_is_a_guard_exit(tmp_path, capsys, monkeypatch):
    def out_of_memory(cubic):
        raise MemoryError

    monkeypatch.setattr(symres.cli, "closed_form_resultant", out_of_memory)
    path = write_json(tmp_path, "ps.json", POWER_SUMS)
    code, out, err = run_cli(capsys, "closed", path)
    assert code == 4
    assert out == ""
    assert json.loads(err) == {"error": "out of memory"}


def run_module(*argv):
    return subprocess.run([sys.executable, "-m", "symres", *argv],
                          capture_output=True, text=True, timeout=20)


def test_closed_size_guard_runs_before_expanding(tmp_path):
    # the n = 40 closed form has about 6.5e13 bits; it is refused from its
    # factors' bit lengths instead of being expanded. At n = 15000 the bit
    # estimate itself has over 4300 digits, so the refusal names the limit.
    for n in (40, 15000):
        proc = run_module("closed", write_json(tmp_path, f"ps{n}.json", dict(POWER_SUMS, n=n)))
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert len(proc.stderr) < 200
        assert "error" in json.loads(proc.stderr)


def test_closed_vanishing_at_large_n_is_answered(tmp_path, capsys):
    path = write_json(tmp_path, "s3.json", dict(PURE_S3, n=40))
    code, out, _ = run_cli(capsys, "closed", path)
    assert code == 3
    payload = json.loads(out)
    assert (payload["canonical"], payload["ratio"]) == ("0", None)
    assert [f["exp"] for f in payload["factors"]] == [math.comb(39, k) for k in range(40)]


def test_deep_json_is_malformed_input(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    proc = run_module("closed", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "error" in json.loads(proc.stderr)


@pytest.mark.parametrize("command", ["closed", "compare"])
def test_answer_too_large_to_print_is_a_guard_exit(tmp_path, command):
    # the n = 14 power-sum value is inside the size budget but has more
    # digits than Python prints: the input is valid, the answer too large
    proc = run_module(command, write_json(tmp_path, "ps14.json", dict(POWER_SUMS, n=14)))
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "error" in json.loads(proc.stderr)


def test_input_integer_past_the_digit_limit_is_malformed(tmp_path, capsys):
    path = write_json(tmp_path, "c.json", dict(POWER_SUMS, A1="1" + "0" * 5000))
    code, out, err = run_cli(capsys, "closed", path)
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


@pytest.mark.parametrize("text", ["1_0", "\u0663"], ids=["underscore", "arabic-indic-digit"])
def test_closed_rejects_scalars_beyond_ascii_digits(tmp_path, capsys, text):
    path = write_json(tmp_path, "c.json", dict(POWER_SUMS, A1=text))
    code, out, err = run_cli(capsys, "closed", path)
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


def test_closed_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "closed", str(path))
    assert code == 2
    assert "error" in json.loads(err)


# -- compare ----------------------------------------------------------------------

def test_compare_all_routes_agree(tmp_path, capsys):
    path = write_json(tmp_path, "ps.json", POWER_SUMS)
    code, out, _ = run_cli(capsys, "compare", path, "--oracle")
    payload = json.loads(out)
    assert code == 0
    assert payload == {
        "boxed": "531441", "chain": "531441", "oracle": "531441", "agree": True}


def test_compare_oracle_after_one_substitution_seed(tmp_path, capsys):
    path = write_json(tmp_path, "c.json", {"n": 3, "A1": "0", "A2": "1", "A3": "1"})
    code, out, _ = run_cli(capsys, "compare", path, "--oracle")
    assert code == 0
    assert out == '{"boxed": "-2160", "chain": "-2160", "oracle": "-2160", "agree": true}\n'


def test_compare_oracle_through_the_pencil(tmp_path, capsys):
    # every retry is stuck on this a3 = 0 cubic; the oracle's 0 comes from
    # the rank certificate, which runs before the pencil
    path = write_json(tmp_path, "c.json", {"n": 4, "A1": "4", "A2": "-1", "A3": "0"})
    code, out, _ = run_cli(capsys, "compare", path, "--oracle")
    assert code == 0
    assert out == '{"boxed": "0", "chain": "unavailable", "oracle": "0", "agree": true}\n'


@pytest.mark.parametrize("a1, a2", [("1", "2"), ("0", "9")])
def test_compare_oracle_n5_zero_by_rank(tmp_path, capsys, a1, a2):
    # a3 = 0 at n = 5: every retry is stuck and the pencil would take about
    # 15 s; the rank certificate answers
    path = write_json(tmp_path, "c.json", {"n": 5, "A1": a1, "A2": a2, "A3": "0"})
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "compare", path, "--oracle")
    assert time.perf_counter() - start < 3.0
    assert code == 0
    assert out == '{"boxed": "0", "chain": "unavailable", "oracle": "0", "agree": true}\n'


def test_compare_chain_unavailable(tmp_path, capsys):
    path = write_json(tmp_path, "s1.json", PURE_S1_CUBED)
    code, out, _ = run_cli(capsys, "compare", path, "--oracle")
    payload = json.loads(out)
    assert code == 0
    assert payload["chain"] == "unavailable"
    assert payload["boxed"] == "0"
    assert payload["oracle"] == "0"
    assert payload["agree"] is True


@pytest.mark.parametrize("n", [40, 10 ** 4])
def test_compare_vanishing_at_large_n_is_answered(tmp_path, n):
    # the chain expands through the closed form's kernel, so a vanishing
    # factor answers it before any power is built
    path = write_json(tmp_path, "s3.json", dict(PURE_S3, n=n))
    proc = subprocess.run([sys.executable, "-m", "symres", "compare", path],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert (payload["boxed"], payload["chain"], payload["agree"]) == ("0", "0", True)


@pytest.mark.parametrize("cubic", [dict(POWER_SUMS, n=6), dict(PURE_S3, n=300),
                                   dict(PURE_S3, n=10 ** 6), dict(POWER_SUMS, n=10 ** 8),
                                   dict(PURE_S3, n=10 ** 9)],
                         ids=["power-sums-n6", "s3-n300", "s3-n1e6", "power-sums-n1e8",
                              "s3-n1e9"])
def test_compare_oracle_size_is_refused_before_any_route(tmp_path, cubic):
    # the Macaulay size is read from the degrees alone, lazily, so no closed
    # form, chain, gradient form or n-tuple of degrees is built before the
    # refusal
    proc = subprocess.run(
        [sys.executable, "-m", "symres", "compare", "--oracle",
         write_json(tmp_path, "c.json", cubic)],
        capture_output=True, text=True, timeout=5, preexec_fn=_limit_address_space)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert len(proc.stderr) < 200
    assert "Macaulay matrix" in json.loads(proc.stderr)["error"]


def test_compare_without_oracle(tmp_path, capsys):
    path = write_json(tmp_path, "ps.json", POWER_SUMS)
    code, out, _ = run_cli(capsys, "compare", path)
    payload = json.loads(out)
    assert code == 0
    assert payload["oracle"] is None


# -- witness ---------------------------------------------------------------------

def test_witness_pure_s3(tmp_path, capsys):
    path = write_json(tmp_path, "s3.json", PURE_S3)
    code, out, _ = run_cli(capsys, "witness", path)
    assert code == 0
    assert out == ('{"pattern": {"k": 1, "t": "1", "u": "0"}, '
                   '"point": ["1", "0", "0"], "field": "rational"}\n')


def test_witness_none_for_power_sums(tmp_path, capsys):
    path = write_json(tmp_path, "ps.json", POWER_SUMS)
    code, out, _ = run_cli(capsys, "witness", path)
    assert code == 0
    assert out == '{"witness": null}\n'


def test_witness_s1_zero_for_n4(tmp_path, capsys):
    from symres.cli import parse_scalar

    path = write_json(tmp_path, "s1n4.json", {"n": 4, "A1": "1", "A2": "0", "A3": "0"})
    code, out, _ = run_cli(capsys, "witness", path)
    payload = json.loads(out)
    assert code == 0
    assert sum(parse_scalar(v) for v in payload["point"]) == 0


@pytest.mark.parametrize("n", [10 ** 5, 10 ** 6])
def test_witness_at_large_n_takes_no_loop_over_n(tmp_path, n):
    # the pattern k comes from one linear equation in m = (n - 2k)^2, not
    # from trying every k, so no work grows with n before null is printed
    path = write_json(tmp_path, "ps.json", dict(POWER_SUMS, n=n))
    start = time.perf_counter()
    proc = run_module("witness", path)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 0
    assert proc.stdout == '{"witness": null}\n'


def test_witness_quadratic_extension_rendering(tmp_path, capsys):
    path = write_json(tmp_path, "a3zero.json", {"n": 3, "A1": "1", "A2": "1", "A3": "0"})
    code, out, _ = run_cli(capsys, "witness", path)
    payload = json.loads(out)
    assert code == 0
    assert payload["pattern"] is None
    assert payload["field"] == "quadratic(delta=-3)"
    assert payload["point"] == ["1", "-1/2+1/2*r", "-1/2-1/2*r"]


# -- sweep ------------------------------------------------------------------------

SWEEP_3X3 = {
    "n": 3,
    "A1": {"start": "-1", "stop": "1", "step": "1"},
    "A2": {"start": "-1", "stop": "1", "step": "1"},
    "A3": "1",
}


def test_sweep_three_by_three(tmp_path, capsys):
    path = write_json(tmp_path, "grid.json", SWEEP_3X3)
    code, out, _ = run_cli(capsys, "sweep", path)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 9
    center = [l for l in lines if l["A1"] == "0" and l["A2"] == "0"]
    assert center == [{"A1": "0", "A2": "0", "canonical": "0", "vanishes": True}]


def test_sweep_pins_known_value(tmp_path, capsys):
    spec = {
        "n": 3,
        "A1": {"start": "0", "stop": "2", "step": "1"},
        "A2": {"start": "-3", "stop": "-1", "step": "1"},
        "A3": "3",
    }
    path = write_json(tmp_path, "grid.json", spec)
    code, out, _ = run_cli(capsys, "sweep", path)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    hit = [r for r in rows if r["A1"] == "1" and r["A2"] == "-3"]
    assert hit == [{"A1": "1", "A2": "-3", "canonical": "531441", "vanishes": False}]


def test_sweep_row_major_order(tmp_path, capsys):
    path = write_json(tmp_path, "grid.json", SWEEP_3X3)
    _, out, _ = run_cli(capsys, "sweep", path)
    pairs = [(json.loads(l)["A1"], json.loads(l)["A2"]) for l in out.splitlines()]
    assert pairs == [(a1, a2) for a1 in ("-1", "0", "1") for a2 in ("-1", "0", "1")]


@pytest.mark.parametrize("n", [2, -7])
def test_sweep_rejects_small_n_on_an_all_zero_grid(tmp_path, capsys, n):
    # every point is the zero polynomial, so no cubic is built; n is still checked
    zero = {"start": "0", "stop": "0", "step": "1"}
    path = write_json(tmp_path, "grid.json", {"n": n, "A1": zero, "A2": zero, "A3": "0"})
    code, out, err = run_cli(capsys, "sweep", path)
    assert code == 2
    assert out == ""
    assert "n must be >= 3" in json.loads(err)["error"]


def test_sweep_zero_step_rejected(tmp_path, capsys):
    spec = dict(SWEEP_3X3, A1={"start": "0", "stop": "1", "step": "0"})
    path = write_json(tmp_path, "grid.json", spec)
    code, _, err = run_cli(capsys, "sweep", path)
    assert code == 2
    assert "error" in json.loads(err)


def test_sweep_stop_below_start_is_empty(tmp_path, capsys):
    spec = dict(SWEEP_3X3, A1={"start": "1", "stop": "1/2", "step": "1"})
    path = write_json(tmp_path, "grid.json", spec)
    code, out, err = run_cli(capsys, "sweep", path)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "empty grid range"}


def test_sweep_grid_guard(tmp_path, capsys):
    spec = {
        "n": 3,
        "A1": {"start": "0", "stop": "1100", "step": "1"},
        "A2": {"start": "0", "stop": "1100", "step": "1"},
        "A3": "1",
    }
    path = write_json(tmp_path, "grid.json", spec)
    code, _, err = run_cli(capsys, "sweep", path)
    assert code == 4
    assert "error" in json.loads(err)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (512 * 2 ** 20, 512 * 2 ** 20))


def test_sweep_grid_guard_runs_before_allocation(tmp_path):
    # a 10^12-point axis must be refused from its count, not built first
    spec = dict(SWEEP_3X3, A1={"start": "0", "stop": str(10 ** 12), "step": "1"},
                A2={"start": "0", "stop": "0", "step": "1"})
    path = write_json(tmp_path, "grid.json", spec)
    proc = subprocess.run(
        [sys.executable, "-m", "symres", "sweep", path],
        capture_output=True, text=True, timeout=20, preexec_fn=_limit_address_space)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error" in json.loads(proc.stderr)


def test_sweep_one_point_size_guard(tmp_path):
    spec = dict(SWEEP_3X3, n=40, A1={"start": "1", "stop": "1", "step": "1"},
                A2={"start": "-3", "stop": "-3", "step": "1"}, A3="3")
    proc = run_module("sweep", write_json(tmp_path, "grid.json", spec))
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error" in json.loads(proc.stderr)


def test_sweep_one_point_too_large_to_print(tmp_path):
    # the first point has b1 = 0 and prints "0"; the second passes the
    # int->str limit, so the whole grid is refused and no line is written
    spec = dict(SWEEP_3X3, n=14, A1={"start": "195/196", "stop": "1", "step": "1/196"},
                A2={"start": "-3", "stop": "-3", "step": "1"}, A3="3")
    out_path = tmp_path / "lines.jsonl"
    proc = run_module("sweep", write_json(tmp_path, "grid.json", spec), "--out", str(out_path))
    assert proc.returncode == 4
    assert not out_path.exists()
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "error" in json.loads(proc.stderr)


def test_sweep_deterministic_repeat(tmp_path, capsys):
    path = write_json(tmp_path, "grid.json", SWEEP_3X3)
    _, first, _ = run_cli(capsys, "sweep", path)
    _, second, _ = run_cli(capsys, "sweep", path)
    assert first == second


def test_sweep_out_file(tmp_path, capsys):
    path = write_json(tmp_path, "grid.json", SWEEP_3X3)
    out_path = tmp_path / "lines.jsonl"
    code, out, _ = run_cli(capsys, "sweep", path, "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert len(out_path.read_text(encoding="utf-8").splitlines()) == 9


# -- configuratrix -----------------------------------------------------------------

def test_configuratrix_solvable(tmp_path, capsys):
    metric = write_json(tmp_path, "m.json", POWER_SUMS)
    momentum = write_json(tmp_path, "y.json", {"y": ["1", "0", "0"]})
    code, out, _ = run_cli(capsys, "configuratrix", metric, momentum)
    payload = json.loads(out)
    assert code == 0
    assert payload == {"resultant": "0", "vanishes": True, "diagnostic": None}


def test_configuratrix_generic(tmp_path, capsys):
    metric = write_json(tmp_path, "m.json", POWER_SUMS)
    momentum = write_json(tmp_path, "y.json", {"y": ["1", "1", "2"]})
    code, out, _ = run_cli(capsys, "configuratrix", metric, momentum)
    assert code == 0
    assert out == ('{"resultant": "-51482459906870698503", "vanishes": false, '
                   '"diagnostic": null}\n')


def test_configuratrix_degenerate_metric(tmp_path, capsys):
    metric = write_json(tmp_path, "m.json", PURE_S3)
    momentum = write_json(tmp_path, "y.json", {"y": ["5", "7", "11"]})
    code, out, _ = run_cli(capsys, "configuratrix", metric, momentum)
    payload = json.loads(out)
    assert code == 0
    assert payload["vanishes"] is True
    assert payload["diagnostic"] == "DEGENERATE_METRIC_IDENTICALLY_ZERO"


@pytest.mark.parametrize("y", ["123", {"1": 0, "2": 0, "3": 0}], ids=["string", "object"])
def test_configuratrix_rejects_momentum_not_a_list(tmp_path, capsys, y):
    metric = write_json(tmp_path, "m.json", POWER_SUMS)
    momentum = write_json(tmp_path, "y.json", {"y": y})
    code, out, err = run_cli(capsys, "configuratrix", metric, momentum)
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


@pytest.mark.parametrize("cubic", [PURE_S3, POWER_SUMS, dict(POWER_SUMS, n=4)],
                         ids=["degenerate", "power-sums", "power-sums-n4"])
def test_configuratrix_rejects_momentum_of_wrong_length(tmp_path, capsys, cubic):
    # malformed input exits 2 before the size rule, which refuses n = 4 with 4
    metric = write_json(tmp_path, "m.json", cubic)
    momentum = write_json(tmp_path, "y.json", {"y": ["1", "2"]})
    code, out, err = run_cli(capsys, "configuratrix", metric, momentum)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": f"momentum has 2 components, expected {cubic['n']}"}


def test_configuratrix_dimension_guard(tmp_path, capsys):
    metric = write_json(tmp_path, "m.json", {"n": 4, "A1": "1", "A2": "-3", "A3": "3"})
    momentum = write_json(tmp_path, "y.json", {"y": ["1", "0", "0", "0"]})
    code, _, err = run_cli(capsys, "configuratrix", metric, momentum)
    assert code == 4
    assert "error" in json.loads(err)



@pytest.mark.parametrize("argv, expected_code", [
    (("closed", POWER_SUMS), 0),
    (("closed", PURE_S3), 3),
    (("closed", POWER_SUMS, "--paper-normalization"), 0),
    (("compare", POWER_SUMS), 0),
    (("compare", PURE_S3, "--oracle"), 0),
    (("witness", PURE_S3), 0),
    (("witness", POWER_SUMS), 0),
    (("configuratrix", POWER_SUMS, {"y": ["1", "0", "0"]}), 0),
    (("configuratrix", POWER_SUMS, {"y": ["2", "1/3", "-1"]}), 0),
    (("sweep", SWEEP_3X3), 0),
], ids=["closed", "closed-vanishing", "closed-paper", "compare", "compare-oracle",
        "witness", "witness-null", "configuratrix", "configuratrix-generic", "sweep"])
def test_out_file_holds_the_bytes_stdout_shows(tmp_path, capsys, argv, expected_code):
    argv = [write_json(tmp_path, f"in{i}.json", arg) if isinstance(arg, dict) else arg
            for i, arg in enumerate(argv)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (expected_code, "")
    assert out
    out_path = tmp_path / "out.json"
    assert run_cli(capsys, *argv, "--out", str(out_path)) == (code, "", "")
    assert out_path.read_bytes() == out.encode("utf-8")


# -- input errors ------------------------------------------------------------------

@pytest.mark.parametrize("command", ["closed", "compare", "witness", "sweep"])
@pytest.mark.parametrize("payload, kind", [([1, 2], "list"), ("3", "str"), (None, "NoneType")])
def test_input_that_is_not_a_json_object_is_named(tmp_path, capsys, command, payload, kind):
    path = write_json(tmp_path, "bad.json", payload)
    code, out, err = run_cli(capsys, command, path)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": f"expected a JSON object, got {kind}"}


@pytest.mark.parametrize("command, payload, field", [
    ("closed", {"n": 3, "A1": "1", "A2": "0"}, "A3"),
    ("witness", {"A1": "1", "A2": "0", "A3": "0"}, "n"),
    ("sweep", {"n": 3, "A1": {"start": "0", "stop": "1", "step": "1"}, "A3": "1"}, "A2"),
    ("sweep", dict(SWEEP_3X3, A1={"start": "0", "step": "1"}), "stop"),
])
def test_missing_field_is_named(tmp_path, capsys, command, payload, field):
    code, out, err = run_cli(capsys, command, write_json(tmp_path, "bad.json", payload))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": f"missing field '{field}'"}


def test_configuratrix_names_a_missing_momentum_field(tmp_path, capsys):
    metric = write_json(tmp_path, "metric.json", POWER_SUMS)
    momentum = write_json(tmp_path, "momentum.json", {"x": ["1", "0", "0"]})
    code, out, err = run_cli(capsys, "configuratrix", metric, momentum)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "missing field 'y'"}


@pytest.mark.parametrize("command", ["closed", "compare", "witness", "sweep", "configuratrix"])
def test_every_command_documents_out(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "--out OUT write output to file" in " ".join(capsys.readouterr().out.split())


# -- process-level smoke test --------------------------------------------------------

def test_module_entry_point_runs(tmp_path):
    path = write_json(tmp_path, "ps.json", POWER_SUMS)
    proc = subprocess.run(
        [sys.executable, "-m", "symres", "closed", path],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["canonical"] == "531441"


def test_stdin_input(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "symres", "closed", "-"],
        input=json.dumps(PURE_S3), capture_output=True, text=True)
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["vanishes"] is True
