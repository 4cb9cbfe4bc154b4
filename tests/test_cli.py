import argparse
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from diagssm import KernelParams, build_kernel, cli, init_layer, save_layer_params
from diagssm.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kernel_dump_shape(tmp_path, capsys):
    out = tmp_path / "k.csv"
    code, _, _ = run(["kernel", "--variant", "exp", "--n", "8", "--l", "128",
                      "--seed", "0", "--out", str(out)], capsys)
    assert code == 0
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 1
    assert len(rows[0].split(",")) == 128


def test_kernel_bad_variant_usage_error(capsys):
    code, _, err = run(["kernel", "--variant", "bogus", "--l", "4"], capsys)
    assert code == 1
    assert "usage" in err


def test_kernel_override_flags_match_hand_value(tmp_path, capsys):
    out = tmp_path / "k.csv"
    code, _, _ = run([
        "kernel", "--variant", "exp", "--n", "1", "--l", "4",
        "--delta", repr(math.log(2.0)), "--lambda-re", "0", "--lambda-im", "0",
        "--w", "1,0", "--out", str(out)], capsys)
    assert code == 0
    got = np.array([float(v) for v in out.read_text().strip().split(",")])
    assert np.abs(got - np.array([0.5, 0.25, 0.125, 0.0625])).max() < 1e-12


def test_kernel_prints_to_stdout_without_out_flag(capsys):
    code, out, _ = run(["kernel", "--variant", "exp", "--n", "1", "--l", "3",
                        "--delta", "1.0", "--lambda-re", "0", "--lambda-im", "0",
                        "--w", "1,0"], capsys)
    assert code == 0
    values = [float(v) for v in out.strip().split(",")]
    assert len(values) == 3


def test_kernel_explicit_parameters_default_to_unit_delta(capsys):
    # lam = -1 at delta = 1: K_k = (1 - e^-1) e^-k, so K_0 = 0.632...
    code, out, _ = run(["kernel", "--variant", "exp", "--l", "3", "--lambda-re", "0",
                        "--lambda-im", "0", "--w", "1,0"], capsys)
    assert code == 0
    got = np.array([float(v) for v in out.strip().split(",")])
    assert got.tobytes() == build_kernel(KernelParams("exp", [0.0], [0.0], [1.0], 0.0), 3).tobytes()
    assert np.allclose(got, -math.expm1(-1.0) * np.exp(-np.arange(3.0)), rtol=1e-13, atol=0.0)
    code, out, _ = run(["kernel", "--help"], capsys)
    assert code == 0 and "or to 1 with --lambda-re/--lambda-im/--w" in " ".join(out.split())


def test_kernel_delta_overrides_the_seeded_sample_time(capsys):
    code, out, _ = run(["kernel", "--variant", "exp", "--n", "8", "--l", "16",
                        "--seed", "3", "--delta", "0.05"], capsys)
    assert code == 0
    params = init_layer(1, 8, "exp", 3).coordinate_kernel_params(0)
    params.delta_log = np.array([math.log(0.05)])      # one coordinate: shape (1,)
    got = np.array([float(v) for v in out.strip().split(",")])
    assert got.tobytes() == build_kernel(params, 16).tobytes()


def test_kernel_rejects_nonpositive_delta(capsys):
    code, _, err = run(["kernel", "--variant", "exp", "--l", "4",
                        "--delta", "0"], capsys)
    assert code == 1
    assert "delta" in err


def test_kernel_unwritable_path(tmp_path, capsys):
    code, _, err = run(["kernel", "--variant", "exp", "--n", "2", "--l", "4",
                        "--out", str(tmp_path / "no" / "dir" / "k.csv")], capsys)
    assert code == 2
    assert "cannot write" in err


def test_check_prop1_passes(capsys):
    code, out, _ = run(["check", "--suite", "prop1", "--trials", "5",
                        "--seed", "7"], capsys)
    assert code == 0
    assert out.count("PASS prop1 trial") == 5


def test_check_all_smoke(capsys):
    code, out, _ = run(["check", "--suite", "all", "--trials", "1",
                        "--seed", "0"], capsys)
    assert code == 0
    for name in ("prop1", "recurrence", "fftsoftmax", "grad"):
        assert f"PASS {name} trial 0" in out


def test_check_deterministic_output(capsys):
    code1, out1, _ = run(["check", "--suite", "grad", "--trials", "3",
                          "--seed", "5"], capsys)
    code2, out2, _ = run(["check", "--suite", "grad", "--trials", "3",
                          "--seed", "5"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_check_failure_exits_3_and_names_the_instance(monkeypatch, capsys):
    monkeypatch.setitem(cli.TOLERANCES, "grad", 0.0)
    code, out, err = run(["check", "--suite", "grad", "--trials", "2", "--seed", "5"], capsys)
    assert code == 3
    assert out.count("FAIL grad trial") == 2 and out.rstrip().endswith("FAIL: 2 checks")
    assert err.count("failing instance: n=") == 2


def test_check_rejects_bad_trials(capsys):
    code, _, err = run(["check", "--suite", "prop1", "--trials", "0"], capsys)
    assert code == 1
    assert "trials" in err


@pytest.mark.parametrize("argv", [
    ["kernel", "--variant", "exp", "--n", "0", "--l", "4"],
    ["kernel", "--variant", "exp", "--l", "0"],
    ["train-toy", "--lag", "0", "--l", "4", "--steps", "0"],
    ["train-toy", "--lag", "0", "--l", "4", "--n", "0"],
    ["check", "--suite", "prop1", "--seed", "-1"],
    ["kernel", "--variant", "exp", "--l", "4", "--lambda-re", "0", "--lambda-im", "0", "--w=1"],
    ["kernel", "--variant", "exp", "--l", "4", "--lambda-re", "0"],
    ["kernel", "--variant", "exp", "--l", "4", "--delta", "nan"],
    ["train-toy", "--lag", "0", "--l", "4", "--lr", "-1"],
    ["train-toy", "--lag", "0", "--l", "4", "--lr", "nan"],    # an argument error, not a divergence
])
def test_library_value_error_is_usage_error(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.startswith(f"diagssm {argv[0]}: ")


def test_heatmap_outputs(tmp_path, capsys):
    params = init_layer(4, 3, "softmax", seed=2)
    ppath = tmp_path / "params.json"
    save_layer_params(ppath, params)
    out = tmp_path / "heat.csv"
    code, _, _ = run(["heatmap", "--params", str(ppath), "--l", "32",
                      "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("k0,k1,")
    assert len(lines) == 5
    for line in lines[1:]:
        row = np.array([float(v) for v in line.split(",")])
        assert row.max() == pytest.approx(1.0)
    stats = json.loads((tmp_path / "heat.stats.json").read_text())
    assert len(stats["argmax"]) == 4
    srt = sorted(stats["argmax"])
    assert stats["argmax_p95"] == srt[math.ceil(0.95 * 4) - 1]


def test_heatmap_sidecar_sits_beside_the_csv(tmp_path, monkeypatch, capsys):
    # The extension is cut from the file name, not from a dotted directory name.
    save_layer_params(tmp_path / "params.json", init_layer(2, 3, "exp", seed=0))
    (tmp_path / "run.1").mkdir()
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(["heatmap", "--params", "params.json", "--l", "8",
                      "--out", "run.1/prof"], capsys)
    assert code == 0
    assert (tmp_path / "run.1" / "prof").is_file()
    assert len(json.loads((tmp_path / "run.1" / "prof.stats.json").read_text())["argmax"]) == 2
    assert not (tmp_path / "run.stats.json").exists()


@pytest.mark.parametrize("command", ["heatmap", "train-toy"])
def test_unwritable_output_is_an_io_error(tmp_path, capsys, command):
    save_layer_params(tmp_path / "params.json", init_layer(2, 3, "exp", seed=0))
    out = tmp_path / "no" / "dir" / "out.csv"
    argv = {"heatmap": ["heatmap", "--params", str(tmp_path / "params.json"), "--l", "8"],
            "train-toy": ["train-toy", "--lag", "0", "--l", "8", "--n", "2", "--steps", "1"]}
    code, _, err = run(argv[command] + ["--out", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"diagssm {command}: cannot write {out}: ")


def test_heatmap_malformed_json(tmp_path, capsys):
    bad = tmp_path / "params.json"
    bad.write_text("{not json")
    code, _, err = run(["heatmap", "--params", str(bad), "--l", "8",
                        "--out", str(tmp_path / "h.csv")], capsys)
    assert code == 2
    assert "cannot load" in err


def test_train_toy_short_lag(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run(["train-toy", "--lag", "0", "--l", "64", "--n", "16",
                           "--steps", "2000", "--seed", "0", "--out", str(out)],
                          capsys)
    assert code == 0
    assert "final_argmax=0" in stdout
    report = json.loads(out.read_text())
    steps = [item["step"] for item in report["history"]]
    assert steps == sorted(steps)
    assert len(set(steps)) == len(steps)
    assert report["final_argmax"] == 0


def test_train_toy_lag_out_of_range(capsys):
    code, _, err = run(["train-toy", "--lag", "2048", "--l", "1024"], capsys)
    assert code == 1
    assert "lag" in err


def test_train_toy_divergence_exits_4(capsys):
    # The loss overflows at the first step; under the suite's error::RuntimeWarning
    # filter a numpy warning would escape before the divergence is reported.
    code, _, err = run(["train-toy", "--lag", "1", "--l", "8", "--n", "4", "--steps", "5",
                        "--lr", "1e300"], capsys)
    assert code == 4
    assert err == "train-toy: training diverged at step 1\n"


def test_train_toy_seed_determinism(tmp_path, capsys):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code, _, _ = run(["train-toy", "--lag", "5", "--l", "64", "--n", "8",
                          "--steps", "200", "--seed", "9", "--out", str(out)],
                         capsys)
        assert code == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_heatmap_zero_kernel_row(tmp_path, capsys):
    params = init_layer(3, 4, "exp", seed=1)
    params.w[1] = 0.0
    ppath = tmp_path / "p.json"
    save_layer_params(ppath, params)
    out = tmp_path / "h.csv"
    code, _, _ = run(["heatmap", "--params", str(ppath), "--l", "16",
                      "--out", str(out)], capsys)
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    zero_row = np.array([float(v) for v in rows[1].split(",")])
    assert np.array_equal(zero_row, np.zeros(16))
    stats = json.loads((tmp_path / "h.stats.json").read_text())
    assert stats["argmax"][1] == 0


def test_train_toy_report_roundtrips(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run(["train-toy", "--lag", "2", "--l", "32", "--n", "4",
                      "--steps", "150", "--seed", "1", "--out", str(out)], capsys)
    report = json.loads(out.read_text())
    assert {"initial_mse", "final_mse", "final_argmax", "history"} <= set(report)
    assert report["history"][0]["step"] == 0
    assert report["history"][-1]["step"] == 150


ROOT = Path(__file__).resolve().parents[1]


def _invoked_subcommands(text):
    return set(re.findall(r"^\s*(?:python -m )?diagssm (\S+)", text, re.M))


def test_ci_and_readme_run_every_subcommand():
    # CI's "Entry points" step promises that every subcommand runs once,
    # and README's CLI block shows each one; neither names one that is gone.
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    step = workflow.split("- name: Entry points", 1)[1].split("- name:", 1)[0]
    readme = (ROOT / "README.md").read_text()
    cli_block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    assert _invoked_subcommands(step) == set(sub.choices)
    assert _invoked_subcommands(cli_block) == set(sub.choices)
