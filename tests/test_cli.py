"""Command line contract: exit codes, output formats, determinism.

Checks run main() in process so capsys can capture output; one test
drives the installed console script to cover the packaging entry.
"""

import inspect
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from lvr_lab import cli, fuss_catalan, verify
from lvr_lab.verify import CheckResult


# fc eval


def test_eval_on_real_axis_prints_bare_real(capsys):
    assert cli.main(["fc", "eval", "--p", "2", "--z", "0.25"]) == 0
    assert capsys.readouterr().out.strip() == "2.0"


def test_eval_complex_argument(capsys):
    assert cli.main(["fc", "eval", "--p", "3", "--z", "0.02,0.01"]) == 0
    re_s, im_s = capsys.readouterr().out.strip().split(",")
    assert float(re_s) > 1.0
    assert float(im_s) != 0.0


def test_eval_past_cut_exits_one(capsys):
    assert cli.main(["fc", "eval", "--p", "2", "--z", "0.3"]) == 1
    assert "CutProximity" in capsys.readouterr().err


@pytest.mark.parametrize("z", ["nan", "inf", "1,nan", "0.1,inf"])
def test_eval_non_finite_z_exits_one_cleanly(capsys, z):
    assert cli.main(["fc", "eval", "--p", "2", "--z", z]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("lvr-lab: error: ") and "not finite" in err
    assert err.count("\n") == 1


def test_eval_malformed_z_exits_one():
    with pytest.raises(SystemExit) as exc:
        cli.main(["fc", "eval", "--p", "2", "--z", "abc"])
    assert exc.value.code == 1


# fc numbers


def test_numbers_csv_golden_rows(capsys):
    assert cli.main(["fc", "numbers", "--p", "3", "--n-max", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "p,n,value"
    assert lines[1:] == ["3,0,1", "3,1,1", "3,2,3", "3,3,12", "3,4,55"]


def test_numbers_json_format(capsys):
    assert cli.main(["fc", "numbers", "--p", "2", "--n-max", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "lvr-lab/1"
    assert [row["value"] for row in doc["table"]] == ["1", "1", "2", "5"]


def test_numbers_out_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    assert cli.main(["fc", "numbers", "--p", "2", "--n-max", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text().splitlines()[-1] == "2,2,2"


# fc bounds / moments


def test_bounds_json_fields(capsys):
    assert cli.main(["fc", "bounds", "--p", "2", "--samples", "50", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "lvr-lab/1"
    assert doc["K"] >= max(doc["K_value"], doc["K_deriv"])
    assert doc["n_samples"] == 50


def test_moments_csv_residuals_small(capsys):
    assert cli.main(["fc", "moments", "--n-max", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,residual"
    assert len(lines) == 7
    assert all(float(line.split(",")[1]) < 1e-12 for line in lines[1:])


def test_moments_n_max_past_20_exits_one_before_any_quadrature(monkeypatch):
    calls = []
    monkeypatch.setattr(fuss_catalan, "moment_cross_check", lambda n: calls.append(n) or 0.0)
    with pytest.raises(SystemExit) as exc:
        cli.main(["fc", "moments", "--n-max", "25"])
    # a SystemExit that carries a message exits with status 1
    assert exc.value.code == "lvr-lab: error: need 0 <= n-max <= 20"
    assert calls == []


# verify


def test_verify_fc_json_schema(capsys):
    assert cli.main(["verify", "fc", "--json", "--no-timestamp"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "lvr-lab/1"
    assert doc["target"] == "fc"
    assert doc["n_fail"] == 0
    assert doc["n_pass"] == len(doc["checks"])
    row = doc["checks"][0]
    assert set(row) >= {"check", "params", "expected", "got", "tol", "pass"}
    assert "timestamp" not in doc
    assert "runtime_s" not in row


@pytest.mark.parametrize("layer", ["bkar", "contour"])
def test_verify_json_no_timestamp_is_byte_identical(capsys, layer):
    argv = ["verify", layer, "--json", "--no-timestamp", "--seed", "42"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first


def test_verify_json_timestamp_present_by_default(capsys):
    assert cli.main(["verify", "bkar", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "timestamp" in doc
    assert all("runtime_s" in row for row in doc["checks"])


def test_verify_human_output_has_summary(capsys):
    assert cli.main(["verify", "perturb"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1].startswith("passed ")
    assert "PASS" in out


def test_verify_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("LVR_LAB_SEED", "99")
    assert cli.main(["verify", "bkar", "--json", "--no-timestamp"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 99


def test_verify_flag_seed_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("LVR_LAB_SEED", "99")
    assert cli.main(["verify", "bkar", "--json", "--no-timestamp", "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5


def test_verify_failed_check_exits_two(capsys, monkeypatch):
    def broken(cfg):
        return [CheckResult("bkar.stub", {}, "0", "1", 0.0, False)]

    monkeypatch.setitem(verify.TARGETS, "bkar", broken)
    assert cli.main(["verify", "bkar"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert out.strip().splitlines()[-1] == "passed 0/1 checks"


VERIFY_ALL_CHECKS = [
    "fc.functional_equation",
    "fc.closed_form_p2",
    "fc.numbers_vs_series_recursion",
    "fc.positivity_negative_axis",
    "fc.cut_start_closed_form",
    "action.scalar_map_inverts",
    "action.zero_coupling_exact",
    "action.scalar_closed_form",
    "action.resolvent_derivative",
    "action.selective_integration",
    "contour.reconstruct_p3_complex",
    "contour.reconstruct_p2_real",
    "contour.identity_reconstruction",
    "contour.cut_sector_audit",
    "contour.bound_integrals_decrease",
    "oracle.identity_scalar",
    "oracle.identity_matrix_quadrature",
    "oracle.identity_monte_carlo",
    "oracle.measure_normalization",
    "perturb.exact_identities",
    "perturb.p3_closed_forms",
    "perturb.quartic_orders",
    "perturb.scalar_z_series",
    "bkar.interpolation_identity",
    "bkar.psd_interpolation",
    "bkar.tree_counts",
    "bkar.connected_part_vanishes",
    "lve.corner_word_invariants",
    "lve.corner_vs_finite_difference",
    "lve.vertex_amplitude_shrinks",
    "lve.partial_sum_improves",
]


@pytest.mark.parametrize(
    "argv, names",
    [
        (["all"], VERIFY_ALL_CHECKS),
        (["oracle", "--p", "2", "--N", "1", "--lambda", "0.1,0"],
         ["oracle.identity_focused", "oracle.identity_focused_mc"]),
    ],
)
def test_verify_check_names_are_pinned(capsys, argv, names):
    # benchmark tooling reads check runtimes by these names
    cli.main(["verify", *argv, "--json", "--no-timestamp", "--samples", "2000"])
    assert [row["check"] for row in json.loads(capsys.readouterr().out)["checks"]] == names


def _nan_in_first_result(monkeypatch, owner, attr, when):
    """Wrap owner.attr so that entry 0 of the first result whose call
    satisfies when(args) is NaN."""
    real = getattr(owner, attr)
    done = []

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        if not done and when(args):
            done.append(True)
            out = out.copy()
            out[0] = np.nan
        return out

    monkeypatch.setattr(owner, attr, spy)


@pytest.mark.parametrize(
    "target, check, owner, attr, when",
    [
        ("fc", "fc.functional_equation", fuss_catalan.FcEvaluator, "tp_eval_many",
         lambda args: args[0].p == 3),
        ("bkar", "bkar.psd_interpolation", np.linalg, "eigvalsh", lambda args: True),
    ],
    ids=["tp_eval_many", "eigvalsh"],
)
def test_verify_nan_value_fails_its_check(capsys, monkeypatch, target, check, owner, attr, when):
    _nan_in_first_result(monkeypatch, owner, attr, when)
    assert cli.main(["verify", target, "--json", "--no-timestamp"]) == 2
    rows = {row["check"]: row for row in json.loads(capsys.readouterr().out)["checks"]}
    assert rows[check]["got"] == "nan"
    assert not rows[check]["pass"]


def test_every_verify_target_is_a_generator_function():
    assert all(inspect.isgeneratorfunction(run) for run in verify.TARGETS.values())


def test_run_target_times_each_check_by_its_yield(monkeypatch):
    def stub(cfg):
        yield CheckResult("bkar.fast", {}, "0", "0", 0.0, True)
        time.sleep(0.05)
        yield CheckResult("bkar.slow", {}, "0", "0", 0.0, True)

    monkeypatch.setitem(verify.TARGETS, "bkar", stub)
    fast, slow = verify.run_target("bkar", verify.VerifyConfig())
    assert fast.runtime_s < 0.05 <= slow.runtime_s


def test_verify_unknown_target_exits_one():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "bogus"])
    assert exc.value.code == 1


@pytest.mark.parametrize("flag", ["--workers", "--samples"])
def test_verify_rejects_non_positive_size_before_any_check(capsys, monkeypatch, flag):
    calls = []
    monkeypatch.setattr(verify, "run_target", lambda target, cfg: calls.append(target) or [])
    assert cli.main(["verify", "all", flag, "0"]) == 1
    assert calls == []
    assert "samples and workers must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "target, flags, message",
    [
        ("perturb", ["--p-max", "1"], "p and p_max must be at least 2"),
        ("all", ["--p", "1"], "p and p_max must be at least 2"),
        ("oracle", ["--N", "0"], "N must lie in 1..4"),
        ("oracle", ["--N", "5"], "N must lie in 1..4"),
        ("all", ["--lambda=-0.1,0"], "Re(lam) < 0"),
        ("all", ["--lambda-polar", "0.1,180"], "Re(lam) < 0"),
    ],
)
def test_verify_rejects_bad_focus_before_any_check(capsys, monkeypatch, target, flags, message):
    calls = []
    monkeypatch.setattr(verify, "run_target", lambda target, cfg: calls.append(target) or [])
    assert cli.main(["verify", target, *flags]) == 1
    assert calls == []
    assert message in capsys.readouterr().err


def test_verify_lambda_forms_exclusive():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "oracle", "--lambda", "0.1,0", "--lambda-polar", "0.1,0"])
    assert exc.value.code == 1


def test_verify_rejects_bad_coupling_domain(capsys):
    # focused oracle point with Re lam < 0 trips the stability gate
    code = cli.main([
        "verify", "oracle", "--p", "2", "--N", "1",
        "--lambda-polar", "0.1,180", "--samples", "1000",
    ])
    assert code == 1
    assert "lvr-lab" in capsys.readouterr().err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lvr_lab.cli", "fc", "eval", "--p", "2", "--z", "0.25"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2.0"


def test_cli_import_loads_neither_mpmath_nor_scipy():
    # mpmath is imported by the two checks that use it; scipy only by tests
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import lvr_lab.cli, sys; "
            "print(sorted(m for m in ('mpmath', 'scipy') if m in sys.modules))",
        ],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
