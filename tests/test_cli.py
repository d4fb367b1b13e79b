import atexit
import gc
import itertools
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import entdisc
from entdisc import BellFamily, perfect_discrimination_feasible, records_to_csv, run_sweep
from entdisc.cli import build_parser, load_ensemble_file, main
from helpers import RecordingWriter, assert_block_writes, child_env, fail_on_second_block


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def get_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestConvert:
    def test_bell_to_product_feasible(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "--source", "0.5,0.5", "--target", "1,0")
        assert code == 0
        assert "feasible = true" in out

    def test_product_to_bell_infeasible(self, capsys):
        result = get_json(capsys, "convert", "--source", "1,0", "--target", "0.5,0.5", "--json")
        assert result == {"feasible": False}

    def test_weighted_targets(self, capsys):
        result = get_json(
            capsys,
            "convert",
            "--source", "0.5,0.5",
            "--target", "0.5:1,0",
            "--target", "0.5:0.5,0.5",
            "--json",
        )
        assert result == {"feasible": True}

    def test_weights_must_sum_to_one(self, capsys):
        code, _, err = run_cli(
            capsys, "convert", "--source", "0.5,0.5", "--target", "0.5:1,0", "--target", "0.7:1,0"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_vector_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "convert", "--source", "0.5,oops", "--target", "1,0")
        assert code == 2
        assert "error:" in err

    def test_unnormalized_source_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "convert", "--source", "0.5,0.4", "--target", "1,0")
        assert code == 2

    def test_tol_override(self, capsys):
        argv = ["convert", "--source", "0.61,0.39", "--target", "0.6,0.4", "--json"]
        assert get_json(capsys, *argv) == {"feasible": False}
        assert get_json(capsys, *argv, "--tol", "0.02") == {"feasible": True}


class TestFamilyCommands:
    def test_discriminate_products(self, capsys):
        result = get_json(capsys, "discriminate", "--a2", "1", "--c2", "1", "--json")
        assert result["feasible_unassisted"] is True

    def test_discriminate_bell(self, capsys):
        code, out, _ = run_cli(capsys, "discriminate", "--a2", "0.5", "--c2", "0.5")
        assert code == 0
        assert "feasible_unassisted = false" in out

    def test_discriminate_requires_parameters(self, capsys):
        code, _, err = run_cli(capsys, "discriminate", "--a2", "0.5")
        assert code == 2
        assert "both --a2 and --c2" in err

    def test_discriminate_rejects_out_of_range(self, capsys):
        code, _, _ = run_cli(capsys, "discriminate", "--a2", "0.2", "--c2", "0.8")
        assert code == 2

    def test_three_state(self, capsys):
        result = get_json(capsys, "three-state", "--a2", "0.5", "--c2", "0.9", "--json")
        assert result["feasible_unassisted"] is False
        assert result["which"] == [0, 1, 2]
        result = get_json(capsys, "three-state", "--a2", "1", "--c2", "1", "--json")
        assert result["feasible_unassisted"] is True

    def test_three_state_custom_subset(self, capsys):
        result = get_json(
            capsys, "three-state", "--a2", "0.9", "--c2", "0.5", "--which", "0,2,3", "--json"
        )
        assert result["which"] == [0, 2, 3]
        assert result["feasible_unassisted"] is True

    def test_assist_cost_maximal_corner(self, capsys):
        result = get_json(capsys, "assist-cost", "--a2", "0.5", "--c2", "0.5", "--json")
        assert result["alpha2_max"] == pytest.approx(0.5, abs=1e-9)
        assert result["assist_cost_ebits"] == pytest.approx(1.0, abs=1e-9)
        assert result["feasible"] is True

    def test_assist_cost_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "assist-cost", "--a2", "0.5", "--c2", "0.5")
        assert code == 0
        assert "alpha2_max = 0.5" in out
        assert "assist_cost_ebits = 1" in out

    def test_preserve_cost_product_corner(self, capsys):
        result = get_json(capsys, "preserve-cost", "--a2", "1", "--c2", "1", "--json")
        assert result["preserve_cost_ebits"] == 0.0
        assert result["preserve_spectrum"] == [1.0, 0.0, 0.0, 0.0]

    def test_preserve_cost_mixed_corner(self, capsys):
        result = get_json(capsys, "preserve-cost", "--a2", "0.5", "--c2", "1", "--json")
        assert result["preserve_cost_ebits"] == pytest.approx(1.548795, abs=1e-5)


FAMILY_POINTS = [(0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0), (0.8, 0.7), (0.95, 1.0), (0.9, 0.9), (0.75, 0.75)]
FAMILY_PRIORS = [None, [0.4, 0.3, 0.2, 0.1], [0.97, 0.01, 0.01, 0.01], [0.0, 0.5, 0.5, 0.0]]


def assert_family_file_matches_flags(capsys, tmp_path, command):
    """Flags and family files resolve to one Ensemble, so they print the same values.

    Only the flags form of ``discriminate`` echoes a2 and c2.
    """
    path = tmp_path / "ens.json"
    for (a2, c2), probs in itertools.product(FAMILY_POINTS, FAMILY_PRIORS):
        data = {"family": {"a2": a2, "c2": c2}}
        flags = [command, "--a2", str(a2), "--c2", str(c2), "--json"]
        if probs:
            data["probs"] = probs
            flags += ["--probs", ",".join(map(str, probs))]
        path.write_text(json.dumps(data))
        from_file = get_json(capsys, command, "--ensemble", str(path), "--json")
        echo = {"a2": a2, "c2": c2} if command == "discriminate" else {}
        assert get_json(capsys, *flags) == {**echo, **from_file}, (a2, c2, probs)


class TestBounds:
    def test_family_flags(self, capsys):
        result = get_json(capsys, "bounds", "--a2", "0.5", "--c2", "0.5", "--json")
        for key in ("n_robustness", "n_rel_entropy", "n_geometric"):
            assert result[key] == pytest.approx(2.0, abs=1e-9)

    def test_family_file(self, capsys, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"family": {"a2": 1.0, "c2": 1.0}}))
        result = get_json(capsys, "bounds", "--ensemble", str(path), "--json")
        assert result["n_geometric"] == pytest.approx(4.0, abs=1e-9)
        assert_family_file_matches_flags(capsys, tmp_path, "bounds")

    def test_states_file(self, capsys, tmp_path):
        r = 1.0 / np.sqrt(2.0)
        data = {
            "states": [
                {"amplitudes": [[r, 0.0], [0.0, 0.0], [0.0, 0.0], [r, 0.0]], "dim_a": 2, "dim_b": 2},
                {"amplitudes": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "dim_a": 2, "dim_b": 2},
            ],
            "probs": [0.5, 0.5],
        }
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(data))
        result = get_json(capsys, "bounds", "--ensemble", str(path), "--json")
        # mean(1+R) = (2 + 1)/2 = 1.5, D = 4
        assert result["n_robustness"] == pytest.approx(4.0 / 1.5, abs=1e-9)

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--ensemble", "/nonexistent.json")
        assert code == 2
        assert "cannot read" in err


PRIORS = "0.4,0.3,0.2,0.1"
A2_C2 = ["--a2", "0.8", "--c2", "0.7"]
SWEEP_PIN = (
    "a2,c2,avg_ent_ebits,feasible_unassisted,alpha2_max,assist_cost_ebits,preserve_cost_ebits\n"
    "0.5,0.5,1,false,0.5,1,\n"
    "0.5,1,0.7,false,0.686291501015,0.897408004234,\n"
    "1,0.5,0.3,false,0.686291501015,0.897408004234,\n"
    "1,1,0,true,1,0,\n"
)


# Each subcommand's argv and its exact standard output, text and --json (None: the command has no --json).
STDOUT_PINS = pytest.mark.parametrize(
    "argv, text, as_json",
    [
        (["discriminate", *A2_C2, "--probs", PRIORS],
         "a2 = 0.8\nc2 = 0.7\nfeasible_unassisted = false\n",
         '{"a2": 0.8, "c2": 0.7, "feasible_unassisted": false}\n'),
        (["three-state", "--a2", "0.99", "--c2", "0.995", "--which", "0,2,3"],
         "a2 = 0.99\nc2 = 0.995\nwhich = 0, 2, 3\nfeasible_unassisted = true\n",
         '{"a2": 0.99, "c2": 0.995, "which": [0, 2, 3], "feasible_unassisted": true}\n'),
        (["assist-cost", *A2_C2],
         "a2 = 0.8\nc2 = 0.7\nfeasible = true\nalpha2_max = 0.538270825826\n"
         "assist_cost_ebits = 0.995769759562\nfirst_sum_bound = 0.538270825826\n",
         '{"a2": 0.8, "c2": 0.7, "feasible": true, "alpha2_max": 0.5382708258257584, '
         '"assist_cost_ebits": 0.9957697595617602, "first_sum_bound": 0.5382708258257584}\n'),
        (["preserve-cost", *A2_C2, "--probs", PRIORS],
         "a2 = 0.8\nc2 = 0.7\npreserve_cost_ebits = 1.55592182565\n"
         "preserve_spectrum = 0.595, 0.175, 0.175, 0.055\n",
         '{"a2": 0.8, "c2": 0.7, "preserve_cost_ebits": 1.5559218256507088, '
         '"preserve_spectrum": [0.5950000000000001, 0.175, 0.175, 0.05499999999999999]}\n'),
        (["bounds", *A2_C2],
         "n_robustness = 2.15255412687\nn_rel_entropy = 2.29133941694\nn_geometric = 2.98666666667\n",
         '{"n_robustness": 2.1525541268672366, "n_rel_entropy": 2.291339416942349, '
         '"n_geometric": 2.986666666666667}\n'),
        (["convert", "--source", "0.5,0.5", "--target", "0.5:1,0", "--target", "0.5:0.6,0.4"],
         "feasible = true\n",
         '{"feasible": true}\n'),
        (["sweep", "--mode", "assist", "--grid-n", "2", "--probs", PRIORS], SWEEP_PIN, None),
    ],
    ids=["discriminate", "three-state", "assist-cost", "preserve-cost", "bounds", "convert", "sweep"],
)


class TestStdoutPins:
    """Exact standard output of every subcommand, text and --json."""

    @STDOUT_PINS
    def test_exact_stdout(self, capsys, argv, text, as_json):
        assert run_cli(capsys, *argv) == (0, text, "")
        if as_json is not None:
            assert run_cli(capsys, *argv, "--json") == (0, as_json, "")


# The body of the installed `entdisc` console script.
LAUNCH_CLI = "import sys; from entdisc.cli import main; sys.exit(main())"


def run_cold(*argv, cwd=None):
    """``entdisc ARGV`` in a new interpreter, as the console script runs it: its exit code, stdout and stderr."""
    child = subprocess.run([sys.executable, "-c", LAUNCH_CLI, *argv], capture_output=True, text=True,
                           env=child_env(), cwd=cwd, timeout=60)
    return child.returncode, child.stdout, child.stderr


class TestColdProcess:
    """Each exit path of a fresh process, through to interpreter shutdown, where main's exit hook runs."""

    @STDOUT_PINS
    def test_exact_stdout(self, argv, text, as_json):
        assert run_cold(*argv) == (0, text, "")
        if as_json is not None:
            assert run_cold(*argv, "--json") == (0, as_json, "")

    def test_exit_freezes_the_heap(self):
        # exit hooks run last-registered first, so this one runs after main's and sees the heap frozen
        script = ("import atexit, gc, sys; atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
                  "from entdisc.cli import main; main(['assist-cost', '--a2', '0.8', '--c2', '0.7', '--json'])")
        child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env(),
                               timeout=60)
        assert (child.returncode, child.stdout.splitlines()[-1], child.stderr) == (0, "True", "")

    def test_usage_error_exits_2_with_one_line(self):
        code, out, err = run_cold("frobnicate")
        assert (code, out) == (2, "")
        assert err.splitlines() == [err.strip()] and err.startswith("error: ")

    def test_help_exits_0(self):
        code, out, err = run_cold("--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: entdisc")

    def test_out_leaves_only_the_csv(self, tmp_path):
        argv = ["sweep", "--mode", "assist", "--grid-n", "2", "--probs", PRIORS, "--out", "scan.csv"]
        assert run_cold(*argv, cwd=tmp_path) == (0, "", "")
        assert os.listdir(tmp_path) == ["scan.csv"]
        assert (tmp_path / "scan.csv").read_bytes() == SWEEP_PIN.encode()


def test_main_leaves_collector_state_alone(capsys):
    # main only registers gc.freeze to run at exit, and once per process: a test process keeps collecting its own
    # garbage as before
    enabled, frozen, hooks = gc.isenabled(), gc.get_freeze_count(), atexit._ncallbacks()
    argvs = (["assist-cost", *A2_C2], ["discriminate", "--a2", "2", "--c2", "1"], ["bounds", *A2_C2, "--json"])
    for argv in argvs:
        main(argv)
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    assert atexit._ncallbacks() - hooks in (0, 1)
    hooks = atexit._ncallbacks()
    for argv in argvs:
        main(argv)
    assert (gc.isenabled(), gc.get_freeze_count(), atexit._ncallbacks()) == (enabled, frozen, hooks)
    capsys.readouterr()


# Runs main() once per (argv, expected code) in its argument, each printing no more than its own error line, then
# collects: a file left open in a reference cycle, which the frozen exit would never finalize, warns here instead.
LEAK_SCRIPT = """
import contextlib, gc, io, json, sys
from entdisc.cli import main
for argv, expected in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code == expected and [line[:7] for line in lines] == ["error: "] * (code != 0), (argv, code, lines)
gc.collect()
"""


def test_no_resource_leaks_hidden_by_the_frozen_exit(tmp_path):
    states = tmp_path / "states.json"
    members = [{"dim_a": 2, "dim_b": 2, "amplitudes": amps} for amps in ([0.6, 0, 0, 0.8], [0, 1, 0, 0])]
    states.write_text(json.dumps({"probs": [0.5, 0.5], "states": members}))
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"family": {"a2": 0.8, "c2": 0.7}, "probs": [0.4, 0.3, 0.2, 0.1]}))
    runs = [
        (["sweep", "--mode", "preserve", "--grid-n", "3", "--out", str(tmp_path / "scan.csv")], 0),
        (["discriminate", "--ensemble", str(states)], 0),
        (["discriminate", "--ensemble", str(family)], 0),
        (["bounds", "--ensemble", str(states), "--json"], 0),
        (["bounds", "--ensemble", str(tmp_path / "missing.json")], 2),
    ]
    argv = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", LEAK_SCRIPT, json.dumps(runs)]
    child = subprocess.run(argv, capture_output=True, text=True, env=child_env(), timeout=60)
    assert (child.returncode, child.stderr) == (0, "")


class TestEnsembleFile:
    def test_renormalizes_with_warning(self, tmp_path):
        amps = [[0.6 + 3e-7, 0.0], [0.0, 0.0], [0.0, 0.0], [0.8, 0.0]]
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"states": [{"amplitudes": amps, "dim_a": 2, "dim_b": 2}], "probs": [1.0]}))
        with pytest.warns(UserWarning, match="renormalized"):
            ensemble = load_ensemble_file(str(path))
        assert ensemble.probs == [1.0]
        assert np.vdot(ensemble.states[0].amplitudes, ensemble.states[0].amplitudes).real == pytest.approx(1.0, abs=1e-12)

    def test_renormalization_notice_is_one_line(self, tmp_path):
        # the notice used to print as "<path>:<line>: UserWarning: ..." followed by the calling source line; a child
        # process shows what a shell sees, since pytest records warnings instead of printing them
        path = tmp_path / "ens.json"
        path.write_text('{"states": [{"amplitudes": [1.0000001, 0, 0, 0], "dim_a": 2, "dim_b": 2}], "probs": [1.0]}')
        argv = [sys.executable, "-m", "entdisc.cli", "discriminate", "--ensemble", str(path), "--json"]
        child = subprocess.run(argv, capture_output=True, text=True, env=child_env(), timeout=60)
        assert (child.returncode, child.stdout) == (0, '{"feasible_unassisted": true}\n')
        assert child.stderr == "warning: state 0 renormalized on load (norm was 1.0000001)\n"

    def test_rejects_norm_beyond_file_tolerance(self, tmp_path):
        amps = [[0.7, 0.0], [0.0, 0.0], [0.0, 0.0], [0.8, 0.0]]
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"states": [{"amplitudes": amps, "dim_a": 2, "dim_b": 2}], "probs": [1.0]}))
        code = main(["bounds", "--ensemble", str(path)])
        assert code == 2

    def test_requires_exactly_one_form(self, tmp_path, capsys):
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"family": {"a2": 1, "c2": 1}, "states": []}))
        code, _, err = run_cli(capsys, "bounds", "--ensemble", str(path))
        assert code == 2
        assert "exactly one" in err
        path.write_text(json.dumps({}))
        assert main(["bounds", "--ensemble", str(path)]) == 2

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text("{not json")
        assert main(["bounds", "--ensemble", str(path)]) == 2

    def test_states_form_requires_probs(self, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"states": []}))
        assert main(["bounds", "--ensemble", str(path)]) == 2

    def test_family_file_with_probs(self, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"family": {"a2": 0.8, "c2": 0.9}, "probs": [0.4, 0.3, 0.2, 0.1]}))
        ensemble = load_ensemble_file(str(path))
        assert ensemble.probs == [0.4, 0.3, 0.2, 0.1]
        assert len(ensemble.members) == 4

    def test_discriminate_family_file_matches_flags(self, capsys, tmp_path):
        assert_family_file_matches_flags(capsys, tmp_path, "discriminate")

    def test_amplitudes_load_bit_for_bit(self, tmp_path):
        # integer parts, bare numbers and signed zeros each load as complex(re, im), every bit kept, and are then
        # divided by the norm, exactly 1.0 here, as the loader divides every state
        amps = [[0, -0.0], -0.0, [-0.0, 0.6], [-0.8, -0.0], 0, [0, 0], [-0.0, -0.0], 1e-300]
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"states": [{"amplitudes": amps, "dim_a": 2, "dim_b": 4}], "probs": [1]}))
        got = load_ensemble_file(str(path)).states[0].amplitudes
        want = np.array([complex(*(a if isinstance(a, list) else [a, 0])) for a in amps])
        assert np.linalg.norm(want) == 1.0
        assert got.tobytes() == (want / 1.0).tobytes()

    def test_discriminate_from_states_file(self, capsys, tmp_path):
        # four product states are locally distinguishable
        states = []
        for k in range(4):
            amps = [[0.0, 0.0]] * 4
            amps[k] = [1.0, 0.0]
            states.append({"amplitudes": amps, "dim_a": 2, "dim_b": 2})
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"states": states, "probs": [0.25] * 4}))
        result = get_json(capsys, "discriminate", "--ensemble", str(path), "--json")
        assert result["feasible_unassisted"] is True


class TestSweepCommand:
    def test_stdout_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--mode", "preserve", "--grid-n", "3")
        assert code == 0
        assert out == records_to_csv(run_sweep("preserve", 3))

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--mode", "assist", "--grid-n", "3", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == records_to_csv(run_sweep("assist", 3))

    def test_feasible3_with_subset(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--mode", "feasible3", "--grid-n", "3", "--which", "0,1,3"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("a2,c2,")

    def test_rejects_bad_grid(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--mode", "preserve", "--grid-n", "1")
        assert code == 2

    @pytest.mark.parametrize("existing", [False, True])
    def test_interrupt_exits_130_with_one_line(self, capsys, monkeypatch, tmp_path, existing):
        # Ctrl-C used to end in a traceback; the 10 201-point scan takes three
        # blocks and the second is interrupted
        target = tmp_path / "out.csv"
        if existing:
            target.write_bytes(b"old bytes\n")
        fail_on_second_block(monkeypatch, KeyboardInterrupt)
        try:
            code, out, err = run_cli(capsys, "sweep", "--mode", "preserve", "--grid-n", "101", "--out", str(target))
        except KeyboardInterrupt:
            pytest.fail("main let KeyboardInterrupt escape")
        assert (code, out, err) == (130, "", "error: interrupted\n")
        assert os.listdir(tmp_path) == (["out.csv"] if existing else [])
        if existing:
            assert target.read_bytes() == b"old bytes\n"

    def test_reader_closing_the_pipe_exits_141_quietly(self):
        # `entdisc sweep ... | head -1` used to exit 2 with "cannot write CSV: [Errno 32] Broken pipe", though an
        # early reader gives no bad input. The grid-301 CSV is far larger than a pipe's buffer.
        argv = [sys.executable, "-m", "entdisc.cli", "sweep", "--mode", "assist", "--grid-n", "301"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()) as child:
            assert child.stdout.readline().startswith(b"a2,c2,")
            child.stdout.close()
            assert child.wait(timeout=60) == 141
            assert child.stderr.read() == b""


class TestUsage:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_sweep_requires_mode(self):
        with pytest.raises(SystemExit) as info:
            main(["sweep"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["discriminate", "--a2", "1", "--c2", "1", "--tol", "nan"], "argument --tol: must be a finite number"),
            (["sweep", "--mode", "assist", "--grid-n", "x"], "argument --grid-n: invalid int value: 'x'"),
            (["sweep"], "the following arguments are required: --mode"),
            (["discriminate", "--a2", "1", "--c2", "1", "--frobnicate"], "unrecognized arguments: --frobnicate"),
            (["convert", "--source", "1", "--target", "1", "a\nb\x0bc"], "unrecognized arguments: a\\nb\\x0bc"),
        ],
    )
    def test_argparse_errors_are_one_line(self, capsys, argv, reason):
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        assert captured.err.endswith("\n")
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("error: " + reason)

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--help"])
        captured = capsys.readouterr()
        assert info.value.code == 0
        assert captured.out.startswith("usage: entdisc sweep")
        assert "--grid-n" in captured.out and captured.err == ""


NAN_AMPLITUDE_STATES = (
    '{"states": [{"amplitudes": [[NaN, 0], [0, 0], [0, 0], [1, 0]], "dim_a": 2, "dim_b": 2},'
    ' {"amplitudes": [[0, 0], [1, 0], [0, 0], [0, 0]], "dim_a": 2, "dim_b": 2}], "probs": [0.5, 0.5]}'
)
ONE_STATE = '{"amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]], "dim_a": 2, "dim_b": 2}'
FLOAT_DIM_STATE = '{"states": [%s], "probs": [1.0]}' % ONE_STATE.replace('"dim_a": 2', '"dim_a": 2.9')
SHORT_SECOND_STATE = '{"states": [%s, %s], "probs": [0.5, 0.5]}' % (
    ONE_STATE, '{"amplitudes": [[0, 0], [1, 0], [0, 0]], "dim_a": 2, "dim_b": 2}'
)
AMPLITUDES_STATE = '{"states": [{"amplitudes": %s, "dim_a": 2, "dim_b": 2}], "probs": [1.0]}'
EMPTY_AMPLITUDE = AMPLITUDES_STATE % "[[1, 0], [], [0, 0], [0, 0]]"
TRIPLE_AMPLITUDE = AMPLITUDES_STATE % "[[1, 0, 0], [0, 0], [0, 0], [0, 0]]"
SINGLE_AMPLITUDE = AMPLITUDES_STATE % "[[0, 0], [0, 0], [1], [0, 0]]"
STRING_PROBS_FAMILY = '{"family": {"a2": 0.8, "c2": 0.7}, "probs": "abc"}'
OBJECT_PROBS_FAMILY = '{"family": {"a2": 0.8, "c2": 0.7}, "probs": {"a": 1}}'
# What a file's error line starts with where the reason is pinned: a states file's when PureState rejects one of
# its states, and a family file's when its 'probs' is no list.
STATE_ERRORS = {
    STRING_PROBS_FAMILY: "error: 'probs' must be a list of numbers or null",
    OBJECT_PROBS_FAMILY: "error: 'probs' must be a list of numbers or null",
    FLOAT_DIM_STATE: "error: state 0: local dimensions must be positive integers, got 2.9 and 2",
    SHORT_SECOND_STATE: "error: state 1: got 3 amplitudes for dimensions 2x2",
    EMPTY_AMPLITUDE: "error: state 0 amplitude 1 is not a number or an [re, im] pair",
    TRIPLE_AMPLITUDE: "error: state 0 amplitude 0 is not a number or an [re, im] pair",
    SINGLE_AMPLITUDE: "error: state 0 amplitude 2 is not a number or an [re, im] pair",
}


class TestInputContract:
    """Bad inputs exit 2 with exactly one 'error:' line and no warning."""

    def assert_rejected(self, capsys, *argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert caught == []
        return lines[0]

    def test_priors_summing_beyond_one(self, capsys):
        self.assert_rejected(capsys, "sweep", "--mode", "preserve", "--grid-n", "3", "--probs", "0.9,0.9,0.9,0.9")

    def test_negative_priors_in_assist_sweep(self, capsys):
        self.assert_rejected(capsys, "sweep", "--mode", "assist", "--grid-n", "3", "--probs", "2,-1,0,0")

    def test_non_numeric_target_weight(self, capsys):
        line = self.assert_rejected(capsys, "convert", "--source", "0.5,0.5", "--target", "x:0.5,0.5")
        assert line == "error: --target weight 'x' is not a number"

    def test_ensemble_file_holding_an_array(self, capsys, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text("[0.5, 0.5]")
        line = self.assert_rejected(capsys, "bounds", "--ensemble", str(path))
        assert line == "error: ensemble file must contain a JSON object"

    def test_nan_prior_in_family_file(self, capsys, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text('{"family": {"a2": 0.8, "c2": 0.7}, "probs": [NaN, 0.5, 0.25, 0.25]}')
        self.assert_rejected(capsys, "discriminate", "--ensemble", str(path))
        self.assert_rejected(capsys, "bounds", "--ensemble", str(path))

    def test_nan_amplitude_in_states_file(self, capsys, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text(NAN_AMPLITUDE_STATES)
        self.assert_rejected(capsys, "discriminate", "--ensemble", str(path))

    def test_fractional_which(self, capsys):
        self.assert_rejected(capsys, "three-state", "--a2", "0.9", "--c2", "0.8", "--which", "0.9,1,2")
        self.assert_rejected(capsys, "sweep", "--mode", "feasible3", "--grid-n", "3", "--which", "0.9,1,2")

    def test_integer_which_unchanged(self, capsys):
        explicit = get_json(capsys, "three-state", "--a2", "0.9", "--c2", "0.8", "--which", "0,1,2", "--json")
        default = get_json(capsys, "three-state", "--a2", "0.9", "--c2", "0.8", "--json")
        assert explicit == default
        assert explicit["which"] == [0, 1, 2]
        code, out, _ = run_cli(capsys, "sweep", "--mode", "feasible3", "--grid-n", "5", "--which", "0,1,2")
        assert code == 0
        assert out == records_to_csv(run_sweep("feasible3", 5))

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-1e-12", "abc"])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        for command in (["discriminate", "--a2", "1", "--c2", "1"], ["convert", "--source", "1", "--target", "1"]):
            with pytest.raises(SystemExit) as info:
                main(command + [f"--tol={tol}"])
            assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["discriminate", "--a2", "0.8", "--c2", "0.7"],
            ["three-state", "--a2", "0.8", "--c2", "0.7"],
            ["convert", "--source", "1,0", "--target", "0.5,0.5"],
        ],
    )
    def test_tol_taken_by_verdict_commands(self, capsys, argv):
        assert get_json(capsys, *argv, "--tol", "5", "--json") != get_json(capsys, *argv, "--tol", "0", "--json")

    @pytest.mark.parametrize(
        "argv",
        [
            ["assist-cost", "--a2", "0.8", "--c2", "0.7"],
            ["preserve-cost", "--a2", "0.8", "--c2", "0.7"],
            ["bounds", "--a2", "0.8", "--c2", "0.7"],
        ],
    )
    def test_tol_refused_where_it_did_nothing(self, capsys, argv):
        assert get_json(capsys, *argv, "--json")
        with pytest.raises(SystemExit) as info:
            main(argv + ["--tol", "5"])
        assert info.value.code == 2
        assert capsys.readouterr().err == "error: unrecognized arguments: --tol 5\n"

    def test_grid_n_cap(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--mode", "assist", "--grid-n", "1002")
        assert (code, err) == (2, "error: grid_n must be between 2 and 1001, got 1002\n")
        # 1001 passes the grid check and stops at the priors checked after it
        self.assert_rejected(capsys, "sweep", "--mode", "assist", "--grid-n", "1001", "--probs", "0.9,0.9,0.9,0.9")
        code, _, err = run_cli(capsys, "sweep", "--mode", "assist", "--grid-n", "1001", "--probs", "0.9,0.9,0.9,0.9")
        assert "probabilities sum to" in err

    @pytest.mark.parametrize("command", ["discriminate", "bounds"])
    @pytest.mark.parametrize("extra", [["--a2", "0.9"], ["--c2", "0.9"], ["--probs", "0.97,0.01,0.01,0.01"]])
    def test_ensemble_excludes_family_flags(self, capsys, tmp_path, command, extra):
        # a family flag beside --ensemble used to be dropped without a word:
        # with this file, discriminate printed the equal-priors verdict
        # (false) where the flags form with the same priors prints true
        path = tmp_path / "fam.json"
        path.write_text('{"family": {"a2": 0.9, "c2": 0.9}}')
        reason = self.assert_rejected(capsys, command, "--ensemble", str(path), *extra)
        assert reason == "error: --ensemble cannot be combined with --a2, --c2 or --probs"

    def test_family_prior_count_in_bounds(self, capsys):
        # --probs with fewer than four priors used to drop members silently
        self.assert_rejected(capsys, "bounds", "--a2", "0.8", "--c2", "0.7", "--probs", "0.5,0.5")

    @pytest.mark.parametrize(
        "argv, file_text",
        [
            (["discriminate"], '{"family": {"a2": 0.8, "c2": 0.7}, "probs": ["x", 0.5, 0.25, 0.25]}'),
            (["discriminate"], '{"family": {"a2": "x", "c2": 0.7}}'),
            (["discriminate"], '{"family": {"a2": [1], "c2": 0.7}}'),
            (["bounds"], '{"family": {"a2": 0.8, "c2": 0.7}, "probs": 1}'),
            (["discriminate"], '{"states": [%s], "probs": ["x"]}' % ONE_STATE),
            (["bounds"], '{"states": [%s], "probs": 1}' % ONE_STATE),
            (["discriminate"], '{"states": [%s, %s], "probs": [[0.25, 0.25], [0.25, 0.25]]}' % (ONE_STATE, ONE_STATE)),
            (["bounds"], '{"family": {"a2": 0.8, "c2": 0.7}, "probs": "1.00"}'),
            (["discriminate"], '{"family": {"a2": 0.8, "c2": 0.7}, "probs": [[0.25], [0.25], [0.25], [0.25]]}'),
            (["preserve-cost", "--a2", "0.7", "--c2", "0.7", "--probs", "1e308,1e308,-1e308,-1e308"], None),
            (["preserve-cost", "--a2", "0.7", "--c2", "0.7", "--probs", "1e308,1e308,0,0"], None),
            (["sweep", "--mode", "preserve", "--grid-n", "3", "--probs", "1e308,1e308,-1e308,-1e308"], None),
            (["bounds"], FLOAT_DIM_STATE),
            (["bounds"], '{"states": [%s], "probs": [1.0]}' % ONE_STATE.replace('"dim_a": 2', '"dim_a": 2.0')),
            (["discriminate"], '{"states": [%s], "probs": [1.0]}' % ONE_STATE.replace('2, "dim_b": 2', 'true, "dim_b": 4')),
            (["discriminate"], SHORT_SECOND_STATE),
            # strings and booleans where a JSON number is required used to be
            # converted (or counted as 1 and 0) and exit 0
            (["discriminate"], '{"family": {"a2": "0.9", "c2": true}, "probs": ["0.25", 0.25, 0.25, 0.25]}'),
            (["discriminate"], '{"family": {"a2": "0.9", "c2": 0.9}}'),
            (["discriminate"], '{"family": {"a2": 0.9, "c2": true}}'),
            (["discriminate"], '{"family": {"a2": 0.9, "c2": 0.9}, "probs": ["0.25", 0.25, 0.25, 0.25]}'),
            (["discriminate"], '{"family": {"a2": 0.9, "c2": 0.9}, "probs": [true, false, false, false]}'),
            (["discriminate"], AMPLITUDES_STATE % '["0.7071067811865476", 0, 0, [0.7071067811865476, 0]]'),
            (["discriminate"], AMPLITUDES_STATE % "[true, false, false, false]"),
            (["discriminate"], AMPLITUDES_STATE % '["1+0j", 0, 0, 0]'),
            (["discriminate"], AMPLITUDES_STATE % "[[1, false], [0, 0], [0, 0], [0, 0]]"),
            (["bounds"], '{"states": [%s], "probs": [true]}' % ONE_STATE),
            # integers beyond float range used to exit 1 with an OverflowError
            (["discriminate"], '{"family": {"a2": 1%s, "c2": 0.9}}' % ("0" * 400)),
            (["discriminate"], '{"family": {"a2": 0.9, "c2": 0.9}, "probs": [1%s, 0, 0, 0]}' % ("0" * 400)),
            (["discriminate"], AMPLITUDES_STATE % "[[1%s, 0], [0, 0], [0, 0], [0, 0]]" % ("0" * 400)),
            # an empty amplitude list loaded as 0 and a one-element one as its
            # value; three elements exited 2 through complex()'s TypeError
            (["discriminate"], EMPTY_AMPLITUDE),
            (["discriminate"], TRIPLE_AMPLITUDE),
            (["discriminate"], SINGLE_AMPLITUDE),
            # bytes that are not UTF-8 and nesting beyond the parser's depth
            # used to exit 1 with a UnicodeDecodeError and a RecursionError
            (["discriminate"], b"\xff\xfe"),
            pytest.param(["discriminate"], '{"family": {"a2": 0.8, "c2": 0.7}, "probs": %s}' % ("[" * 100000 + "]" * 100000),
                         id="probs-nested-100000-deep"),
            # a finite amplitude whose square overflows printed numpy's
            # two-line overflow warning before the error
            (["discriminate"], AMPLITUDES_STATE % "[[1e200, 0], [0, 0], [0, 0], [0, 0]]"),
            # a family file's string or object 'probs' was read as a sequence of priors
            (["discriminate"], STRING_PROBS_FAMILY),
            (["bounds"], OBJECT_PROBS_FAMILY),
            # null was read as no number by the loader and as NaN by the library, and 10**20 as a number by the
            # loader and as an object by numpy; the library's checks now judge every file number
            (["discriminate"], '{"family": {"a2": 0.8, "c2": 0.7}, "probs": [null, 0.5, 0.25, 0.25]}'),
            (["bounds"], AMPLITUDES_STATE % "[[null, 0], [0, 0], [0, 0], [1, 0]]"),
            (["discriminate"], AMPLITUDES_STATE % "[[100000000000000000000, 0], [0, 0], [0, 0], [0, 0]]"),
            # an integer beyond the 4300-digit int-to-str limit failed json.load with a plain ValueError and exit 1
            pytest.param(["discriminate"], '{"family": {"a2": 1%s, "c2": 0.9}}' % ("0" * 5000), id="a2-5001-digits"),
            pytest.param(["bounds"], '{"family": {"a2": 0.9, "c2": 0.9}, "probs": [1%s, 0, 0, 0]}' % ("0" * 5000),
                         id="prior-5001-digits"),
            # a pair of lists is no [re, im] pair, though numpy reads a file of them as one deeper array of numbers
            (["discriminate"], AMPLITUDES_STATE % "[[[1], [0]], [[0], [0]], [[0], [0]], [[0], [0]]]"),
            (["discriminate"], '{"states": [{"amplitudes": [[[1, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]], '
                               '[[0, 0], [0, 0]]], "dim_a": 2, "dim_b": 4}], "probs": [1]}'),
        ],
    )
    def test_malformed_values_exit_2(self, capsys, tmp_path, argv, file_text):
        # non-numeric and non-list file values used to exit 1, nested or
        # string priors were flattened into a prior list of another length,
        # and finite priors whose sum overflows printed a numpy warning and
        # called themselves non-finite
        if file_text is not None:
            path = tmp_path / "ens.json"
            path.write_bytes(file_text) if isinstance(file_text, bytes) else path.write_text(file_text)
            argv = argv + ["--ensemble", str(path)]
        assert self.assert_rejected(capsys, *argv).startswith(STATE_ERRORS.get(file_text, "error: "))

    def test_a_long_number_is_named_by_its_type(self, capsys, tmp_path):
        # the refusal printed the value's repr, here 4001 digits on the error line
        path = tmp_path / "ens.json"
        path.write_text('{"family": {"a2": 1%s, "c2": 0.9}}' % ("0" * 4000))
        line = self.assert_rejected(capsys, "discriminate", "--ensemble", str(path))
        assert line == "error: a2=<int> and c2=0.9 must be numbers"

    def test_renormalization_warned_only_after_the_file_validates(self, capsys, tmp_path):
        # a renormalized state 0 used to print its two-line warning before
        # state 1's error
        path = tmp_path / "ens.json"
        off_norm = ONE_STATE.replace("[[1, 0]", "[[1.00000018, 0]")
        path.write_text('{"states": [%s, %s], "probs": [0.5, 0.5]}' % (off_norm, ONE_STATE.replace(', "dim_b": 2', "")))
        self.assert_rejected(capsys, "discriminate", "--ensemble", str(path))

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        # an --out that cannot be opened used to exit 1 with a traceback name;
        # the reason names the path asked for, not the file written beside it
        self.assert_rejected(capsys, "sweep", "--mode", "preserve", "--grid-n", "3", "--out", str(tmp_path))
        missing = str(tmp_path / "no" / "x.csv")
        assert repr(missing) in self.assert_rejected(capsys, "sweep", "--mode", "preserve", "--grid-n", "3", "--out", missing)

    def test_empty_out_exits_2(self, capsys, tmp_path, monkeypatch):
        # an empty --out used to be read as no --out: the CSV went to stdout
        monkeypatch.chdir(tmp_path)
        line = self.assert_rejected(capsys, "sweep", "--mode", "preserve", "--grid-n", "2", "--out", "")
        assert line == "error: cannot write CSV: [Errno 2] No such file or directory: ''"
        assert os.listdir(tmp_path) == []

    def test_tol_zero_accepted(self, capsys):
        result = get_json(capsys, "discriminate", "--a2", "1", "--c2", "1", "--tol", "0", "--json")
        assert result["feasible_unassisted"] is True

    @pytest.mark.parametrize(
        "argv", [["discriminate", "--a2", "0.9", "--c2", "0.9"], ["sweep", "--mode", "preserve", "--grid-n", "2"]]
    )
    def test_empty_probs_is_an_empty_list(self, capsys, argv):
        # --probs "" used to be read as no priors and ran with equal ones
        assert self.assert_rejected(capsys, *argv, "--probs", "") == "error: expected 4 probabilities, got 0"

    @pytest.mark.parametrize(
        "argv",
        [
            ["discriminate", "--a2", "0.9", "--c2", "0.9", "--probs", ",0.25,0.25,0.25,0.25"],
            ["sweep", "--mode", "preserve", "--grid-n", "2", "--probs", "0.25,0.25,,0.25,0.25"],
            ["three-state", "--a2", "0.9", "--c2", "0.9", "--which", ",0,1,2"],
            ["convert", "--source", "0.5,,0.5", "--target", "1"],
        ],
    )
    def test_empty_entry_exits_2(self, capsys, argv):
        # an empty entry used to be dropped, so each of these ran and exited 0
        flag, text = argv[-2:] if argv[0] != "convert" else argv[1:3]
        assert self.assert_rejected(capsys, *argv) == f"error: {flag} has an empty entry in {text!r}"

    def test_which_checked_in_every_sweep_mode(self, capsys):
        # outside feasible3 --which used to be ignored unchecked; a valid one
        # is still accepted there and changes nothing
        for mode, which in (("preserve", "7,7,7"), ("assist", "9,9,9")):
            reason = self.assert_rejected(capsys, "sweep", "--mode", mode, "--grid-n", "2", "--which", which)
            assert reason == f"error: which=({which.replace(',', ', ')}) must be three distinct indices in 0..3"
        code, out, _ = run_cli(capsys, "sweep", "--mode", "assist", "--grid-n", "3", "--which", "3,0,2")
        assert (code, out) == (0, records_to_csv(run_sweep("assist", 3)))

    def test_tol_zero_verdict_ignores_round_off_of_the_total(self, capsys):
        # the last partial sum is the total, 1 on both sides; it landed one
        # ulp off here and flipped the family call's verdict at --tol 0
        family = BellFamily.from_squared(0.5, 0.6425000000000001)
        probs = [0.97, 0.01, 0.01, 0.01]
        assert perfect_discrimination_feasible(family, probs, tol=0.0) is True
        argv = ["--a2", "0.5", "--c2", "0.6425000000000001", "--probs", "0.97,0.01,0.01,0.01", "--tol", "0", "--json"]
        assert get_json(capsys, "discriminate", *argv)["feasible_unassisted"] is True


# The flags each subcommand takes, written out here rather than read from the
# parser, so a change to the parser's flag table shows as a failure.
FLAG_MATRIX = {
    "discriminate": ["--json", "--tol", "--a2", "--c2", "--probs", "--ensemble"],
    "three-state": ["--json", "--tol", "--a2", "--c2", "--which", "--probs"],
    "assist-cost": ["--json", "--a2", "--c2"],
    "preserve-cost": ["--json", "--a2", "--c2", "--probs"],
    "bounds": ["--json", "--a2", "--c2", "--probs", "--ensemble"],
    "convert": ["--json", "--tol", "--source", "--target"],
    "sweep": ["--mode", "--grid-n", "--probs", "--which", "--out"],
}
# A value each flag parses, and what the parsed namespace then holds (None: a switch).
FLAG_VALUES = {
    "--json": (None, True),
    "--tol": ("0.5", 0.5),
    "--a2": ("0.9", 0.9),
    "--c2": ("0.8", 0.8),
    "--probs": ("0.4,0.3,0.2,0.1", "0.4,0.3,0.2,0.1"),
    "--ensemble": ("ens.json", "ens.json"),
    "--which": ("3,0,2", "3,0,2"),
    "--source": ("0.5,0.5", "0.5,0.5"),
    "--target": ("0.6,0.4", ["0.6,0.4"]),
    "--mode": ("feasible3", "feasible3"),
    "--grid-n": ("3", 3),
    "--out": ("out.csv", "out.csv"),
}
REQUIRED_FLAGS = {"convert": ["--source", "--target"], "sweep": ["--mode"]}


def flag_argv(*flags):
    """Each flag followed by its value from FLAG_VALUES; a switch stands alone."""
    argv = []
    for flag in flags:
        value = FLAG_VALUES[flag][0]
        argv += [flag] if value is None else [flag, value]
    return argv


class TestFlagMatrix:
    @pytest.mark.parametrize("command", sorted(FLAG_MATRIX))
    def test_each_flag_parses(self, command):
        args = build_parser().parse_args([command, *flag_argv(*FLAG_MATRIX[command])])
        for flag in FLAG_MATRIX[command]:
            assert getattr(args, flag[2:].replace("-", "_")) == FLAG_VALUES[flag][1], flag

    @pytest.mark.parametrize(
        "command, flag", [(c, f) for c in sorted(FLAG_MATRIX) for f in sorted(FLAG_VALUES) if f not in FLAG_MATRIX[c]]
    )
    def test_other_flags_are_unrecognized(self, capsys, command, flag):
        extra = flag_argv(flag)
        with pytest.raises(SystemExit) as info:
            main([command, *flag_argv(*REQUIRED_FLAGS.get(command, [])), *extra])
        assert info.value.code == 2
        assert capsys.readouterr().err == f"error: unrecognized arguments: {' '.join(extra)}\n"

    @pytest.mark.parametrize("command", [None, *sorted(FLAG_MATRIX)])
    def test_help_prints_every_flag(self, capsys, command):
        # argparse formats help strings only here, so a bad one fails nowhere else
        with pytest.raises(SystemExit) as info:
            main([command, "--help"] if command else ["--help"])
        captured = capsys.readouterr()
        assert info.value.code == 0 and captured.err == ""
        for flag in FLAG_MATRIX.get(command, sorted(FLAG_MATRIX)):
            assert flag in captured.out


class TestSweepCallChain:
    def test_stdout_goes_through_write_csv(self, monkeypatch):
        # without --out the CSV takes write_csv's block-by-block path to
        # standard output, one write per CSV_CHUNK_ROWS block
        destinations = []

        def spy(records, destination, _original=entdisc.cli.write_csv):
            destinations.append(destination)
            _original(records, destination)

        sink = RecordingWriter()
        monkeypatch.setattr(entdisc.cli, "write_csv", spy)
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(["sweep", "--mode", "preserve", "--grid-n", "151"]) == 0
        monkeypatch.undo()
        assert destinations == [sink]
        assert_block_writes(sink.writes, records_to_csv(run_sweep("preserve", 151)))

    def test_out_calls_each_stage_once(self, tmp_path, monkeypatch):
        # the sweep command runs run_sweep -> write_csv -> records_to_csv,
        # each once; a tracer that wraps these public names (rebinding them
        # in every loaded entdisc module) then times one span of each
        calls = {"run_sweep": 0, "write_csv": 0, "records_to_csv": 0}
        for name in calls:
            original = getattr(entdisc.sweep, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if module_name == "entdisc" or module_name.startswith("entdisc."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, key, counted)
        # and it formats the columns without building a record per point
        monkeypatch.setattr(entdisc.sweep, "SweepRecord", None)
        target = tmp_path / "scan.csv"
        assert main(["sweep", "--mode", "assist", "--grid-n", "5", "--out", str(target)]) == 0
        assert calls == {"run_sweep": 1, "write_csv": 1, "records_to_csv": 1}
        monkeypatch.undo()
        assert target.read_text(encoding="utf-8") == records_to_csv(run_sweep("assist", 5))
