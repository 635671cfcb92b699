"""CLI integration: every subcommand runs and prints the expected shape."""

import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.hardware import get_machine


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCLI:
    def test_systems(self, capsys):
        code, out = run_cli(capsys, "systems")
        assert code == 0
        for name in ("Sunspot", "Crusher", "Polaris", "Summit"):
            assert name in out
        assert "BabelStream" in out

    def test_proxy(self, capsys):
        code, out = run_cli(
            capsys, "proxy", "--scale", "0.5", "--ranks", "2",
            "--steps", "50",
        )
        assert code == 0
        assert "MFLUPS" in out and "Poiseuille" in out

    def test_proxy_takes_every_tier_flag(self, hard_time_bound):
        """One registration: ``proxy`` parses what ``harvey`` parses and
        runs the flagship tier, closing its workers and segments."""
        from repro.models.compiled import compiled_available
        from repro.runtime.procexec import fork_available
        from repro.runtime.shmem import leaked_segments

        tier = [
            "--overlap", "--executor", "process", "--sanitize",
            "--backend", "compiled-serial", "--stall-timeout", "30",
            "--postmortem-out", "pm.json",
        ]
        parser = build_parser()
        for verb in ("proxy", "harvey"):
            args = parser.parse_args([verb, *tier])
            assert (args.executor, args.backend) == (
                "process", "compiled-serial",
            )
            assert args.overlap and args.sanitize
            assert args.stall_timeout == 30.0
        if not (fork_available() and compiled_available()):
            pytest.skip("needs fork and a compiled kernel provider")
        # a child process: loading the fastmath kernels here would set
        # flush-to-zero for every later test in this interpreter
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "proxy", "--scale", "0.5",
                "--ranks", "2", "--steps", "20", "--executor", "process",
                "--overlap", "--backend", "compiled-serial",
            ],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert "proxy: scale=0.5 ranks=2 steps=20" in result.stdout
        assert "Poiseuille agreement=" in result.stdout
        assert leaked_segments() == []

    @pytest.mark.parametrize("verb", ["harvey", "proxy"])
    @pytest.mark.parametrize(
        "tier",
        [
            ["--backend", "compiled", "--sanitize"],
            ["--executor", "process", "--backend", "compiled-parallel"],
        ],
        ids=["sanitize-compiled", "process-parallel"],
    )
    def test_rejected_tier_is_an_error_line(self, capsys, verb, tier):
        code = main([verb, *tier])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["harvey", "--quick", "--steps", "0"],
            ["proxy", "--steps", "0"],
            ["lint", "--select", "Z"],
            ["lint", "--baseline", "missing.json"],
            ["harvey", "--quick", "--executor", "process", "--ranks", "2",
             "--stall-timeout", "nan"],
            ["harvey", "--quick", "--resolution", "nan"],
            ["profile", "run", "--bandwidth", "nan"],
            ["profile", "run", "--bandwidth", "inf"],
            ["sensitivity", "--sites-per-gpu", "nan"],
            ["sensitivity", "--sites-per-gpu", "inf"],
            ["sensitivity", "--sites-per-gpu", "0"],
            ["sensitivity", "--sites-per-gpu", "-1"],
            ["ablation", "--spacing", "nan"],
            ["ablation", "--spacing", "0"],
            ["ablation", "--spacing", "inf"],
            ["ablation", "--gpus", "0"],
            ["portability", "--gpus", "0"],
            ["portability", "--gpus", "3"],
            ["lint", "--select", "S301"],
        ],
        ids=["harvey-steps-0", "proxy-steps-0", "lint-unknown-rule",
             "lint-missing-baseline", "harvey-stall-timeout-nan",
             "harvey-resolution-nan", "profile-bandwidth-nan",
             "profile-bandwidth-inf", "sensitivity-sites-nan",
             "sensitivity-sites-inf", "sensitivity-sites-0",
             "sensitivity-sites-negative", "ablation-spacing-nan",
             "ablation-spacing-0", "ablation-spacing-inf",
             "ablation-gpus-0", "portability-gpus-0", "portability-gpus-3",
             "lint-retired-schedule-rule"],
    )
    def test_bad_input_is_an_error_line(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        """One ``error:`` line and exit 2, never a traceback; a step
        count below 1 or a non-finite value is refused before any
        geometry is built, and a number the performance model cannot
        price is refused too."""
        import repro.harvey

        def no_app(*args, **kwargs):
            raise AssertionError("built the app for a refused input")

        monkeypatch.setattr(repro.harvey, "HarveyApp", no_app)
        monkeypatch.chdir(tmp_path)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_harvey(self, capsys):
        code, out = run_cli(
            capsys, "harvey", "--workload", "aorta", "--resolution", "2.5",
            "--ranks", "2", "--steps", "10",
        )
        assert code == 0
        assert "imbalance" in out

    def test_scaling_single_system(self, capsys):
        code, out = run_cli(
            capsys, "scaling", "--workload", "cylinder", "--system", "Crusher"
        )
        assert code == 0
        assert "Crusher" in out and "Prediction" in out and "Proxy" in out

    def test_backends(self, capsys):
        code, out = run_cli(
            capsys, "backends", "--system", "Sunspot", "--workload", "cylinder"
        )
        assert code == 0
        assert "application efficiency" in out
        assert "kokkos-sycl" in out

    def test_composition(self, capsys):
        code, out = run_cli(capsys, "composition")
        assert code == 0
        assert "runtime composition" in out
        assert "Streamcollide" in out.replace("streamcollide", "Streamcollide")

    def test_porting(self, capsys):
        code, out = run_cli(capsys, "porting")
        assert code == 0
        assert "80.45" in out
        assert "Table 3" in out

    def test_portability(self, capsys):
        code, out = run_cli(capsys, "portability", "--gpus", "16")
        assert code == 0
        assert "kokkos (any backend)" in out

    def test_portability_refuses_a_count_off_the_schedule(self, capsys):
        code = main(["portability", "--gpus", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error: 3 GPUs" in captured.err and "1024" in captured.err

    @pytest.mark.parametrize("verb", ["scaling", "backends", "ablation"])
    def test_system_resolves_in_any_case(self, verb):
        args = build_parser().parse_args([verb, "--system", "cRuShEr"])
        assert args.system is get_machine("Crusher")

    @pytest.mark.parametrize("verb", ["scaling", "backends", "ablation"])
    def test_unknown_system_is_an_argparse_error(self, capsys, verb):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "--system", "Foo"])
        assert exit_info.value.code == 2
        assert "unknown system 'Foo'" in capsys.readouterr().err

    def test_scaling_lowercase_system(self, capsys):
        code, out = run_cli(capsys, "scaling", "--system", "crusher")
        assert code == 0
        assert "Crusher" in out and "Sunspot" not in out

    def test_ablation(self, capsys):
        code, out = run_cli(
            capsys, "ablation", "--system", "Crusher", "--gpus", "32"
        )
        assert code == 0
        assert "halo_payload_all19" in out
        assert "block_decomposition" in out

    def test_sensitivity(self, capsys):
        code, out = run_cli(capsys, "sensitivity")
        assert code == 0
        assert "memory_bandwidth" in out

    def test_roofline(self, capsys):
        code, out = run_cli(capsys, "roofline")
        assert code == 0
        assert "memory" in out and "PVC" in out

    def test_parser_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["harvey", "--executor", "parallel"],
            ["profile", "run", "--executor", "parallel"],
        ],
    )
    def test_retired_parallel_executor_is_an_argparse_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "'lockstep', 'process'" in err and "parallel" in err

    @pytest.mark.parametrize(
        "argv", [["bench", "kernels"], ["bench", "overlap"], ["perf", "gate"]]
    )
    def test_retired_bench_verbs_are_argparse_errors(self, capsys, argv):
        # the ladder (benchmarks/ladder/run.py) is the one benchmark and gate
        parser = build_parser()
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        usage = parser.format_usage()
        verbs = usage[usage.index("{") + 1 : usage.index("}")].split(",")
        assert "harvey" in verbs
        assert "bench" not in verbs and "perf" not in verbs
