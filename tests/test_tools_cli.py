"""Tests for the command-line kernel compiler."""

import os
import subprocess
import sys

import pytest

from repro.tools import kernel_compiler, kernel_profiler, kernel_tuner


class TestArgumentParsing:
    def test_defaults(self):
        args = kernel_compiler.build_argument_parser().parse_args(
            ["matmul", "1", "8", "4"]
        )
        assert args.pipeline == "ours"
        assert not args.run
        assert args.sizes == [1, 8, 4]

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            kernel_compiler.build_argument_parser().parse_args(
                ["fft", "8"]
            )

    def test_wrong_arity_rejected(self):
        with pytest.raises(SystemExit):
            kernel_compiler.compile_kernel(
                "matmul", [8], "ours", None, False
            )


class TestMain:
    def test_compile_only(self, capsys):
        assert kernel_compiler.main(["sum", "4", "4"]) == 0
        out = capsys.readouterr().out
        assert ".globl sum" in out
        assert "frep.o" in out

    def test_run_and_validate(self, capsys):
        code = kernel_compiler.main(
            ["matmul", "1", "16", "4", "--run", "--no-asm"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "numpy check:     OK" in out
        assert "fpu utilization" in out

    def test_compare_pipelines(self, capsys):
        code = kernel_compiler.main(
            ["relu", "8", "8", "--compare", "clang", "--no-asm"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "faster than" in out

    def test_count_bytecodes(self, capsys):
        code = kernel_compiler.main(
            ["matvec", "4", "8", "--count-bytecodes", "--no-asm"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["bytecodes", "pass"]
        assert lines[1].split()[1] == "convert-linalg-to-memref-stream"
        assert lines[2].split()[1] == "verify"
        assert lines[-3].split()[1] == "(unattributed)"
        assert lines[-1].split()[1] == "total"
        counts = [int(line.split()[0]) for line in lines[1:-2]]
        assert sum(counts) == int(lines[-1].split()[0])

    def test_show_stages(self, capsys):
        code = kernel_compiler.main(
            ["matvec", "5", "20", "--show-stages", "--no-asm"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "after convert-linalg-to-memref-stream" in out
        assert "memref_stream.generic" in out

    def test_unroll_override(self, capsys):
        kernel_compiler.main(
            ["matmul", "1", "16", "4", "--unroll-factor", "2"]
        )
        out = capsys.readouterr().out
        # Two accumulators: the peeled first step, then the FREP body.
        assert out.count("fmadd.d") == 4

    def test_missing_kernel_rejected(self):
        with pytest.raises(SystemExit):
            kernel_compiler.main([])


class TestPipelineSpecs:
    def test_raw_spec_accepted(self, capsys):
        from repro.transforms.pipelines import NAMED_PIPELINES

        code = kernel_compiler.main(
            [
                "sum", "4", "4",
                "--pipeline", NAMED_PIPELINES["table3-streams"],
                "--run", "--no-asm",
            ]
        )
        assert code == 0
        assert "numpy check:     OK" in capsys.readouterr().out

    def test_spec_with_option_accepted(self, capsys):
        spec = (
            "convert-linalg-to-memref-stream,fuse-fill,"
            "scalar-replacement,unroll-and-jam{factor=2},"
            "lower-to-snitch,verify-streams,"
            "lower-snitch-stream,canonicalize,dce,allocate-registers,"
            "lower-riscv-scf,eliminate-identity-moves"
        )
        code = kernel_compiler.main(
            ["matmul", "1", "16", "4", "--pipeline", spec]
        )
        assert code == 0
        assert capsys.readouterr().out.count("fmadd.d") == 4

    def test_allocation_before_stream_lowering_refused(self):
        spec = (
            "convert-linalg-to-memref-stream,lower-to-snitch,"
            "verify-streams,allocate-registers,lower-snitch-stream,"
            "canonicalize,dce,lower-riscv-scf,eliminate-identity-moves"
        )
        with pytest.raises(SystemExit) as info:
            kernel_compiler.main(
                ["sum", "4", "4", "--pipeline", spec, "--no-asm"]
            )
        assert str(info.value) == (
            "compilation failed: op snitch_stream.streaming_region "
            "cannot be register-allocated; run lower-snitch-stream "
            "before allocate-registers"
        )

    def test_bad_pipeline_rejected_with_message(self, capsys):
        with pytest.raises(SystemExit) as info:
            kernel_compiler.main(
                ["sum", "4", "4", "--pipeline", "unroll-and-jamm"]
            )
        assert "unknown pipeline" in str(info.value)
        assert "did you mean unroll-and-jam" in str(info.value)

    def test_list_pipelines(self, capsys):
        from repro.transforms.pipelines import NAMED_PIPELINES

        assert kernel_compiler.main(["--list-pipelines"]) == 0
        out = capsys.readouterr().out
        for name, spec in NAMED_PIPELINES.items():
            assert name in out
            assert spec in out

    def test_list_dialects_memref_stream_holds_generic_and_yield(
        self, capsys
    ):
        assert kernel_compiler.main(["--list-dialects"]) == 0
        rows = {
            line.split()[0]: line.split()[1]
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        }
        assert rows["memref_stream"] == "2"
        assert rows["snitch_stream"] == "1"

    def test_print_ir_after_all(self, capsys):
        code = kernel_compiler.main(
            ["sum", "4", "4", "--print-ir-after-all", "--no-asm"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "// -----// IR after convert-linalg-to-memref-stream" in (
            out
        )
        assert "// -----// IR after eliminate-identity-moves" in out


class TestSizeChecks:
    """One size check (``tune.schedule.resolve_kernel``) behind every
    CLI: a negative size is refused by name, before anything is built,
    and a compile failure is one line with a non-zero exit."""

    def test_compiler_refuses_negative_size(self):
        with pytest.raises(SystemExit, match="must be non-negative, got -1 4"):
            kernel_compiler.main(["relu", "-1", "4"])

    def test_profiler_refuses_negative_size(self):
        with pytest.raises(
            SystemExit, match="must be non-negative, got 1 -2 4"
        ):
            kernel_profiler.main(["matmul", "1", "-2", "4"])

    def test_tuner_refuses_negative_size(self, capsys):
        code = kernel_tuner.main(["matmul", "-1", "4", "4", "--no-cache"])
        assert code == 3
        assert capsys.readouterr().err == (
            "tuning failed: kernel 'matmul' sizes must be non-negative, "
            "got -1 4 4\n"
        )

    def test_profiler_wrong_arity(self):
        with pytest.raises(SystemExit, match="takes 3 sizes, got 1"):
            kernel_profiler.main(["matmul", "4"])

    def test_profiler_reports_compile_failure(self):
        with pytest.raises(SystemExit, match="^compilation failed: "):
            kernel_profiler.main(
                [
                    "sum", "4", "4", "--pipeline",
                    "convert-linalg-to-memref-stream,allocate-registers",
                ]
            )

    def test_zero_size_still_compiles(self, capsys):
        assert kernel_compiler.main(["relu", "0", "4"]) == 0
        assert ".globl relu" in capsys.readouterr().out


class TestNumpyCheck:
    """A result that mismatches the numpy oracle is reported as one
    line naming the argument and its worst error, with a non-zero
    exit — never a traceback."""

    @pytest.mark.parametrize(
        "main, argv",
        [
            (kernel_profiler.main, ["relu", "4", "8"]),
            (kernel_compiler.main, ["relu", "4", "8", "--run", "--no-asm"]),
        ],
        ids=["profiler", "compiler"],
    )
    def test_mismatch_exits_with_one_line(self, main, argv, break_reference):
        break_reference("relu")
        with pytest.raises(SystemExit) as info:
            main(argv)
        message = info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(
            "numpy check failed: relu: argument 1 does not match the "
            "numpy oracle: worst error 1 at "
        )


class TestSmoke:
    def test_module_invocation_compiles_and_runs(self):
        """CI smoke: the documented command line works end to end."""
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(__file__), "..", "src"
        )
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.tools.kernel_compiler",
                "matmul", "1", "200", "5",
                "--pipeline", "ours", "--run", "--no-asm",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "numpy check:     OK" in proc.stdout
