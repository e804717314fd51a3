"""Tests for the command-line kernel compiler."""

import os
import subprocess
import sys

import pytest

from repro.tools import kernel_compiler


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
