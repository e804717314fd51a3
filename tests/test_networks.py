"""Tests for the NSNet2/AlexNet network-level drivers."""

import pytest

from repro.kernels import OracleMismatch, networks


class TestLayerConfigs:
    def test_nsnet2_layer_mix(self):
        layers = networks.nsnet2_layers()
        names = [layer.name for layer in layers]
        assert names[0] == "fc1"
        kinds = {layer.builder.__name__ for layer in layers}
        # matmuls + activations + an elementwise combine
        assert "matmul" in kinds and "relu" in kinds
        assert "sum_kernel" in kinds

    def test_alexnet_layer_mix(self):
        layers = networks.alexnet_layers()
        kinds = [layer.builder.__name__ for layer in layers]
        assert "conv3x3" in kinds
        assert "max_pool3x3" in kinds
        assert kinds.count("matmul") == 2  # the FC head

    def test_shapes_fit_tcdm(self):
        """Paper Section 4.1: operands must fit the 128 KiB TCDM."""
        for layers in (
            networks.nsnet2_layers(),
            networks.alexnet_layers(),
        ):
            for layer in layers:
                _, spec = layer.build()
                total = sum(
                    a.shape and __import__("numpy").prod(a.shape) * 8
                    or 0
                    for a in spec.arguments
                    if hasattr(a, "shape")
                )
                assert total < 128 * 1024, layer.name


class TestRunNetwork:
    def test_nsnet2_runs_and_validates(self):
        result = networks.run_network(
            "NSNet2", networks.nsnet2_layers(width=20)
        )
        assert len(result.layers) == 9
        assert result.total_cycles > 0
        assert 0.5 < result.mean_utilization <= 1.0

    def test_alexnet_runs_and_validates(self):
        result = networks.run_network(
            "AlexNet", networks.alexnet_layers(tile=8)
        )
        assert result.total_flops > 0
        assert 0.5 < result.mean_utilization <= 1.0

    def test_ours_beats_baseline_at_network_level(self):
        layers = networks.nsnet2_layers(width=20)
        ours = networks.run_network("n", layers, pipeline="ours")
        base = networks.run_network("n", layers, pipeline="clang")
        assert base.total_cycles > 3 * ours.total_cycles

    def test_report_format(self):
        result = networks.run_network(
            "NSNet2", networks.nsnet2_layers(width=20)
        )
        text = result.report()
        assert "NSNet2" in text
        assert "fc1" in text

    def test_validation_catches_mismatch(self, monkeypatch):
        layers = networks.nsnet2_layers(width=20)[:1]
        import numpy as np

        module, spec = layers[0].build()
        real_reference = spec.reference

        def bad_builder(*sizes):
            module, spec = networks.builders.matmul(*sizes)
            spec.reference = lambda *args: [
                None,
                None,
                real_reference(*args)[2] + 1.0,
            ]
            return module, spec

        layers[0].builder = bad_builder
        with pytest.raises(OracleMismatch, match="argument 2"):
            networks.run_network("n", layers)
